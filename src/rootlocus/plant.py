"""Plant data and the log-magnitude / phase view of the characteristic function.

The characteristic function of the closed loop is

    f(s, lam) = 1 + lam * G(s) * exp(-h*s)     (gain locus)
    f(s, lam) = 1 + G(s) * exp(-lam*s)         (delay locus)

All solving happens on the log decomposition (M, P) of ``k*G(s)*exp(-h*s)``;
the Cartesian form is only used for residual checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import PoleZeroProximityError, ValidationError

#: reject plants beyond this pole+zero count: the delay starts and branch
#: candidates come from expanded polynomials of up to that degree, whose
#: companion-matrix roots degrade as it grows (``rootfind.rational_zeros``).
MAX_POLE_ZERO_COUNT = 60

_TWO_PI = 2.0 * math.pi


def wrap_angle(x: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    y = math.remainder(x, _TWO_PI)
    if y <= -math.pi:
        y += _TWO_PI
    return y


class LocusKind(Enum):
    GAIN = "gain"
    DELAY = "delay"


def _is_conjugate_symmetric(values: tuple[complex, ...], tol: float) -> bool:
    pool = list(values)
    while pool:
        v = pool.pop()
        if abs(v.imag) <= tol:
            continue
        best = None
        for i, w in enumerate(pool):
            d = abs(w - v.conjugate())
            if d <= tol and (best is None or d < best[1]):
                best = (i, d)
        if best is None:
            return False
        pool.pop(best[0])
    return True


@dataclass(frozen=True)
class Plant:
    """Rational SISO plant in series with a pure dead time.

    G(s) = gain * prod(s - z_r) / prod(s - p_i),   delay h > 0.
    """

    zeros: tuple[complex, ...]
    poles: tuple[complex, ...]
    gain: float
    delay: float
    conjugate_symmetric: bool = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "zeros", tuple(complex(z) for z in self.zeros))
        object.__setattr__(self, "poles", tuple(complex(p) for p in self.poles))
        object.__setattr__(self, "gain", float(self.gain))
        object.__setattr__(self, "delay", float(self.delay))
        if len(self.poles) < len(self.zeros):
            raise ValidationError(
                f"plant must be proper: {len(self.poles)} poles < {len(self.zeros)} zeros"
            )
        if not all(map(cmath.isfinite, self.poles + self.zeros)):
            raise ValidationError("plant poles and zeros must be finite")
        if self.gain == 0.0 or not math.isfinite(self.gain):
            raise ValidationError(f"plant gain must be finite and nonzero, got {self.gain}")
        if not 0.0 < self.delay < math.inf:
            raise ValidationError(f"dead time must be positive and finite, got {self.delay}")
        if len(self.poles) + len(self.zeros) > MAX_POLE_ZERO_COUNT:
            raise ValidationError(
                f"pole+zero count {len(self.poles) + len(self.zeros)} exceeds "
                f"the supported maximum {MAX_POLE_ZERO_COUNT}"
            )
        scale = max([1.0] + [abs(v) for v in self.poles + self.zeros])
        sym = _is_conjugate_symmetric(self.zeros, 1e-9 * scale) and _is_conjugate_symmetric(
            self.poles, 1e-9 * scale
        )
        object.__setattr__(self, "conjugate_symmetric", sym)

    @property
    def biproper(self) -> bool:
        return len(self.poles) == len(self.zeros)

    def transfer(self, s: complex) -> complex:
        """Evaluate G(s).  Raises near poles."""
        tol = 1e-9 * (1.0 + abs(s))
        for p in self.poles:
            if abs(s - p) < tol:
                raise PoleZeroProximityError(f"point {s} is within {tol:g} of pole {p}")
        num = self.gain
        for z in self.zeros:
            num *= s - z
        den = 1.0 + 0.0j
        for p in self.poles:
            den *= s - p
        return num / den


def eval_char_fn(plant: Plant, kind: LocusKind, s: complex, lam: float) -> complex:
    """Characteristic function in Cartesian form; residual checks only."""
    s = complex(s)
    g = plant.transfer(s)
    if kind is LocusKind.GAIN:
        return 1.0 + lam * g * cmath.exp(-plant.delay * s)
    return 1.0 + g * cmath.exp(-lam * s)


# The boundary functions below take a float or an array omega down the same
# lines: a float stays a Python float and only np.log / np.arctan go through
# numpy, whose results agree bit for bit on scalars and arrays (math.log and
# math.atan do not).  The omega term t is squared as t * t, as numpy squares
# an array; ** 2 on a float calls libm pow, which rounds apart now and then.
# The in-place operators spare a grid pass its temporaries (the delay psi'
# scan evaluates Lambda, Lambda' and phi' on up to 4e5 points) and simply
# rebind a float.


def _zero_like(omega):
    """+0.0 in the shape of ``omega``: a float for a float, an array for an array."""
    return 0.0 * abs(omega)


def _plain(acc):
    """``acc`` with a numpy scalar turned into a Python float of the same bits."""
    return acc if isinstance(acc, np.ndarray) else float(acc)


def big_lambda(plant: Plant, sigma0: float, omega):
    """Boundary log-magnitude h*sigma0 - ln|G(sigma0 + j omega)|.

    exp(big_lambda(omega)) is the gain at which a characteristic root can sit
    at sigma0 + j omega.  A float gives a float, an array an array, same bits.
    """
    acc = plant.delay * sigma0 - math.log(abs(plant.gain)) + _zero_like(omega)
    for p in plant.poles:
        q = omega - p.imag
        q *= q
        q += (sigma0 - p.real) ** 2
        acc += 0.5 * np.log(q)
    for z in plant.zeros:
        q = omega - z.imag
        q *= q
        q += (sigma0 - z.real) ** 2
        acc -= 0.5 * np.log(q)
    return _plain(acc)


def big_lambda_prime(plant: Plant, sigma0: float, omega):
    """First derivative of ``big_lambda`` with respect to omega (h-free).

    A float gives a float, an array an array, same bits.
    """
    acc = _zero_like(omega)
    for p in plant.poles:
        t = omega - p.imag
        q = t * t
        q += (sigma0 - p.real) ** 2
        t /= q
        acc += t
    for z in plant.zeros:
        t = omega - z.imag
        q = t * t
        q += (sigma0 - z.real) ** 2
        t /= q
        acc -= t
    return acc


def _phi1(plant: Plant, sigma0: float, omega, h: float):
    """The boundary phase phi of G e^{-hs} on Re(s) = sigma0 without its
    constant offset ``phi_offset``; exactly 0 at omega = 0.  A float gives a
    float, an array an array, same bits."""
    acc = -h * omega
    for z in plant.zeros:
        acc += np.arctan((omega - z.imag) / (sigma0 - z.real))
    for p in plant.poles:
        acc -= np.arctan((omega - p.imag) / (sigma0 - p.real))
    # at omega = 0 the terms of a conjugate pair cancel exactly only when the
    # pair is summed back to back; the sum is 0 in any listing order
    acc *= omega != 0
    return _plain(acc)


def phi_offset(plant: Plant, sigma0: float) -> float:
    """Phase offset in {0, pi}: angle(G(sigma0)), the phase at omega = 0."""
    ang = cmath.phase(plant.transfer(complex(sigma0, 0.0)))
    return math.pi if abs(wrap_angle(ang - math.pi)) < abs(wrap_angle(ang)) else 0.0


def phi_prime(plant: Plant, sigma0: float, omega, h: float):
    """First derivative of the boundary phase phi with respect to omega.

    A float gives a float, an array an array, same bits.
    """
    acc = -h - _zero_like(omega)  # minus: -0.0 at h = 0 stays -0.0
    for z in plant.zeros:
        q = omega - z.imag
        q *= q
        q += (sigma0 - z.real) ** 2
        acc += (sigma0 - z.real) / q
    for p in plant.poles:
        q = omega - p.imag
        q *= q
        q += (sigma0 - p.real) ** 2
        acc -= (sigma0 - p.real) / q
    return acc


@dataclass(frozen=True)
class LocusProblem:
    """A root-locus computation request: plant, locus kind, region and bound."""

    kind: LocusKind
    sigma0: float
    lambda_max: float
    plant: Plant

    def __post_init__(self):
        object.__setattr__(self, "sigma0", float(self.sigma0))
        object.__setattr__(self, "lambda_max", float(self.lambda_max))
        if not -math.inf < self.sigma0 < 0.0:
            raise ValidationError(
                f"region abscissa sigma0 must be negative and finite, got {self.sigma0}"
            )
        if not 0.0 < self.lambda_max < math.inf:
            raise ValidationError(
                f"lambda_max must be positive and finite, got {self.lambda_max}"
            )
        if not self.plant.conjugate_symmetric:
            raise ValidationError(
                "plant poles and zeros must come in complex-conjugate pairs: the "
                "crossing search scans only omega >= 0 and mirrors what it finds"
            )
        # the proximity tolerance of transfer at s = sigma0, where the crossing
        # search evaluates G (phi_offset)
        tol = 1e-9 * (1.0 + abs(self.sigma0))
        for word, values in (("pole", self.plant.poles), ("zero", self.plant.zeros)):
            for v in values:
                if abs(v.real - self.sigma0) < tol:
                    raise ValidationError(
                        f"{word} {v} lies on the region boundary Re(s) = {self.sigma0}; "
                        "crossing computations require pole/zero-free boundaries"
                    )
        if self.plant.biproper:
            d = abs(self.plant.gain)
            if self.kind is LocusKind.GAIN:
                bound = math.exp(self.plant.delay * self.sigma0) / d
                if not self.lambda_max < bound:
                    raise ValidationError(
                        "biproper plant: asymptotic root chains of the neutral closed "
                        f"loop lie outside the region only for lambda_max < "
                        f"exp(h*sigma0)/|G(inf)| = {bound:.6g}; got {self.lambda_max}"
                    )
            else:
                bound = max(0.0, math.log(d) / abs(self.sigma0))
                if not self.lambda_max < bound:
                    raise ValidationError(
                        "biproper plant: the delay locus has finitely many roots in the "
                        f"region only for lambda_max < max(0, ln|G(inf)|/|sigma0|) = "
                        f"{bound:.6g}; got {self.lambda_max}"
                    )
        # per-plant constants of ``evaluate``
        object.__setattr__(self, "_log_gain", math.log(abs(self.plant.gain)))
        object.__setattr__(self, "_gain_angle", 0.0 if self.plant.gain > 0 else math.pi)

    def effective_h(self, lam: float) -> float:
        """Exponent coefficient of the dead-time term at locus parameter lam."""
        return self.plant.delay if self.kind is LocusKind.GAIN else lam

    def f_lambda(self, s: complex, lam: float) -> complex:
        """df/dlam at a root of f: -1/lam on a gain locus, s on a delay locus."""
        return -1.0 / lam if self.kind is LocusKind.GAIN else complex(s)

    def evaluate(
        self, sigma: float, omega: float, lam: float, with_u: bool = True
    ) -> tuple[float, float, complex | None]:
        """(M, P, G'/G) at sigma + j omega in one pass over the zeros, then the poles.

        M = ln|k G(s) e^{-h s}| and P, the phase of G e^{-h s} relative to pi
        wrapped to (-pi, pi], are the corrector residuals of ``mp``; k and h
        are lam > 0 and the dead time (gain locus) or 1 and lam (delay locus).
        ``with_u`` false skips the G'/G sum, which then reads None: the pass
        of ``mp``.  Raises PoleZeroProximityError within 1e-9 (1 + |s|) of a
        pole or zero.
        """
        plant = self.plant
        k, h = (lam, plant.delay) if self.kind is LocusKind.GAIN else (1.0, lam)
        s = complex(sigma, omega)
        tol = 1e-9 * (1.0 + abs(s))
        # abs(d) < tol implies q < near whatever the rounding: abs(d) runs only then
        near = tol * tol * (1.0 + 1e-12)
        log, atan2 = math.log, math.atan2
        m = self._log_gain + log(k) - h * sigma
        p = self._gain_angle - h * omega - math.pi
        u = 0.0 + 0.0j if with_u else None
        # x ** 2 (libm pow), not x * x: the two round apart now and then, and
        # the traced locus is kept bit-stable
        for z in plant.zeros:
            d = s - z
            x, y = d.real, d.imag
            q = x ** 2 + y ** 2
            if q < near and abs(d) < tol:
                raise PoleZeroProximityError(f"point {s} is within {tol:g} of zero {z}")
            m += 0.5 * log(q)
            p += atan2(y, x)
            if with_u:
                u += 1.0 / d
        for z in plant.poles:
            d = s - z
            x, y = d.real, d.imag
            q = x ** 2 + y ** 2
            if q < near and abs(d) < tol:
                raise PoleZeroProximityError(f"point {s} is within {tol:g} of pole {z}")
            m -= 0.5 * log(q)
            p -= atan2(y, x)
            if with_u:
                u -= 1.0 / d
        return m, wrap_angle(p), u

    def mp(self, sigma: float, omega: float, lam: float) -> tuple[float, float]:
        """Corrector residual pair (M, P) at a point of the locus equation."""
        return self.evaluate(sigma, omega, lam, False)[:2]

    def cartesian_residual(self, sigma: float, omega: float, lam: float) -> float:
        """|f(s, lam)| computed stably from the log form (equals |1 - e^{M+jP}|);
        inf where e^M overflows."""
        m, p = self.mp(sigma, omega, lam)
        try:
            return abs(1.0 - cmath.exp(complex(m, p)))
        except OverflowError:
            return math.inf
