"""Plant data and the log-magnitude / phase view of the characteristic function.

The characteristic function of the closed loop is

    f(s, lam) = 1 + lam * G(s) * exp(-h*s)     (gain locus)
    f(s, lam) = 1 + G(s) * exp(-lam*s)         (delay locus)

All solving happens on the log decomposition (M, P) of ``k*G(s)*exp(-h*s)``;
the Cartesian form is only used for residual checks.  The same view on a
boundary line Re(s) = a, as functions of omega, is ``critical.BoundaryLine``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import PoleZeroProximityError, ValidationError

#: reject plants beyond this pole+zero count: the delay starts and branch
#: candidates come from expanded polynomials of up to that degree, whose
#: companion-matrix roots degrade as it grows (``rootfind.rational_zeros``).
MAX_POLE_ZERO_COUNT = 60

_TWO_PI = 2.0 * math.pi


def wrap_angle(x: float) -> float:
    """Wrap an angle to (-pi, pi].  ``LocusProblem.mp`` inlines these lines."""
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


def _check_clear(sigma: float, omega: float, tol: float, v: complex, word: str) -> None:
    """Raise PoleZeroProximityError when s = sigma + j omega lies within
    ``tol`` of the pole or zero ``v`` (``word``): abs(s - v) of the complex
    difference (math.hypot rounds apart from it now and then).  ``mp`` calls
    it where q = |s - v|^2 passes its ``q < near`` prefilter, which
    abs(s - v) < tol implies whatever the rounding."""
    s = complex(sigma, omega)
    if abs(s - v) < tol:
        raise PoleZeroProximityError(f"point {s} is within {tol:g} of {word} {v}")


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
        # search evaluates G (the phase offset of ``critical.BoundaryLine``)
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
        # per-problem constants of ``mp``, which walks the zeros and poles as
        # (Re v, Im v, v), the same floats ``s - v`` takes
        object.__setattr__(self, "_gain", self.kind is LocusKind.GAIN)
        object.__setattr__(self, "_log_gain", math.log(abs(self.plant.gain)))
        object.__setattr__(self, "_gain_angle", 0.0 if self.plant.gain > 0 else math.pi)
        for name, values in (("_zero_parts", self.plant.zeros), ("_pole_parts", self.plant.poles)):
            object.__setattr__(self, name, tuple((v.real, v.imag, v) for v in values))

    def effective_h(self, lam: float) -> float:
        """Exponent coefficient of the dead-time term at locus parameter lam."""
        return self.plant.delay if self.kind is LocusKind.GAIN else lam

    def f_lambda(self, s: complex, lam: float) -> complex:
        """df/dlam at a root of f: -1/lam on a gain locus, s on a delay locus."""
        return -1.0 / lam if self.kind is LocusKind.GAIN else complex(s)

    def mp(self, sigma: float, omega: float, lam: float) -> tuple[float, float]:
        """Corrector residuals (M, P) at s = sigma + j omega, in one pass over
        the zeros, then the poles, on plain floats: s - v is (sigma - Re v,
        omega - Im v), as complex subtraction forms it.  M = ln|k G(s) e^{-hs}|
        and P, the phase of G e^{-hs} relative to pi, wrapped as ``wrap_angle``
        wraps it; k, h are lam > 0 and the dead time (gain locus) or 1 and lam
        (delay locus), whose ln k = +0.0 is left out.  Raises
        PoleZeroProximityError, through ``_check_clear``, within 1e-9 (1 + |s|)
        of a pole or zero.  ``cartesian_residual`` and the corrector's
        ``_mp_jacobian`` enter here."""
        sigma, omega = float(sigma), float(omega)  # as complex(sigma, omega) takes them
        tol = 1e-9 * (1.0 + abs(complex(sigma, omega)))
        near = tol * tol * (1.0 + 1e-12)
        log, atan2 = math.log, math.atan2
        if self._gain:
            h = self.plant.delay
            m = self._log_gain + log(lam) - h * sigma
        else:
            h = lam
            m = self._log_gain - h * sigma
        p = self._gain_angle - h * omega - math.pi
        # x ** 2 (libm pow), not x * x: the two round apart now and then, and
        # the traced locus is kept bit-stable
        for vr, vi, v in self._zero_parts:
            x = sigma - vr
            y = omega - vi
            q = x ** 2 + y ** 2
            if q < near:
                _check_clear(sigma, omega, tol, v, "zero")
            m += 0.5 * log(q)
            p += atan2(y, x)
        for vr, vi, v in self._pole_parts:
            x = sigma - vr
            y = omega - vi
            q = x ** 2 + y ** 2
            if q < near:
                _check_clear(sigma, omega, tol, v, "pole")
            m -= 0.5 * log(q)
            p -= atan2(y, x)
        p = math.remainder(p, _TWO_PI)
        if p <= -math.pi:
            p += _TWO_PI
        return m, p

    def log_derivative(self, s: complex) -> complex:
        """G'(s)/G(s): (1 + 0j)/(s - v), the quotient 1.0/(s - v) takes, summed
        over the zeros, then less over the poles.  No proximity check: a caller
        near a pole or zero takes ``mp`` at s first, which raises there."""
        u = 0.0 + 0.0j
        for v in self.plant.zeros:
            u += (1 + 0j) / (s - v)
        for v in self.plant.poles:
            u -= (1 + 0j) / (s - v)
        return u

    def cartesian_residual(self, sigma: float, omega: float, lam: float) -> float:
        """|f(s, lam)| computed stably from the log form (equals |1 - e^{M+jP}|);
        inf where e^M overflows."""
        m, p = self.mp(sigma, omega, lam)
        try:
            return abs(1.0 - cmath.exp(complex(m, p)))
        except OverflowError:
            return math.inf
