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

#: reject plants beyond this pole+zero count; the boundary polynomials have
#: roughly twice that degree and companion conditioning degrades beyond it.
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

    def gain_angle(self) -> float:
        """Angle of the plant gain; the gain is restricted to real values."""
        return 0.0 if self.gain > 0 else math.pi


def eval_char_fn(plant: Plant, kind: LocusKind, s: complex, lam: float) -> complex:
    """Characteristic function in Cartesian form; residual checks only."""
    s = complex(s)
    g = plant.transfer(s)
    if kind is LocusKind.GAIN:
        return 1.0 + lam * g * cmath.exp(-plant.delay * s)
    return 1.0 + g * cmath.exp(-lam * s)


def big_lambda(plant: Plant, sigma0: float, omega):
    """Boundary log-magnitude h*sigma0 - ln|G(sigma0 + j omega)|.

    exp(big_lambda(omega)) is the gain at which a characteristic root can sit
    at sigma0 + j omega.  Vectorized over ``omega``.
    """
    w = np.asarray(omega, dtype=float)
    acc = np.full(w.shape, plant.delay * sigma0 - math.log(abs(plant.gain)))
    for p in plant.poles:
        acc += 0.5 * np.log((sigma0 - p.real) ** 2 + (w - p.imag) ** 2)
    for z in plant.zeros:
        acc -= 0.5 * np.log((sigma0 - z.real) ** 2 + (w - z.imag) ** 2)
    return acc if acc.shape else float(acc)


def big_lambda_prime(plant: Plant, sigma0: float, omega):
    """First derivative of ``big_lambda`` with respect to omega (h-free)."""
    w = np.asarray(omega, dtype=float)
    acc = np.zeros(w.shape)
    for p in plant.poles:
        acc += (w - p.imag) / ((sigma0 - p.real) ** 2 + (w - p.imag) ** 2)
    for z in plant.zeros:
        acc -= (w - z.imag) / ((sigma0 - z.real) ** 2 + (w - z.imag) ** 2)
    return acc if acc.shape else float(acc)


def _phi1(plant: Plant, sigma0: float, omega, h: float):
    w = np.asarray(omega, dtype=float)
    acc = -h * w
    for z in plant.zeros:
        acc = acc + np.arctan((w - z.imag) / (sigma0 - z.real))
    for p in plant.poles:
        acc = acc - np.arctan((w - p.imag) / (sigma0 - p.real))
    return acc


def phi_offset(plant: Plant, sigma0: float) -> float:
    """Phase offset in {0, pi} aligning the continuous phase with angle(G(sigma0))."""
    ang = cmath.phase(plant.transfer(complex(sigma0, 0.0)))
    base = float(_phi1(plant, sigma0, 0.0, 0.0))
    best = 0.0
    if abs(wrap_angle(ang - base - math.pi)) < abs(wrap_angle(ang - base)):
        best = math.pi
    return best


def phi(plant: Plant, sigma0: float, omega, h: float | None = None):
    """Continuous (unwrapped) boundary phase of G e^{-hs} on Re(s) = sigma0.

    No modular reduction is applied; ``phi(0)`` equals angle(G(sigma0)) in
    {0, pi}.  ``h=0`` gives the unwrapped phase of G alone.  Vectorized.
    """
    if h is None:
        h = plant.delay
    acc = _phi1(plant, sigma0, omega, h) + phi_offset(plant, sigma0)
    return acc if np.asarray(omega).shape else float(acc)


def phi_prime(plant: Plant, sigma0: float, omega, h: float | None = None):
    """First derivative of ``phi`` with respect to omega."""
    if h is None:
        h = plant.delay
    w = np.asarray(omega, dtype=float)
    acc = np.full(w.shape, -float(h))
    for z in plant.zeros:
        acc += (sigma0 - z.real) / ((sigma0 - z.real) ** 2 + (w - z.imag) ** 2)
    for p in plant.poles:
        acc -= (sigma0 - p.real) / ((sigma0 - p.real) ** 2 + (w - p.imag) ** 2)
    return acc if acc.shape else float(acc)


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

    def effective_h(self, lam: float) -> float:
        """Exponent coefficient of the dead-time term at locus parameter lam."""
        return self.plant.delay if self.kind is LocusKind.GAIN else lam

    def evaluate(self, sigma: float, omega: float, lam: float) -> tuple[float, float, complex]:
        """(M, P, G'/G) at sigma + j omega in one pass over the zeros, then the poles.

        M = ln|k G(s) e^{-h s}| and P, the phase of G e^{-h s} relative to pi
        wrapped to (-pi, pi], are the corrector residuals of ``mp``; k and h
        are lam > 0 and the dead time (gain locus) or 1 and lam (delay locus).
        Raises PoleZeroProximityError within 1e-9 (1 + |s|) of a pole or zero.
        """
        plant = self.plant
        k, h = (lam, plant.delay) if self.kind is LocusKind.GAIN else (1.0, lam)
        s = complex(sigma, omega)
        tol = 1e-9 * (1.0 + abs(s))
        log, atan2 = math.log, math.atan2
        m = log(abs(plant.gain)) + log(k) - h * sigma
        p = plant.gain_angle() - h * omega - math.pi
        u = 0.0 + 0.0j
        # x ** 2 (libm pow), not x * x: the two round apart now and then, and
        # the traced locus is kept bit-stable
        for z in plant.zeros:
            d = s - z
            if abs(d) < tol:
                raise PoleZeroProximityError(f"point {s} is within {tol:g} of zero {z}")
            x, y = d.real, d.imag
            m += 0.5 * log(x ** 2 + y ** 2)
            p += atan2(y, x)
            u += 1.0 / d
        for q in plant.poles:
            d = s - q
            if abs(d) < tol:
                raise PoleZeroProximityError(f"point {s} is within {tol:g} of pole {q}")
            x, y = d.real, d.imag
            m -= 0.5 * log(x ** 2 + y ** 2)
            p -= atan2(y, x)
            u -= 1.0 / d
        return m, wrap_angle(p), u

    def mp(self, sigma: float, omega: float, lam: float) -> tuple[float, float]:
        """Corrector residual pair (M, P) at a point of the locus equation."""
        m, p, _ = self.evaluate(sigma, omega, lam)
        return m, p

    def cartesian_residual(self, sigma: float, omega: float, lam: float) -> float:
        """|f(s, lam)| computed stably from the log form (equals |1 - e^{M+jP}|)."""
        m, p = self.mp(sigma, omega, lam)
        return abs(1.0 - cmath.exp(complex(m, p)))
