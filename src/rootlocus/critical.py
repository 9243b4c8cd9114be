"""Critical points of the root locus: starts, branch points, boundary crossings."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import localmodel
from .errors import IllPosedCrossingError, PoleZeroProximityError
from .plant import (
    LocusKind,
    LocusProblem,
    Plant,
    _phi1,
    big_lambda,
    big_lambda_prime,
    phi_offset,
    phi_prime,
)
from .rootfind import (
    Bracket,
    bracketed_root,
    magnitude_extremum_freqs,
    phase_extremum_freqs,
    rational_zeros,
)

_GRAZE_TOL = 1e-10
_PHASE_RESIDUAL_TOL = 1e-8
_CLUSTER_TOL = 1e-8


class CriticalKind(Enum):
    START = "start"
    BRANCH = "branch"
    CROSSING_IN = "crossing_in"
    CROSSING_OUT = "crossing_out"


@dataclass
class CriticalPoint:
    kind: CriticalKind
    root: complex
    lam: float
    multiplicity: int = 1
    directions: list = field(default_factory=list)  # unit 3-vectors (Re s, Im s, lam)

    def key(self) -> tuple[float, float, float]:
        return (self.lam, self.root.imag, self.root.real)


@dataclass(frozen=True)
class MonotoneInterval:
    """Interval of boundary frequencies on which phi is strictly monotone."""

    lo: float
    hi: float
    phi_lo: float
    phi_hi: float


def dedup_points(points: list[CriticalPoint]) -> list[CriticalPoint]:
    """Sorted by key, dropping a point that repeats the kind, root and lam of
    any point already kept, within tolerance.

    The kept points come in ascending lam, so only the last of them can lie
    within the lam tolerance: the scan walks back from the newest kept point
    and stops at the first one 1e-10 or more below.  ``cp.lam - kept.lam`` is
    never negative and only grows along the walk (rounding is monotone), so
    this keeps exactly what a comparison with every kept point keeps.
    """
    points = sorted(points, key=CriticalPoint.key)
    out: list[CriticalPoint] = []
    for cp in points:
        for kept in reversed(out):
            if cp.lam - kept.lam >= 1e-10:
                out.append(cp)
                break
            if kept.kind is cp.kind and abs(cp.root - kept.root) < 1e-8:
                break
        else:
            out.append(cp)
    return out


def _with_mirrors(points: list[CriticalPoint], plant: Plant) -> list[CriticalPoint]:
    """Add the conjugate of every upper-half point when the plant is
    conjugate-symmetric; the crossing scans cover only omega >= 0."""
    if plant.conjugate_symmetric:
        points += [
            CriticalPoint(cp.kind, cp.root.conjugate(), cp.lam)
            for cp in points
            if cp.root.imag > 1e-12
        ]
    return points


def _merge_touching(pieces: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Join consecutive intervals whose ends meet within rounding."""
    merged: list[tuple[float, float]] = []
    for lo, hi in pieces:
        if merged and lo - merged[-1][1] < 1e-12 * (1.0 + abs(lo)):
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def _cluster_roots(roots: list[complex]) -> list[tuple[complex, int]]:
    """Group near-identical roots into (representative, multiplicity) pairs."""
    items = sorted(roots, key=lambda c: (c.real, c.imag))
    out: list[tuple[complex, int]] = []
    for r in items:
        if out and abs(r - out[-1][0]) < _CLUSTER_TOL * (1.0 + abs(r)):
            c, m = out[-1]
            out[-1] = ((c * m + r) / (m + 1), m + 1)
        else:
            out.append((r, 1))
    return out


def starting_points(problem: LocusProblem) -> list[CriticalPoint]:
    """Characteristic roots at lam = 0 inside the region, with multiplicity."""
    if problem.kind is LocusKind.GAIN:
        roots = [p for p in problem.plant.poles if p.real >= problem.sigma0]
    else:
        roots = [
            r
            for r in rational_zeros(problem.plant, "one_plus_g")
            if r.real >= problem.sigma0
        ]
    return [
        CriticalPoint(CriticalKind.START, r, 0.0, multiplicity=m)
        for r, m in _cluster_roots(roots)
    ]


def branch_point(
    problem: LocusProblem, s: complex, lam: float, min_multiplicity: int
) -> CriticalPoint:
    """The BRANCH point at (s, lam): its multiplicity, at least
    ``min_multiplicity``, and its up rays as directions."""
    n = max(localmodel.multiplicity(problem, s, lam), min_multiplicity)
    rays = localmodel.branch_rays(problem, s, lam, n)
    cp = CriticalPoint(CriticalKind.BRANCH, s, lam, multiplicity=n)
    cp.directions = [np.array([w.real, w.imag, 0.0]) for w in rays]
    return cp


def branch_points_gain(problem: LocusProblem) -> list[CriticalPoint]:
    """Gain-case branch points: zeros of G'/G - h on the locus, inside the region."""
    assert problem.kind is LocusKind.GAIN
    plant = problem.plant
    h = plant.delay
    out: list[CriticalPoint] = []
    for s, mult_cluster in _cluster_roots(rational_zeros(plant, "gprime_minus_hg", h)):
        if s.real < problem.sigma0:
            continue
        try:
            m, p_res, _ = problem.evaluate(s.real, s.imag, 1.0)
        except PoleZeroProximityError:
            continue
        # lam = e^{h sigma}/|G(s)|: the magnitude condition inverted at s
        lam = math.exp(-m)
        if abs(p_res) > _PHASE_RESIDUAL_TOL * (1.0 + abs(s)):
            continue
        if not (0.0 <= lam <= problem.lambda_max):
            continue
        out.append(branch_point(problem, s, lam, mult_cluster + 1))
    out.sort(key=CriticalPoint.key)
    return out


def _magnitude_cap(problem: LocusProblem, extrema: list[float]) -> float:
    """Frequency beyond which the gain magnitude condition provably fails."""
    plant = problem.plant
    mods = [abs(v) for v in plant.poles + plant.zeros]
    base = 10.0 * max([1.0] + mods)
    if extrema:
        base = max(base, 1.1 * extrema[-1] + 1.0)
    ln_max = math.log(problem.lambda_max)
    if plant.biproper:
        lam_inf = plant.delay * problem.sigma0 - math.log(abs(plant.gain))
        target = ln_max + min(2.0, 0.5 * (lam_inf - ln_max))
    else:
        target = ln_max + 2.0
    w = base
    for _ in range(200):
        if big_lambda(plant, problem.sigma0, w) > target:
            return w
        w *= 2.0
    return w


def magnitude_intervals(problem: LocusProblem) -> list[tuple[float, float]]:
    """Maximal boundary-frequency intervals where exp(big_lambda) <= lambda_max."""
    assert problem.kind is LocusKind.GAIN
    plant = problem.plant
    s0 = problem.sigma0
    ln_max = math.log(problem.lambda_max)
    extrema = magnitude_extremum_freqs(plant, s0)
    cap = _magnitude_cap(problem, extrema)
    knots = [0.0] + [w for w in extrema if 1e-12 < w < cap] + [cap]

    def lam_fn(w):
        return big_lambda(plant, s0, w) - ln_max

    pieces: list[tuple[float, float]] = []
    for lo, hi in zip(knots[:-1], knots[1:]):
        f_lo, f_hi = lam_fn(lo), lam_fn(hi)
        if f_lo <= 0.0 and f_hi <= 0.0:
            pieces.append((lo, hi))
        elif f_lo <= 0.0 < f_hi:
            w_star = bracketed_root(lam_fn, Bracket(lo, hi, f_lo, f_hi), 1e-13)
            pieces.append((lo, w_star))
        elif f_hi <= 0.0 < f_lo:
            w_star = bracketed_root(lam_fn, Bracket(lo, hi, f_lo, f_hi), 1e-13)
            pieces.append((w_star, hi))
        # both above ln_max: the condition never holds on this monotone piece
    return _merge_touching(pieces)


def _phase_fn(plant: Plant, sigma0: float, h: float):
    """Scalar ``phi(plant, sigma0, w, h)`` as a function of w, with the
    constant phase offset computed once rather than on every call."""
    offset = phi_offset(plant, sigma0)

    def phase(w):
        return float(_phi1(plant, sigma0, w, h) + offset)

    return phase


def phase_monotone_partition(
    problem: LocusProblem, intervals: list[tuple[float, float]]
) -> list[MonotoneInterval]:
    """Split magnitude intervals at phase extrema; record unwrapped phi endpoints."""
    plant = problem.plant
    h = plant.delay if problem.kind is LocusKind.GAIN else 0.0
    splits = phase_extremum_freqs(plant, problem.sigma0, h)
    phase = _phase_fn(plant, problem.sigma0, h)
    out: list[MonotoneInterval] = []
    for lo, hi in intervals:
        knots = [lo] + [w for w in splits if lo < w < hi] + [hi]
        for a, b in zip(knots[:-1], knots[1:]):
            if b - a <= 1e-14 * (1.0 + abs(b)):
                continue
            out.append(MonotoneInterval(a, b, phase(a), phase(b)))
    return out


def crossing_direction(problem: LocusProblem, omega_cr: float) -> int:
    """Gain-case crossing direction -sgn(phi'(omega_cr)); +1 means entering."""
    d = float(phi_prime(problem.plant, problem.sigma0, omega_cr))
    if abs(d) < _GRAZE_TOL:
        raise IllPosedCrossingError(
            f"grazing boundary crossing at omega = {omega_cr}: phi' = {d:g}"
        )
    return -1 if d > 0 else 1


def _emit_crossing(problem, omega_cr, lam_cr, direction) -> CriticalPoint:
    kind = CriticalKind.CROSSING_IN if direction > 0 else CriticalKind.CROSSING_OUT
    return CriticalPoint(kind, complex(problem.sigma0, omega_cr), lam_cr)


def _solve_levels(mi: MonotoneInterval, phi_fn, on_root) -> None:
    """Solve phi = (2l+1) pi for every reachable integer l on a monotone piece."""
    phi_min = min(mi.phi_lo, mi.phi_hi)
    phi_max = max(mi.phi_lo, mi.phi_hi)
    l_min = math.ceil(phi_min / (2 * math.pi) - 0.5 - 1e-12)
    l_max = math.floor(phi_max / (2 * math.pi) - 0.5 + 1e-12)
    for level in range(l_min, l_max + 1):
        target = (2 * level + 1) * math.pi
        f_lo = mi.phi_lo - target
        f_hi = mi.phi_hi - target
        if f_lo != 0.0 and f_hi != 0.0 and math.copysign(1, f_lo) == math.copysign(1, f_hi):
            continue
        w = bracketed_root(lambda x: phi_fn(x) - target, Bracket(mi.lo, mi.hi, f_lo, f_hi), 1e-13)
        on_root(w)


def boundary_crossings_gain(problem: LocusProblem) -> list[CriticalPoint]:
    """All boundary crossing roots of the gain locus with their directions."""
    assert problem.kind is LocusKind.GAIN
    plant = problem.plant
    s0 = problem.sigma0
    pieces = phase_monotone_partition(problem, magnitude_intervals(problem))
    found: list[CriticalPoint] = []
    phi_fn = _phase_fn(plant, s0, plant.delay)

    for mi in pieces:

        def on_root(w_cr):
            lam_cr = math.exp(float(big_lambda(plant, s0, w_cr)))
            if not (0.0 <= lam_cr <= problem.lambda_max * (1.0 + 1e-12)):
                return
            direction = crossing_direction(problem, w_cr)
            found.append(_emit_crossing(problem, w_cr, min(lam_cr, problem.lambda_max), direction))

        _solve_levels(mi, phi_fn, on_root)

    return dedup_points(_with_mirrors(found, plant))


def _delay_lam(plant: Plant, s0: float, w):
    """Delay value at which the boundary magnitude condition holds at s0 + jw."""
    lam = plant.delay * s0 - big_lambda(plant, s0, w)  # = ln|G(s0+jw)|
    return lam / s0


def _delay_lam_prime(plant: Plant, s0: float, w):
    return -big_lambda_prime(plant, s0, w) / s0


def _delay_cap(problem: LocusProblem, extrema: list[float]) -> float:
    plant = problem.plant
    mods = [abs(v) for v in plant.poles + plant.zeros]
    w = 10.0 * max([1.0] + mods)
    if extrema:
        w = max(w, 1.1 * extrema[-1] + 1.0)
    for _ in range(200):
        lam = float(_delay_lam(plant, problem.sigma0, w))
        if lam > 1.05 * problem.lambda_max or lam < -0.05 * problem.lambda_max:
            return w
        w *= 2.0
    return w


def delay_admissible_intervals(problem: LocusProblem) -> list[tuple[float, float]]:
    """Boundary-frequency intervals where the delay value lies in [0, lambda_max]."""
    plant = problem.plant
    s0 = problem.sigma0
    extrema = magnitude_extremum_freqs(plant, s0)
    cap = _delay_cap(problem, extrema)
    knots = [0.0] + [w for w in extrema if 1e-12 < w < cap] + [cap]
    pieces: list[tuple[float, float]] = []
    for lo, hi in zip(knots[:-1], knots[1:]):
        seg_lo, seg_hi = lo, hi
        for bound, keep_below in ((problem.lambda_max, True), (0.0, False)):

            def shifted(w):
                return float(_delay_lam(plant, s0, w)) - bound

            f_lo, f_hi = shifted(seg_lo), shifted(seg_hi)
            ok_lo = f_lo <= 0.0 if keep_below else f_lo >= 0.0
            ok_hi = f_hi <= 0.0 if keep_below else f_hi >= 0.0
            if ok_lo and ok_hi:
                continue
            if not ok_lo and not ok_hi:
                seg_lo, seg_hi = None, None
                break
            w_star = bracketed_root(shifted, Bracket(seg_lo, seg_hi, f_lo, f_hi), 1e-13)
            if ok_lo:
                seg_hi = w_star
            else:
                seg_lo = w_star
        if seg_lo is not None and seg_hi - seg_lo > 1e-12:
            pieces.append((seg_lo, seg_hi))
    return _merge_touching(pieces)


def _sign_flips(values: np.ndarray) -> np.ndarray:
    """Indices i where values[i] and values[i + 1] are nonzero with opposite signs."""
    sign = np.sign(values)
    return np.flatnonzero((sign[:-1] != 0) & (sign[1:] != 0) & (sign[:-1] != sign[1:]))


def boundary_crossings_delay(problem: LocusProblem) -> list[CriticalPoint]:
    """Delay-case boundary crossings via the phase of G alone minus lam(w)*w."""
    assert problem.kind is LocusKind.DELAY
    plant = problem.plant
    s0 = problem.sigma0
    phase = _phase_fn(plant, s0, 0.0)

    def psi(w):
        return phase(w) - float(_delay_lam(plant, s0, w)) * w

    def psi_prime_vec(w):
        return (
            phi_prime(plant, s0, w, 0.0)
            - _delay_lam_prime(plant, s0, w) * w
            - _delay_lam(plant, s0, w)
        )

    found: list[CriticalPoint] = []
    for lo, hi in delay_admissible_intervals(problem):
        # monotone partition of psi by derivative sign scanning
        n = int(1e4 * (1.0 + problem.lambda_max * (hi - lo) / (2 * math.pi)))
        n = min(max(n, 200), 400000)
        grid = np.linspace(lo, hi, n)
        dp = np.asarray(psi_prime_vec(grid))
        knots = [lo]
        for i in _sign_flips(dp):
            w_star = bracketed_root(
                lambda x: float(psi_prime_vec(x)),
                Bracket(grid[i], grid[i + 1], dp[i], dp[i + 1]),
                1e-13,
            )
            knots.append(w_star)
        knots.append(hi)
        for a, b in zip(knots[:-1], knots[1:]):
            if b - a <= 1e-13:
                continue
            mi = MonotoneInterval(a, b, psi(a), psi(b))

            def on_root(w_cr):
                lam_cr = float(_delay_lam(plant, s0, w_cr))
                if not (-1e-12 <= lam_cr <= problem.lambda_max * (1.0 + 1e-12)):
                    return
                lam_cr = min(max(lam_cr, 0.0), problem.lambda_max)
                s = complex(s0, w_cr)
                u = problem.evaluate(s0, w_cr, lam_cr)[2] - lam_cr
                val = (s / u).real if u != 0 else 0.0
                if abs(val) < _GRAZE_TOL:
                    raise IllPosedCrossingError(
                        f"grazing delay-locus crossing at omega = {w_cr}"
                    )
                found.append(_emit_crossing(problem, w_cr, lam_cr, 1 if val > 0 else -1))

            _solve_levels(mi, psi, on_root)

    return dedup_points(_with_mirrors(found, plant))


def boundary_crossings(problem: LocusProblem) -> list[CriticalPoint]:
    if problem.kind is LocusKind.GAIN:
        return boundary_crossings_gain(problem)
    return boundary_crossings_delay(problem)
