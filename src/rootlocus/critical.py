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


def _cap(problem: LocusProblem, extrema: list[float], beyond) -> float:
    """First frequency of a doubling sequence past every plant modulus and
    every magnitude extremum at which ``beyond(w)`` holds: from there on the
    locus parameter stays out of range."""
    plant = problem.plant
    mods = [abs(v) for v in plant.poles + plant.zeros]
    w = 10.0 * max([1.0] + mods)
    if extrema:
        w = max(w, 1.1 * extrema[-1] + 1.0)
    for _ in range(200):
        if beyond(w):
            return w
        w *= 2.0
    return w


def _admissible_intervals(
    problem: LocusProblem, value, bounds: list[tuple[float, bool]], beyond
) -> list[tuple[float, float]]:
    """Maximal boundary-frequency intervals where ``value(plant, sigma0, w)``
    satisfies every ``(bound, keep_below)`` pair: at most ``bound`` when
    ``keep_below``, at least ``bound`` otherwise.

    ``value`` is monotone between the magnitude extrema, so each piece
    between consecutive extrema is clipped against each bound by one
    bracketed root; ``beyond`` places the cap of the scan (see ``_cap``).
    """
    plant = problem.plant
    s0 = problem.sigma0
    extrema = magnitude_extremum_freqs(plant, s0)
    cap = _cap(problem, extrema, beyond)
    knots = [0.0] + [w for w in extrema if 1e-12 < w < cap] + [cap]
    pieces: list[tuple[float, float]] = []
    for lo, hi in zip(knots[:-1], knots[1:]):
        seg_lo, seg_hi = lo, hi
        for bound, keep_below in bounds:

            def shifted(w):
                return float(value(plant, s0, w)) - bound

            f_lo, f_hi = shifted(seg_lo), shifted(seg_hi)
            ok_lo = f_lo <= 0.0 if keep_below else f_lo >= 0.0
            ok_hi = f_hi <= 0.0 if keep_below else f_hi >= 0.0
            if ok_lo and ok_hi:
                continue
            if not ok_lo and not ok_hi:
                seg_lo, seg_hi = None, None
                break
            w_star = bracketed_root(shifted, seg_lo, seg_hi)
            if ok_lo:
                seg_hi = w_star
            else:
                seg_lo = w_star
        if seg_lo is not None and seg_hi - seg_lo > 1e-12:
            pieces.append((seg_lo, seg_hi))
    return _merge_touching(pieces)


def magnitude_intervals(problem: LocusProblem) -> list[tuple[float, float]]:
    """Maximal boundary-frequency intervals where exp(big_lambda) <= lambda_max."""
    assert problem.kind is LocusKind.GAIN
    plant = problem.plant
    ln_max = math.log(problem.lambda_max)
    if plant.biproper:
        lam_inf = plant.delay * problem.sigma0 - math.log(abs(plant.gain))
        target = ln_max + min(2.0, 0.5 * (lam_inf - ln_max))
    else:
        target = ln_max + 2.0

    def beyond(w):
        return big_lambda(plant, problem.sigma0, w) > target

    return _admissible_intervals(problem, big_lambda, [(ln_max, True)], beyond)


def _delay_lam(plant: Plant, s0: float, w):
    """Delay value at which the boundary magnitude condition holds at s0 + jw."""
    lam = plant.delay * s0 - big_lambda(plant, s0, w)  # = ln|G(s0+jw)|
    return lam / s0


def _delay_lam_prime(plant: Plant, s0: float, w):
    return -big_lambda_prime(plant, s0, w) / s0


def delay_admissible_intervals(problem: LocusProblem) -> list[tuple[float, float]]:
    """Boundary-frequency intervals where the delay value lies in [0, lambda_max]."""
    lmax = problem.lambda_max

    def beyond(w):
        lam = float(_delay_lam(problem.plant, problem.sigma0, w))
        return lam > 1.05 * lmax or lam < -0.05 * lmax

    return _admissible_intervals(problem, _delay_lam, [(lmax, True), (0.0, False)], beyond)


def _phase_fn(plant: Plant, sigma0: float, h: float):
    """Scalar ``phi(plant, sigma0, w, h)`` as a function of w, with the
    constant phase offset computed once rather than on every call."""
    offset = phi_offset(plant, sigma0)

    def phase(w):
        return float(_phi1(plant, sigma0, w, h) + offset)

    return phase


def crossing_direction(problem: LocusProblem, omega_cr: float) -> int:
    """Gain-case crossing direction -sgn(phi'(omega_cr)); +1 means entering."""
    d = float(phi_prime(problem.plant, problem.sigma0, omega_cr))
    if abs(d) < _GRAZE_TOL:
        raise IllPosedCrossingError(
            f"grazing boundary crossing at omega = {omega_cr}: phi' = {d:g}"
        )
    return -1 if d > 0 else 1


def _solve_levels(lo: float, hi: float, phase, on_root) -> None:
    """Solve phase = (2l+1) pi for every reachable integer l on a piece
    [lo, hi] where the phase is monotone."""
    phi_lo, phi_hi = phase(lo), phase(hi)
    l_min = math.ceil(min(phi_lo, phi_hi) / (2 * math.pi) - 0.5 - 1e-12)
    l_max = math.floor(max(phi_lo, phi_hi) / (2 * math.pi) - 0.5 + 1e-12)
    for level in range(l_min, l_max + 1):
        target = (2 * level + 1) * math.pi
        f_lo = phi_lo - target
        f_hi = phi_hi - target
        if f_lo != 0.0 and f_hi != 0.0 and math.copysign(1, f_lo) == math.copysign(1, f_hi):
            continue
        w = bracketed_root(lambda x: phase(x) - target, lo, hi)
        on_root(w)


def _sign_flips(values: np.ndarray) -> np.ndarray:
    """Indices i where values[i] and values[i + 1] are nonzero with opposite signs."""
    sign = np.sign(values)
    return np.flatnonzero((sign[:-1] != 0) & (sign[1:] != 0) & (sign[:-1] != sign[1:]))


def boundary_crossings(problem: LocusProblem) -> list[CriticalPoint]:
    """All boundary crossing roots on Re(s) = sigma0, with their directions.

    On each interval where the locus parameter lam(w) is in range, the
    phase is split into monotone pieces where it turns, and phase =
    (2l+1) pi is solved on every piece.  The two locus kinds differ only in
    the phase, where it turns, lam(w) and the direction rule.
    """
    plant = problem.plant
    s0 = problem.sigma0
    lmax = problem.lambda_max
    if problem.kind is LocusKind.GAIN:
        intervals = magnitude_intervals(problem)
        phase = _phase_fn(plant, s0, plant.delay)
        splits = phase_extremum_freqs(plant, s0, plant.delay)

        def turns(lo, hi):
            return [w for w in splits if lo < w < hi]

        def lam_at(w):
            return math.exp(float(big_lambda(plant, s0, w)))

        def direction(w, lam):
            return crossing_direction(problem, w)

    else:
        intervals = delay_admissible_intervals(problem)
        phase_g = _phase_fn(plant, s0, 0.0)

        def lam_at(w):
            return float(_delay_lam(plant, s0, w))

        def phase(w):
            # psi: the phase of G alone minus lam(w) * w
            return phase_g(w) - lam_at(w) * w

        def psi_prime(w):
            return (
                phi_prime(plant, s0, w, 0.0)
                - _delay_lam_prime(plant, s0, w) * w
                - _delay_lam(plant, s0, w)
            )

        def turns(lo, hi):
            # the sign changes of psi' on a uniform grid, refined
            n = int(1e4 * (1.0 + lmax * (hi - lo) / (2 * math.pi)))
            grid = np.linspace(lo, hi, min(max(n, 200), 400000))
            dp = np.asarray(psi_prime(grid))
            return [
                bracketed_root(lambda x: float(psi_prime(x)), grid[i], grid[i + 1])
                for i in _sign_flips(dp)
            ]

        def direction(w, lam):
            u = problem.evaluate(s0, w, lam)[2] - lam
            val = (complex(s0, w) / u).real if u != 0 else 0.0
            if abs(val) < _GRAZE_TOL:
                raise IllPosedCrossingError(f"grazing delay-locus crossing at omega = {w}")
            return 1 if val > 0 else -1

    found: list[CriticalPoint] = []

    def on_root(w):
        lam = lam_at(w)
        if not (-1e-12 <= lam <= lmax * (1.0 + 1e-12)):
            return
        lam = min(max(lam, 0.0), lmax)
        kind = CriticalKind.CROSSING_IN if direction(w, lam) > 0 else CriticalKind.CROSSING_OUT
        found.append(CriticalPoint(kind, complex(s0, w), lam))

    for lo, hi in intervals:
        knots = [lo] + turns(lo, hi) + [hi]
        for a, b in zip(knots[:-1], knots[1:]):
            if b - a > 1e-14 * (1.0 + abs(b)):
                _solve_levels(a, b, phase, on_root)
    return dedup_points(_with_mirrors(found, plant))
