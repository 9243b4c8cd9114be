"""Critical points of the root locus: starts, branch points, boundary crossings."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import localmodel
from .errors import IllPosedCrossingError, NoConvergenceError, PoleZeroProximityError
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
# np.roots spreads an N-fold root by ~eps^(1/N) of its scale: ~1.5e-8 for a
# double root, ~6e-6 for a triple one
_SCATTER_TOL = 1e-5
_MULTIPLE_ROOT_RESIDUAL = 1e-12  # |f| at a confirmed multiple start root
_COARSE_STRIDE = 256  # grid steps per coarse cell of the delay psi' scan
_MAX_BISECTED = 1 << 16  # cells per level of the psi' bisection before it gives up
_EPS = float(np.finfo(float).eps)


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
    # unit (Re s, Im s, lam) triples of plain floats
    directions: list[tuple[float, float, float]] = field(default_factory=list)

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


def _with_mirrors(points: list[CriticalPoint]) -> list[CriticalPoint]:
    """Add the conjugate of every upper-half point: the plant is
    conjugate-symmetric and the crossing scans cover only omega >= 0."""
    return points + [
        CriticalPoint(cp.kind, cp.root.conjugate(), cp.lam)
        for cp in points
        if cp.root.imag > 1e-12
    ]


def _merge_touching(pieces: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Join consecutive intervals whose ends meet within rounding."""
    merged: list[tuple[float, float]] = []
    for lo, hi in pieces:
        if merged and lo - merged[-1][1] < 1e-12 * (1.0 + abs(lo)):
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def _cluster_roots(roots, tol=_CLUSTER_TOL, confirm=None) -> list[tuple[complex, int]]:
    """Group near-identical roots into (representative, multiplicity) pairs.

    Sorted roots within ``tol`` (1 + |r|) of the running centroid form one
    group.  ``confirm(centroid, m)`` gives the representative of a group of m,
    or None when the group is m distinct close roots; those are grouped again
    within _CLUSTER_TOL.
    """
    items = sorted(roots, key=lambda c: (c.real, c.imag))
    groups: list[tuple[complex, list[complex]]] = []
    for r in items:
        if groups and abs(r - groups[-1][0]) < tol * (1.0 + abs(r)):
            c, members = groups[-1]
            m = len(members)
            groups[-1] = ((c * m + r) / (m + 1), members + [r])
        else:
            groups.append((r, [r]))
    out: list[tuple[complex, int]] = []
    for c, members in groups:
        rep = c if confirm is None or len(members) == 1 else confirm(c, len(members))
        if rep is None:
            out.extend(_cluster_roots(members))
        else:
            out.append((rep, len(members)))
    return out


def starting_points(problem: LocusProblem) -> list[CriticalPoint]:
    """Characteristic roots at lam = 0 inside the region, with multiplicity.

    Gain starts are the given poles.  Delay starts are the zeros of 1 + G from
    np.roots, which scatters an N-fold zero: a group of N within _SCATTER_TOL
    is one N-fold start when Newton on the (N-1)-th s-derivative of f from the
    group's centroid lands where f vanishes and ``localmodel.multiplicity``
    reads N.  The derivatives alone cannot tell: f' vanishes midway between
    two distinct roots, while f there is about f''/8 times their squared gap.
    """
    if problem.kind is LocusKind.GAIN:
        clusters = _cluster_roots([p for p in problem.plant.poles if p.real >= problem.sigma0])
    else:

        def confirm(c: complex, n: int) -> complex | None:
            s = localmodel.polish_multiple_root(problem, c, 0.0, n)
            if problem.cartesian_residual(s.real, s.imag, 0.0) > _MULTIPLE_ROOT_RESIDUAL:
                return None
            return s if localmodel.multiplicity(problem, s, 0.0) == n else None

        roots = rational_zeros(problem.plant, "one_plus_g")
        clusters = _cluster_roots(
            [r for r in roots if r.real >= problem.sigma0], _SCATTER_TOL, confirm
        )
    return [CriticalPoint(CriticalKind.START, r, 0.0, multiplicity=m) for r, m in clusters]


def branch_point(
    problem: LocusProblem, s: complex, lam: float, min_multiplicity: int
) -> CriticalPoint:
    """The BRANCH point at (s, lam): its multiplicity, at least
    ``min_multiplicity``, and its up rays as directions."""
    n = max(localmodel.multiplicity(problem, s, lam), min_multiplicity)
    rays = localmodel.branch_rays(problem, s, lam, n)
    directions = [(float(w.real), float(w.imag), 0.0) for w in rays]
    return CriticalPoint(CriticalKind.BRANCH, s, lam, n, directions)


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
            m, p_res = problem.mp(s.real, s.imag, 1.0)
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
                return value(plant, s0, w) - bound

            f_lo, f_hi = shifted(seg_lo), shifted(seg_hi)
            ok_lo = f_lo <= 0.0 if keep_below else f_lo >= 0.0
            ok_hi = f_hi <= 0.0 if keep_below else f_hi >= 0.0
            if ok_lo and ok_hi:
                continue
            if not ok_lo and not ok_hi:
                seg_lo, seg_hi = None, None
                break
            w_star = bracketed_root(shifted, seg_lo, seg_hi, f_lo, f_hi)
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
        lam = _delay_lam(problem.plant, problem.sigma0, w)
        return lam > 1.05 * lmax or lam < -0.05 * lmax

    return _admissible_intervals(problem, _delay_lam, [(lmax, True), (0.0, False)], beyond)


def _phase_fn(plant: Plant, sigma0: float, h: float):
    """The continuous (unwrapped) boundary phase of G e^{-hs} on Re(s) =
    sigma0, as a function of w, with the constant offset ``phi_offset``
    computed once.

    No modular reduction is applied; the phase at w = 0 is angle(G(sigma0))
    in {0, pi}.  ``h=0`` gives the unwrapped phase of G alone.  A float gives
    a float, an array an array, same bits."""
    offset = phi_offset(plant, sigma0)

    def phase(w):
        return _phi1(plant, sigma0, w, h) + offset

    return phase


def crossing_direction(problem: LocusProblem, omega: float, lam: float) -> int:
    """Direction of the crossing at sigma0 + j omega, lam: the sign of the
    root's Re ds/dlam, +1 entering the region, on either locus kind.  It
    grazes where |Re ds| <= 1e-10 |ds|, a test on the tangent's angle that
    scaling the plant's gain (and so lam) leaves unchanged."""
    try:
        ds = localmodel.ds_dlam(problem, complex(problem.sigma0, omega), lam)
    except ZeroDivisionError:
        ds = 0j
    if abs(ds.real) <= _GRAZE_TOL * abs(ds):
        raise IllPosedCrossingError(
            f"grazing boundary crossing at omega = {omega}: ds/dlam = {ds:g}"
        )
    return 1 if ds.real > 0 else -1


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
        w = bracketed_root(lambda x: phase(x) - target, lo, hi, f_lo, f_hi)
        on_root(w)


def _sign_flips(values: np.ndarray) -> np.ndarray:
    """Indices i where values[i] and values[i + 1] are nonzero with opposite signs."""
    sign = np.sign(values)
    return np.flatnonzero((sign[:-1] != 0) & (sign[1:] != 0) & (sign[:-1] != sign[1:]))


def _psi_prime(plant: Plant, s0: float, w):
    """psi' of the delay boundary phase psi(w) = phi_G(w) - lam(w) w.  A float
    gives a float, an array an array, same bits."""
    return (
        phi_prime(plant, s0, w, 0.0) - _delay_lam_prime(plant, s0, w) * w - _delay_lam(plant, s0, w)
    )


def _psi_bounds(plant: Plant, s0: float, a: np.ndarray, b: np.ndarray):
    """For each cell [a, b] of the arrays: bounds on |psi''| and on
    |psi''''|, the third derivative of psi', over the cell, and a bound on
    the rounding error of ``_psi_prime`` anywhere in it.

    With x = s0 - Re v, t = w - Im v and q = x^2 + t^2 for each pole or zero
    v, psi' sums terms x/q (from phi'), w t/(s0 q) (from lam' w) and
    ln(q)/(2 s0) (from lam).  Their w-derivatives give, term by term,
    |psi''| <= sum (min(1, 2|x t|/q) + (|w| + 2|t|)/|s0|)/q.  In terms of
    u = G'/G at s = s0 + jw, psi' = Re u - (ln|G| - w Im u)/s0 and d/dw is
    j d/ds, so psi'''' = Im u''' - (4 Im u'' + w Re u''')/s0, and
    |u^(k)| <= sum k!/q^((k+1)/2) gives
    |psi''''| <= sum 6/q^2 + (8/q^1.5 + 6|w|/q^2)/|s0|.  Both are taken
    with the least q and the largest |w| and |t| on the cell.  The rounding
    of each sum of ``_psi_prime`` is within (count + 10) eps of the sum of
    its terms' magnitudes; four times that covers libm's last bits."""
    v = np.array(plant.poles + plant.zeros)
    x = abs(s0 - v.real)
    c = v.imag
    a, b = a[:, None], b[:, None]
    t_near = np.maximum(np.maximum(a - c, c - b), 0.0)
    t_far = np.maximum(abs(a - c), abs(b - c))
    q_near = x * x + t_near * t_near
    w_far = np.maximum(abs(a), abs(b))
    r = 1.0 / abs(s0)
    phi2 = np.minimum(1.0, 2.0 * x * t_far / q_near)
    second = ((phi2 + (w_far + 2.0 * t_far) * r) / q_near).sum(axis=1)
    fourth = ((6.0 * (1.0 + w_far * r) / q_near + 8.0 * r / np.sqrt(q_near)) / q_near).sum(axis=1)
    logs = 1.0 + abs(np.log(q_near)) + abs(np.log(x * x + t_far * t_far))
    terms = ((x + w_far * t_far * r) / q_near + logs * r).sum(axis=1)
    scale = terms + (2.0 * abs(plant.delay * s0) + abs(math.log(abs(plant.gain)))) * r
    return second, fourth, 4.0 * (v.size + 10) * _EPS * scale


def _same_sign(*values):
    """Whether the values (arrays) are all nonzero with one sign, elementwise."""
    neg = values[0] < 0.0
    out = values[0] != 0.0
    for f in values[1:]:
        out &= (f != 0.0) & ((f < 0.0) == neg)
    return out


def _cleared(a, b, fa, fb, second, err):
    """Whether psi' (fa at a, fb at b) certainly has no zero on [a, b].

    A zero c of psi' on the cell gives |psi'(a)| <= B (c - a) and |psi'(b)|
    <= B (b - c), with B >= |psi''| there.  When the computed fa and fb have
    one sign and |fa + fb| > B (b - a) + 4E, E bounding the rounding of each
    value, the true psi' exceeds E in size everywhere on the cell: half the
    excess of its end values over B (b - a).  So it has no zero, and psi'
    computed at any point of the cell keeps the sign of fa.  The factor
    1 + 1e-9 covers the rounding of B (b - a) and of the sum."""
    return _same_sign(fa, fb) & (abs(fa + fb) > (1.0 + 1e-9) * second * (b - a) + 4.0 * err)


def _cleared3(width, fa, fm, fb, fourth, err):
    """Whether psi' (fa, fm, fb at the ends and the midpoint of a cell)
    certainly has no zero on the cell.

    When the three values have one sign, the quadratic through them is on
    each half a combination of them whose weight on the far end lies in
    [-1/8, 0], so in size it is at least min(|fm|, |near end|) less 1/8 of
    the far end's excess over that.  It differs from psi' by at most
    max|psi''''| width^3 / (72 sqrt 3), the error of quadratic
    interpolation, and from the quadratic through the true values by
    1.25 E.  The factor 1 + 1e-9 covers the rounding of the bound."""
    same = _same_sign(fa, fm, fb)
    fa, fm, fb = abs(fa), abs(fm), abs(fb)
    low = np.minimum(fm, fa)
    high = np.minimum(fm, fb)
    least = np.minimum(
        low - np.maximum(fb - low, 0.0) / 8.0, high - np.maximum(fa - high, 0.0) / 8.0
    )
    return same & (least > (1.0 + 1e-9) * fourth * width**3 / 124.0 + 4.0 * err)


def _hidden_turns(plant: Plant, s0: float, psi_prime, a, b, fa, fb) -> list[float]:
    """Turns of psi' inside the cells [a, b] (arrays; psi' is fa, fb at the
    ends) that ``_cleared`` does not clear and whose end values do not change
    sign.

    The cells are bisected, every cell of a level in one call of psi', until
    ``_cleared3`` clears them.  A half whose end values change sign goes to
    Brent's method: a midpoint value of the other sign than both ends
    brackets two zeros.  A cell narrower than 1e-12 (1 + |w|) is dropped:
    two zeros that close move psi by less than B width^2."""
    turns: list[float] = []
    while a.size:
        if a.size > _MAX_BISECTED:
            raise NoConvergenceError(
                f"the psi' bisection on [{a[0]}, {b[-1]}] holds {a.size} cells it cannot clear"
            )
        m = 0.5 * (a + b)
        fm = psi_prime(m)
        _, fourth, err = _psi_bounds(plant, s0, a, b)
        keep = ~_cleared3(b - a, fa, fm, fb, fourth, err)
        a, m, b, fa, fm, fb = a[keep], m[keep], b[keep], fa[keep], fm[keep], fb[keep]
        a, b = np.concatenate((a, m)), np.concatenate((m, b))
        fa, fb = np.concatenate((fa, fm)), np.concatenate((fm, fb))
        flip = (fa != 0.0) & (fb != 0.0) & ((fa < 0.0) != (fb < 0.0))
        for cell in zip(a[flip], b[flip], fa[flip], fb[flip]):
            turns.append(bracketed_root(psi_prime, *cell))
        keep = ~flip & (b - a > 1e-12 * (1.0 + abs(b)))
        a, b, fa, fb = a[keep], b[keep], fa[keep], fb[keep]
    return turns


def _delay_turns(plant: Plant, s0: float, lmax: float, lo: float, hi: float) -> list[float]:
    """The zeros of psi' on [lo, hi] where psi turns, in ascending order.

    They are the sign changes of psi' on a uniform grid, each refined by
    Brent's method, plus zero pairs hidden inside one grid cell.  The grid is
    partitioned in two levels, and a cell is skipped when ``_cleared``
    certifies it holds no zero.  Coarse cells span _COARSE_STRIDE grid
    steps; psi' is evaluated at all the grid points of the coarse cells that
    do not clear, in one call.  A grid cell in them that neither changes sign
    nor clears goes to ``_hidden_turns``.  So every sign-change cell of the
    full grid is found, with the same end values, and the grid's size caps
    the work, not what the scan can see.
    """

    def psi_prime(w):
        return _psi_prime(plant, s0, w)

    n = int(1e4 * (1.0 + lmax * (hi - lo) / (2 * math.pi)))
    grid = np.linspace(lo, hi, min(max(n, 200), 400000))
    coarse = np.append(np.arange(0, grid.size - 1, _COARSE_STRIDE), grid.size - 1)
    ca, cb = grid[coarse[:-1]], grid[coarse[1:]]
    dc = psi_prime(grid[coarse])
    second, _, err = _psi_bounds(plant, s0, ca, cb)
    open_ = ~_cleared(ca, cb, dc[:-1], dc[1:], second, err)
    # the grid indices of the open coarse cells, both ends included
    first, last = coarse[:-1][open_], coarse[1:][open_]
    sizes = last - first + 1
    idx = np.repeat(first - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())
    dp = psi_prime(grid[idx])
    # a pair of consecutive values inside one coarse cell is a grid cell
    inner = np.diff(idx) == 1
    flips = _sign_flips(dp)
    flips = flips[inner[flips]]
    turns = [
        bracketed_root(psi_prime, grid[idx[j]], grid[idx[j + 1]], dp[j], dp[j + 1])
        for j in flips
    ]
    inner[flips] = False
    # the coarse cell's bounds hold on each of its grid cells; the few that
    # do not clear with them are bisected
    j = np.flatnonzero(inner)
    cell_of = np.repeat(np.arange(sizes.size), sizes)[j]
    a, b, fa, fb = grid[idx[j]], grid[idx[j + 1]], dp[j], dp[j + 1]
    keep = ~_cleared(a, b, fa, fb, second[open_][cell_of], err[open_][cell_of])
    turns += _hidden_turns(plant, s0, psi_prime, a[keep], b[keep], fa[keep], fb[keep])
    return sorted(turns)


def boundary_crossings(problem: LocusProblem) -> list[CriticalPoint]:
    """All boundary crossing roots on Re(s) = sigma0, with their directions.

    On each interval where the locus parameter lam(w) is in range, the
    phase is split into monotone pieces where it turns, and phase =
    (2l+1) pi is solved on every piece.  The two locus kinds differ only in
    the phase, where it turns and lam(w); ``crossing_direction`` serves both.
    A gain phase turns at the eigenvalue extrema of ``phase_extremum_freqs``.
    A delay phase psi(w) = phi_G(w) - lam(w) w turns at the zeros of psi'
    that ``_delay_turns`` finds on a certified partition of its grid: each
    skipped cell is proven free of zeros by a bound on |psi''|, and a grid
    cell that cannot be cleared is bisected, so two zeros inside one cell are
    found too.
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
            return math.exp(big_lambda(plant, s0, w))

    else:
        intervals = delay_admissible_intervals(problem)
        phase_g = _phase_fn(plant, s0, 0.0)

        def lam_at(w):
            return _delay_lam(plant, s0, w)

        def phase(w):
            # psi: the phase of G alone minus lam(w) * w
            return phase_g(w) - lam_at(w) * w

        def turns(lo, hi):
            return _delay_turns(plant, s0, lmax, lo, hi)

    found: list[CriticalPoint] = []

    def on_root(w):
        lam = lam_at(w)
        if not (-1e-12 <= lam <= lmax * (1.0 + 1e-12)):
            return
        lam = min(max(lam, 0.0), lmax)
        entering = crossing_direction(problem, w, lam) > 0
        kind = CriticalKind.CROSSING_IN if entering else CriticalKind.CROSSING_OUT
        found.append(CriticalPoint(kind, complex(s0, w), lam))

    for lo, hi in intervals:
        knots = [lo] + turns(lo, hi) + [hi]
        for a, b in zip(knots[:-1], knots[1:]):
            if b - a > 1e-14 * (1.0 + abs(b)):
                _solve_levels(a, b, phase, on_root)
    return dedup_points(_with_mirrors(found))
