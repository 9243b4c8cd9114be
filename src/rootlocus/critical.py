"""Critical points of the root locus: starts, branch points, boundary crossings.

A crossing search runs on one ``BoundaryLine``, which holds its abscissa and
each pole's and zero's data on it, and evaluates Lambda, the phase, the delay
lam(w) and psi' from them.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import localmodel
from .errors import IllPosedCrossingError, NoConvergenceError, PoleZeroProximityError
from .plant import LocusKind, LocusProblem, Plant, wrap_angle
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


class BoundaryLine:
    """The line Re s = a that one crossing search scans, with the data of each
    node (pole or zero) formed once.

    For every pole, then every zero v it holds the floats (Im v,
    (a - Re v)**2, a - Re v), and the constants h a, h a - ln|k| and the
    phase offset angle(G(a)) in {0, pi}.  The boundary functions take a float
    or an array w down one path: a float stays a Python float and only np.log
    / np.arctan go through numpy, whose results agree bit for bit on scalars
    and arrays (math.log and math.atan do not).  The w term t is squared as
    t * t, as numpy squares an array.  A search builds its own line, and the
    line keeps no cache.  No pole or zero may lie on the line; ``LocusProblem``
    checks that for sigma0.
    """

    def __init__(self, plant: Plant, abscissa: float):
        a = float(abscissa)
        self.plant = plant
        self.abscissa = a
        self.poles = tuple((v.imag, (a - v.real) ** 2, a - v.real) for v in plant.poles)
        self.zeros = tuple((v.imag, (a - v.real) ** 2, a - v.real) for v in plant.zeros)
        self.ha = plant.delay * a
        self.log_gain = math.log(abs(plant.gain))
        self.lam0 = self.ha - self.log_gain  # Lambda less its node terms
        ang = cmath.phase(plant.transfer(complex(a, 0.0)))
        self.offset = math.pi if abs(wrap_angle(ang - math.pi)) < abs(wrap_angle(ang)) else 0.0
        nodes = self.poles + self.zeros
        self.node_im = np.array([v[0] for v in nodes])  # the node arrays of _psi_bounds
        self.node_dist = abs(np.array([v[2] for v in nodes]))

    def _sums(self, w, slopes: bool):
        """Lambda(w) and, with ``slopes``, Lambda'(w) and phi'(w) of G alone,
        from one q = (w - Im v)^2 + (a - Re v)^2 per node: Lambda and Lambda'
        add the poles' terms, then subtract the zeros'; phi' adds the zeros'
        (a - Re v)/q, then subtracts the poles'.  0.0 * w gives Lambda the
        shape of an array w on a plant without nodes."""
        lam = self.lam0 + 0.0 * w
        lam_p, phi_p, pole_phi = 0.0, -0.0, []
        for vi, x2, x in self.poles:
            t = w - vi
            q = t * t
            q += x2
            lam += 0.5 * np.log(q)
            if slopes:
                lam_p += t / q
                pole_phi.append(x / q)
        for vi, x2, x in self.zeros:
            t = w - vi
            q = t * t
            q += x2
            lam -= 0.5 * np.log(q)
            if slopes:
                lam_p -= t / q
                phi_p += x / q
        for y in pole_phi:
            phi_p -= y
        return lam, lam_p, phi_p

    def big_lambda(self, w):
        """Lambda(w) = h a - ln|G(a + jw)|: exp(Lambda(w)) is the gain at which
        a characteristic root can sit at a + jw."""
        return _plain(self._sums(w, False)[0])

    def phase(self, w, h: float):
        """The continuous (unwrapped) phase of G e^{-hs} at a + jw: no modular
        reduction, and angle(G(a)) in {0, pi} at w = 0.  ``h=0`` gives the
        phase of G alone."""
        acc = -h * w
        for vi, _, x in self.zeros:
            acc += np.arctan((w - vi) / x)
        for vi, _, x in self.poles:
            acc -= np.arctan((w - vi) / x)
        # at w = 0 the terms of a conjugate pair cancel exactly only when the
        # pair is summed back to back; the sum is 0 in any listing order
        acc *= w != 0
        return _plain(acc) + self.offset

    def delay_lam(self, w):
        """The delay lam(w) = ln|G(a + jw)|/a at which the magnitude condition
        holds at a + jw."""
        return (self.ha - self.big_lambda(w)) / self.abscissa

    def psi(self, w):
        """The delay boundary phase psi(w) = phi_G(w) - lam(w) w."""
        return self.phase(w, 0.0) - self.delay_lam(w) * w

    def psi_prime(self, w):
        """psi'(w) = phi_G'(w) - lam'(w) w - lam(w), lam' = -Lambda'/a, from
        one node pass."""
        lam, lam_p, phi_p = self._sums(w, True)
        a = self.abscissa
        return _plain(phi_p - (-lam_p / a) * w - (self.ha - lam) / a)


def _plain(acc):
    """``acc`` with a numpy scalar turned into a Python float of the same bits."""
    return acc if isinstance(acc, np.ndarray) else float(acc)


def _cap(line: BoundaryLine, extrema: list[float], value, beyond) -> float:
    """First frequency of a doubling sequence past every plant modulus and
    every magnitude extremum at which ``beyond(value(w))`` holds: from there
    on the locus parameter stays out of range."""
    plant = line.plant
    mods = [abs(v) for v in plant.poles + plant.zeros]
    w = 10.0 * max([1.0] + mods)
    if extrema:
        w = max(w, 1.1 * extrema[-1] + 1.0)
    for _ in range(200):
        if beyond(value(w)):
            return w
        w *= 2.0
    return w


def _admissible_intervals(
    line: BoundaryLine, value, bounds: list[tuple[float, bool]], beyond
) -> list[tuple[float, float]]:
    """Maximal boundary-frequency intervals where ``value(w)`` satisfies
    every ``(bound, keep_below)`` pair: at most ``bound`` when
    ``keep_below``, at least ``bound`` otherwise.

    ``value`` is monotone between the magnitude extrema, so each piece
    between consecutive extrema is clipped against each bound by one
    bracketed root; ``beyond`` places the cap of the scan (see ``_cap``).
    ``value`` is evaluated once per distinct w: adjacent pieces, both bounds
    and the cap share knots, and a clip's root is where Brent's method
    evaluated it last.
    """
    value = functools.cache(value)
    extrema = magnitude_extremum_freqs(line.plant, line.abscissa)
    cap = _cap(line, extrema, value, beyond)
    knots = [0.0] + [w for w in extrema if 1e-12 < w < cap] + [cap]
    pieces: list[tuple[float, float]] = []
    for lo, hi in zip(knots[:-1], knots[1:]):
        seg_lo, seg_hi = lo, hi
        for bound, keep_below in bounds:
            f_lo, f_hi = value(seg_lo) - bound, value(seg_hi) - bound
            ok_lo = f_lo <= 0.0 if keep_below else f_lo >= 0.0
            ok_hi = f_hi <= 0.0 if keep_below else f_hi >= 0.0
            if ok_lo and ok_hi:
                continue
            if not ok_lo and not ok_hi:
                seg_lo, seg_hi = None, None
                break
            w_star = bracketed_root(lambda w: value(w) - bound, seg_lo, seg_hi, f_lo, f_hi)
            if ok_lo:
                seg_hi = w_star
            else:
                seg_lo = w_star
        if seg_lo is not None and seg_hi - seg_lo > 1e-12:
            pieces.append((seg_lo, seg_hi))
    return _merge_touching(pieces)


def magnitude_intervals(problem: LocusProblem, line: BoundaryLine) -> list[tuple[float, float]]:
    """Maximal boundary-frequency intervals where exp(Lambda) <= lambda_max."""
    assert problem.kind is LocusKind.GAIN
    ln_max = math.log(problem.lambda_max)
    if problem.plant.biproper:
        # Lambda tends to h a - ln|k| as w grows
        target = ln_max + min(2.0, 0.5 * (line.lam0 - ln_max))
    else:
        target = ln_max + 2.0
    return _admissible_intervals(
        line, line.big_lambda, [(ln_max, True)], lambda v: v > target
    )


def delay_admissible_intervals(
    problem: LocusProblem, line: BoundaryLine
) -> list[tuple[float, float]]:
    """Boundary-frequency intervals where the delay value lies in [0, lambda_max]."""
    lmax = problem.lambda_max
    return _admissible_intervals(
        line,
        line.delay_lam,
        [(lmax, True), (0.0, False)],
        lambda lam: lam > 1.05 * lmax or lam < -0.05 * lmax,
    )


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


def _psi_bounds(line: BoundaryLine, a: np.ndarray, b: np.ndarray, order: int):
    """For each cell [a, b] of the arrays: a bound on |psi''| (``order`` 2)
    or on |psi''''|, the third derivative of psi' (``order`` 4), over the
    cell, and a bound on the rounding error of ``BoundaryLine.psi_prime``
    anywhere in it.

    With x = s0 - Re v, t = w - Im v and q = x^2 + t^2 for each pole or zero
    v, psi' sums terms x/q (from phi'), w t/(s0 q) (from lam' w) and
    ln(q)/(2 s0) (from lam).  Their w-derivatives give, term by term,
    |psi''| <= sum (min(1, 2|x t|/q) + (|w| + 2|t|)/|s0|)/q.  In terms of
    u = G'/G at s = s0 + jw, psi' = Re u - (ln|G| - w Im u)/s0 and d/dw is
    j d/ds, so psi'''' = Im u''' - (4 Im u'' + w Re u''')/s0, and
    |u^(k)| <= sum k!/q^((k+1)/2) gives
    |psi''''| <= sum 6/q^2 + (8/q^1.5 + 6|w|/q^2)/|s0|.  Both are taken
    with the least q and the largest |w| and |t| on the cell.  The rounding
    of each sum of ``psi_prime`` is within (count + 10) eps of the sum of
    its terms' magnitudes; four times that covers libm's last bits."""
    x, c = line.node_dist, line.node_im
    a, b = a[:, None], b[:, None]
    t_near = np.maximum(np.maximum(a - c, c - b), 0.0)
    t_far = np.maximum(abs(a - c), abs(b - c))
    q_near = x * x + t_near * t_near
    w_far = np.maximum(abs(a), abs(b))
    r = 1.0 / abs(line.abscissa)
    if order == 2:
        bound = np.minimum(1.0, 2.0 * x * t_far / q_near) + (w_far + 2.0 * t_far) * r
    else:
        bound = 6.0 * (1.0 + w_far * r) / q_near + 8.0 * r / np.sqrt(q_near)
    logs = 1.0 + abs(np.log(q_near)) + abs(np.log(x * x + t_far * t_far))
    terms = ((x + w_far * t_far * r) / q_near + logs * r).sum(axis=1)
    scale = terms + (2.0 * abs(line.ha) + abs(line.log_gain)) * r
    return (bound / q_near).sum(axis=1), 4.0 * (x.size + 10) * _EPS * scale


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


def _hidden_turns(line: BoundaryLine, a, b, fa, fb) -> list[float]:
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
        fm = line.psi_prime(m)
        fourth, err = _psi_bounds(line, a, b, 4)
        keep = ~_cleared3(b - a, fa, fm, fb, fourth, err)
        a, m, b, fa, fm, fb = a[keep], m[keep], b[keep], fa[keep], fm[keep], fb[keep]
        a, b = np.concatenate((a, m)), np.concatenate((m, b))
        fa, fb = np.concatenate((fa, fm)), np.concatenate((fm, fb))
        flip = (fa != 0.0) & (fb != 0.0) & ((fa < 0.0) != (fb < 0.0))
        for cell in zip(a[flip], b[flip], fa[flip], fb[flip]):
            turns.append(bracketed_root(line.psi_prime, *cell))
        keep = ~flip & (b - a > 1e-12 * (1.0 + abs(b)))
        a, b, fa, fb = a[keep], b[keep], fa[keep], fb[keep]
    return turns


def _grid_points(lo: float, hi: float, n: int, idx: np.ndarray) -> np.ndarray:
    """``np.linspace(lo, hi, n)[idx]``, formed only at the indices ``idx``:
    i step + lo, or (i / (n - 1)) (hi - lo) + lo where the step rounds to
    0.0, and hi at the last index, the floats np.linspace forms."""
    delta = hi - lo
    step = delta / (n - 1)
    w = idx * step + lo if step else idx / (n - 1) * delta + lo
    w[idx == n - 1] = hi
    return w


def _delay_turns(line: BoundaryLine, lmax: float, lo: float, hi: float) -> list[float]:
    """The zeros of psi' on [lo, hi] where psi turns, in ascending order.

    They are the sign changes of psi' on a uniform grid, each refined by
    Brent's method, plus zero pairs hidden inside one grid cell.  The grid is
    partitioned in two levels, and a cell is skipped when ``_cleared``
    certifies it holds no zero.  Coarse cells span _COARSE_STRIDE grid
    steps; psi' is evaluated at the coarse points, and at all the grid
    points of the coarse cells that do not clear, in one call; only those
    grid points are formed.  A grid cell in them that neither changes sign
    nor clears goes to ``_hidden_turns``.  So every sign-change cell of the
    full grid is found, with the same end values, and the grid's size caps
    the work, not what the scan can see.
    """
    n = int(1e4 * (1.0 + lmax * (hi - lo) / (2 * math.pi)))
    n = min(max(n, 200), 400000)
    coarse = np.append(np.arange(0, n - 1, _COARSE_STRIDE), n - 1)
    wc = _grid_points(lo, hi, n, coarse)
    ca, cb = wc[:-1], wc[1:]
    dc = line.psi_prime(wc)
    second, err = _psi_bounds(line, ca, cb, 2)
    open_ = ~_cleared(ca, cb, dc[:-1], dc[1:], second, err)
    if not open_.any():  # every coarse cell is free of zeros, as on most intervals
        return []
    # the grid indices of the open coarse cells, both ends included
    first, last = coarse[:-1][open_], coarse[1:][open_]
    sizes = last - first + 1
    idx = np.repeat(first - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())
    wi = _grid_points(lo, hi, n, idx)
    dp = line.psi_prime(wi)
    # a pair of consecutive values inside one coarse cell is a grid cell
    inner = np.diff(idx) == 1
    flips = _sign_flips(dp)
    flips = flips[inner[flips]]
    turns = [bracketed_root(line.psi_prime, wi[j], wi[j + 1], dp[j], dp[j + 1]) for j in flips]
    inner[flips] = False
    # the coarse cell's bounds hold on each of its grid cells; the few that
    # do not clear with them are bisected
    j = np.flatnonzero(inner)
    cell_of = np.repeat(np.arange(sizes.size), sizes)[j]
    a, b, fa, fb = wi[j], wi[j + 1], dp[j], dp[j + 1]
    keep = ~_cleared(a, b, fa, fb, second[open_][cell_of], err[open_][cell_of])
    turns += _hidden_turns(line, a[keep], b[keep], fa[keep], fb[keep])
    return sorted(turns)


def boundary_crossings(problem: LocusProblem) -> list[CriticalPoint]:
    """All boundary crossing roots on the region's boundary Re(s) = sigma0,
    with their directions, found on one ``BoundaryLine``.

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
    line = BoundaryLine(problem.plant, problem.sigma0)
    a = line.abscissa
    lmax = problem.lambda_max
    if problem.kind is LocusKind.GAIN:
        h = problem.plant.delay
        intervals = magnitude_intervals(problem, line)
        splits = phase_extremum_freqs(problem.plant, a, h)

        def phase(w):
            return line.phase(w, h)

        def turns(lo, hi):
            return [w for w in splits if lo < w < hi]

        def lam_at(w):
            return math.exp(line.big_lambda(w))

    else:
        intervals = delay_admissible_intervals(problem, line)
        phase, lam_at = line.psi, line.delay_lam

        def turns(lo, hi):
            return _delay_turns(line, lmax, lo, hi)

    found: list[CriticalPoint] = []

    def on_root(w):
        lam = lam_at(w)
        if not (-1e-12 <= lam <= lmax * (1.0 + 1e-12)):
            return
        lam = min(max(lam, 0.0), lmax)
        entering = crossing_direction(problem, w, lam) > 0
        kind = CriticalKind.CROSSING_IN if entering else CriticalKind.CROSSING_OUT
        found.append(CriticalPoint(kind, complex(a, w), lam))

    for lo, hi in intervals:
        knots = [lo] + turns(lo, hi) + [hi]
        for left, right in zip(knots[:-1], knots[1:]):
            if right - left > 1e-14 * (1.0 + abs(right)):
                _solve_levels(left, right, phase, on_root)
    return dedup_points(_with_mirrors(found))
