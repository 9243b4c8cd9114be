"""Pseudo-arclength continuation of root-locus trajectories.

A trajectory is followed in the combined (Re s, Im s, lam) space: secant
prediction, Newton correction on the log magnitude/phase pair plus a
linearized arclength constraint, and adaptive step control driven by the
Newton contraction rate.

The corrector, the clip solve and the tracer's per-step arithmetic run on
plain floats.  ``_mp_jacobian`` gives the residuals of ``LocusProblem.mp`` and
the Jacobian rows [[a, -b, c0], [b, a, c1]] flat, as (M, P, a, b, c0, c1).
A ``NewtonWorkspace``, made once per trace (and once for the engine's
sigma = 0 refines), holds the memory of every Newton system: one float
buffer, written through one memoryview, with the corrector's 3x3 system,
right-hand side and arclength offset, the clip solve's 2x2 system, a
``dgesv`` output for each and the tracer's chord.  ``correct`` and
``_clip_solve`` take it and allocate nothing per call.  The secant is three
float divisions of the chord by its norm, the bits of numpy's
``chord / norm``, passed on as a tuple.
numpy keeps only the calls whose rounding sets the bits of the traced
locus: the LAPACK ``dgesv`` gufunc for the Newton systems, and BLAS
``ddot`` for every dot product and norm whose value is kept (a Python sum
of products rounds apart from it now and then): the first two update
norms of ``correct``, which set the contraction rate and so the step, the
arclength row, the chord norm of the secant and the tangents.  A norm, a
cosine or a distance that only meets a threshold is summed in plain floats
and decided on that float: the thresholds are heuristic tolerances, and
which rounding of the sum meets them has no numerical meaning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _dgesv

from . import localmodel
from .critical import CriticalKind, CriticalPoint, branch_point
from .errors import (
    DegenerateError,
    JacobianSingularError,
    NoConvergenceError,
    PoleZeroProximityError,
    RootLocusError,
)
from .plant import LocusKind, LocusProblem
from .rootfind import bracketed_root

_AXIS_TOL = 1e-9  # a root within this of an axis lies on it
_LAMBDA_NOISE_REL = 1e-12
_REAL_AXIS_LOG_TOL = 1e-2  # real-axis samples: max log-lam interpolation error
_MERGE_TOL = 1e-6  # branch points closer than this in s are one point
_BRANCH_SOLVE_ITERS = 60
# the kinds of critical point a real-axis segment can begin at
_AXIS_ORIGINS = (CriticalKind.START, CriticalKind.CROSSING_IN, CriticalKind.BRANCH)

# step control and corrector settings
_KAPPA_NOMINAL = 0.5  # Newton contraction rate the step length aims at
# a step whose chord midpoint has a larger Cartesian residual skipped structure
_MIDPOINT_RESIDUAL_MAX = 0.1
_CORRECTOR_TOL = 1e-5
_RESIDUAL_MAX = 1e-4  # the Cartesian residual a corrected point may keep
_MAX_NEWTON_ITERS = 25
_H_MIN = 1e-9
_H_MAX = 1.0
_MAX_POINTS = 100000


def _h0(problem: LocusProblem) -> float:
    """The first step length: 1e-2 * (1 + |sigma0|), within [_H_MIN, _H_MAX]."""
    return min(_H_MAX, max(_H_MIN, 1e-2 * (1.0 + abs(problem.sigma0))))


@dataclass(slots=True)
class TrajectoryPoint:
    sigma: float
    omega: float
    lam: float
    residual: float
    step_used: float

    def as_array(self) -> np.ndarray:
        return np.array([self.sigma, self.omega, self.lam])

    @property
    def root(self) -> complex:
        return complex(self.sigma, self.omega)


class Termination(Enum):
    LAMBDA_MAX_REACHED = "lambda_max_reached"
    LEFT_REGION = "left_region"
    MERGED_AT_BRANCH = "merged_at_branch"
    STALLED = "stalled"


@dataclass
class Trajectory:
    origin: CriticalPoint
    points: list[TrajectoryPoint]
    termination: Termination
    note: str = ""


@dataclass
class _BranchRecord:
    point: CriticalPoint  # BRANCH critical point, lam at the branch
    rays: list[complex]  # up rays no trajectory has been spawned along yet

    def __post_init__(self):
        # built once: _branch_proximity reads it at every accepted step
        root = self.point.root
        self._yt = (root.real, root.imag, self.point.lam)


class BranchRegistry:
    """Registry of branch points and the up rays not yet spawned from them."""

    def __init__(self):
        self.records: list[_BranchRecord] = []

    def register(self, cp: CriticalPoint) -> _BranchRecord:
        """The record of the branch point ``cp``: an existing one within
        ``_MERGE_TOL``, else a new one holding the up rays of ``cp.directions``."""
        for rec in self.records:
            if abs(rec.point.root - cp.root) < _MERGE_TOL:
                return rec
        rec = _BranchRecord(cp, [complex(d[0], d[1]) for d in cp.directions])
        self.records.append(rec)
        return rec


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a real vector: what ``np.linalg.norm`` computes for
    1-D real input, ``sqrt(x.dot(x))``, without its argument handling."""
    return math.sqrt(x.dot(x))


class NewtonWorkspace:
    """The memory of the Newton systems of one trace, made once and handed to
    every ``correct`` and ``_clip_solve`` call of it.

    One 29-float buffer and its memoryview ``w``: the corrector's 3x3 matrix
    ``a3`` (w[0:9]; its last row, ``row``, the direction), right-hand side
    ``b3`` (w[9:12]), iterate minus prediction ``moved`` (w[12:15]) and
    ``dgesv`` output ``x3`` (w[15:18]); the tracer's chord (w[18:21]); the
    clip solve's 2x2 matrix ``a2`` (w[21:25]), right-hand side ``b2``
    (w[25:27]) and output ``x2`` (w[27:29]).  A call writes every slot it
    reads before it reads it, so one call leaves nothing for the next, also
    when it fails.
    """

    __slots__ = ("w", "a3", "row", "b3", "moved", "x3", "chord", "a2", "b2", "x2")

    def __init__(self):
        buf = np.empty(29)
        self.w = memoryview(buf)
        self.a3, self.row = buf[:9].reshape(3, 3), buf[6:9]
        self.b3, self.moved, self.x3, self.chord = buf[9:12], buf[12:15], buf[15:18], buf[18:21]
        self.a2, self.b2, self.x2 = buf[21:25].reshape(2, 2), buf[25:27], buf[27:29]


def _mp_jacobian(problem: LocusProblem, y) -> tuple[float, float, float, float, float, float]:
    """Residual (M, P) at y = (sigma, omega, lam) and its two Jacobian rows
    [[a, -b, c0], [b, a, c1]], as the flat (M, P, a, b, c0, c1): ``mp``, which
    checks proximity, then a + jb = G'/G - h_eff from ``log_derivative``."""
    sigma, omega, lam = y
    m, p = problem.mp(sigma, omega, lam)
    u = problem.log_derivative(complex(sigma, omega))
    if problem._gain:
        return m, p, u.real - problem.plant.delay, u.imag, 1.0 / lam, 0.0
    return m, p, u.real - lam, u.imag, -sigma, -omega


def _located_point(problem: LocusProblem, y, step: float) -> TrajectoryPoint:
    """The point y = (sigma, omega, lam) of plain floats, with its Cartesian residual."""
    sigma, omega, lam = y
    return TrajectoryPoint(sigma, omega, lam, problem.cartesian_residual(sigma, omega, lam), step)


def secant(c0: float, c1: float, c2: float, norm: float) -> tuple[float, float, float]:
    """Unit secant direction through the last two corrected points, from the
    chord (c0, c1, c2) between them (the later minus the earlier) and its
    ``_norm``: the bits of numpy's ``chord / norm``, one IEEE division each."""
    if norm < 1e-14:
        raise DegenerateError("secant direction degenerated: consecutive points coincide")
    return c0 / norm, c1 / norm, c2 / norm


@np.errstate(invalid="raise")
def correct(
    problem: LocusProblem, predicted, direction, ws: NewtonWorkspace
) -> tuple[TrajectoryPoint, float]:
    """Newton correction of a predicted point onto the locus.

    Solves M = 0, P = 0 and the arclength plane constraint; returns the
    accepted point (its ``step_used`` 0.0) together with the contraction rate
    of the first two Newton updates.  A point is accepted once an update is
    below ``_CORRECTOR_TOL`` and its Cartesian residual is at most
    ``_RESIDUAL_MAX``: near lam = 0 an update that small can leave a point
    far off the locus.  The iterate is plain floats; each 3x3 system is
    written through the memoryview of the workspace ``ws`` and goes, as views
    of it, to ``dgesv``, which writes the update into ``ws.x3``; its
    zero-pivot flag (an invalid operation, made to raise for the whole call
    by the ``np.errstate`` decorator) raises JacobianSingularError.  The
    arclength row and the first two update norms are ``ddot`` products; the
    first row is -0.0, the negated ``ddot`` of the zero offset of a
    prediction that is still the iterate, and later norms, which only meet
    thresholds, are plain float sums.  An iterate at lam <= 0 on a gain
    locus, or on a pole or zero, fails with NoConvergenceError, as in the
    other two solvers.
    """
    sigma_p, omega_p, lam_p = map(float, predicted)
    sigma, omega, lam = sigma_p, omega_p, lam_p
    gain = problem._gain
    isfinite = math.isfinite
    w, a, b, moved, row, x = ws.w, ws.a3, ws.b3, ws.moved, ws.row, ws.x3
    w[6], w[7], w[8] = direction
    first = second = 0.0  # norms of the first two Newton updates
    for it in range(_MAX_NEWTON_ITERS):
        if gain:
            if lam <= 0.0:
                raise NoConvergenceError("corrector iterate left lam > 0")
        elif lam < 0.0:
            lam = 0.0
        try:
            m, p, ja, jb, c0, c1 = _mp_jacobian(problem, (sigma, omega, lam))
        except PoleZeroProximityError as exc:
            raise NoConvergenceError(f"corrector iterate hit a pole/zero: {exc}") from exc
        w[0], w[1], w[2], w[3], w[4], w[5], w[9], w[10] = ja, -jb, c0, jb, ja, c1, -m, -p
        if it == 0 and lam == lam_p:
            # the iterate is the prediction: ddot gives +0.0 for the zero
            # offset against the finite unit direction
            w[11] = -0.0
        else:
            w[12], w[13], w[14] = sigma - sigma_p, omega - omega_p, lam - lam_p
            w[11] = -moved.dot(row)
        try:
            _dgesv(a, b, out=x)
        except FloatingPointError as exc:
            raise JacobianSingularError("singular corrector Jacobian") from exc
        d0, d1, d2 = w[15], w[16], w[17]
        if not (isfinite(d0) and isfinite(d1) and isfinite(d2)):
            raise JacobianSingularError("corrector update overflowed")
        sigma, omega, lam = sigma + d0, omega + d1, lam + d2
        if it >= 2:
            norm = math.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
        elif it == 0:
            norm = first = math.sqrt(x.dot(x))
        else:
            norm = second = math.sqrt(x.dot(x))
        if norm < _CORRECTOR_TOL:
            if gain and lam <= 0.0:
                raise NoConvergenceError("corrector converged outside lam > 0")
            if not gain and lam < 0.0:
                lam = 0.0
            res = problem.cartesian_residual(sigma, omega, lam)
            if res <= _RESIDUAL_MAX:
                return (TrajectoryPoint(sigma, omega, lam, res, 0.0),
                        second / first if it >= 1 else 0.0)
        if it >= 2 and norm > 10.0 * first:
            raise NoConvergenceError("corrector diverging")
    raise NoConvergenceError(f"corrector did not converge in {_MAX_NEWTON_ITERS} iterations")


def step_update(kappa: float, h_curr: float) -> tuple[float, bool]:
    """Adaptive step length from the Newton contraction rate: the next step
    and whether this one is to be repeated, at kappa of 4x the nominal and up."""
    raw = math.sqrt(max(kappa, 0.0) / _KAPPA_NOMINAL)
    h_df = max(min(raw, 2.0), 0.5)
    h_next = min(max(h_curr / h_df, _H_MIN), _H_MAX)
    return h_next, raw >= 2.0


def solve_branch_point(problem: LocusProblem, y_init: np.ndarray) -> CriticalPoint:
    """Solve the augmented branch-point system M = P = 0, G'/G - lam_eff = 0.

    Gauss-Newton on the overdetermined 4x3 system; classifies multiplicity
    and attaches the up-ray directions.
    """
    y = np.array(y_init, dtype=float)
    gain = problem.kind is LocusKind.GAIN
    for _ in range(_BRANCH_SOLVE_ITERS):
        if gain and y[2] <= 0.0:
            raise NoConvergenceError("branch solve iterate left lam > 0")
        try:
            m, p, ja, jb, c0, c1 = _mp_jacobian(problem, y.tolist())
        except PoleZeroProximityError as exc:
            raise NoConvergenceError(f"branch solve iterate hit a pole/zero: {exc}") from exc
        # ja and jb are Re and Im of u = G'/G - h_eff; u'(s) gives the derivative rows
        du = localmodel._u_derivatives(problem, complex(y[0], y[1]), y[2], 1)[1]
        dl = 0.0 if gain else -1.0
        f = np.array([m, p, ja, jb])
        jac = np.array([[ja, -jb, c0], [jb, ja, c1],
                        [du.real, -du.imag, dl], [du.imag, du.real, 0.0]])
        delta, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        y = y + delta
        if gain:
            y[2] = max(y[2], 1e-300)
        d0, d1, d2 = delta.tolist()
        y0, y1, y2 = y.tolist()
        if math.sqrt(d0 * d0 + d1 * d1 + d2 * d2) < 1e-12 * (
            1.0 + math.sqrt(y0 * y0 + y1 * y1 + y2 * y2)
        ):
            break
    else:
        raise NoConvergenceError("branch-point solve did not converge")
    if not (y[0] >= problem.sigma0 and 0.0 < y[2] <= problem.lambda_max):
        raise NoConvergenceError(
            f"branch-point solve left the region: (sigma, omega, lam) = {tuple(y.tolist())}"
        )
    return branch_point(problem, complex(y[0], y[1]), float(y[2]), 2)


@np.errstate(invalid="raise")
def _clip_solve(
    problem: LocusProblem, y_guess, pin: str, pin_value: float, ws: NewtonWorkspace
) -> list[float]:
    """2x2 Newton with one coordinate pinned (lam = lambda_max or sigma = sigma0/0),
    on plain floats with ``dgesv`` in the workspace ``ws``, failing as
    ``correct`` does."""
    y = list(map(float, y_guess))
    # the free coordinates i, j and the pinned one
    on_lam = pin == "lam"
    i, j, k = (0, 1, 2) if on_lam else (1, 2, 0)
    y[k] = float(pin_value)
    gain = problem._gain
    w, a, b, x = ws.w, ws.a2, ws.b2, ws.x2
    for _ in range(50):
        if gain and y[2] <= 0.0:
            raise NoConvergenceError("clip solve iterate left lam > 0")
        try:
            m, p, ja, jb, c0, c1 = _mp_jacobian(problem, y)
        except PoleZeroProximityError as exc:
            raise NoConvergenceError(f"clip solve iterate hit a pole/zero: {exc}") from exc
        # columns i, j of the rows [[ja, -jb, c0], [jb, ja, c1]]
        if on_lam:
            w[21], w[22], w[23], w[24] = ja, -jb, jb, ja
        else:
            w[21], w[22], w[23], w[24] = -jb, c0, ja, c1
        w[25], w[26] = -m, -p
        try:
            _dgesv(a, b, out=x)
        except FloatingPointError as exc:
            raise JacobianSingularError("singular clip Jacobian") from exc
        d0, d1 = w[27], w[28]
        y[i] += d0
        y[j] += d1
        y0, y1, y2 = y
        if math.sqrt(d0 * d0 + d1 * d1) < 1e-13 * (1.0 + math.sqrt(y0 * y0 + y1 * y1 + y2 * y2)):
            return y
    raise NoConvergenceError(f"clip solve with pinned {pin} did not converge")


def _branch_proximity(registry, y, radius: float, skip) -> _BranchRecord | None:
    """First registered branch point within ``radius`` of y = (sigma, omega,
    lam) that lies ahead in lam, other than the one at the critical point
    ``skip``."""
    if not registry.records:
        return None
    sigma, omega, lam = y
    lam_floor = lam - 1e-12 * (1.0 + abs(lam))
    for rec in registry.records:
        if rec.point is skip:
            continue
        if rec.point.lam < lam_floor:
            continue
        r0, r1, r2 = rec._yt
        e0, e1, e2 = r0 - sigma, r1 - omega, r2 - lam
        if math.sqrt(e0 * e0 + e1 * e1 + e2 * e2) < radius:
            return rec
    return None


def trace_trajectory(
    problem: LocusProblem,
    origin: CriticalPoint,
    registry: BranchRegistry,
    spawn_ray: complex | None = None,
) -> tuple[Trajectory, _BranchRecord | None]:
    """Trace one trajectory from a critical point until a termination condition.

    The first step leaves a simple ``origin`` along its tangent, and a
    multiple one along its up ray ``spawn_ray``: the first point is placed by
    ``branch_spawn_prediction`` at the current step.  For its first three
    steps the trajectory does not merge into the branch record of its origin.
    Returns the trajectory and, when it merged at a branch point, the branch
    record the caller uses to spawn outgoing branches.
    """
    y0 = (origin.root.real, origin.root.imag, float(origin.lam))
    try:
        res0 = problem.cartesian_residual(*y0) if origin.lam > 0 else 0.0
    except PoleZeroProximityError:
        res0 = 0.0
    points = [TrajectoryPoint(*y0, res0, 0.0)]
    h = _h0(problem)
    skip = origin  # origin shielding, for the first three steps
    ws = NewtonWorkspace()
    w, chord = ws.w, ws.chord
    if spawn_ray is None:
        d = localmodel.initial_tangent_simple(problem, origin.root, origin.lam)
        d = d / _norm(d)
        d0, d1, d2 = d.tolist()

    def end(termination: Termination, note: str = ""):
        return Trajectory(origin, points, termination, note), None

    def merged(rec: _BranchRecord):
        cp = rec.point
        points.append(TrajectoryPoint(cp.root.real, cp.root.imag, cp.lam, 0.0, h))
        return Trajectory(origin, points, Termination.MERGED_AT_BRANCH), rec

    while True:
        if len(points) >= _MAX_POINTS:
            return end(Termination.STALLED, "max_points reached")
        last = points[-1]
        if len(points) >= 2:
            # the chord of the step that placed ``last``
            d = d0, d1, d2 = secant(c0, c1, c2, chord_norm)
        halvings = 0
        while True:
            if spawn_ray is not None and len(points) == 1:
                # the first step from a multiple point is placed on the ray
                # model; tangent extrapolation has the wrong parameter scaling
                y_pred, d = branch_spawn_prediction(origin, spawn_ray, h)
                d = d / _norm(d)
                d0, d1, d2 = d.tolist()
            else:
                y_pred = (last.sigma + d0 * h, last.omega + d1 * h, last.lam + d2 * h)
            try:
                pt, kappa = correct(problem, y_pred, d, ws)
            except (NoConvergenceError, JacobianSingularError) as exc:
                halvings += 1
                h = max(h / 2.0, _H_MIN)
                if halvings <= 6:
                    continue
                # repeated failure: branch point nearby, or a genuine stall
                rec = _branch_proximity(
                    registry, (last.sigma, last.omega, last.lam), 50.0 * h + 1e-6, skip
                )
                if rec is not None:
                    return merged(rec)
                try:
                    cp = solve_branch_point(problem, last.as_array())
                except NoConvergenceError:
                    return end(
                        Termination.STALLED,
                        f"corrector stalled after point (sigma, omega, lam) = "
                        f"({last.sigma:.17g}, {last.omega:.17g}, {last.lam:.17g}) "
                        f"at step h = {h:.6g} after {halvings} halvings: {exc}",
                    )
                return merged(registry.register(cp))
            # curvature guard: sharp turns mean the predictor skipped locus
            # structure (tight loops, nearby branch points); refine the step
            c0, c1, c2 = pt.sigma - last.sigma, pt.omega - last.omega, pt.lam - last.lam
            w[18], w[19], w[20] = c0, c1, c2
            chord_norm = math.sqrt(chord.dot(chord))
            if chord_norm > 0 and h > _H_MIN * 1.01:
                refused = (c0 * d0 + c1 * d1 + c2 * d2) / chord_norm < 0.9
                # midpoint-on-locus check catches skipped loops; invalid near a
                # multiple point, where the parameter grows superlinearly
                if not refused and len(points) >= 3:
                    try:
                        refused = problem.cartesian_residual(
                            last.sigma + 0.5 * c0, last.omega + 0.5 * c1, last.lam + 0.5 * c2
                        ) > _MIDPOINT_RESIDUAL_MAX
                    except PoleZeroProximityError:
                        refused = True
                if refused:
                    h = max(h / 2.0, _H_MIN)
                    continue
            h_next, repeat = step_update(kappa, h)
            repeat = repeat and h > _H_MIN * 1.01
            h = h_next
            if not repeat:
                break
        # the step is known only now; pt is new and unshared: stamp, not rebuild
        pt.step_used = h
        y = (pt.sigma, pt.omega, pt.lam)

        # clip against the region boundary, then the lam upper bound: a step
        # past both ends on sigma0 when the curve meets it within lambda_max
        lmax = problem.lambda_max
        if pt.sigma < problem.sigma0:
            try:
                y_end = _clip_solve(problem, y, "sigma", problem.sigma0, ws)
            except (NoConvergenceError, JacobianSingularError):
                y_end = None
            if pt.lam <= lmax or (y_end is not None and y_end[2] <= lmax):
                if y_end is not None and 0.0 <= y_end[2] <= lmax:
                    points.append(_located_point(problem, y_end, h))
                return end(Termination.LEFT_REGION)
        if pt.lam > lmax:
            try:
                y_end = _clip_solve(problem, y, "lam", lmax, ws)
                points.append(_located_point(problem, y_end, h))
            except (NoConvergenceError, JacobianSingularError):
                pass
            return end(Termination.LAMBDA_MAX_REACHED)

        # lam reversal: the continuation ran straight through an even branch point
        drop = last.lam - pt.lam
        if drop > _LAMBDA_NOISE_REL * max(1.0, last.lam) and len(points) >= 2:
            try:
                cp = solve_branch_point(problem, last.as_array())
            except NoConvergenceError:
                return end(
                    Termination.STALLED, "lam reversal detected but branch-point solve failed"
                )
            rec = registry.register(cp)
            del points[_truncate_at_branch(points, rec):]
            return merged(rec)

        points.append(pt)

        # proactive merge with registered branch points lying ahead
        rec = _branch_proximity(registry, y, max(2.0 * h, 1e-9), skip)
        if rec is not None:
            return merged(rec)
        if len(points) >= 4:
            skip = None


def _truncate_at_branch(points: list[TrajectoryPoint], rec: _BranchRecord) -> int:
    """Index from which traced points lie past the branch point (to be
    dropped): the first point at the least float distance from it, never 0."""
    r0, r1, r2 = rec._yt
    best_i, best_d = len(points), math.inf
    for i, p in enumerate(points):
        e0, e1, e2 = p.sigma - r0, p.omega - r1, p.lam - r2
        dist = math.sqrt(e0 * e0 + e1 * e1 + e2 * e2)
        if dist < best_d:
            best_i, best_d = i, dist
    return max(best_i, 1)


def branch_spawn_prediction(
    cp: CriticalPoint, ray: complex, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Initial predicted point and direction for a trajectory leaving a branch
    point along ``ray``, at distance ``t`` from it.

    Along an up ray the parameter grows like t^N, so the first prediction is
    placed analytically rather than by tangent extrapolation.
    """
    n = cp.multiplicity
    y_pred = np.array(
        [
            cp.root.real + t * ray.real,
            cp.root.imag + t * ray.imag,
            cp.lam + t**n,
        ]
    )
    d = np.array([ray.real, ray.imag, n * t ** (n - 1)])
    return y_pred, d / _norm(d)


def real_axis_segments(
    problem: LocusProblem, axis_points: list[CriticalPoint]
) -> tuple[list[Trajectory], list[CriticalPoint]]:
    """Direct real-axis locus computation for the gain case.

    On the real axis the gain is the closed form lam(sigma) =
    e^{h sigma}/|G(sigma)| wherever G(sigma) < 0.  The segments run between
    ``axis_points``, the pole starts, the omega = 0 crossing and the real
    branch points, split also at each lam maximum above lambda_max; each
    begins at one of these points, ends at one or at the lambda_max clip, and
    is sampled directly instead of continued, at sigma = 0 too if it crosses
    there.  Returns the trajectories plus the real branch points that
    terminate colliding segments (for complex-pair spawning by the caller).
    """
    assert problem.kind is LocusKind.GAIN
    plant = problem.plant
    s0 = problem.sigma0
    h = plant.delay
    at = {cp.root.real: cp for cp in axis_points}
    real_zeros = [z.real for z in plant.zeros if abs(z.imag) < _AXIS_TOL and z.real >= s0]

    def g_real(x: float) -> float:
        return plant.transfer(complex(x, 0.0)).real

    def lam_and_log(x: float) -> tuple[float, float]:
        # log lam from the log of |G|, finite where lam itself under- or overflows
        g = abs(g_real(x))
        return math.exp(h * x) / g, h * x - math.log(g)

    def point_at(x: float, kinds: tuple[CriticalKind, ...], which: str) -> CriticalPoint:
        cp = at.get(x)
        if cp is None or cp.kind not in kinds:
            raise RootLocusError(
                f"the real-axis segment {which} at sigma = {x!r} has no critical point there"
            )
        return cp

    def axis_point(cp: CriticalPoint, residual: bool) -> TrajectoryPoint:
        # cp on the axis, with its residual if asked and lam > 0 (not a pole)
        x, lam = cp.root.real, cp.lam
        res = problem.cartesian_residual(x, 0.0, lam) if residual and lam > 0 else 0.0
        return TrajectoryPoint(x, 0.0, lam, res, 0.0)

    # right cap: beyond all finite structure, push until lam exceeds lambda_max
    cap = max([s0 + 1.0] + [v + 1.0 for v in [*at, *real_zeros]])
    for _ in range(200):
        if g_real(cap) >= 0.0 or lam_and_log(cap)[0] > 2.0 * problem.lambda_max:
            break
        cap *= 2.0 if cap > 0 else 0.5
        cap = cap + 1.0

    eps = 1e-7

    def drawn_in(a: float, b: float) -> tuple[float, float]:
        return a + eps * (1 + abs(a)), b - eps * (1 + abs(b))

    def dlog_lam(x: float) -> float:
        # d(log lam)/dx = h - G'/G
        return h - problem.log_derivative(complex(x, 0.0)).real

    knots = sorted(set([s0, cap, *at, *real_zeros]))
    # the locus covers the knot intervals where G < 0.  A lam maximum above
    # lambda_max inside one is a real branch point that ``branch_points_gain``
    # leaves out: the interval is split there, so that each arm rises
    # monotonically to its lambda_max clip
    pieces: list[tuple[float, float]] = []
    for a, b in zip(knots[:-1], knots[1:]):
        if b - a < 4 * eps or g_real(0.5 * (a + b)) >= 0.0:
            continue
        lo, hi = drawn_in(a, b)
        d_lo = dlog_lam(lo)
        d_hi = dlog_lam(hi) if d_lo > 0.0 else 0.0  # no maximum unless lam rises at lo
        if d_lo > 0.0 > d_hi:
            peak = bracketed_root(dlog_lam, lo, hi, d_lo, d_hi)
            if lam_and_log(peak)[0] > problem.lambda_max:
                pieces += [(a, peak), (peak, b)]
                continue
        pieces.append((a, b))
    trajectories: list[Trajectory] = []
    colliders: list[CriticalPoint] = []

    for a, b in pieces:
        lo, hi = drawn_in(a, b)
        lam_lo, lam_hi = lam_and_log(lo)[0], lam_and_log(hi)[0]
        # orient the traversal from low lam to high lam
        if lam_lo <= lam_hi:
            x_from, x_to, lam_from, lam_to = lo, hi, lam_lo, lam_hi
            end_knot, start_knot = b, a
        else:
            x_from, x_to, lam_from, lam_to = hi, lo, lam_hi, lam_lo
            end_knot, start_knot = a, b
        if lam_from > problem.lambda_max:
            continue
        # clip the far end at lambda_max
        clipped = lam_to > problem.lambda_max
        if clipped:
            lmax = problem.lambda_max
            (x0, lam0), (x1, lam1) = sorted([(x_from, lam_from), (x_to, lam_to)])
            x_to = bracketed_root(
                lambda x: lam_and_log(x)[0] - lmax, x0, x1, lam0 - lmax, lam1 - lmax
            )

        pts = []
        samples = _real_axis_samples(lam_and_log, x_from, x_to)
        if min(x_from, x_to) < 0.0 < max(x_from, x_to):
            samples.append((0.0, lam_and_log(0.0)[0]))  # its axis event is refined here
        for x, lam in samples:
            if lam > problem.lambda_max * (1 + 1e-12):
                continue
            res = problem.cartesian_residual(x, 0.0, max(lam, 1e-300))
            pts.append(TrajectoryPoint(x, 0.0, lam, res, 0.0))
        pts.sort(key=lambda p: p.lam)
        if len(pts) < 2:
            continue

        origin = point_at(start_knot, _AXIS_ORIGINS, "start")
        pts.insert(0, axis_point(origin, True))
        if clipped or (end_knot not in at and end_knot != s0):
            # clipped, or lam -> inf at a zero or the cap, clipped below
            term = Termination.LAMBDA_MAX_REACHED
        elif end_knot == s0:
            term = Termination.LEFT_REGION
            pts.append(axis_point(point_at(s0, (CriticalKind.CROSSING_OUT,), "end"), True))
        else:
            bp = point_at(end_knot, (CriticalKind.BRANCH,), "end")
            term = Termination.MERGED_AT_BRANCH
            pts.append(axis_point(bp, False))  # no residual, as at a traced merge
            colliders.append(bp)
        trajectories.append(Trajectory(origin, pts, term))
    return trajectories, colliders


def _real_axis_samples(lam_and_log, x_from: float, x_to: float) -> list[tuple[float, float]]:
    """(x, lam) samples from x_from to x_to, both ends included, bisected until
    linear interpolation of log lam between neighbours is within
    ``_REAL_AXIS_LOG_TOL`` of log lam at their midpoint, or until the midpoint
    rounds onto an end."""
    lam, log_lam = lam_and_log(x_from)
    out = [(x_from, lam)]
    a, log_a = x_from, log_lam
    todo = [(x_to, *lam_and_log(x_to))]  # right ends, nearest last
    while todo:
        b, lam_b, log_b = todo[-1]
        m = 0.5 * (a + b)
        if m != a and m != b:
            lam_m, log_m = lam_and_log(m)
            if abs(log_m - 0.5 * (log_a + log_b)) > _REAL_AXIS_LOG_TOL:
                todo.append((m, lam_m, log_m))
                continue
        todo.pop()
        out.append((b, lam_b))
        a, log_a = b, log_b
    return out

