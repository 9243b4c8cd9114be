"""Pseudo-arclength continuation of root-locus trajectories.

A trajectory is followed in the combined (Re s, Im s, lam) space: secant
prediction, Newton correction on the log magnitude/phase pair plus a
linearized arclength constraint, and adaptive step control driven by the
Newton contraction rate and the distance to the locus.
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
)
from .plant import LocusKind, LocusProblem
from .rootfind import bracketed_root

_LAMBDA_NOISE_REL = 1e-12
_REAL_AXIS_SAMPLES = 400
_MERGE_TOL = 1e-6  # branch points closer than this in s are one point
_BRANCH_SOLVE_ITERS = 60


@dataclass(frozen=True)
class ContinuationConfig:
    """Step-control and corrector settings for trajectory tracing."""

    h0: float | None = None  # default resolved per problem: 1e-2 * (1 + |sigma0|)
    kappa_nominal: float = 0.5
    delta_nominal: float = 1e-3
    corrector_tol: float = 1e-5
    max_newton_iters: int = 25
    h_min: float = 1e-9
    h_max: float = 1.0
    max_points: int = 100000

    def __post_init__(self):
        if self.h0 is not None and not (self.h_min <= self.h0 <= self.h_max):
            raise ValueError("require h_min <= h0 <= h_max")
        if min(self.kappa_nominal, self.delta_nominal, self.corrector_tol) <= 0:
            raise ValueError("tolerances must be positive")

    def resolved_h0(self, problem: LocusProblem) -> float:
        if self.h0 is not None:
            return self.h0
        return min(self.h_max, max(self.h_min, 1e-2 * (1.0 + abs(problem.sigma0))))


@dataclass(frozen=True)
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

    def y(self) -> np.ndarray:
        return np.array([self.point.root.real, self.point.root.imag, self.point.lam])


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


def _solve(a, b, what: str) -> np.ndarray:
    """``np.linalg.solve(a, b)`` for one right-hand side, without its argument
    checks and wrapping: the same LAPACK ``dgesv`` gufunc, so the same bits.

    The gufunc flags a zero pivot as an invalid floating-point operation (and
    fills the result with NaN); that flag, the one ``np.linalg.solve`` turns
    into ``LinAlgError``, raises JacobianSingularError here.
    """
    try:
        with np.errstate(invalid="raise"):
            return _dgesv(a, b, signature="dd->d")
    except FloatingPointError as exc:
        raise JacobianSingularError(f"singular {what} Jacobian") from exc


def _mp_jacobian(problem: LocusProblem, y: np.ndarray) -> tuple[tuple[float, float], list]:
    """Residual (M, P) at y = (sigma, omega, lam) and its two Jacobian rows,
    from one ``evaluate`` pass."""
    sigma, omega, lam = y.tolist()
    m, p, u = problem.evaluate(sigma, omega, lam)
    a = u.real - problem.effective_h(lam)
    b = u.imag
    if problem.kind is LocusKind.GAIN:
        dm_dl, dp_dl = 1.0 / lam, 0.0
    else:
        dm_dl, dp_dl = -sigma, -omega
    return (m, p), [[a, -b, dm_dl], [b, a, dp_dl]]


def _located_point(problem: LocusProblem, y: np.ndarray, step: float) -> TrajectoryPoint:
    """The point y = (sigma, omega, lam), as plain floats, with its Cartesian residual."""
    sigma, omega, lam = y.tolist()
    return TrajectoryPoint(sigma, omega, lam, problem.cartesian_residual(sigma, omega, lam), step)


def predict(prev: TrajectoryPoint, curr: TrajectoryPoint, step: float) -> np.ndarray:
    """Secant extrapolation from the last two corrected points."""
    y = curr.as_array()
    d = y - prev.as_array()
    norm = _norm(d)
    if norm < 1e-14:
        raise DegenerateError("secant direction degenerated: consecutive points coincide")
    return y + d / norm * step


def correct(
    problem: LocusProblem,
    predicted: np.ndarray,
    direction: np.ndarray,
    config: ContinuationConfig,
) -> tuple[TrajectoryPoint, float]:
    """Newton correction of a predicted point onto the locus.

    Solves M = 0, P = 0 and the arclength plane constraint; returns the
    accepted point together with the contraction rate of the first two
    Newton updates.
    """
    y = np.array(predicted, dtype=float)
    yp = y.copy()
    gain = problem.kind is LocusKind.GAIN
    first = second = 0.0  # norms of the first two Newton updates
    for it in range(config.max_newton_iters):
        if gain and y[2] <= 0.0:
            raise NoConvergenceError("corrector iterate left lam > 0")
        if not gain and y[2] < 0.0:
            y[2] = 0.0
        try:
            (m, p), rows = _mp_jacobian(problem, y)
        except PoleZeroProximityError as exc:
            raise NoConvergenceError(f"corrector iterate hit a pole/zero: {exc}") from exc
        rows.append(direction)
        delta = _solve(rows, [-m, -p, -float(np.dot(y - yp, direction))], "corrector")
        if not all(map(math.isfinite, delta.tolist())):
            raise JacobianSingularError("corrector update overflowed")
        y = y + delta
        norm = _norm(delta)
        if it == 0:
            first = norm
        elif it == 1:
            second = norm
        if norm < config.corrector_tol:
            if gain and y[2] <= 0.0:
                raise NoConvergenceError("corrector converged outside lam > 0")
            if not gain and y[2] < 0.0:
                y[2] = 0.0
            kappa = second / first if it >= 1 else 0.0
            return _located_point(problem, y, 0.0), kappa
        if it >= 2 and norm > 10.0 * first:
            raise NoConvergenceError("corrector diverging")
    raise NoConvergenceError(f"corrector did not converge in {config.max_newton_iters} iterations")


def step_update(
    kappa: float, delta: float, h_curr: float, config: ContinuationConfig
) -> tuple[float, bool]:
    """Adaptive step length from contraction rate and distance to the locus."""
    kappa_df = math.sqrt(max(kappa, 0.0) / config.kappa_nominal)
    delta_df = math.sqrt(max(delta, 0.0) / config.delta_nominal)
    raw = max(kappa_df, delta_df)
    h_df = max(min(raw, 2.0), 0.5)
    h_next = min(max(h_curr / h_df, config.h_min), config.h_max)
    return h_next, raw >= 2.0


def solve_branch_point(problem: LocusProblem, y_init: np.ndarray) -> CriticalPoint:
    """Solve the augmented branch-point system M = P = 0, G'/G - lam_eff = 0.

    Gauss-Newton on the overdetermined 4x3 system; classifies multiplicity
    and attaches the up-ray directions.
    """
    y = np.array(y_init, dtype=float)
    if problem.kind is LocusKind.GAIN and y[2] <= 0.0:
        raise NoConvergenceError("branch solve needs lam > 0 on a gain locus")
    for _ in range(_BRANCH_SOLVE_ITERS):
        try:
            (m, p), rows = _mp_jacobian(problem, y)
        except PoleZeroProximityError as exc:
            raise NoConvergenceError(f"branch solve hit a pole/zero: {exc}") from exc
        # rows[k][0] are Re and Im of u = G'/G - h_eff; u'(s) gives the derivative rows
        du = localmodel._u_derivatives(problem, complex(y[0], y[1]), y[2], 1)[1]
        dl = 0.0 if problem.kind is LocusKind.GAIN else -1.0
        f = np.array([m, p, rows[0][0], rows[1][0]])
        jac = np.array(rows + [[du.real, -du.imag, dl], [du.imag, du.real, 0.0]])
        delta, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        y = y + delta
        if problem.kind is LocusKind.GAIN:
            y[2] = max(y[2], 1e-300)
        if _norm(delta) < 1e-12 * (1.0 + _norm(y)):
            break
    else:
        raise NoConvergenceError("branch-point solve did not converge")
    return branch_point(problem, complex(y[0], y[1]), float(y[2]), 2)


def _clip_solve(
    problem: LocusProblem,
    y_guess: np.ndarray,
    pin: str,
    pin_value: float,
    config: ContinuationConfig,
) -> np.ndarray:
    """2x2 Newton with one coordinate pinned (lam = lambda_max or sigma = sigma0/0)."""
    y = np.array(y_guess, dtype=float)
    idx = {"sigma": 0, "lam": 2}[pin]
    free = [i for i in range(3) if i != idx]
    y[idx] = pin_value
    for _ in range(50):
        (m, p), rows = _mp_jacobian(problem, y)
        jac = [[row[i] for i in free] for row in rows]
        delta = _solve(jac, [-m, -p], "clip")
        y[free] += delta
        if _norm(delta) < 1e-13 * (1.0 + _norm(y)):
            return y
    raise NoConvergenceError(f"clip solve with pinned {pin} did not converge")


def _branch_proximity(registry, y: np.ndarray, radius: float, skip) -> _BranchRecord | None:
    """Nearest registered branch point within ``radius`` that lies ahead in lam."""
    for rec in registry.records:
        if skip is not None and rec is skip:
            continue
        if rec.point.lam < y[2] - 1e-12 * (1.0 + abs(y[2])):
            continue
        if _norm(rec.y() - y) < radius:
            return rec
    return None


def trace_trajectory(
    problem: LocusProblem,
    origin: CriticalPoint,
    direction: np.ndarray,
    registry: BranchRegistry,
    config: ContinuationConfig,
    origin_record: _BranchRecord | None = None,
    spawn_ray: complex | None = None,
) -> tuple[Trajectory, _BranchRecord | None]:
    """Trace one trajectory from a critical point until a termination condition.

    A trajectory leaving a multiple point along ``spawn_ray`` takes its first
    point from ``branch_spawn_prediction`` at the current step.  Returns the
    trajectory and, when it merged at a branch point, the branch record the
    caller uses to spawn outgoing branches.
    """
    y0 = (origin.root.real, origin.root.imag, float(origin.lam))
    try:
        res0 = problem.cartesian_residual(*y0) if origin.lam > 0 else 0.0
    except PoleZeroProximityError:
        res0 = 0.0
    points = [TrajectoryPoint(*y0, res0, 0.0)]
    h = config.resolved_h0(problem)
    d = np.asarray(direction, dtype=float)
    d = d / _norm(d)

    def shrink(step: float):
        nonlocal h, d
        h = step
        if spawn_ray is not None and len(points) == 1:
            d = branch_spawn_prediction(problem, origin, spawn_ray, config, t=h)[1]

    def end(termination: Termination, note: str = ""):
        return Trajectory(origin, points, termination, note), None

    def merged(rec: _BranchRecord):
        cp = rec.point
        points.append(TrajectoryPoint(cp.root.real, cp.root.imag, cp.lam, 0.0, h))
        return Trajectory(origin, points, Termination.MERGED_AT_BRANCH), rec

    while True:
        if len(points) >= config.max_points:
            return end(Termination.STALLED, "max_points reached")
        if len(points) >= 2:
            d = points[-1].as_array() - points[-2].as_array()
            d = d / _norm(d)
        halvings = 0
        while True:
            if spawn_ray is not None and len(points) == 1:
                # the first step from a multiple point is placed on the ray
                # model; tangent extrapolation has the wrong parameter scaling
                y_pred = branch_spawn_prediction(problem, origin, spawn_ray, config, t=h)[0]
            elif len(points) >= 2:
                y_pred = predict(points[-2], points[-1], h)
            else:
                y_pred = points[-1].as_array() + d * h
            try:
                pt, kappa = correct(problem, y_pred, d, config)
            except (NoConvergenceError, JacobianSingularError) as exc:
                halvings += 1
                shrink(max(h / 2.0, config.h_min))
                if halvings <= 6:
                    continue
                # repeated failure: branch point nearby, or a genuine stall
                rec = _branch_proximity(
                    registry, points[-1].as_array(), 50.0 * h + 1e-6, origin_record
                )
                if rec is not None:
                    return merged(rec)
                try:
                    cp = solve_branch_point(problem, points[-1].as_array())
                except NoConvergenceError:
                    last = points[-1]
                    return end(
                        Termination.STALLED,
                        f"corrector stalled after point (sigma, omega, lam) = "
                        f"({last.sigma:.17g}, {last.omega:.17g}, {last.lam:.17g}) "
                        f"at step h = {h:.6g} after {halvings} halvings: {exc}",
                    )
                return merged(registry.register(cp))
            # curvature guard: sharp turns mean the predictor skipped locus
            # structure (tight loops, nearby branch points); refine the step
            chord = pt.as_array() - points[-1].as_array()
            chord_norm = _norm(chord)
            if chord_norm > 0 and h > config.h_min * 1.01:
                turned = float(np.dot(chord, d)) / chord_norm < 0.9
                # midpoint-on-locus check catches skipped loops; invalid near a
                # multiple point, where the parameter grows superlinearly
                skipped = False
                if len(points) >= 3:
                    mid = points[-1].as_array() + 0.5 * chord
                    try:
                        skipped = (
                            problem.cartesian_residual(*mid.tolist())
                            > 100.0 * config.delta_nominal
                        )
                    except PoleZeroProximityError:
                        skipped = True
                if turned or skipped:
                    shrink(max(h / 2.0, config.h_min))
                    continue
            h_next, repeat = step_update(kappa, pt.residual, h, config)
            if repeat and h > config.h_min * 1.01:
                shrink(h_next)
                continue
            h = h_next
            break
        pt = TrajectoryPoint(pt.sigma, pt.omega, pt.lam, pt.residual, h)

        # clip against the lam upper bound and the region boundary
        if pt.lam > problem.lambda_max:
            try:
                y_end = _clip_solve(problem, pt.as_array(), "lam", problem.lambda_max, config)
                points.append(_located_point(problem, y_end, h))
            except (NoConvergenceError, JacobianSingularError):
                pass
            return end(Termination.LAMBDA_MAX_REACHED)
        if pt.sigma < problem.sigma0:
            try:
                y_end = _clip_solve(problem, pt.as_array(), "sigma", problem.sigma0, config)
                if 0.0 <= y_end[2] <= problem.lambda_max:
                    points.append(_located_point(problem, y_end, h))
            except (NoConvergenceError, JacobianSingularError):
                pass
            return end(Termination.LEFT_REGION)

        # lam reversal: the continuation ran straight through an even branch point
        drop = points[-1].lam - pt.lam
        if drop > _LAMBDA_NOISE_REL * max(1.0, points[-1].lam) and len(points) >= 2:
            try:
                cp = solve_branch_point(problem, points[-1].as_array())
            except NoConvergenceError:
                return end(
                    Termination.STALLED, "lam reversal detected but branch-point solve failed"
                )
            rec = registry.register(cp)
            del points[_truncate_at_branch(points, rec):]
            return merged(rec)

        points.append(pt)

        # proactive merge with registered branch points lying ahead
        rec = _branch_proximity(registry, pt.as_array(), max(2.0 * h, 1e-9), origin_record)
        if rec is not None:
            return merged(rec)
        if len(points) >= 4:
            origin_record = None  # origin shielding only applies near the origin


def _truncate_at_branch(points: list[TrajectoryPoint], rec: _BranchRecord) -> int:
    """Index from which traced points lie past the branch point (to be dropped)."""
    y_bp = rec.y()
    best_i, best_d = len(points), math.inf
    for i, p in enumerate(points):
        dist = _norm(p.as_array() - y_bp)
        if dist < best_d:
            best_i, best_d = i, dist
    return max(best_i, 1)


def branch_spawn_prediction(
    problem: LocusProblem,
    cp: CriticalPoint,
    ray: complex,
    config: ContinuationConfig,
    t: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Initial predicted point and direction for a trajectory leaving a branch point.

    Along an up ray the parameter grows like t^N, so the first prediction is
    placed analytically rather than by tangent extrapolation.
    """
    if t is None:
        t = config.resolved_h0(problem)
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
    problem: LocusProblem,
    branch_points: list[CriticalPoint],
    config: ContinuationConfig,
) -> tuple[list[Trajectory], list[CriticalPoint]]:
    """Direct real-axis locus computation for the gain case.

    On the real axis the gain is the closed form lam(sigma) =
    e^{h sigma}/|G(sigma)| wherever G(sigma) < 0; segments between real
    critical points are sampled directly instead of continued.  Returns the
    trajectories plus the real branch points that terminate colliding
    segments (for complex-pair spawning by the caller).
    """
    assert problem.kind is LocusKind.GAIN
    plant = problem.plant
    s0 = problem.sigma0
    h = plant.delay
    real_poles = sorted({p.real for p in plant.poles if abs(p.imag) < 1e-12 and p.real >= s0})
    real_zeros = sorted({z.real for z in plant.zeros if abs(z.imag) < 1e-12 and z.real >= s0})
    real_bps = sorted(
        (bp for bp in branch_points if abs(bp.root.imag) < 1e-9),
        key=lambda bp: bp.root.real,
    )

    def g_real(x: float) -> float:
        return plant.transfer(complex(x, 0.0)).real

    def lam_of(x: float) -> float:
        return math.exp(h * x) / abs(g_real(x))

    def add_boundary_point(pts: list[TrajectoryPoint], at: int) -> None:
        # the boundary is pole/zero-free, so the exact point at s0 is usable
        lam_b = lam_of(s0)
        if lam_b <= problem.lambda_max * (1 + 1e-12):
            res = problem.cartesian_residual(s0, 0.0, lam_b)
            pts.insert(at, TrajectoryPoint(s0, 0.0, lam_b, res, 0.0))

    # right cap: beyond all finite structure, push until lam exceeds lambda_max
    cap = max([s0 + 1.0] + [v + 1.0 for v in real_poles + real_zeros]
              + [bp.root.real + 1.0 for bp in real_bps])
    for _ in range(200):
        if g_real(cap) >= 0.0 or lam_of(cap) > 2.0 * problem.lambda_max:
            break
        cap *= 2.0 if cap > 0 else 0.5
        cap = cap + 1.0
    knots = sorted(
        set([s0, cap] + real_poles + real_zeros + [bp.root.real for bp in real_bps])
    )
    trajectories: list[Trajectory] = []
    colliders: list[CriticalPoint] = []

    eps = 1e-7
    for a, b in zip(knots[:-1], knots[1:]):
        if b - a < 4 * eps:
            continue
        mid = 0.5 * (a + b)
        if g_real(mid) >= 0.0:
            continue
        lo, hi = a + eps * (1 + abs(a)), b - eps * (1 + abs(b))
        lam_lo, lam_hi = lam_of(lo), lam_of(hi)
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
        if lam_to > problem.lambda_max:
            x_to = bracketed_root(
                lambda x: lam_of(x) - problem.lambda_max, min(x_from, x_to), max(x_from, x_to)
            )
            lam_to = problem.lambda_max
            clipped = True
        else:
            clipped = False

        xs = np.linspace(x_from, x_to, _REAL_AXIS_SAMPLES)
        pts = []
        for x in xs:
            lam = lam_of(float(x))
            if lam > problem.lambda_max * (1 + 1e-12):
                continue
            res = problem.cartesian_residual(float(x), 0.0, max(lam, 1e-300))
            pts.append(TrajectoryPoint(float(x), 0.0, lam, res, 0.0))
        pts.sort(key=lambda p: p.lam)
        if len(pts) < 2:
            continue

        # classify the origin of the segment
        def near(x, values, tol=1e-7):
            return any(abs(x - v) < tol * (1 + abs(v)) for v in values)

        if near(start_knot, real_poles) and lam_from < 1e-3:
            mult = sum(1 for p in plant.poles if abs(p.imag) < 1e-12
                       and abs(p.real - start_knot) < 1e-9)
            origin = CriticalPoint(
                CriticalKind.START, complex(start_knot, 0.0), 0.0, multiplicity=mult
            )
            pts.insert(0, TrajectoryPoint(start_knot, 0.0, 0.0, 0.0, 0.0))
        elif abs(start_knot - s0) < 1e-12:
            origin = CriticalPoint(CriticalKind.CROSSING_IN, complex(s0, 0.0), lam_of(s0))
            add_boundary_point(pts, 0)
        else:
            bp = _nearest_bp(real_bps, start_knot)
            origin = bp if bp is not None else CriticalPoint(
                CriticalKind.START, complex(start_knot, 0.0), lam_from
            )

        if clipped:
            term = Termination.LAMBDA_MAX_REACHED
        elif abs(end_knot - s0) < 1e-12:
            term = Termination.LEFT_REGION
            add_boundary_point(pts, len(pts))
        else:
            bp = _nearest_bp(real_bps, end_knot)
            if bp is not None:
                term = Termination.MERGED_AT_BRANCH
                pts.append(TrajectoryPoint(bp.root.real, 0.0, bp.lam, 0.0, 0.0))
                colliders.append(bp)
            else:
                # lam -> inf at a zero, clipped below; any other end knot is the cap
                term = Termination.LAMBDA_MAX_REACHED
        trajectories.append(Trajectory(origin, pts, term))
    return trajectories, colliders


def _nearest_bp(real_bps: list[CriticalPoint], x: float) -> CriticalPoint | None:
    for bp in real_bps:
        if abs(bp.root.real - x) < 1e-7 * (1 + abs(x)):
            return bp
    return None
