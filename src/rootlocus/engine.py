"""Top-level root-locus computation: seeding, tracing, stability intervals."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from . import continuation as cont
from . import critical, localmodel
from .critical import CriticalKind, CriticalPoint, dedup_points
from .continuation import _AXIS_TOL
from .errors import NoConvergenceError, JacobianSingularError
from .plant import LocusKind, LocusProblem, _is_conjugate_symmetric

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ImagAxisEvent:
    """A characteristic root crossing the imaginary axis."""

    lam: float
    omega: float
    direction: int  # +1 root moves into Re(s) > 0, -1 moves out


@dataclass
class RootLocusResult:
    problem: LocusProblem
    trajectories: list[cont.Trajectory]
    critical_points: list[CriticalPoint]
    imag_axis_events: list[ImagAxisEvent]
    stability_intervals: list[tuple[float, float]]
    initial_unstable_count: int
    warnings: list[str] = field(default_factory=list)


def _seeds(problem: LocusProblem, origin: CriticalPoint, rays=(None,)) -> list[tuple]:
    """The (origin, ray) seeds of the up ``rays`` of ``origin`` that are traced;
    a simple point has the one ray None, its tangent.  Every up ray is traced
    except the real rays of a real point on a gain locus, which the real-axis
    closed form owns (the tangent of a simple real point is real)."""
    if problem.kind is LocusKind.GAIN and abs(origin.root.imag) < _AXIS_TOL:
        rays = [ray for ray in rays if ray is not None and abs(ray.imag) >= 1e-9]
    return [(origin, ray) for ray in rays]


def _seed_key(seed: tuple) -> tuple:
    origin, ray = seed
    return (*origin.key(), 0.0 if ray is None else round(math.atan2(ray.imag, ray.real), 12))


def _branch_seeds(problem: LocusProblem, rec) -> list[tuple]:
    """The seeds of the up rays of a branch record not spawned yet; empties its list."""
    seeds = _seeds(problem, rec.point, rec.rays)
    rec.rays = []
    return seeds


def compute_root_locus(problem: LocusProblem, workers: int = 1) -> RootLocusResult:
    """Compute every locus trajectory in the region for lam in [0, lambda_max].

    On a gain locus the real axis comes from the closed form.  Every other
    trajectory is traced from a seed: a critical point and, at a multiple
    point, one of its up rays, as ``_seeds`` picks them.  Step control is
    fixed (the constants of ``continuation``); the problem is the only input.
    Trajectories are traced serially; ``workers`` accepts only 1.
    """
    if workers != 1:
        raise ValueError(f"compute_root_locus runs serially: workers must be 1, got {workers}")
    registry = cont.BranchRegistry()
    warnings: list[str] = []

    starts = critical.starting_points(problem)
    crossings = critical.boundary_crossings(problem)

    trajectories: list[cont.Trajectory] = []
    seeds: list[tuple] = []

    bps = critical.branch_points_gain(problem) if problem.kind is LocusKind.GAIN else []
    for bp in bps:
        registry.register(bp)
    pre_registered = len(registry.records)

    if problem.kind is LocusKind.GAIN:
        real_trajs, colliders = cont.real_axis_segments(
            problem, [cp for cp in starts + crossings + bps if abs(cp.root.imag) < _AXIS_TOL]
        )
        trajectories.extend(real_trajs)
        for bp in colliders:
            seeds.extend(_branch_seeds(problem, registry.register(bp)))
    for cp in starts:
        n = cp.multiplicity
        rays = localmodel.start_rays(problem, cp.root, n) if n > 1 else (None,)
        seeds.extend(_seeds(problem, cp, rays))
    for cp in crossings:
        if cp.kind is CriticalKind.CROSSING_IN:
            seeds.extend(_seeds(problem, cp))

    # generation by generation, each sorted by _seed_key: traces register the
    # branch points that later traces merge into, so this order is part of
    # the result.  When the poles and the zeros are each closed under
    # conjugation bit for bit, f(conj s) = conj f(s): a seed whose origin
    # mirrors that of a plain trajectory (see _plain) takes the twin's
    # conjugate.  The key sorts the lower half first, so the upper half is
    # the one mirrored
    plant = problem.plant
    symmetric = all(_is_conjugate_symmetric(v, 0.0) for v in (plant.zeros, plant.poles))
    plain: dict[tuple, cont.Trajectory] = {}  # by (kind, lam, root) of origin
    traced = mirrored = 0
    while seeds:
        seeds.sort(key=_seed_key)
        new: list[tuple] = []
        for o, ray in seeds:
            twin = plain.pop((o.kind, o.lam, o.root.conjugate()), None)
            if twin is not None:
                trajectories.append(_mirror(twin, o))
                mirrored += 1
                continue
            traj, rec = cont.trace_trajectory(problem, o, registry, ray)
            trajectories.append(traj)
            traced += 1
            if symmetric and _plain(traj):
                plain[o.kind, o.lam, o.root] = traj
            if rec is not None:
                new.extend(_branch_seeds(problem, rec))
        seeds = new
    log.debug(
        "%d trajectories: %d traced, %d mirrored, %d on the real axis",
        len(trajectories), traced, mirrored, len(trajectories) - traced - mirrored,
    )

    for traj in trajectories:
        if traj.termination is cont.Termination.STALLED:
            warnings.append(
                f"trajectory from {traj.origin.root} stalled: {traj.note}"
            )
    # a branch point that no trajectory reached keeps the up rays it would
    # have spawned; those the closed form does not own are missing branches
    for rec in registry.records:
        missed = _seeds(problem, rec.point, rec.rays)
        if missed:
            warnings.append(
                f"branch point {rec.point.root} at lam {rec.point.lam!r}: "
                f"{len(missed)} of its up rays were never traced"
            )

    trajectories.sort(key=lambda t: (*t.origin.key(), _first_angle(t)))
    # a trace returns the record it creates, so the records past the gain
    # branch points are the ones the traces found, in order
    found = [rec.point for rec in registry.records[pre_registered:]]
    crit_points = dedup_points(starts + crossings + bps + found)
    events, n0 = _imag_axis_events(problem, trajectories)
    stability = _stability_intervals(problem, events, n0)
    return RootLocusResult(
        problem, trajectories, crit_points, events, stability, n0, warnings
    )


def _plain(traj: cont.Trajectory) -> bool:
    """Whether the mirror image of ``traj`` is the trajectory of its origin's
    conjugate: a simple origin, an end at lambda_max or sigma0 (so no branch
    point was registered on the way), and every point strictly inside one
    quadrant, so it meets neither the real axis nor an imaginary-axis event."""
    pts = traj.points
    w, s = math.copysign(1.0, pts[0].omega), math.copysign(1.0, pts[0].sigma)
    return (
        traj.origin.multiplicity == 1
        and traj.termination in (cont.Termination.LAMBDA_MAX_REACHED, cont.Termination.LEFT_REGION)
        and all(p.omega * w > _AXIS_TOL and p.sigma * s > _AXIS_TOL for p in pts)
    )


def _mirror(twin: cont.Trajectory, origin: CriticalPoint) -> cont.Trajectory:
    """The exact conjugate of ``twin``, from ``origin``."""
    pts = [
        cont.TrajectoryPoint(p.sigma, -p.omega, p.lam, p.residual, p.step_used)
        for p in twin.points
    ]
    return cont.Trajectory(origin, pts, twin.termination, twin.note)


def _first_angle(t: cont.Trajectory) -> float:
    if len(t.points) >= 2:
        a, b = t.points[0], t.points[1]
        return round(math.atan2(b.omega - a.omega, b.sigma - a.sigma), 12)
    return 0.0


def _imag_axis_events(
    problem: LocusProblem, trajectories: list[cont.Trajectory]
) -> tuple[list[ImagAxisEvent], int]:
    """Refined axis crossings of all trajectories plus the unstable count at lam = 0.

    A trajectory starting exactly on the axis contributes an event at its first
    off-axis sample; the initial unstable count only includes strictly
    right-half-plane starting roots.
    """
    events: list[ImagAxisEvent] = []
    n0 = 0
    ws = cont.NewtonWorkspace()  # for every sigma = 0 refine
    for traj in trajectories:
        pts = traj.points
        if pts[0].lam < 1e-14 and pts[0].sigma > _AXIS_TOL:
            n0 += 1
        prev_sign = _axis_sign(pts[0].sigma)
        for a, b in zip(pts[:-1], pts[1:]):
            sign = _axis_sign(b.sigma)
            if sign == prev_sign or sign == 0:
                if sign != 0:
                    prev_sign = sign
                continue
            if prev_sign == 0:
                # departure of an on-axis starting root: only a move into the
                # right half-plane changes the unstable count
                if sign > 0:
                    events.append(ImagAxisEvent(a.lam, a.omega, sign))
                prev_sign = sign
                continue
            frac = a.sigma / (a.sigma - b.sigma)
            guess = (
                a.sigma + frac * (b.sigma - a.sigma),
                a.omega + frac * (b.omega - a.omega),
                a.lam + frac * (b.lam - a.lam),
            )
            try:
                y = cont._clip_solve(problem, guess, "sigma", 0.0, ws)
                events.append(ImagAxisEvent(float(y[2]), float(y[1]), sign))
            except (NoConvergenceError, JacobianSingularError):
                events.append(ImagAxisEvent(float(guess[2]), float(guess[1]), sign))
            prev_sign = sign
    events.sort(key=lambda e: (e.lam, e.omega))
    return events, n0


def _axis_sign(sigma: float) -> int:
    if sigma > _AXIS_TOL:
        return 1
    if sigma < -_AXIS_TOL:
        return -1
    return 0


def _stability_intervals(
    problem: LocusProblem, events: list[ImagAxisEvent], n0: int
) -> list[tuple[float, float]]:
    """Parameter intervals with no characteristic root in Re(s) > 0."""
    intervals: list[tuple[float, float]] = []
    count = n0
    lam_prev = 0.0
    for ev in events:
        if count == 0 and ev.lam > lam_prev + 1e-12:
            intervals.append((lam_prev, min(ev.lam, problem.lambda_max)))
        count += ev.direction
        lam_prev = ev.lam
    if count == 0 and problem.lambda_max > lam_prev + 1e-12:
        intervals.append((lam_prev, problem.lambda_max))
    merged: list[tuple[float, float]] = []
    for lo, hi in intervals:
        if merged and lo - merged[-1][1] < 1e-9:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged
