"""Top-level root-locus computation: seeding, tracing, stability intervals."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import continuation as cont
from . import critical, localmodel
from .critical import CriticalKind, CriticalPoint, dedup_points
from .errors import NoConvergenceError, JacobianSingularError
from .plant import LocusKind, LocusProblem

_AXIS_TOL = 1e-9


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


@dataclass
class _Seed:
    origin: CriticalPoint
    direction: np.ndarray
    record: object = None  # _BranchRecord when spawned from a branch point
    spawn_ray: complex | None = None

    def key(self):
        d = self.direction
        return (*self.origin.key(), round(math.atan2(d[1], d[0]), 12))


def _ray_seeds(
    problem: LocusProblem, cp: CriticalPoint, rays, config: cont.ContinuationConfig, record=None
) -> list[_Seed]:
    """One seed per up ray of the multiple point ``cp``."""
    return [
        _Seed(cp, cont.branch_spawn_prediction(problem, cp, ray, config)[1], record, ray)
        for ray in rays
    ]


def _start_seeds(
    problem: LocusProblem, cp: CriticalPoint, config: cont.ContinuationConfig
) -> list[_Seed]:
    if cp.multiplicity == 1:
        return [_Seed(cp, localmodel.initial_tangent_simple(problem, cp.root, cp.lam))]
    rays = localmodel.start_rays(problem, cp.root, cp.multiplicity)
    return _ray_seeds(problem, cp, rays, config)


def _branch_seeds(problem: LocusProblem, rec, config: cont.ContinuationConfig) -> list[_Seed]:
    """Spawn every up ray of a branch record not spawned yet, and empty its list."""
    seeds = _ray_seeds(problem, rec.point, rec.rays, config, rec)
    rec.rays = []
    return seeds


def compute_root_locus(
    problem: LocusProblem,
    config: cont.ContinuationConfig | None = None,
    workers: int = 1,
) -> RootLocusResult:
    """Compute every locus trajectory in the region for lam in [0, lambda_max].

    Trajectories are traced serially; ``workers`` accepts only 1.
    """
    if workers != 1:
        raise ValueError(f"compute_root_locus runs serially: workers must be 1, got {workers}")
    config = config or cont.ContinuationConfig()
    registry = cont.BranchRegistry()
    warnings: list[str] = []

    starts = critical.starting_points(problem)
    crossings = critical.boundary_crossings(problem)
    crit_points: list[CriticalPoint] = list(starts) + list(crossings)

    trajectories: list[cont.Trajectory] = []
    seeds: list[_Seed] = []

    bps = critical.branch_points_gain(problem) if problem.kind is LocusKind.GAIN else []
    crit_points.extend(bps)
    records_by_bp = {id(bp): registry.register(bp) for bp in bps}

    use_real_axis = (
        problem.kind is LocusKind.GAIN and problem.plant.conjugate_symmetric
    )

    def on_axis(cp: CriticalPoint) -> bool:
        """Real points whose real rays the closed-form axis segments own."""
        return use_real_axis and abs(cp.root.imag) < _AXIS_TOL

    if use_real_axis:
        real_bps = [bp for bp in bps if on_axis(bp)]
        real_trajs, colliders = cont.real_axis_segments(problem, real_bps, config)
        trajectories.extend(real_trajs)
        # real rays of real branch points are owned by the axis segments
        for bp in real_bps:
            rec = records_by_bp[id(bp)]
            rec.rays = [ray for ray in rec.rays if abs(ray.imag) >= 1e-9]
        for bp in colliders:
            seeds.extend(_branch_seeds(problem, records_by_bp[id(bp)], config))
    for cp in starts:
        if not on_axis(cp):
            seeds.extend(_start_seeds(problem, cp, config))
    for cp in crossings:
        if cp.kind is CriticalKind.CROSSING_IN and not on_axis(cp):
            seeds.append(_Seed(cp, localmodel.initial_tangent_simple(problem, cp.root, cp.lam)))

    # generation by generation, each sorted by _Seed.key: traces register the
    # branch points that later traces merge into, so this order is part of
    # the result
    while seeds:
        seeds.sort(key=_Seed.key)
        new: list[_Seed] = []
        for seed in seeds:
            traj, rec = cont.trace_trajectory(
                problem,
                seed.origin,
                seed.direction,
                registry,
                config,
                origin_record=seed.record,
                spawn_ray=seed.spawn_ray,
            )
            trajectories.append(traj)
            if rec is None:
                continue
            if not any(cp is rec.point for cp in crit_points):
                crit_points.append(rec.point)
            new.extend(_branch_seeds(problem, rec, config))
        seeds = new

    for traj in trajectories:
        if traj.termination is cont.Termination.STALLED:
            warnings.append(
                f"trajectory from {traj.origin.root} stalled: {traj.note}"
            )

    trajectories.sort(key=lambda t: (*t.origin.key(), _first_angle(t)))
    crit_points = dedup_points(crit_points)
    events, n0 = _imag_axis_events(problem, trajectories, config)
    stability = _stability_intervals(problem, events, n0)
    return RootLocusResult(
        problem, trajectories, crit_points, events, stability, n0, warnings
    )


def _first_angle(t: cont.Trajectory) -> float:
    if len(t.points) >= 2:
        d = t.points[1].as_array() - t.points[0].as_array()
        return round(math.atan2(d[1], d[0]), 12)
    return 0.0


def _imag_axis_events(
    problem: LocusProblem,
    trajectories: list[cont.Trajectory],
    config: cont.ContinuationConfig,
) -> tuple[list[ImagAxisEvent], int]:
    """Refined axis crossings of all trajectories plus the unstable count at lam = 0.

    A trajectory starting exactly on the axis contributes an event at its first
    off-axis sample; the initial unstable count only includes strictly
    right-half-plane starting roots.
    """
    events: list[ImagAxisEvent] = []
    n0 = 0
    for traj in trajectories:
        pts = traj.points
        if not pts:
            continue
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
            guess = a.as_array() + frac * (b.as_array() - a.as_array())
            try:
                y = cont._clip_solve(problem, guess, "sigma", 0.0, config)
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
