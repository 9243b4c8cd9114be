"""End-to-end engine behavior on small problems and the reference runs."""

import copy
import importlib
import logging
import math
import os
from collections import Counter

import numpy as np
import pytest

from rootlocus import continuation, critical, engine, localmodel
from rootlocus.continuation import Termination
from rootlocus.critical import CriticalKind
from rootlocus.engine import compute_root_locus
from rootlocus.io import results_equal
from rootlocus.plant import LocusKind, LocusProblem, Plant, eval_char_fn

from conftest import example2_problem, example3_problem, first_order_plant


def _perfbench(monkeypatch, name: str):
    """A module of the benchmark in ``perfbench/``."""
    bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
    monkeypatch.syspath_prepend(bench)
    return importlib.import_module(name)


def _assert_origins_are_critical_first_points(result):
    keys = {cp.key() for cp in result.critical_points}
    for traj in result.trajectories:
        origin, first = traj.origin, traj.points[0]
        assert origin.key() in keys
        # the first point is the origin; a real-axis segment lies on omega = 0
        assert (first.sigma, first.lam) == (origin.root.real, origin.lam)
        assert first.omega == origin.root.imag or (
            first.omega == 0.0 and abs(origin.root.imag) < continuation._AXIS_TOL
        )


def test_trajectory_origins_are_critical_points(example3_result):
    _assert_origins_are_critical_first_points(example3_result)


def test_real_axis_segment_from_sigma0_begins_at_the_crossing():
    # G = 1/(s+1), h = 4: the real-axis segment entering at sigma0 = -1.5
    # begins at the omega = 0 crossing, not at a second evaluation of lam
    # there that differs in the last bit
    problem = LocusProblem(LocusKind.GAIN, -1.5, 0.05, first_order_plant(delay=4.0))
    result = compute_root_locus(problem)
    assert any(t.origin.root == -1.5 for t in result.trajectories)
    _assert_origins_are_critical_first_points(result)


def test_example3_branch_point_and_events(example3_result):
    branches = [
        cp for cp in example3_result.critical_points if cp.kind is CriticalKind.BRANCH
    ]
    assert any(
        abs(cp.root.real + 0.6976) < 5e-4 and abs(cp.root.imag) < 1e-9 for cp in branches
    )
    lams = sorted(e.lam for e in example3_result.imag_axis_events)
    assert lams and lams[0] == pytest.approx(0.0703, abs=5e-3)


def test_example3_every_entering_crossing_is_traced(example3_result):
    entering = [
        cp
        for cp in example3_result.critical_points
        if cp.kind is CriticalKind.CROSSING_IN and cp.lam <= example3_result.problem.lambda_max
    ]
    assert entering
    for cp in entering:
        owners = [
            t
            for t in example3_result.trajectories
            if t.origin.key() == cp.key() and t.origin.kind is cp.kind
        ]
        assert len(owners) == 1


def test_example3_conjugate_symmetry(example3_result):
    def mirrored(c, pool, tol=1e-6):
        return any(
            abs(c.real - o.real) < tol and abs(c.imag + o.imag) < tol for o in pool
        )

    ends = [t.points[-1].root for t in example3_result.trajectories]
    for e in ends:
        assert mirrored(e, ends)


def test_residual_and_lambda_bounds(example3_result):
    problem = example3_result.problem
    for traj in example3_result.trajectories:
        lams = [p.lam for p in traj.points]
        assert all(b >= a - 1e-12 for a, b in zip(lams, lams[1:]))
        for p in traj.points:
            assert -1e-12 <= p.lam <= problem.lambda_max * (1 + 1e-9)
            assert p.residual < 1e-4


def test_workers_do_not_change_the_result(example3_result):
    # the engine is serial: workers=1 is the default path, any other value fails
    assert results_equal(compute_root_locus(example3_problem(), workers=1), example3_result)
    with pytest.raises(ValueError):
        compute_root_locus(example3_problem(), workers=4)


def test_merge_at_a_field_equal_copy_of_a_branch_point(monkeypatch):
    # a traced merge can return a branch point that equals a listed one field
    # by field without being the same object; the bookkeeping must not compare
    # the numpy direction arrays (ambiguous truth value)
    plant = Plant(
        zeros=(0.5, -2.08, 0.935),
        poles=(complex(-0.32, 4.8), complex(-0.32, -4.8),
               complex(-4.38, 0.707), complex(-4.38, -0.707)),
        gain=-472.8,
        delay=0.465,
    )
    problem = LocusProblem(LocusKind.GAIN, -1.0, 1.1, plant)
    plain = compute_root_locus(problem)
    trace = continuation.trace_trajectory
    merges = []

    def trace_with_copied_point(*args, **kwargs):
        traj, rec = trace(*args, **kwargs)
        if rec is not None:
            merges.append(rec)
            rec.point = copy.deepcopy(rec.point)
        return traj, rec

    monkeypatch.setattr(continuation, "trace_trajectory", trace_with_copied_point)
    assert results_equal(compute_root_locus(problem), plain)
    assert merges


def test_benchmark_tracer_patches_current_names(monkeypatch):
    # perfbench/tracing.py wraps engine functions by module attribute; renaming
    # or deleting one of them, or a call that bypasses one, breaks the traced
    # benchmark and must fail here.  Its counts must equal what wrappers
    # installed beneath it see: the Jacobians made inside correct and the
    # residual-only passes, each of which enters through LocusProblem.mp
    tracing = _perfbench(monkeypatch, "tracing")
    problem = example3_problem(lambda_max=1.0)
    seen = {"newton": 0, "residual": 0, "in_correct": 0}
    correct, jacobian = continuation.correct, continuation._mp_jacobian
    mp = LocusProblem.mp

    def counted_correct(*args):
        seen["in_correct"] += 1
        try:
            return correct(*args)
        finally:
            seen["in_correct"] -= 1

    def counted_jacobian(problem, y):
        seen["newton"] += seen["in_correct"] > 0
        return jacobian(problem, y)

    def counted_mp(self, sigma, omega, lam):
        seen["residual"] += 1
        return mp(self, sigma, omega, lam)

    monkeypatch.setattr(continuation, "correct", counted_correct)
    monkeypatch.setattr(continuation, "_mp_jacobian", counted_jacobian)
    monkeypatch.setattr(LocusProblem, "mp", counted_mp)
    untraced = engine.compute_root_locus
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = engine.compute_root_locus(problem)
    counts = {name: tracer.counts[tracer.op, name] for name in (
        "continuation.newton_iters", "continuation.points", "plant.mp_calls")}
    assert counts["continuation.points"] > 0
    assert counts["continuation.newton_iters"] == seen["newton"] > 0
    assert counts["plant.mp_calls"] == seen["residual"] > 0
    assert engine.compute_root_locus is untraced
    assert results_equal(traced, compute_root_locus(problem))


def test_every_plant_pass_of_the_corrector_enters_through_the_jacobian(monkeypatch):
    # the benchmark counts a Newton iteration per _mp_jacobian call made
    # inside correct (perfbench/tracing.py, copied here): a corrector that
    # made its plant pass another way would zero that count unseen.  Inside
    # correct, each mp and G'/G pass is entered through the Jacobian, but for
    # the mp of the residual check of a converged point
    stack = []
    seen = Counter()
    correct, jacobian = continuation.correct, continuation._mp_jacobian

    def entered(name, fn):
        def wrapper(*args):
            stack.append(name)
            try:
                return fn(*args)
            finally:
                stack.pop()
        return wrapper

    def counted_jacobian(problem, y):
        seen["newton"] += "correct" in stack
        return entered("jacobian", jacobian)(problem, y)

    def counted(name, fn):
        def wrapper(*args):
            if "correct" in stack:
                seen[name] += 1
                seen[f"{name} via {stack[-1]}"] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(continuation, "correct", entered("correct", correct))
    monkeypatch.setattr(continuation, "_mp_jacobian", counted_jacobian)
    monkeypatch.setattr(LocusProblem, "mp", counted("mp", LocusProblem.mp))
    monkeypatch.setattr(LocusProblem, "log_derivative",
                        counted("log_derivative", LocusProblem.log_derivative))
    monkeypatch.setattr(LocusProblem, "cartesian_residual",
                        entered("residual", LocusProblem.cartesian_residual))
    result = compute_root_locus(example3_problem())
    assert result.trajectories
    assert seen["mp via jacobian"] == seen["newton"] > 0
    assert seen["mp"] == seen["newton"] + seen["mp via residual"]
    assert seen["log_derivative"] == seen["log_derivative via jacobian"] == seen["newton"]


@pytest.mark.parametrize(
    "lambda_max, termination, end_lam, end_omega",
    [
        (1.0, Termination.LEFT_REGION, 0.97907, 18.99478),
        (0.978, Termination.LAMBDA_MAX_REACHED, 0.978, 18.99738),
    ],
)
def test_a_step_past_sigma0_and_lambda_max_ends_where_the_curve_meets_one_first(
    lambda_max, termination, end_lam, end_omega
):
    # high-order delay plant 1009 (25 poles, 22 zeros, sigma0 -0.77116): one
    # step of the pair from CROSSING_IN -0.771 +- 19.718j ends past both
    # sigma0 and lambda_max.  The curve meets sigma0 at the registered
    # CROSSING_OUT, lam 0.97907; the step's chord meets it at lam 0.9758.
    # With lambda_max 1 the trace ends on sigma0, not at lambda_max outside
    # the region; with lambda_max 0.978, between the two, it ends at
    # lambda_max just inside the region, not on sigma0 past lambda_max with
    # no end point
    from test_rootfind import high_order_plant

    plant, s0 = high_order_plant(np.random.default_rng(1009))
    assert (len(plant.poles), len(plant.zeros), round(s0, 5)) == (25, 22, -0.77116)
    problem = LocusProblem(LocusKind.DELAY, s0, lambda_max, plant)
    result = compute_root_locus(problem)
    assert result.warnings == []
    assert all(p.sigma >= s0 - 1e-9 for t in result.trajectories for p in t.points)
    ends = [t.points[-1] for t in result.trajectories if t.termination is termination
            and abs(t.points[-1].lam - end_lam) < 1e-5 and abs(t.points[-1].omega) > 18.0]
    assert len(ends) == 2
    assert sorted(e.omega for e in ends) == pytest.approx([-end_omega, end_omega], abs=1e-5)
    if termination is Termination.LEFT_REGION:
        assert all(e.sigma == s0 for e in ends)
    else:
        assert all(e.lam == lambda_max and e.sigma > s0 for e in ends)


def test_first_step_off_a_multiple_start_root_uses_the_configured_h0():
    # the first prediction off a double pole is placed on its ray at the
    # distance h0 = 1e-2 * (1 + |sigma0|) of the first step
    p = complex(-1.0, 1.0)
    plant = Plant(zeros=(), poles=(p, p, p.conjugate(), p.conjugate()), gain=1.0, delay=1.0)
    problem = LocusProblem(LocusKind.GAIN, -3.0, 2.0, plant)
    assert continuation._h0(problem) == 0.04
    result = compute_root_locus(problem)
    firsts = [
        abs(t.points[1].root - t.points[0].root)
        for t in result.trajectories
        if t.origin.kind is CriticalKind.START and t.origin.multiplicity == 2
    ]
    assert len(firsts) == 4
    for dist in firsts:
        assert dist == pytest.approx(0.04, rel=0.05)


def test_real_double_pole_start_leaves_along_its_complex_rays():
    # G = e^{-s}/(s+1)^2: both up rays of the double pole are complex, so the
    # real-axis closed form owns none of them and both are traced.  On the
    # imaginary axis 2 atan(w) + w = pi and lam = 1 + w^2
    plant = Plant(zeros=(), poles=(-1.0, -1.0), gain=1.0, delay=1.0)
    result = compute_root_locus(LocusProblem(LocusKind.GAIN, -2.0, 5.0, plant))
    assert result.warnings == []
    assert len(result.trajectories) == 4
    events = result.imag_axis_events
    assert [e.omega for e in events] == pytest.approx([-1.306542374188806, 1.306542374188806])
    assert [e.direction for e in events] == [1, 1]
    ((lo, hi),) = result.stability_intervals
    assert lo == 0.0 and hi == pytest.approx(2.707052975550922, abs=1e-9)


def test_near_coincident_real_poles_keep_their_complex_branches():
    # G = e^{-s}/((s+1)(s+1.0000001)) is within 1e-7 of the double pole above,
    # whose locus is unstable from lam = 2.707052975550922 on; a run either
    # agrees with that limit or warns.  The real branch point between the
    # poles (lam 9.2e-16, multiplicity 6) ends no real-axis segment, since the
    # piece between the poles is shorter than 4 * eps, so its complex rays are
    # never spawned and the run warns
    plant = Plant(zeros=(), poles=(-1.0, -1.0000001), gain=1.0, delay=1.0)
    result = compute_root_locus(LocusProblem(LocusKind.GAIN, -2.0, 5.0, plant))
    assert any("up rays were never traced" in w for w in result.warnings)
    if not result.warnings:
        ((lo, hi),) = result.stability_intervals
        assert lo == 0.0 and hi == pytest.approx(2.707052975550922, abs=1e-5)


def test_real_triple_pole_start_traces_its_complex_rays():
    # G = e^{-s}/(s+1)^3: one up ray is real (the closed form's), two are
    # complex.  On the imaginary axis 3 atan(w) + w = pi, lam = (1 + w^2)^(3/2).
    # Off the triple pole lam is ~1e-6, where a Newton update below the
    # corrector tolerance can leave a point with a Cartesian residual of 0.8:
    # the corrector iterates on until the residual is small, and step control
    # (the Newton contraction rate alone) does not halve such steps to a stall
    plant = Plant(zeros=(), poles=(-1.0, -1.0, -1.0), gain=1.0, delay=1.0)
    result = compute_root_locus(LocusProblem(LocusKind.GAIN, -2.0, 5.0, plant))
    assert result.warnings == []
    assert max(p.residual for t in result.trajectories for p in t.points) < 1e-4
    ((lo, hi),) = result.stability_intervals
    assert lo == 0.0 and hi == pytest.approx(2.49516418680135, abs=1e-9)


def test_delay_locus_from_a_double_start_root():
    # 1 + G = (s + 1)^2 / (s(s + 2)) for G = 1/(s(s+2)): two roots start at
    # s = -1 and split into a complex pair as the delay grows
    plant = Plant(zeros=(), poles=(0.0, -2.0), gain=1.0, delay=1.0)
    problem = LocusProblem(LocusKind.DELAY, -1.5, 1.0, plant)
    result = compute_root_locus(problem)
    assert result.warnings == []
    trajs = [t for t in result.trajectories if abs(t.origin.root + 1.0) < 1e-6]
    assert len(trajs) == 2
    roots = []
    for traj in trajs:
        a, b = next((a, b) for a, b in zip(traj.points, traj.points[1:]) if a.lam <= 0.3 <= b.lam)
        guess = a.as_array() + (0.3 - a.lam) / (b.lam - a.lam) * (b.as_array() - a.as_array())
        y = continuation._clip_solve(problem, guess, "lam", 0.3)
        roots.append(complex(y[0], y[1]))
    roots.sort(key=lambda r: r.imag)
    want = [complex(-0.80960550, -0.54251225), complex(-0.80960550, 0.54251225)]
    assert roots == [pytest.approx(w, abs=1e-8) for w in want]


def test_double_delay_start_root_is_one_start_traced_along_its_rays(monkeypatch):
    # np.roots returns the double zero -1 of 1 + G as -1+7.45e-9j and
    # -1-1.49e-8j; they are one start of multiplicity 2
    plant = Plant(zeros=(), poles=(0.0, -2.0), gain=1.0, delay=1.0)
    problem = LocusProblem(LocusKind.DELAY, -1.5, 1.0, plant)
    starts = critical.starting_points(problem)
    assert len(starts) == 1 and starts[0].multiplicity == 2
    assert abs(starts[0].root + 1.0) < 1e-12
    calls = []
    real_start_rays = localmodel.start_rays

    def start_rays(problem, s0, n):
        rays = real_start_rays(problem, s0, n)
        calls.append((s0, n, rays))
        return rays

    monkeypatch.setattr(localmodel, "start_rays", start_rays)
    result = compute_root_locus(problem)
    assert result.warnings == []
    assert len(calls) == 1
    s0, n, rays = calls[0]
    assert (s0, n) == (starts[0].root, 2)
    assert sorted(rays, key=lambda r: r.imag) == [pytest.approx(-1j), pytest.approx(1j)]
    trajs = [t for t in result.trajectories if t.origin.kind is CriticalKind.START]
    assert [t.origin.multiplicity for t in trajs] == [2, 2]
    # one trajectory leaves along each ray; the first chord bends off it by O(h)
    trajs.sort(key=lambda t: t.points[1].omega)
    for traj, ray in zip(trajs, sorted(rays, key=lambda r: r.imag)):
        first = traj.points[1].root - traj.points[0].root
        assert abs(first / abs(first) - ray) < 0.05


def test_stable_throughout_when_nothing_reaches_the_axis():
    # G = 1/(s+1), sigma0 = -0.5: no starts in the region, the entering
    # boundary root at lam = 1.156 never reaches the imaginary axis by lam = 2
    problem = LocusProblem(LocusKind.GAIN, -0.5, 2.0, first_order_plant())
    result = compute_root_locus(problem)
    assert result.initial_unstable_count == 0
    assert result.imag_axis_events == []
    assert result.stability_intervals == [(0.0, 2.0)]
    assert any(t.origin.kind is CriticalKind.CROSSING_IN for t in result.trajectories)


def test_no_stalled_trajectories_on_reference_runs(
    example1_result, example2_result, example3_result
):
    for result in (example1_result, example2_result, example3_result):
        assert result.warnings == []
        assert all(
            t.termination is not Termination.STALLED for t in result.trajectories
        )


def test_listing_order_of_conjugate_poles_keeps_the_omega_0_crossing():
    # at omega = 0 the phase sums to exactly angle(G(sigma0)) in any listing
    # order; with the pairs interleaved it was off by an ulp, the level through
    # omega = 0 had no sign change, and the real root entering at lam = ln 2
    # was never traced
    upper = [complex(-1.5, 3.0), complex(-1.5, 1.0), complex(-2.0, 1.5)]
    listings = [
        upper + [p.conjugate() for p in upper],
        [q for p in upper for q in (p, p.conjugate())],
    ]
    results = [
        compute_root_locus(
            LocusProblem(LocusKind.DELAY, -1.0, 2.0, Plant((), tuple(poles), -18.7890625, 1.0))
        )
        for poles in listings
    ]
    for result in results:
        assert len(result.trajectories) == 3
        assert result.warnings == []
        assert any(
            cp.kind is CriticalKind.CROSSING_IN and cp.root == -1.0
            and cp.lam == pytest.approx(math.log(2.0), rel=1e-12)
            for cp in result.critical_points
        )
    a, b = (r.critical_points for r in results)
    assert [cp.kind for cp in a] == [cp.kind for cp in b]
    for p, q in zip(a, b):
        assert p.root == pytest.approx(q.root, rel=1e-12, abs=1e-12)
        assert p.lam == pytest.approx(q.lam, rel=1e-12)


@pytest.mark.parametrize(
    "zeros, poles, gain, delay, lambda_max",
    [
        ((), (-2.194, -0.069), -0.822, 0.621, 0.732),
        ((-1.481,), (-0.333, -1.041, -0.383), -1.691, 0.289, 1.97),
    ],
)
def test_real_axis_event_at_s_0_does_not_depend_on_the_samples(
    monkeypatch, zeros, poles, gain, delay, lambda_max
):
    # a real-axis segment across the imaginary axis has an exact sample at
    # s = 0, and the axis event is refined from it: a finer sampling of the
    # segment leaves the event's bits alone
    problem = LocusProblem(LocusKind.GAIN, -1.5, lambda_max, Plant(zeros, poles, gain, delay))

    def events_at_0():
        return [e for e in compute_root_locus(problem).imag_axis_events if e.omega == 0.0]

    coarse = events_at_0()
    assert len(coarse) == 1
    monkeypatch.setattr(continuation, "_REAL_AXIS_LOG_TOL", 1e-3)
    assert events_at_0() == coarse


def _real_axis_segment(traj) -> bool:
    return all(p.omega == 0.0 for p in traj.points)


_QUADRANT = [(-1.0, -2.0, 0.5), (-0.5, -2.5, 0.7)]  # (sigma, omega, lam)


@pytest.mark.parametrize(
    "points, termination, multiplicity, plain",
    [
        (_QUADRANT, Termination.LAMBDA_MAX_REACHED, 1, True),
        (_QUADRANT, Termination.LEFT_REGION, 1, True),
        (_QUADRANT, Termination.MERGED_AT_BRANCH, 1, False),
        (_QUADRANT, Termination.STALLED, 1, False),
        (_QUADRANT, Termination.LAMBDA_MAX_REACHED, 2, False),
        (_QUADRANT + [(0.5, -2.5, 0.9)], Termination.LAMBDA_MAX_REACHED, 1, False),
        (_QUADRANT + [(-1e-10, -2.5, 0.9)], Termination.LAMBDA_MAX_REACHED, 1, False),
        (_QUADRANT + [(-0.5, -1e-10, 0.9)], Termination.LAMBDA_MAX_REACHED, 1, False),
        (_QUADRANT + [(-0.5, 0.5, 0.9)], Termination.LAMBDA_MAX_REACHED, 1, False),
    ],
)
def test_plain_trajectories(points, termination, multiplicity, plain):
    # mirrored only: a simple origin, no branch point registered, and every
    # point strictly inside the origin's quadrant
    sigma, omega, lam = points[0]
    origin = critical.CriticalPoint(
        CriticalKind.CROSSING_IN, complex(sigma, omega), lam, multiplicity
    )
    pts = [continuation.TrajectoryPoint(*p, 0.0, 0.0) for p in points]
    assert engine._plain(continuation.Trajectory(origin, pts, termination)) is plain


@pytest.mark.parametrize("name", ["example2", "example3", "stream_plant_28"])
def test_mirrored_trajectories_match_tracing(monkeypatch, name):
    # a seed whose origin mirrors that of a plain traced trajectory takes the
    # twin's exact conjugate; tracing that seed gives the same trajectory
    if name == "stream_plant_28":
        # gain index 14 of the random_gain workload at seed 1: its crossings
        # reach |omega| ~ 2000 and it owns most of that workload's trajectories
        problem = _perfbench(monkeypatch, "workloads").build("random_gain", 1)[14]
    else:
        problem = {"example2": example2_problem, "example3": example3_problem}[name]()
    trace = continuation.trace_trajectory
    traced = set()

    def recording_trace(problem, origin, *args, **kwargs):
        traced.add(id(origin))
        return trace(problem, origin, *args, **kwargs)

    monkeypatch.setattr(continuation, "trace_trajectory", recording_trace)
    result = compute_root_locus(problem)
    registry = continuation.BranchRegistry()
    for cp in result.critical_points:
        if cp.kind is CriticalKind.BRANCH:
            registry.register(cp)
    mirrored = [
        t for t in result.trajectories
        if id(t.origin) not in traced and not _real_axis_segment(t)
    ]
    assert mirrored
    for traj in mirrored:
        o = traj.origin
        (twin,) = [
            t for t in result.trajectories
            if id(t.origin) in traced
            and (t.origin.kind, t.origin.lam, t.origin.root) == (o.kind, o.lam, o.root.conjugate())
        ]
        assert traj.points == [
            continuation.TrajectoryPoint(p.sigma, -p.omega, p.lam, p.residual, p.step_used)
            for p in twin.points
        ]
        assert (traj.termination, traj.note) == (twin.termination, twin.note)
        direct, rec = trace(problem, o, registry)
        assert rec is None
        assert direct.termination is traj.termination
        assert len(direct.points) == len(traj.points)
        for p, q in zip(direct.points, traj.points):
            assert abs(p.sigma - q.sigma) <= 1e-9
            assert abs(p.omega - q.omega) <= 1e-9
            assert abs(p.lam - q.lam) <= 1e-9


def test_plant_symmetric_only_within_tolerance_is_traced_in_full(monkeypatch, caplog):
    # a conjugate zero pair off by 1e-12 passes validation, but the plant is
    # not exactly symmetric: every seed is traced, none mirrored
    plant = Plant(
        zeros=(complex(5.0, 5.0), complex(5.0, -5.0 - 1e-12)),
        poles=(-0.5, -1.0, -2.5),
        gain=1.0,
        delay=1.0,
    )
    problem = LocusProblem(LocusKind.GAIN, -3.5, 5.0, plant)
    assert plant.conjugate_symmetric
    with caplog.at_level(logging.DEBUG, logger="rootlocus.engine"):
        result = compute_root_locus(problem)
    assert ", 0 mirrored," in caplog.records[-1].getMessage()
    complex_trajs = [t for t in result.trajectories if not _real_axis_segment(t)]
    assert complex_trajs
    for a in complex_trajs:
        conj = [(p.sigma, -p.omega, p.lam) for p in a.points]
        for b in complex_trajs:
            assert conj != [(p.sigma, p.omega, p.lam) for p in b.points]
    assert _perfbench(monkeypatch, "workloads").residual_failures(result) == []


def test_reference_results_pass_the_benchmark_golden_check(
    monkeypatch, example1_result, example2_result, example3_result, turning_point_result
):
    # the benchmark's order-sensitive golden check, run here so that a swap
    # of two tied rows fails the test suite too
    workloads = _perfbench(monkeypatch, "workloads")
    checker = workloads.Checker("reference")
    results = [example1_result, example2_result, example3_result, turning_point_result]
    for i, (problem, result) in enumerate(zip(workloads.reference_problems(), results)):
        assert workloads.describe(result.problem) == workloads.describe(problem)
        assert checker.failures(i, result) == []


@pytest.mark.parametrize(
    ("workload", "seed"),
    [("random_delay", seed) for seed in range(1, 13)] + [("random_gain", 1), ("random_gain", 2)],
)
def test_jittered_benchmark_plants_pass_the_benchmark_check(monkeypatch, workload, seed):
    # the benchmark's own output check on the jittered plants of its random
    # workloads: no warning, every point residual below 1e-4 and |f| < 1e-8 at
    # every critical point
    workloads = _perfbench(monkeypatch, "workloads")
    checker = workloads.Checker(workload)
    for i, problem in enumerate(workloads.build(workload, seed)):
        assert checker.failures(i, compute_root_locus(problem)) == [], i


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 9: when the sigma = 0 refine of an axis event does not "
    "converge, _imag_axis_events keeps the interpolated guess; on random_delay "
    "plant 15 at seeds 2 and 14 two events sit at |f| ~ 1.7e-2 near lam 0.129",
)
@pytest.mark.parametrize("seed", [2, 14])
def test_every_axis_event_of_random_delay_plant_15_is_a_root(monkeypatch, seed):
    problem = _perfbench(monkeypatch, "workloads").build("random_delay", seed)[15]
    result = compute_root_locus(problem)
    assert result.imag_axis_events
    for e in result.imag_axis_events:
        s = complex(0.0, e.omega)
        assert abs(eval_char_fn(problem.plant, problem.kind, s, e.lam)) < 1e-8


def test_debug_line_counts_traced_and_mirrored_trajectories(caplog):
    with caplog.at_level(logging.DEBUG, logger="rootlocus.engine"):
        result = compute_root_locus(example3_problem())
    lines = [r.getMessage() for r in caplog.records if r.name == "rootlocus.engine"]
    # example 3: three real-axis segments, and 26 of the 56 traced seeds
    # mirror one of the other 30
    assert len(result.trajectories) == 59
    assert lines == ["59 trajectories: 30 traced, 26 mirrored, 3 on the real axis"]
