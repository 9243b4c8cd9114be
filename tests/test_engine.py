"""End-to-end engine behavior on small problems and the reference runs."""

import copy
import importlib
import math
import os

import pytest

from rootlocus import continuation, engine
from rootlocus.continuation import ContinuationConfig, Termination
from rootlocus.critical import CriticalKind
from rootlocus.engine import compute_root_locus
from rootlocus.io import results_equal
from rootlocus.plant import LocusKind, LocusProblem, Plant

from conftest import example3_problem, first_order_plant


def test_trajectory_origins_are_critical_points(example3_result):
    keys = {cp.key() for cp in example3_result.critical_points}
    for traj in example3_result.trajectories:
        assert traj.origin.key() in keys


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
    # or deleting one of them breaks the traced benchmark and must fail here
    bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
    monkeypatch.syspath_prepend(bench)
    tracing = importlib.import_module("tracing")
    problem = example3_problem(lambda_max=1.0)
    untraced = engine.compute_root_locus
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = engine.compute_root_locus(problem)
    assert engine.compute_root_locus is untraced
    assert results_equal(traced, compute_root_locus(problem))
    for name in ("continuation.newton_iters", "continuation.points", "plant.mp_calls"):
        assert tracer.counts[tracer.op, name] > 0


def test_first_step_off_a_multiple_start_root_uses_the_configured_h0():
    # the first prediction off a double pole is placed on its ray at the
    # distance h0 of the caller's config, not of the default one (0.04 here)
    p = complex(-1.0, 1.0)
    plant = Plant(zeros=(), poles=(p, p, p.conjugate(), p.conjugate()), gain=1.0, delay=1.0)
    problem = LocusProblem(LocusKind.GAIN, -3.0, 2.0, plant)
    result = compute_root_locus(problem, ContinuationConfig(h0=0.05))
    firsts = [
        abs(t.points[1].root - t.points[0].root)
        for t in result.trajectories
        if t.origin.kind is CriticalKind.START and t.origin.multiplicity == 2
    ]
    assert len(firsts) == 4
    for dist in firsts:
        assert dist == pytest.approx(0.05, rel=0.05)


def test_delay_locus_from_a_double_start_root():
    # 1 + G = (s + 1)^2 / (s(s + 2)) for G = 1/(s(s+2)): two roots start at
    # s = -1 and split into a complex pair as the delay grows
    plant = Plant(zeros=(), poles=(0.0, -2.0), gain=1.0, delay=1.0)
    problem = LocusProblem(LocusKind.DELAY, -1.5, 1.0, plant)
    config = ContinuationConfig()
    result = compute_root_locus(problem, config)
    assert result.warnings == []
    trajs = [t for t in result.trajectories if abs(t.origin.root + 1.0) < 1e-6]
    assert len(trajs) == 2
    roots = []
    for traj in trajs:
        a, b = next((a, b) for a, b in zip(traj.points, traj.points[1:]) if a.lam <= 0.3 <= b.lam)
        guess = a.as_array() + (0.3 - a.lam) / (b.lam - a.lam) * (b.as_array() - a.as_array())
        y = continuation._clip_solve(problem, guess, "lam", 0.3, config)
        roots.append(complex(y[0], y[1]))
    roots.sort(key=lambda r: r.imag)
    want = [complex(-0.80960550, -0.54251225), complex(-0.80960550, 0.54251225)]
    assert roots == [pytest.approx(w, abs=1e-8) for w in want]


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
