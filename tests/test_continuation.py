"""Predictor-corrector stepping, branch handling, real-axis segments."""

import copy
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from rootlocus import continuation
from rootlocus.continuation import (
    _AXIS_TOL,
    _MERGE_TOL,
    _REAL_AXIS_LOG_TOL,
    BranchRegistry,
    Termination,
    TrajectoryPoint,
    _branch_proximity,
    _clip_solve,
    _dgesv,
    _located_point,
    _mp_jacobian,
    _norm,
    _real_axis_samples,
    branch_spawn_prediction,
    correct,
    real_axis_segments,
    secant,
    solve_branch_point,
    step_update,
    trace_trajectory,
)
from rootlocus.critical import (
    CriticalKind,
    CriticalPoint,
    boundary_crossings,
    branch_points_gain,
    starting_points,
)
from rootlocus.engine import compute_root_locus
from rootlocus.errors import (
    DegenerateError,
    JacobianSingularError,
    NoConvergenceError,
    PoleZeroProximityError,
    RootLocusError,
    ValidationError,
)
from rootlocus.localmodel import initial_tangent_simple
from rootlocus.plant import LocusKind, LocusProblem, Plant, wrap_angle

from conftest import example1_problem, example3_problem, first_order_plant
from test_acceptance import stream_problem


def _pt(sigma, omega, lam):
    return TrajectoryPoint(sigma, omega, lam, 0.0, 0.0)


def _first_order_problem(sigma0=-5.0, lambda_max=10.0):
    return LocusProblem(LocusKind.GAIN, sigma0, lambda_max, first_order_plant())


def test_predict_collinear():
    # the predictor steps from the last point along the unit secant
    last = _pt(1, 0, 0)
    assert last.as_array() + secant(_pt(0, 0, 0), last) * 0.5 == pytest.approx([1.5, 0, 0])
    last = _pt(0, 3, 4)
    assert last.as_array() + secant(_pt(0, 0, 0), last) * 5.0 == pytest.approx([0, 6, 8])


def test_predict_degenerate():
    with pytest.raises(DegenerateError):
        secant(_pt(1, 2, 3), _pt(1, 2, 3))


def test_initial_tangent_gain_start():
    # ds/dlam = -e^{1} at the pole s = -1 of G = 1/(s+1), h = 1
    problem = _first_order_problem()
    cp = CriticalPoint(CriticalKind.START, complex(-1.0, 0.0), 0.0)
    d = initial_tangent_simple(problem, cp.root, cp.lam)
    want = np.array([-math.e, 0.0, 1.0])
    want = want / np.linalg.norm(want)
    assert d == pytest.approx(want, abs=1e-12)


def test_initial_tangent_delay_start():
    # ds/dlam = s*G/G' = -6 at the start s = -3 for G = 2/(s+1)
    plant = first_order_plant(gain=2.0)
    problem = LocusProblem(LocusKind.DELAY, -5.0, 1.0, plant)
    cp = CriticalPoint(CriticalKind.START, complex(-3.0, 0.0), 0.0)
    d = initial_tangent_simple(problem, cp.root, cp.lam)
    want = np.array([-6.0, 0.0, 1.0])
    want = want / np.linalg.norm(want)
    assert d == pytest.approx(want, abs=1e-10)


def test_correct_on_trajectory():
    # (-2, 0, e^{-2}) lies exactly on the locus of G = 1/(s+1), h = 1; use a
    # nearby regular point to stay clear of the branch point at -2
    problem = _first_order_problem()
    sigma = -1.6
    lam = math.exp(sigma) * abs(sigma + 1.0)
    direction = np.array([-1.0, 0.0, 0.0])
    pt, kappa = correct(problem, np.array([sigma, 0.0, lam]), direction)
    assert pt.sigma == pytest.approx(sigma, abs=1e-10)
    assert pt.omega == pytest.approx(0.0, abs=1e-10)
    assert pt.lam == pytest.approx(lam, abs=1e-10)
    assert pt.residual < 1e-10


def test_correct_perturbed_converges():
    problem = _first_order_problem()
    sigma = -1.6
    lam = math.exp(sigma) * abs(sigma + 1.0)
    predicted = np.array([sigma, 1e-3, lam])
    direction = np.array([-1.0, 0.0, 0.0])
    pt, kappa = correct(problem, predicted, direction)
    assert pt.residual < 1e-8
    assert kappa < 0.5
    assert abs(pt.omega) < 1e-8


def test_correct_at_pole_fails():
    problem = _first_order_problem()
    with pytest.raises(NoConvergenceError):
        correct(problem, np.array([-1.0, 0.0, 0.5]), np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("problem", [example3_problem(), example1_problem()],
                         ids=["gain", "delay"])
def test_mp_jacobian_matches_central_differences(problem):
    step = 1e-6
    for y in ([-0.7, 1.3, 0.8], [0.4, -2.2, 2.5], [-2.9, 5.1, 0.3]):
        y = np.array(y)
        (m, p), rows = _mp_jacobian(problem, y)
        assert (m, p) == problem.mp(*y)
        for j in range(3):
            e = np.zeros(3)
            e[j] = step
            m_hi, p_hi = problem.mp(*(y + e))
            m_lo, p_lo = problem.mp(*(y - e))
            assert rows[0][j] == pytest.approx((m_hi - m_lo) / (2 * step), abs=1e-6)
            assert rows[1][j] == pytest.approx(wrap_angle(p_hi - p_lo) / (2 * step), abs=1e-6)


def test_stall_note_names_point_step_and_cause(monkeypatch):
    # one Newton iteration never meets a 1e-300 tolerance, so every corrector
    # call fails, and no branch solve can start from the lam = 0 start point
    monkeypatch.setattr(continuation, "_MAX_NEWTON_ITERS", 1)
    monkeypatch.setattr(continuation, "_CORRECTOR_TOL", 1e-300)
    problem = _first_order_problem(sigma0=-1.5, lambda_max=5.0)
    cp = CriticalPoint(CriticalKind.START, complex(-1.0, 0.0), 0.0)
    traj, merge = trace_trajectory(problem, cp, BranchRegistry())
    assert merge is None
    assert traj.termination is Termination.STALLED
    h = continuation._h0(problem) / 2**7
    assert traj.note == (
        "corrector stalled after point (sigma, omega, lam) = (-1, 0, 0) "
        f"at step h = {h:.6g} after 7 halvings: "
        "corrector did not converge in 1 iterations"
    )


def test_step_update_rules():
    # nominal contraction: no change, no repeat
    h, repeat = step_update(continuation._KAPPA_NOMINAL, 0.1)
    assert h == pytest.approx(0.1) and not repeat
    # slow Newton: the factor 2 forces a halved repeat
    h, repeat = step_update(4 * continuation._KAPPA_NOMINAL, 0.1)
    assert h == pytest.approx(0.05) and repeat
    # fast convergence: the factor clamps at 1/2, step doubles
    h, repeat = step_update(1e-12, 0.1)
    assert h == pytest.approx(0.2) and not repeat
    # clamped at h_max and h_min
    h, _ = step_update(1e-12, 0.9)
    assert h == continuation._H_MAX
    h, repeat = step_update(1e6, 1e-9)
    assert h == continuation._H_MIN and repeat


def test_solve_branch_point_two_pole_plant():
    plant = Plant(zeros=(), poles=(-1.0, -2.0), gain=1.0, delay=1.0)
    problem = LocusProblem(LocusKind.GAIN, -5.0, 10.0, plant)
    sb = (-5 + math.sqrt(5)) / 2
    lam_b = math.exp(sb) / abs(plant.transfer(sb))
    cp = solve_branch_point(problem, np.array([sb + 0.02, 0.01, lam_b * 1.05]))
    assert cp.root == pytest.approx(complex(sb, 0.0), abs=1e-6)
    assert cp.lam == pytest.approx(lam_b, rel=1e-6)
    assert cp.multiplicity == 2
    assert len(cp.directions) == 2
    # the same branch point left of sigma0, or above lambda_max, is no solution
    for sigma0, lambda_max in [(sb + 0.01, 10.0), (-5.0, lam_b * 0.99)]:
        outside = LocusProblem(LocusKind.GAIN, sigma0, lambda_max, plant)
        with pytest.raises(NoConvergenceError, match="left the region"):
            solve_branch_point(outside, np.array([sb + 0.02, 0.01, lam_b * 1.05]))


def test_branch_spawn_prediction_parameter_scaling():
    cp = CriticalPoint(CriticalKind.BRANCH, complex(-2.0, 0.0), 0.1, multiplicity=2)
    y, d = branch_spawn_prediction(cp, 1j, 0.01)
    assert y == pytest.approx([-2.0, 0.01, 0.1 + 1e-4])
    assert np.linalg.norm(d) == pytest.approx(1.0)


def test_trace_trajectory_leaves_region():
    # from the pole at -1 the real locus runs left; it must exit at sigma0
    # with lam = e^{sigma0} * |sigma0 + 1|
    problem = _first_order_problem(sigma0=-1.5, lambda_max=5.0)
    cp = CriticalPoint(CriticalKind.START, complex(-1.0, 0.0), 0.0)
    traj, merge = trace_trajectory(problem, cp, BranchRegistry())
    assert merge is None
    assert traj.termination is Termination.LEFT_REGION
    last = traj.points[-1]
    assert last.sigma == pytest.approx(-1.5, abs=1e-9)
    assert last.lam == pytest.approx(math.exp(-1.5) * 0.5, abs=1e-8)


def test_trace_trajectory_clips_at_lambda_max():
    problem = _first_order_problem(sigma0=-1.5, lambda_max=0.05)
    cp = CriticalPoint(CriticalKind.START, complex(-1.0, 0.0), 0.0)
    traj, _ = trace_trajectory(problem, cp, BranchRegistry())
    assert traj.termination is Termination.LAMBDA_MAX_REACHED
    last = traj.points[-1]
    assert last.lam == pytest.approx(0.05, abs=1e-12)
    # lam(sigma) = e^sigma * |sigma+1| inverted at the clip point
    assert math.exp(last.sigma) * abs(last.sigma + 1.0) == pytest.approx(0.05, rel=1e-8)


def test_trace_merges_at_registered_branch_point():
    problem = _first_order_problem(sigma0=-5.0, lambda_max=5.0)
    bp = branch_points_gain(problem)[0]
    registry = BranchRegistry()
    registry.register(bp)
    cp = CriticalPoint(CriticalKind.START, complex(-1.0, 0.0), 0.0)
    traj, merge = trace_trajectory(problem, cp, registry)
    assert traj.termination is Termination.MERGED_AT_BRANCH
    assert merge is not None
    assert merge.point.root == pytest.approx(complex(-2.0, 0.0), abs=1e-8)


def test_register_returns_the_record_of_a_branch_point_within_merge_tol():
    problem = _first_order_problem(sigma0=-5.0, lambda_max=5.0)
    bp = branch_points_gain(problem)[0]
    registry = BranchRegistry()
    rec = registry.register(bp)
    rays = list(rec.rays)
    near = CriticalPoint(
        CriticalKind.BRANCH, bp.root + 0.5 * _MERGE_TOL, bp.lam, 2, [np.array([0.0, 1.0, 0.0])]
    )
    assert registry.register(near) is rec
    assert rec.point is bp and rec.rays == rays
    assert registry.records == [rec]
    far = CriticalPoint(CriticalKind.BRANCH, bp.root + 2.0 * _MERGE_TOL, bp.lam, 2)
    assert registry.register(far) is not rec
    assert len(registry.records) == 2


def test_branch_proximity_skips_only_the_record_of_the_origin_itself():
    # origin shielding: a trajectory spawned from a branch point does not
    # merge straight back into it; any other origin, a field-equal copy of
    # the branch point included, sees the record
    problem = _first_order_problem(sigma0=-5.0, lambda_max=5.0)
    bp = branch_points_gain(problem)[0]
    registry = BranchRegistry()
    rec = registry.register(bp)
    y = rec.y()
    assert _branch_proximity(registry, y, 1e-9, bp) is None
    start = CriticalPoint(CriticalKind.START, complex(-1.0, 0.0), 0.0)
    for skip in (start, copy.copy(bp), None):
        assert _branch_proximity(registry, y, 1e-9, skip) is rec


def _start_before_branch_point_with_one_newton_iteration(monkeypatch):
    # G = 1/(s+1), h = 1: the real locus runs from -1 to the branch point
    # (-2, e^-2).  One Newton iteration from an h0 = 1 prediction never
    # converges, so every corrector call fails and the trace takes the exit
    # after 6 failed halvings
    monkeypatch.setattr(continuation, "_h0", lambda problem: 1.0)
    monkeypatch.setattr(continuation, "_MAX_NEWTON_ITERS", 1)
    problem = _first_order_problem(sigma0=-5.0, lambda_max=5.0)
    sigma = -1.8
    cp = CriticalPoint(
        CriticalKind.CROSSING_IN, complex(sigma, 0.0), math.exp(sigma) * abs(sigma + 1.0)
    )
    return problem, cp


def test_failed_halvings_merge_into_the_registered_branch_point(monkeypatch):
    problem, cp = _start_before_branch_point_with_one_newton_iteration(monkeypatch)
    bp = branch_points_gain(problem)[0]
    registry = BranchRegistry()
    rec = registry.register(bp)
    traj, merge = trace_trajectory(problem, cp, registry)
    assert traj.termination is Termination.MERGED_AT_BRANCH
    assert merge is rec
    assert registry.records == [rec]
    assert len(traj.points) == 2
    assert (traj.points[-1].root, traj.points[-1].lam) == (bp.root, bp.lam)


def test_failed_halvings_solve_and_register_the_branch_point(monkeypatch):
    problem, cp = _start_before_branch_point_with_one_newton_iteration(monkeypatch)
    registry = BranchRegistry()
    traj, merge = trace_trajectory(problem, cp, registry)
    assert traj.termination is Termination.MERGED_AT_BRANCH
    assert registry.records == [merge]
    assert merge.point.root == pytest.approx(complex(-2.0, 0.0), abs=1e-9)
    assert merge.point.lam == pytest.approx(math.exp(-2.0), rel=1e-9)
    assert merge.point.multiplicity == 2
    assert len(traj.points) == 2
    assert (traj.points[-1].root, traj.points[-1].lam) == (merge.point.root, merge.point.lam)


@pytest.mark.parametrize("index", [17, 21])
def test_lambda_reversal_with_a_failed_branch_solve_stalls_and_warns(index, monkeypatch):
    # these stream plants have traces that solve for a branch point at a lam reversal
    def fail(problem, y):
        raise NoConvergenceError("forced failure")

    monkeypatch.setattr(continuation, "solve_branch_point", fail)
    result = compute_root_locus(stream_problem(index))
    note = "lam reversal detected but branch-point solve failed"
    stalled = [t for t in result.trajectories if t.termination is Termination.STALLED]
    assert stalled and all(t.note == note for t in stalled)
    assert sum(w.endswith(f"stalled: {note}") for w in result.warnings) == len(stalled)


def test_lambda_nondecreasing_along_gain_trace():
    problem = _first_order_problem(sigma0=-1.5, lambda_max=5.0)
    cp = CriticalPoint(CriticalKind.START, complex(-1.0, 0.0), 0.0)
    traj, _ = trace_trajectory(problem, cp, BranchRegistry())
    lams = [p.lam for p in traj.points]
    assert all(b >= a - 1e-12 for a, b in zip(lams, lams[1:]))


def test_secant_approaches_analytic_tangent():
    # invariant: the chord direction converges to the tangent as the step shrinks
    problem = _first_order_problem(sigma0=-1.5, lambda_max=5.0)
    sigma = -1.2
    lam = math.exp(sigma) * abs(sigma + 1.0)
    tangent = initial_tangent_simple(problem, complex(sigma, 0.0), lam)
    base = np.array([sigma, 0.0, lam])
    chords = []
    for step in (1e-2, 1e-3):
        pred = base + tangent * step
        pt, _ = correct(problem, pred, tangent)
        chord = pt.as_array() - base
        chords.append(chord / np.linalg.norm(chord))
    assert np.linalg.norm(chords[1] - tangent) < 1e-3
    assert np.linalg.norm(chords[1] - tangent) <= np.linalg.norm(chords[0] - tangent) + 1e-12


def test_clip_solve_pinned_lambda():
    problem = _first_order_problem(sigma0=-5.0, lambda_max=5.0)
    sigma = -1.6
    lam = math.exp(sigma) * abs(sigma + 1.0)
    y = _clip_solve(problem, np.array([sigma + 0.01, 0.005, lam]), "lam", lam)
    assert y[0] == pytest.approx(sigma, abs=1e-10)
    assert y[1] == pytest.approx(0.0, abs=1e-10)
    assert y[2] == lam


def _axis_points(problem):
    """The critical points on the real axis, as the engine hands them over."""
    points = starting_points(problem) + boundary_crossings(problem) + branch_points_gain(problem)
    return [cp for cp in points if abs(cp.root.imag) < _AXIS_TOL]


def test_real_axis_segments_simple():
    problem = _first_order_problem(sigma0=-1.5, lambda_max=5.0)
    # a segment begins and ends at critical points and does not invent one
    starts = [cp for cp in _axis_points(problem) if cp.kind is CriticalKind.START]
    with pytest.raises(RootLocusError, match=r"end at sigma = -1\.5 "):
        real_axis_segments(problem, starts)
    entering = LocusProblem(LocusKind.GAIN, -0.5, 1.0, first_order_plant(gain=-1.0))
    with pytest.raises(RootLocusError, match=r"start at sigma = -0\.5 "):
        real_axis_segments(entering, [])
    trajs, colliders = real_axis_segments(problem, _axis_points(problem))
    assert len(trajs) == 1
    assert colliders == []
    traj = trajs[0]
    assert traj.termination is Termination.LEFT_REGION
    assert traj.points[0].sigma == pytest.approx(-1.0, abs=1e-9)
    assert traj.points[-1].sigma == pytest.approx(-1.5, abs=1e-9)
    assert traj.points[-1].lam == pytest.approx(math.exp(-1.5) * 0.5, rel=1e-9)
    for p in traj.points:
        assert abs(p.omega) < 1e-12


def test_real_axis_segments_collide_at_branch_point():
    problem = _first_order_problem(sigma0=-5.0, lambda_max=5.0)
    trajs, colliders = real_axis_segments(problem, _axis_points(problem))
    assert len(colliders) >= 1
    assert colliders[0].root == pytest.approx(complex(-2.0, 0.0), abs=1e-9)
    merged = [t for t in trajs if t.termination is Termination.MERGED_AT_BRANCH]
    assert merged
    assert merged[0].points[-1].lam == pytest.approx(math.exp(-2.0), rel=1e-9)


def test_real_axis_segments_split_at_a_branch_point_above_lambda_max():
    # lam(sigma) = e^sigma (sigma + 1)(sigma + 3) on (-3, -1) peaks at about
    # 0.135 > lambda_max: the segment is two arms, each clipped at lambda_max
    problem = LocusProblem(LocusKind.GAIN, -4.0, 0.1, Plant((), (-1.0, -3.0), 1.0, 1.0))
    result = compute_root_locus(problem)
    assert [t.origin.root for t in result.trajectories] == [-3.0, -1.0]
    for traj, rising in zip(result.trajectories, (True, False)):
        sigmas = [p.sigma for p in traj.points]
        assert sigmas == sorted(sigmas, reverse=not rising)
        assert traj.termination is Termination.LAMBDA_MAX_REACHED
        assert traj.points[-1].lam == pytest.approx(0.1, rel=1e-12, abs=0.0)
        assert all(p.residual < 1e-4 for p in traj.points)


def _axis_problems():
    """Example 3 and five seeded symmetric gain plants with real poles; among
    them the real-axis segments start at poles and at sigma0 and end at
    lambda_max, at sigma0 and at real branch points."""
    rng = np.random.default_rng(3)
    out = [example3_problem()]
    while len(out) < 6:
        poles = [complex(rng.uniform(-4.0, -0.2)) for _ in range(int(rng.integers(1, 4)))]
        re, im = rng.uniform(-4.0, -0.2), rng.uniform(0.3, 5.0)
        poles += [complex(re, im), complex(re, -im)] if rng.random() < 0.5 else []
        zeros = [complex(rng.uniform(-5.0, 1.0)) for _ in range(int(rng.integers(0, len(poles))))]
        gain = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)
        plant = Plant(tuple(zeros), tuple(poles), gain, rng.uniform(0.2, 1.5))
        try:
            out.append(LocusProblem(LocusKind.GAIN, -3.0, rng.uniform(0.5, 3.0), plant))
        except ValidationError:
            continue
    return out


def test_real_axis_clip_passes_brent_the_end_values_it_holds(monkeypatch):
    # the lambda_max clip of a segment already holds lam at both ends of its
    # bracket and passes exactly those values, ends in ascending order
    brent = continuation.bracketed_root
    clips = 0

    def checked(f, lo, hi, f_lo=None, f_hi=None):
        nonlocal clips
        if f.__name__ == "<lambda>":
            assert lo <= hi
            for x, fx in ((lo, f_lo), (hi, f_hi)):
                assert fx is not None and float(fx).hex() == float(f(x)).hex()
            clips += 1
        return brent(f, lo, hi, f_lo, f_hi)

    monkeypatch.setattr(continuation, "bracketed_root", checked)
    split = LocusProblem(LocusKind.GAIN, -4.0, 0.1, Plant((), (-1.0, -3.0), 1.0, 1.0))
    for problem in _axis_problems() + [split]:
        compute_root_locus(problem)
    assert clips >= 3


def test_real_axis_peak_search_passes_brent_the_end_values_it_holds(monkeypatch):
    # the search for a lam maximum inside a real-axis piece has d(log lam)/dx
    # at both ends of the piece when it calls Brent, and passes exactly those
    brent = continuation.bracketed_root
    peaks = 0

    def checked(f, lo, hi, f_lo=None, f_hi=None):
        nonlocal peaks
        if f.__name__ == "dlog_lam":
            assert f_lo > 0.0 > f_hi
            for x, fx in ((lo, f_lo), (hi, f_hi)):
                assert float(fx).hex() == float(f(x)).hex()
            peaks += 1
        return brent(f, lo, hi, f_lo, f_hi)

    monkeypatch.setattr(continuation, "bracketed_root", checked)
    split = LocusProblem(LocusKind.GAIN, -4.0, 0.1, Plant((), (-1.0, -3.0), 1.0, 1.0))
    for problem in _axis_problems() + [split]:
        compute_root_locus(problem)
    assert peaks >= 1


def _uniform_samples(lam_and_log, x_from, x_to):
    # the former fixed rule: 400 evenly spaced samples, ends included
    return [(x, lam_and_log(x)[0]) for x in np.linspace(x_from, x_to, 400).tolist()]


def test_real_axis_samples_follow_log_lambda(monkeypatch):
    kinds, ends = set(), set()
    for k, problem in enumerate(_axis_problems()):
        plant, h = problem.plant, problem.plant.delay
        axis_points = _axis_points(problem)
        samples = []

        def spy(lam_and_log, x_from, x_to):
            out = _real_axis_samples(lam_and_log, x_from, x_to)
            samples.append(out)
            return out

        monkeypatch.setattr(continuation, "_real_axis_samples", spy)
        trajs, colliders = real_axis_segments(problem, axis_points)
        monkeypatch.setattr(continuation, "_real_axis_samples", _uniform_samples)
        old_trajs, old_colliders = real_axis_segments(problem, axis_points)

        assert colliders == old_colliders
        assert len(trajs) == len(old_trajs) == len(samples) > 0
        for new, old in zip(trajs, old_trajs):
            assert new.origin == old.origin and new.termination is old.termination
            assert new.points[0] == old.points[0] and new.points[-1] == old.points[-1]
            assert len(new.points) <= 400
            if k == 0:
                assert len(new.points) < 400
            kinds.add(new.origin.kind)
            ends.add(new.termination)
        for pts in samples:
            for (a, lam_a), (b, lam_b) in zip(pts, pts[1:]):
                m = 0.5 * (a + b)
                log_m = math.log(math.exp(h * m) / abs(plant.transfer(complex(m, 0.0)).real))
                err = abs(log_m - 0.5 * (math.log(lam_a) + math.log(lam_b)))
                assert err <= _REAL_AXIS_LOG_TOL * (1 + 1e-9) + 1e-12
    assert kinds >= {CriticalKind.START, CriticalKind.CROSSING_IN}
    assert ends == set(Termination) - {Termination.STALLED}


def _seeded_systems(n, seed=20261018):
    """Seeded n x n systems: well conditioned, ill conditioned (singular values
    down to 1e-14) and badly scaled rows, as lists like the corrector's."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(600):
        a = rng.standard_normal((n, n))
        if k % 3 == 1:
            u, _, vt = np.linalg.svd(a)
            sv = np.logspace(0.0, -rng.uniform(6.0, 14.0), n)
            a = u @ np.diag(sv) @ vt
        elif k % 3 == 2:
            a = a * 10.0 ** rng.uniform(-8.0, 8.0, size=(n, 1))
        out.append((a.tolist(), rng.standard_normal(n).tolist()))
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_solve_equals_numpy_solve_bit_for_bit(n):
    # the corrector and the clip solve call the dgesv gufunc on float64
    # arrays, without np.linalg.solve's argument handling
    for a, b in _seeded_systems(n):
        want = np.linalg.solve(a, b)
        got = _dgesv(np.array(a), np.array(b))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("what", ["corrector", "clip"])
def test_solve_singular_raises_without_a_warning(what, monkeypatch):
    # Jacobian rows that are singular (with the direction row, for the
    # corrector; in the two free columns, for the clip solve)
    rows = {
        "corrector": [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]],
        "clip": [[1.0, 2.0, 0.5], [2.0, 4.0, 0.5]],
    }[what]
    monkeypatch.setattr(
        continuation, "_mp_jacobian", lambda problem, y: ((1.0, 1.0), [list(r) for r in rows])
    )
    problem = _first_order_problem()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(JacobianSingularError, match=f"^singular {what} Jacobian$"):
            if what == "corrector":
                correct(problem, (0.5, 0.5, 1.0), np.array([0.0, 1.0, 1.0]))
            else:
                _clip_solve(problem, (0.5, 0.5, 1.0), "lam", 1.0)


def test_norm_equals_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(7)
    for _ in range(20000):
        x = rng.standard_normal(3) * 10.0 ** rng.uniform(-150.0, 150.0, size=3)
        assert _norm(x).hex() == float(np.linalg.norm(x)).hex()
    x = rng.standard_normal(2)
    assert _norm(x).hex() == float(np.linalg.norm(x)).hex()
    assert _norm(np.zeros(3)) == 0.0


def test_correct_returns_plain_floats():
    problem = _first_order_problem()
    sigma = -1.6
    lam = math.exp(sigma) * abs(sigma + 1.0)
    pt, _ = correct(problem, np.array([sigma, 1e-3, lam]), np.array([-1.0, 0.0, 0.0]))
    assert all(type(v) is float for v in (pt.sigma, pt.omega, pt.lam, pt.residual))


# --- the array-based corrector and clip solve, kept as the oracle of the
# plain-float ones: numpy arrays for the iterate, np.linalg.solve's gufunc
# for every system, norms and the arclength row by BLAS ddot


def _array_solve(a, b, what):
    try:
        with np.errstate(invalid="raise"):
            return _dgesv(a, b, signature="dd->d")
    except FloatingPointError as exc:
        raise JacobianSingularError(f"singular {what} Jacobian") from exc


def _array_correct(problem, predicted, direction):
    y = np.array(predicted, dtype=float)
    yp = y.copy()
    gain = problem.kind is LocusKind.GAIN
    first = second = 0.0
    for it in range(continuation._MAX_NEWTON_ITERS):
        if gain and y[2] <= 0.0:
            raise NoConvergenceError("corrector iterate left lam > 0")
        if not gain and y[2] < 0.0:
            y[2] = 0.0
        try:
            (m, p), rows = _mp_jacobian(problem, y.tolist())
        except PoleZeroProximityError as exc:
            raise NoConvergenceError(f"corrector iterate hit a pole/zero: {exc}") from exc
        rows.append(direction)
        delta = _array_solve(rows, [-m, -p, -float(np.dot(y - yp, direction))], "corrector")
        if not all(map(math.isfinite, delta.tolist())):
            raise JacobianSingularError("corrector update overflowed")
        y = y + delta
        norm = _norm(delta)
        if it == 0:
            first = norm
        elif it == 1:
            second = norm
        if norm < continuation._CORRECTOR_TOL:
            if gain and y[2] <= 0.0:
                raise NoConvergenceError("corrector converged outside lam > 0")
            if not gain and y[2] < 0.0:
                y[2] = 0.0
            kappa = second / first if it >= 1 else 0.0
            return _located_point(problem, y.tolist(), 0.0), kappa
        if it >= 2 and norm > 10.0 * first:
            raise NoConvergenceError("corrector diverging")
    raise NoConvergenceError(
        f"corrector did not converge in {continuation._MAX_NEWTON_ITERS} iterations"
    )


def _array_clip_solve(problem, y_guess, pin, pin_value):
    y = np.array(y_guess, dtype=float)
    idx = {"sigma": 0, "lam": 2}[pin]
    free = [i for i in range(3) if i != idx]
    y[idx] = pin_value
    for _ in range(50):
        if problem.kind is LocusKind.GAIN and y[2] <= 0.0:
            raise NoConvergenceError("clip solve iterate left lam > 0")
        try:
            (m, p), rows = _mp_jacobian(problem, y.tolist())
        except PoleZeroProximityError as exc:
            raise NoConvergenceError(f"clip solve iterate hit a pole/zero: {exc}") from exc
        jac = [[row[i] for i in free] for row in rows]
        delta = _array_solve(jac, [-m, -p], "clip")
        y[free] += delta
        if _norm(delta) < 1e-13 * (1.0 + _norm(y)):
            return y
    raise NoConvergenceError(f"clip solve with pinned {pin} did not converge")


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, every float in hex, or its exception's type
    and message."""
    try:
        out = fn(*args)
    except RootLocusError as exc:
        return type(exc), str(exc)
    if isinstance(out, tuple):  # (point, kappa)
        pt, kappa = out
        return [v.hex() for v in (pt.sigma, pt.omega, pt.lam, pt.residual, pt.step_used, kappa)]
    return [float(v).hex() for v in out]


@pytest.fixture(scope="module")
def traced_steps(example1_result, example2_result, example3_result, turning_point_result):
    """Seeded (problem, last point, secant, step) tuples from the traced
    trajectories of the four reference problems and of criterion-4 stream
    plant 28."""
    rng = np.random.default_rng(16)
    results = [example1_result, example2_result, example3_result, turning_point_result,
               compute_root_locus(stream_problem(28))]
    out = []
    for result in results:
        problem = result.problem
        pairs = [
            (a, b)
            for t in result.trajectories
            if any(p.omega != 0.0 for p in t.points)
            for a, b in zip(t.points, t.points[1:])
        ]
        for k in rng.choice(len(pairs), size=min(len(pairs), 60), replace=False):
            a, b = pairs[k]
            # one step near the one the tracer took, one well past it
            for step in b.step_used * 2.0 ** rng.uniform([-2.0, 3.0], [3.0, 9.0]):
                out.append((problem, b, secant(a, b), step))
    return out


def test_float_corrector_keeps_the_array_corrector_bits(traced_steps):
    kinds = set()
    for problem, last, d, h in traced_steps:
        predicted = (last.sigma + d[0] * h, last.omega + d[1] * h, last.lam + d[2] * h)
        got = _outcome(correct, problem, predicted, d)
        want = _outcome(_array_correct, problem, np.array(predicted), d)
        assert got == want
        kinds.add(got[0] if isinstance(got, tuple) else "point")
    assert kinds >= {"point", NoConvergenceError}


def test_float_clip_solve_keeps_the_array_clip_solve_bits(traced_steps):
    converged = 0
    for problem, last, d, h in traced_steps:
        guess = (last.sigma + d[0] * h, last.omega + d[1] * h, last.lam + d[2] * h)
        for pin, value in (("lam", last.lam), ("sigma", last.sigma), ("sigma", 0.0)):
            got = _outcome(_clip_solve, problem, guess, pin, value)
            assert got == _outcome(_array_clip_solve, problem, np.array(guess), pin, value)
            converged += isinstance(got, list)
    assert converged > len(traced_steps)


def test_clip_solve_iterates_at_lam_0_or_on_a_pole_fail_to_converge(traced_steps):
    # as in ``correct``: a gain-locus iterate at lam <= 0 (where the log
    # magnitude is undefined) or on a pole or zero raises NoConvergenceError,
    # which every caller of the clip solve catches
    causes = Counter()
    for problem, last, d, h in traced_steps:
        guess = (last.sigma + d[0] * h, last.omega + d[1] * h, last.lam + d[2] * h)
        for pin, value in (("lam", last.lam), ("sigma", last.sigma), ("sigma", 0.0)):
            try:
                _clip_solve(problem, guess, pin, value)
            except NoConvergenceError as exc:
                causes[str(exc).split(":")[0]] += 1
            except JacobianSingularError:
                pass
    assert causes["clip solve iterate left lam > 0"] > 0
    assert causes["clip solve iterate hit a pole/zero"] > 0
