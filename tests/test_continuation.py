"""Predictor-corrector stepping, branch handling, real-axis segments."""

import math
import warnings

import numpy as np
import pytest

from rootlocus.continuation import (
    _MERGE_TOL,
    BranchRegistry,
    ContinuationConfig,
    Termination,
    TrajectoryPoint,
    _clip_solve,
    _mp_jacobian,
    _norm,
    _solve,
    branch_spawn_prediction,
    correct,
    predict,
    real_axis_segments,
    solve_branch_point,
    step_update,
    trace_trajectory,
)
from rootlocus.critical import CriticalKind, CriticalPoint, branch_points_gain
from rootlocus.errors import DegenerateError, JacobianSingularError, NoConvergenceError
from rootlocus.localmodel import initial_tangent_simple
from rootlocus.plant import LocusKind, LocusProblem, Plant, wrap_angle

from conftest import example1_problem, example3_problem, first_order_plant


def _pt(sigma, omega, lam):
    return TrajectoryPoint(sigma, omega, lam, 0.0, 0.0)


def _first_order_problem(sigma0=-5.0, lambda_max=10.0):
    return LocusProblem(LocusKind.GAIN, sigma0, lambda_max, first_order_plant())


def test_predict_collinear():
    assert predict(_pt(0, 0, 0), _pt(1, 0, 0), 0.5) == pytest.approx([1.5, 0, 0])
    assert predict(_pt(0, 0, 0), _pt(0, 3, 4), 5.0) == pytest.approx([0, 6, 8])


def test_predict_degenerate():
    with pytest.raises(DegenerateError):
        predict(_pt(1, 2, 3), _pt(1, 2, 3), 0.1)


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


def test_correct_on_trajectory(config):
    # (-2, 0, e^{-2}) lies exactly on the locus of G = 1/(s+1), h = 1; use a
    # nearby regular point to stay clear of the branch point at -2
    problem = _first_order_problem()
    sigma = -1.6
    lam = math.exp(sigma) * abs(sigma + 1.0)
    direction = np.array([-1.0, 0.0, 0.0])
    pt, kappa = correct(problem, np.array([sigma, 0.0, lam]), direction, config)
    assert pt.sigma == pytest.approx(sigma, abs=1e-10)
    assert pt.omega == pytest.approx(0.0, abs=1e-10)
    assert pt.lam == pytest.approx(lam, abs=1e-10)
    assert pt.residual < 1e-10


def test_correct_perturbed_converges(config):
    problem = _first_order_problem()
    sigma = -1.6
    lam = math.exp(sigma) * abs(sigma + 1.0)
    predicted = np.array([sigma, 1e-3, lam])
    direction = np.array([-1.0, 0.0, 0.0])
    pt, kappa = correct(problem, predicted, direction, config)
    assert pt.residual < 1e-8
    assert kappa < 0.5
    assert abs(pt.omega) < 1e-8


def test_correct_at_pole_fails(config):
    problem = _first_order_problem()
    with pytest.raises(NoConvergenceError):
        correct(problem, np.array([-1.0, 0.0, 0.5]), np.array([1.0, 0.0, 0.0]), config)


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


def test_stall_note_names_point_step_and_cause():
    # one Newton iteration never meets a 1e-300 tolerance, so every corrector
    # call fails, and no branch solve can start from the lam = 0 start point
    config = ContinuationConfig(max_newton_iters=1, corrector_tol=1e-300)
    problem = _first_order_problem(sigma0=-1.5, lambda_max=5.0)
    cp = CriticalPoint(CriticalKind.START, complex(-1.0, 0.0), 0.0)
    traj, merge = trace_trajectory(
        problem, cp, initial_tangent_simple(problem, cp.root, cp.lam), BranchRegistry(), config
    )
    assert merge is None
    assert traj.termination is Termination.STALLED
    h = config.resolved_h0(problem) / 2**7
    assert traj.note == (
        "corrector stalled after point (sigma, omega, lam) = (-1, 0, 0) "
        f"at step h = {h:.6g} after 7 halvings: "
        "corrector did not converge in 1 iterations"
    )


def test_step_update_rules(config):
    # nominal point: no change, no repeat
    h, repeat = step_update(config.kappa_nominal, config.delta_nominal, 0.1, config)
    assert h == pytest.approx(0.1) and not repeat
    # slow Newton: kappa_df = 2 forces a halved repeat
    h, repeat = step_update(4 * config.kappa_nominal, 0.0, 0.1, config)
    assert h == pytest.approx(0.05) and repeat
    # fast convergence: both factors clamp at 1/2, step doubles
    h, repeat = step_update(1e-12, 1e-12, 0.1, config)
    assert h == pytest.approx(0.2) and not repeat
    # clamped at h_max
    h, _ = step_update(1e-12, 1e-12, 0.9, config)
    assert h == config.h_max


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


def test_branch_spawn_prediction_parameter_scaling(config):
    cp = CriticalPoint(CriticalKind.BRANCH, complex(-2.0, 0.0), 0.1, multiplicity=2)
    y, d = branch_spawn_prediction(
        LocusProblem(LocusKind.GAIN, -5.0, 1.0, first_order_plant()), cp, 1j, config, t=0.01
    )
    assert y == pytest.approx([-2.0, 0.01, 0.1 + 1e-4])
    assert np.linalg.norm(d) == pytest.approx(1.0)


def test_trace_trajectory_leaves_region(config):
    # from the pole at -1 the real locus runs left; it must exit at sigma0
    # with lam = e^{sigma0} * |sigma0 + 1|
    problem = _first_order_problem(sigma0=-1.5, lambda_max=5.0)
    cp = CriticalPoint(CriticalKind.START, complex(-1.0, 0.0), 0.0)
    traj, merge = trace_trajectory(
        problem, cp, initial_tangent_simple(problem, cp.root, cp.lam), BranchRegistry(), config
    )
    assert merge is None
    assert traj.termination is Termination.LEFT_REGION
    last = traj.points[-1]
    assert last.sigma == pytest.approx(-1.5, abs=1e-9)
    assert last.lam == pytest.approx(math.exp(-1.5) * 0.5, abs=1e-8)


def test_trace_trajectory_clips_at_lambda_max(config):
    problem = _first_order_problem(sigma0=-1.5, lambda_max=0.05)
    cp = CriticalPoint(CriticalKind.START, complex(-1.0, 0.0), 0.0)
    traj, _ = trace_trajectory(
        problem, cp, initial_tangent_simple(problem, cp.root, cp.lam), BranchRegistry(), config
    )
    assert traj.termination is Termination.LAMBDA_MAX_REACHED
    last = traj.points[-1]
    assert last.lam == pytest.approx(0.05, abs=1e-12)
    # lam(sigma) = e^sigma * |sigma+1| inverted at the clip point
    assert math.exp(last.sigma) * abs(last.sigma + 1.0) == pytest.approx(0.05, rel=1e-8)


def test_trace_merges_at_registered_branch_point(config):
    problem = _first_order_problem(sigma0=-5.0, lambda_max=5.0)
    bp = branch_points_gain(problem)[0]
    registry = BranchRegistry()
    registry.register(bp)
    cp = CriticalPoint(CriticalKind.START, complex(-1.0, 0.0), 0.0)
    traj, merge = trace_trajectory(
        problem, cp, initial_tangent_simple(problem, cp.root, cp.lam), registry, config
    )
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


def _start_before_branch_point_with_one_newton_iteration():
    # G = 1/(s+1), h = 1: the real locus runs from -1 to the branch point
    # (-2, e^-2).  One Newton iteration from an h0 = 1 prediction never
    # converges, so every corrector call fails and the trace takes the exit
    # after 6 failed halvings
    problem = _first_order_problem(sigma0=-5.0, lambda_max=5.0)
    sigma = -1.8
    cp = CriticalPoint(
        CriticalKind.CROSSING_IN, complex(sigma, 0.0), math.exp(sigma) * abs(sigma + 1.0)
    )
    config = ContinuationConfig(h0=1.0, max_newton_iters=1)
    return problem, cp, config


def test_failed_halvings_merge_into_the_registered_branch_point():
    problem, cp, config = _start_before_branch_point_with_one_newton_iteration()
    bp = branch_points_gain(problem)[0]
    registry = BranchRegistry()
    rec = registry.register(bp)
    traj, merge = trace_trajectory(
        problem, cp, initial_tangent_simple(problem, cp.root, cp.lam), registry, config
    )
    assert traj.termination is Termination.MERGED_AT_BRANCH
    assert merge is rec
    assert registry.records == [rec]
    assert len(traj.points) == 2
    assert (traj.points[-1].root, traj.points[-1].lam) == (bp.root, bp.lam)


def test_failed_halvings_solve_and_register_the_branch_point():
    problem, cp, config = _start_before_branch_point_with_one_newton_iteration()
    registry = BranchRegistry()
    traj, merge = trace_trajectory(
        problem, cp, initial_tangent_simple(problem, cp.root, cp.lam), registry, config
    )
    assert traj.termination is Termination.MERGED_AT_BRANCH
    assert registry.records == [merge]
    assert merge.point.root == pytest.approx(complex(-2.0, 0.0), abs=1e-9)
    assert merge.point.lam == pytest.approx(math.exp(-2.0), rel=1e-9)
    assert merge.point.multiplicity == 2
    assert len(traj.points) == 2
    assert (traj.points[-1].root, traj.points[-1].lam) == (merge.point.root, merge.point.lam)


def test_lambda_nondecreasing_along_gain_trace(config):
    problem = _first_order_problem(sigma0=-1.5, lambda_max=5.0)
    cp = CriticalPoint(CriticalKind.START, complex(-1.0, 0.0), 0.0)
    traj, _ = trace_trajectory(
        problem, cp, initial_tangent_simple(problem, cp.root, cp.lam), BranchRegistry(), config
    )
    lams = [p.lam for p in traj.points]
    assert all(b >= a - 1e-12 for a, b in zip(lams, lams[1:]))


def test_secant_approaches_analytic_tangent(config):
    # invariant: the chord direction converges to the tangent as the step shrinks
    problem = _first_order_problem(sigma0=-1.5, lambda_max=5.0)
    sigma = -1.2
    lam = math.exp(sigma) * abs(sigma + 1.0)
    tangent = initial_tangent_simple(problem, complex(sigma, 0.0), lam)
    base = np.array([sigma, 0.0, lam])
    chords = []
    for step in (1e-2, 1e-3):
        pred = base + tangent * step
        pt, _ = correct(problem, pred, tangent, config)
        chord = pt.as_array() - base
        chords.append(chord / np.linalg.norm(chord))
    assert np.linalg.norm(chords[1] - tangent) < 1e-3
    assert np.linalg.norm(chords[1] - tangent) <= np.linalg.norm(chords[0] - tangent) + 1e-12


def test_clip_solve_pinned_lambda(config):
    problem = _first_order_problem(sigma0=-5.0, lambda_max=5.0)
    sigma = -1.6
    lam = math.exp(sigma) * abs(sigma + 1.0)
    y = _clip_solve(problem, np.array([sigma + 0.01, 0.005, lam]), "lam", lam, config)
    assert y[0] == pytest.approx(sigma, abs=1e-10)
    assert y[1] == pytest.approx(0.0, abs=1e-10)
    assert y[2] == lam


def test_real_axis_segments_simple(config):
    problem = _first_order_problem(sigma0=-1.5, lambda_max=5.0)
    trajs, colliders = real_axis_segments(problem, [], config)
    assert len(trajs) == 1
    assert colliders == []
    traj = trajs[0]
    assert traj.termination is Termination.LEFT_REGION
    assert traj.points[0].sigma == pytest.approx(-1.0, abs=1e-9)
    assert traj.points[-1].sigma == pytest.approx(-1.5, abs=1e-9)
    assert traj.points[-1].lam == pytest.approx(math.exp(-1.5) * 0.5, rel=1e-9)
    for p in traj.points:
        assert abs(p.omega) < 1e-12


def test_real_axis_segments_collide_at_branch_point(config):
    problem = _first_order_problem(sigma0=-5.0, lambda_max=5.0)
    bps = branch_points_gain(problem)
    trajs, colliders = real_axis_segments(problem, bps, config)
    assert len(colliders) >= 1
    assert colliders[0].root == pytest.approx(complex(-2.0, 0.0), abs=1e-9)
    merged = [t for t in trajs if t.termination is Termination.MERGED_AT_BRANCH]
    assert merged
    assert merged[0].points[-1].lam == pytest.approx(math.exp(-2.0), rel=1e-9)


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
    for a, b in _seeded_systems(n):
        want = np.linalg.solve(a, b)
        got = _solve(a, b, "corrector")
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # the corrector's third row is the direction array, not a list
    a, b = _seeded_systems(3)[0]
    mixed = a[:2] + [np.array(a[2])]
    assert _solve(mixed, b, "corrector").tobytes() == np.linalg.solve(a, b).tobytes()


@pytest.mark.parametrize("what", ["corrector", "clip"])
def test_solve_singular_raises_without_a_warning(what):
    singular = {
        2: [[1.0, 2.0], [2.0, 4.0]],
        3: [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]],
    }
    for n, a in singular.items():
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a, [1.0] * n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(JacobianSingularError, match=f"^singular {what} Jacobian$"):
                _solve(a, [1.0] * n, what)


def test_norm_equals_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(7)
    for _ in range(20000):
        x = rng.standard_normal(3) * 10.0 ** rng.uniform(-150.0, 150.0, size=3)
        assert _norm(x).hex() == float(np.linalg.norm(x)).hex()
    x = rng.standard_normal(2)
    assert _norm(x).hex() == float(np.linalg.norm(x)).hex()
    assert _norm(np.zeros(3)) == 0.0


def test_correct_returns_plain_floats(config):
    problem = _first_order_problem()
    sigma = -1.6
    lam = math.exp(sigma) * abs(sigma + 1.0)
    pt, _ = correct(problem, np.array([sigma, 1e-3, lam]), np.array([-1.0, 0.0, 0.0]), config)
    assert all(type(v) is float for v in (pt.sigma, pt.omega, pt.lam, pt.residual))
