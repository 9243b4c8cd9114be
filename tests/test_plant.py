"""Plant evaluation, log decomposition, boundary functions, validation."""

import cmath
import math
from collections import Counter

import numpy as np
import pytest

from rootlocus.continuation import _mp_jacobian
from rootlocus.critical import BoundaryLine
from rootlocus.errors import PoleZeroProximityError, ValidationError
from rootlocus.plant import LocusKind, LocusProblem, Plant, eval_char_fn, wrap_angle

from conftest import (
    big_lambda_prime,
    example1_problem,
    example2_problem,
    example3_problem,
    first_order_plant,
    phi_prime,
    turning_point_problem,
)


# --- reference implementation: one loop per quantity, as the plant passes
# must match


def _ref_check_clear(plant, s):
    tol = 1e-9 * (1.0 + abs(s))
    for p in plant.poles:
        if abs(s - p) < tol:
            raise PoleZeroProximityError(f"point {s} is within {tol:g} of pole {p}")
    for z in plant.zeros:
        if abs(s - z) < tol:
            raise PoleZeroProximityError(f"point {s} is within {tol:g} of zero {z}")


def _ref_log_magnitude(plant, sigma, omega, k, h):
    _ref_check_clear(plant, complex(sigma, omega))
    acc = math.log(abs(plant.gain)) + math.log(k) - h * sigma
    for z in plant.zeros:
        acc += 0.5 * math.log((sigma - z.real) ** 2 + (omega - z.imag) ** 2)
    for p in plant.poles:
        acc -= 0.5 * math.log((sigma - p.real) ** 2 + (omega - p.imag) ** 2)
    return acc


def _ref_phase(plant, sigma, omega, h):
    _ref_check_clear(plant, complex(sigma, omega))
    acc = (0.0 if plant.gain > 0 else math.pi) - h * omega - math.pi
    for z in plant.zeros:
        acc += math.atan2(omega - z.imag, sigma - z.real)
    for p in plant.poles:
        acc -= math.atan2(omega - p.imag, sigma - p.real)
    return wrap_angle(acc)


def _ref_log_derivative(plant, s):
    _ref_check_clear(plant, s)
    acc = 0.0 + 0.0j
    for z in plant.zeros:
        acc += 1.0 / (s - z)
    for p in plant.poles:
        acc -= 1.0 / (s - p)
    return acc


def _ref_evaluate(problem, sigma, omega, lam):
    plant = problem.plant
    k, h = (lam, plant.delay) if problem.kind is LocusKind.GAIN else (1.0, lam)
    return (
        _ref_log_magnitude(plant, sigma, omega, k, h),
        _ref_phase(plant, sigma, omega, h),
        _ref_log_derivative(plant, complex(sigma, omega)),
    )


def _evaluate(problem, sigma, omega, lam):
    """(M, P, G'/G) of the engine's plant passes at sigma + j omega: ``mp``,
    then ``log_derivative``, in the order ``_mp_jacobian`` takes them."""
    m, p = problem.mp(sigma, omega, lam)
    return m, p, problem.log_derivative(complex(sigma, omega))


def _both_kinds(problem):
    return [
        LocusProblem(kind, problem.sigma0, problem.lambda_max, problem.plant)
        for kind in LocusKind
    ]


_REFERENCE_PROBLEMS = [
    example1_problem(),
    example2_problem(),
    example3_problem(),
    turning_point_problem(),
]


def test_wrap_angle_range():
    for x in [-10.0, -math.pi, -1.0, 0.0, 1.0, math.pi, 10.0, 123.456]:
        w = wrap_angle(x)
        assert -math.pi < w <= math.pi
        assert abs(math.sin(w - x)) < 1e-12


def test_transfer_first_order():
    plant = first_order_plant()
    assert plant.transfer(0.0) == pytest.approx(1.0)
    assert plant.transfer(1j) == pytest.approx(1 / (1 + 1j))


def test_transfer_raises_near_pole():
    plant = first_order_plant()
    with pytest.raises(PoleZeroProximityError):
        plant.transfer(complex(-1.0, 1e-12))


def test_evaluate_equals_reference_loops_exactly():
    rng = np.random.default_rng(20261017)
    for base in _REFERENCE_PROBLEMS:
        for problem in _both_kinds(base):
            for _ in range(200):
                sigma = rng.uniform(-4.0, 6.0)
                omega = rng.uniform(-10.0, 10.0)
                lam = rng.uniform(0.01, 6.0)
                assert _evaluate(problem, sigma, omega, lam) == _ref_evaluate(
                    problem, sigma, omega, lam
                )
                # the corrector also passes numpy scalars
                y = np.array([sigma, omega, lam])
                assert _evaluate(problem, y[0], y[1], y[2]) == _ref_evaluate(
                    problem, y[0], y[1], y[2]
                )
                assert problem.mp(sigma, omega, lam) == _ref_evaluate(
                    problem, sigma, omega, lam
                )[:2]


def test_evaluate_raises_near_zero_and_pole():
    problem = example3_problem()
    with pytest.raises(PoleZeroProximityError, match="zero"):
        _mp_jacobian(problem, (5.0, 5.0 + 1e-12, 1.0))
    with pytest.raises(PoleZeroProximityError, match="pole"):
        _mp_jacobian(problem, (-1.0 + 1e-12, 0.0, 1.0))


def _tolerance_edge_walk():
    """(word, sigma, omega, inside) at |s - v| = tol (1 + k ulp), k in -8..8,
    around a zero and a pole of example 1 (zeros 0, 0; poles +-2j, +-4j);
    ``inside`` is abs(s - v) < tol = 1e-9 (1 + |s|), where mp raises."""
    for v, word, angles in (
        (0j, "zero", np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)),
        (2j, "pole", [0.0, math.pi]),  # omega near 2 is too coarse off the axis
    ):
        for angle in angles:
            e = cmath.exp(1j * angle)
            r = 1e-9 * (1.0 + abs(v))
            for _ in range(3):  # the radius where |s - v| = 1e-9 (1 + |s|)
                r = 1e-9 * (1.0 + abs(v + r * e))
            for k in range(-8, 9):
                s = v + r * (1.0 + k * 2.0**-52) * e
                sigma, omega = s.real, s.imag
                s = complex(sigma, omega)
                yield word, sigma, omega, abs(s - v) < 1e-9 * (1.0 + abs(s))


@pytest.mark.parametrize("kind", list(LocusKind))
def test_evaluate_proximity_prefilter_at_the_tolerance_edge(kind):
    # mp takes abs(s - v) only when x**2 + y**2 < tol**2 (1 + 1e-12); at the
    # tolerance edge it must raise exactly where abs(s - v) < tol
    base = example1_problem()
    problem = LocusProblem(kind, base.sigma0, base.lambda_max, base.plant)
    lam = 0.5
    seen = set()
    for word, sigma, omega, inside in _tolerance_edge_walk():
        seen.add((word, inside))
        if inside:
            with pytest.raises(PoleZeroProximityError, match=f"of {word} "):
                _evaluate(problem, sigma, omega, lam)
        else:
            assert _evaluate(problem, sigma, omega, lam) == _ref_evaluate(
                problem, sigma, omega, lam
            )
    assert seen == {(w, i) for w in ("zero", "pole") for i in (True, False)}


def _hex(values):
    return [float(v).hex() for v in values]


def test_mp_is_evaluate_without_the_log_derivative_bit_for_bit():
    # mp is the frozen evaluate without its G'/G sum; M and P keep every bit,
    # -0.0 too, and it raises at exactly the tolerance-edge points where the
    # reference loops do
    from test_acceptance import stream_problem

    rng = np.random.default_rng(20261019)
    for base in _REFERENCE_PROBLEMS + [stream_problem(28)]:
        for problem in _both_kinds(base):
            for i in range(200):
                sigma = rng.uniform(-4.0, 6.0)
                # every fourth point on the real axis, where P can be -0.0
                omega = 0.0 if i % 4 == 0 else rng.uniform(-10.0, 10.0)
                lam = rng.uniform(0.01, 6.0)
                want = _hex(_frozen_evaluate(problem, sigma, omega, lam)[:2])
                assert _hex(problem.mp(sigma, omega, lam)) == want
    base = example1_problem()
    for kind in LocusKind:
        problem = LocusProblem(kind, base.sigma0, base.lambda_max, base.plant)
        for word, sigma, omega, inside in _tolerance_edge_walk():
            if inside:
                with pytest.raises(PoleZeroProximityError, match=f"of {word} "):
                    problem.mp(sigma, omega, 0.5)
            else:
                assert _hex(problem.mp(sigma, omega, 0.5)) == _hex(
                    _frozen_evaluate(problem, sigma, omega, 0.5)[:2]
                )


def _outcome_hex(fn, *args):
    """The floats ``fn(*args)`` returns, in hex, or its proximity error's text."""
    try:
        return _hex(fn(*args))
    except PoleZeroProximityError as exc:
        return str(exc)


def test_mp_equals_evaluate_near_every_pole_and_zero(monkeypatch):
    # mp is its own loop over (Re v, Im v) floats; near each pole and zero of
    # the reference plants and of the seed-1 random_gain and random_delay
    # plants it keeps the bits of the frozen evaluate's M and P, and within
    # the proximity tolerance it raises with its text
    import importlib
    import os

    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))
    workloads = importlib.import_module("workloads")
    problems = (_REFERENCE_PROBLEMS + workloads.build("random_gain", 1)
                + workloads.build("random_delay", 1))
    rng = np.random.default_rng(2707)
    raised = checked = 0
    for problem in problems:
        for v in problem.plant.zeros + problem.plant.poles:
            e = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            tol = 1e-9 * (1.0 + abs(v))
            for _ in range(3):  # the radius where |s - v| = 1e-9 (1 + |s|) along e
                tol = 1e-9 * (1.0 + abs(v + tol * e))
            # inside the tolerance, within ulps of its edge, near it, and
            # further out, up to 1e-2 away
            radii = tol * np.concatenate([
                10.0 ** rng.uniform(-3.0, 0.0, size=4),
                1.0 + np.arange(-3, 4) * 2.0**-52,
                1.0 + rng.choice([-1.0, 1.0], size=6) * 10.0 ** rng.uniform(-15.0, -6.0, size=6),
                10.0 ** rng.uniform(0.0, 7.0, size=6),
            ])
            for r in radii:
                s = v + r * e
                sigma, omega = s.real, s.imag
                lam = rng.uniform(0.01, 2.0) * problem.lambda_max
                want = _outcome_hex(lambda *y: _frozen_evaluate(problem, *y)[:2],
                                    sigma, omega, lam)
                assert _outcome_hex(problem.mp, sigma, omega, lam) == want
                raised += isinstance(want, str)
                checked += 1
    assert 0 < raised < checked


# --- a frozen copy of the former one-pass evaluate of (M, P, G'/G) and of the
# corrector's Jacobian as they were before they branched on
# LocusProblem._gain, wrapped P inline, returned the Jacobian flat and split
# into mp and log_derivative: the reference they must keep the bits of


def _frozen_evaluate(problem, sigma, omega, lam):
    plant = problem.plant
    k, h = (lam, plant.delay) if problem.kind is LocusKind.GAIN else (1.0, lam)
    s = complex(sigma, omega)
    tol = 1e-9 * (1.0 + abs(s))
    near = tol * tol * (1.0 + 1e-12)
    log, atan2 = math.log, math.atan2
    m = math.log(abs(plant.gain)) + log(k) - h * sigma
    p = (0.0 if plant.gain > 0 else math.pi) - h * omega - math.pi
    u = 0.0 + 0.0j
    for z in plant.zeros:
        d = s - z
        x, y = d.real, d.imag
        q = x ** 2 + y ** 2
        if q < near and abs(d) < tol:
            raise PoleZeroProximityError(f"point {s} is within {tol:g} of zero {z}")
        m += 0.5 * log(q)
        p += atan2(y, x)
        u += 1.0 / d
    for z in plant.poles:
        d = s - z
        x, y = d.real, d.imag
        q = x ** 2 + y ** 2
        if q < near and abs(d) < tol:
            raise PoleZeroProximityError(f"point {s} is within {tol:g} of pole {z}")
        m -= 0.5 * log(q)
        p -= atan2(y, x)
        u -= 1.0 / d
    return m, wrap_angle(p), u


def _frozen_mp_jacobian(problem, y):
    sigma, omega, lam = y
    m, p, u = _frozen_evaluate(problem, sigma, omega, lam)
    b = u.imag
    if problem.kind is LocusKind.GAIN:
        a = u.real - problem.plant.delay
        return (m, p), [[a, -b, 1.0 / lam], [b, a, 0.0]]
    a = u.real - lam
    return (m, p), [[a, -b, -sigma], [b, a, -omega]]


def _wrap_edges(problem, sigma, lam, rng):
    """omega within a few ulps of the points on the line Re(s) = sigma where
    the frozen P wraps from near pi to near -pi, found by bisection to
    adjacent floats from sign changes of P on a seeded grid."""
    def phase(w):
        try:
            return _frozen_evaluate(problem, sigma, w, lam)[1]
        except PoleZeroProximityError:
            return 0.0
    grid = np.sort(rng.uniform(-12.0, 12.0, size=200)).tolist()
    out = []
    for lo, hi in zip(grid, grid[1:]):
        p_lo, p_hi = phase(lo), phase(hi)
        if abs(p_lo - p_hi) < 4.0:  # no wrap between them
            continue
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if (phase(mid) > 0.0) == (p_lo > 0.0):
                lo = mid
            else:
                hi = mid
        out += [lo + k * (hi - lo) for k in range(-3, 5)]
    return out


def _evaluate_points(problem, rng):
    """Seeded (sigma, omega) points: spread, on the wrap of P at +-pi, with
    signed-zero parts of s - v, and just inside and outside the proximity
    tolerance of every pole and zero."""
    plant = problem.plant
    pts = [(rng.uniform(-6.0, 6.0), rng.uniform(-12.0, 12.0)) for _ in range(40)]
    for sigma in rng.uniform(-3.0, 3.0, size=3):
        pts += [(sigma, w) for w in _wrap_edges(problem, sigma, 0.5 * problem.lambda_max, rng)]
    for v in plant.zeros + plant.poles:
        t = rng.uniform(1e-3, 1.0)
        pts += [(v.real, v.imag + t), (v.real, v.imag - t), (v.real + t, v.imag),
                (v.real - t, v.imag), (v.real, v.imag)]
        if v.imag == 0.0:  # omega = -0.0 makes y = -0.0: atan2 gives -pi, not pi
            pts += [(v.real - t, -0.0), (v.real + t, -0.0), (v.real, -0.0)]
        if v.real == 0.0:  # sigma = -0.0 makes x = -0.0
            pts += [(-0.0, v.imag + t), (-0.0, v.imag - t)]
        e = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        tol = 1e-9 * (1.0 + abs(v))
        for _ in range(3):  # the radius where |s - v| = 1e-9 (1 + |s|) along e
            tol = 1e-9 * (1.0 + abs(v + tol * e))
        for r in tol * (1.0 + np.arange(-3, 4) * 2.0**-52):
            s = v + r * e
            pts.append((s.real, s.imag))
    return pts


def test_evaluate_mp_and_the_jacobian_keep_the_frozen_evaluate_bits(monkeypatch):
    import importlib
    import os

    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))
    workloads = importlib.import_module("workloads")
    problems = ([p for base in _REFERENCE_PROBLEMS for p in _both_kinds(base)]
                + workloads.build("random_gain", 1) + workloads.build("random_delay", 1))
    rng = np.random.default_rng(2802)

    def outcome(fn, *args):
        try:
            out = fn(*args)
        except PoleZeroProximityError as exc:
            return str(exc)
        return [v.hex() for x in out for v in ((x.real, x.imag) if type(x) is complex else (x,))]

    seen = Counter()
    for problem in problems:
        for sigma, omega in _evaluate_points(problem, rng):
            lam = rng.uniform(0.01, 2.0) * problem.lambda_max
            want = outcome(_frozen_evaluate, problem, sigma, omega, lam)
            assert outcome(_evaluate, problem, sigma, omega, lam) == want
            assert outcome(problem.mp, sigma, omega, lam) == (
                want if isinstance(want, str) else want[:2])
            if isinstance(want, str):
                # mp's proximity error, not a ZeroDivisionError of the G'/G
                # sum at s = v: the Jacobian takes mp first
                assert outcome(_mp_jacobian, problem, (sigma, omega, lam)) == want
                seen["raised"] += 1
                continue
            (m, p), rows = _frozen_mp_jacobian(problem, (sigma, omega, lam))
            m_, p_, a, b, c0, c1 = _mp_jacobian(problem, (sigma, omega, lam))
            assert _hex([m_, p_, a, -b, c0, b, a, c1]) == _hex([m, p, *rows[0], *rows[1]])
            p = float.fromhex(want[1])
            seen["near +pi" if p > math.pi - 1e-9 else "near -pi" if p < 1e-9 - math.pi
                 else "other"] += 1
            seen["-0.0"] += any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in (sigma, omega))
    assert min(seen[k] for k in ("raised", "near +pi", "near -pi", "-0.0")) > 10, seen


def test_evaluate_log_magnitude_first_order():
    # G = 1/(s+1): at s = j with k = 1, h = 1 the log magnitude is -ln(sqrt(2))
    problem = LocusProblem(LocusKind.GAIN, -0.5, 1.0, first_order_plant())
    m, _ = problem.mp(0.0, 1.0, 1.0)
    assert m == pytest.approx(-0.5 * math.log(2.0))


def test_evaluate_phase_first_order():
    problem = LocusProblem(LocusKind.GAIN, -0.5, 1.0, first_order_plant())
    # at s = j: pi + angle(G e^{-s}) = pi - atan(1) - 1
    assert problem.mp(0.0, 1.0, 1.0)[1] == pytest.approx(math.pi - math.atan(1.0) - 1.0)
    # at s = -2: G(-2) = -1 and e^{2} > 0, so the root condition holds exactly
    assert problem.mp(-2.0, 0.0, 1.0)[1] == pytest.approx(0.0, abs=1e-12)


def test_eval_char_fn_analytic_root():
    # 1 + lam*G(s)e^{-hs} = 0 at s = -2, lam = e^{-2} for G = 1/(s+1), h = 1
    plant = first_order_plant()
    val = eval_char_fn(plant, LocusKind.GAIN, -2.0, math.exp(-2.0))
    assert abs(val) < 1e-14


def big_lambda(plant, sigma0, omega):
    """Lambda on Re s = sigma0, as the crossing search computes it."""
    return BoundaryLine(plant, sigma0).big_lambda(omega)


def test_big_lambda_first_order():
    plant = first_order_plant()
    # Lambda(w) = h*sigma0 - ln|G(sigma0+jw)| = -0.5 + 0.5*ln(0.25+w^2)
    assert big_lambda(plant, -0.5, 0.0) == pytest.approx(-0.5 + math.log(0.5))
    assert big_lambda(plant, -0.5, 0.0) == pytest.approx(-1.1931471805599453)
    assert big_lambda_prime(plant, -0.5, 1.0) == pytest.approx(1.0 / 1.25)


def phi(plant, sigma0, omega):
    """The boundary phase of G e^{-hs}, as the crossing search computes it."""
    return BoundaryLine(plant, sigma0).phase(omega, plant.delay)


def test_phi_first_order():
    plant = first_order_plant()
    # phi(w) = -atan(w/0.5) - w for sigma0 = -0.5, h = 1 (G(sigma0) > 0)
    assert phi(plant, -0.5, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert phi_prime(plant, -0.5, 0.0, plant.delay) == pytest.approx(-3.0)
    w = 2.3
    assert phi(plant, -0.5, w) == pytest.approx(-math.atan(w / 0.5) - w)


def test_phi_at_omega_0_is_the_angle_of_g_in_any_listing_order():
    # the conjugate terms cancel exactly only when summed back to back; the
    # phase at omega = 0 must not depend on that
    upper = [complex(-1.5, 3.0), complex(-1.5, 1.0), complex(-2.0, 1.5)]
    plant = Plant((), tuple(upper + [p.conjugate() for p in upper]), -18.7890625, 1.0)
    assert phi(plant, -1.0, 0.0) == math.pi
    assert phi(plant, -1.0, np.array([0.0, 1.0, 0.0]))[[0, 2]].tolist() == [math.pi] * 2


def test_phi_matches_wrapped_plant_phase():
    problem = example3_problem()
    plant, s0 = problem.plant, problem.sigma0
    for w in np.linspace(0.0, 12.0, 97):
        s = complex(s0, w)
        want = cmath.phase(plant.transfer(s) * cmath.exp(-plant.delay * s))
        assert abs(wrap_angle(phi(plant, s0, w) - want)) < 1e-9


def test_phi_is_continuous():
    problem = example3_problem()
    plant, s0 = problem.plant, problem.sigma0
    w = np.linspace(0.0, 40.0, 20001)
    vals = phi(plant, s0, w)
    assert np.max(np.abs(np.diff(vals))) < 0.1


# a 6-pole, 6-zero plant of the criterion-4 stream (index 47)
_STREAM_PLANT_47 = Plant(
    zeros=(
        complex(-0.09338704425596944, 5.69216345063724),
        complex(-0.09338704425596944, -5.69216345063724),
        -2.1319511658710093,
        complex(-2.024457094818403, 1.45531326121609),
        complex(-2.024457094818403, -1.45531326121609),
        -3.9729420516345644,
    ),
    poles=(
        complex(-4.84909939760559, 8.112641661059522),
        complex(-4.84909939760559, -8.112641661059522),
        complex(-1.7268887233214159, 5.923146356857678),
        complex(-1.7268887233214159, -5.923146356857678),
        complex(-2.599903590016394, 8.856593417100651),
        complex(-2.599903590016394, -8.856593417100651),
    ),
    gain=169.77036617906484,
    delay=0.9745835729071057,
)


def _ref_boundary(plant, s0, w):
    """Lambda, psi' and phi on an array w, one vectorized expression per
    term, in the order the engine sums them: Lambda and Lambda' over the
    poles, then the zeros; phi and phi' over the zeros, then the poles."""
    h = plant.delay
    lam = np.full(w.shape, h * s0 - math.log(abs(plant.gain)))
    lam_p, phase_p, phase = np.zeros(w.shape), np.full(w.shape, -0.0), -h * w
    for v, sign in [(p, 1.0) for p in plant.poles] + [(z, -1.0) for z in plant.zeros]:
        d2 = (s0 - v.real) ** 2 + (w - v.imag) ** 2
        lam += sign * 0.5 * np.log(d2)
        lam_p += sign * (w - v.imag) / d2
    for v, sign in [(z, 1.0) for z in plant.zeros] + [(p, -1.0) for p in plant.poles]:
        d2 = (s0 - v.real) ** 2 + (w - v.imag) ** 2
        phase_p += sign * (s0 - v.real) / d2
        phase += sign * np.arctan((w - v.imag) / (s0 - v.real))
    psi_p = phase_p - (-lam_p / s0) * w - (h * s0 - lam) / s0
    # angle(G(s0)) in {0, pi}
    phase += math.pi if plant.transfer(complex(s0, 0.0)).real < 0.0 else 0.0
    return {"big_lambda": lam, "psi_prime": psi_p, "phi": phase}


def test_boundary_functions_agree_bitwise_on_floats_and_arrays():
    # the crossing search calls the line's functions at a float inside
    # Brent's method and psi' on a grid for the delay scan: both must compute
    # the same bits
    cases = [
        (example1_problem().plant, -1.0),
        (example3_problem().plant, -3.5),
        (_STREAM_PLANT_47, -1.0),
        (Plant(zeros=(), poles=(), gain=-2.5, delay=0.7), -1.0),
    ]
    rng = np.random.default_rng(3)
    for plant, s0 in cases:
        # besides spread points, those where (w - v.imag) ** 2 by libm pow and
        # by multiplication round apart for some pole or zero v: there a float
        # path squaring with ** 2 would part from the grid
        near = [v.imag for v in plant.poles + plant.zeros]
        tries = (rng.choice(near, 20000) + rng.uniform(-3.0, 3.0, 20000)).tolist() if near else []
        apart = [w for w in tries if any((w - v) ** 2 != (w - v) * (w - v) for v in near)]
        ws = [0.0, 1.0, -2.5, 5.69216345063724] + apart[:96]
        ws = np.concatenate([ws, rng.uniform(-30.0, 30.0, 200 - len(ws))])
        ref = _ref_boundary(plant, s0, ws)
        line = BoundaryLine(plant, s0)
        h = plant.delay
        for name, fn in (
            ("big_lambda", line.big_lambda),
            ("psi_prime", line.psi_prime),
            ("phi", lambda w: line.phase(w, h)),
        ):
            grid = fn(ws.reshape(10, 20))
            assert isinstance(grid, np.ndarray) and grid.shape == (10, 20)
            assert grid.ravel().tobytes() == ref[name].tobytes(), name
            for w, from_grid in zip(ws.tolist(), grid.ravel().tolist()):
                at_float = fn(w)
                at_float64 = fn(np.float64(w))
                assert type(at_float) is float
                assert isinstance(at_float64, float)
                assert at_float.hex() == float(at_float64).hex() == from_grid.hex(), (
                    name, plant, w)


def test_boundary_derivatives_match_finite_differences():
    problem = example3_problem()
    plant, s0 = problem.plant, problem.sigma0
    step = 1e-6
    for w in [0.3, 1.7, 4.2, 9.9]:
        fd_l = (big_lambda(plant, s0, w + step) - big_lambda(plant, s0, w - step)) / (2 * step)
        assert big_lambda_prime(plant, s0, w) == pytest.approx(fd_l, abs=1e-5)
        fd_p = (phi(plant, s0, w + step) - phi(plant, s0, w - step)) / (2 * step)
        assert phi_prime(plant, s0, w, plant.delay) == pytest.approx(fd_p, abs=1e-5)


def test_evaluate_log_derivative_matches_finite_differences():
    problem = example3_problem()
    plant = problem.plant
    s = complex(-0.8, 1.3)
    step = 1e-6
    fd = (
        cmath.log(plant.transfer(s + step)) - cmath.log(plant.transfer(s - step))
    ) / (2 * step)
    assert abs(problem.log_derivative(s) - fd) < 1e-5


def test_cartesian_and_log_forms_agree():
    problem = example3_problem()
    rng = np.random.default_rng(7)
    for _ in range(50):
        sigma = rng.uniform(-3.0, 1.0)
        omega = rng.uniform(-5.0, 5.0)
        lam = rng.uniform(0.01, 5.0)
        direct = abs(eval_char_fn(problem.plant, problem.kind, complex(sigma, omega), lam))
        assert problem.cartesian_residual(sigma, omega, lam) == pytest.approx(
            direct, abs=1e-10, rel=1e-10
        )


def test_conjugate_symmetry_detection():
    assert first_order_plant().conjugate_symmetric
    sym = Plant(zeros=(1j, -1j), poles=(-1.0, -2.0), gain=2.0, delay=1.0)
    assert sym.conjugate_symmetric
    asym = Plant(zeros=(), poles=(complex(-1.0, 0.5),), gain=1.0, delay=1.0)
    assert not asym.conjugate_symmetric


def test_plant_validation():
    with pytest.raises(ValidationError):
        Plant(zeros=(0.0, 0.0), poles=(-1.0,), gain=1.0, delay=1.0)  # improper
    with pytest.raises(ValidationError):
        Plant(zeros=(), poles=(-1.0,), gain=0.0, delay=1.0)  # zero gain
    with pytest.raises(ValidationError):
        Plant(zeros=(), poles=(-1.0,), gain=1.0, delay=0.0)  # no dead time
    with pytest.raises(ValidationError):
        Plant(zeros=(-1.0,) * 31, poles=(-2.0,) * 31, gain=1.0, delay=1.0)  # size cap


@pytest.mark.parametrize(
    "zeros, poles, gain, delay",
    [
        ((), (complex(math.nan, 0.0),), 1.0, 1.0),
        ((complex(-1.0, math.inf),), (-2.0,), 1.0, 1.0),
        ((), (-1.0,), math.inf, 1.0),
        ((), (-1.0,), math.nan, 1.0),
        ((), (-1.0,), 1.0, math.inf),
    ],
)
def test_plant_validation_rejects_non_finite_numbers(zeros, poles, gain, delay):
    with pytest.raises(ValidationError, match="finite"):
        Plant(zeros=zeros, poles=poles, gain=gain, delay=delay)


@pytest.mark.parametrize("sigma0, lambda_max", [(-math.inf, 1.0), (-0.5, math.inf)])
def test_problem_validation_rejects_non_finite_numbers(sigma0, lambda_max):
    with pytest.raises(ValidationError, match="finite"):
        LocusProblem(LocusKind.GAIN, sigma0, lambda_max, first_order_plant())


def test_problem_validation_region():
    plant = first_order_plant()
    with pytest.raises(ValidationError):
        LocusProblem(LocusKind.GAIN, 0.5, 1.0, plant)  # sigma0 must be negative
    with pytest.raises(ValidationError):
        LocusProblem(LocusKind.GAIN, -0.5, -1.0, plant)  # lambda_max must be positive
    with pytest.raises(ValidationError, match="boundary"):
        LocusProblem(LocusKind.GAIN, -1.0, 1.0, plant)  # pole on Re(s) = sigma0


def test_problem_validation_matches_the_proximity_tolerance():
    # Re(p) - sigma0 = 1.5e-9 is inside the 1e-9 (1 + |sigma0|) that
    # transfer(sigma0) rejects, so the problem cannot be solved
    plant = Plant(zeros=(), poles=(-1.0 + 1.5e-9, -3.0), gain=1.0, delay=1.0)
    with pytest.raises(PoleZeroProximityError):
        plant.transfer(-1.0)
    for kind in LocusKind:
        with pytest.raises(ValidationError, match="boundary"):
            LocusProblem(kind, -1.0, 1.0, plant)


def test_problem_validation_biproper_bounds():
    biproper = Plant(zeros=(-2.0,), poles=(-1.0,), gain=3.0, delay=1.0)
    # gain kind: lambda_max < e^{h*sigma0}/|G(inf)| = e^{-0.5}/3
    bound = math.exp(-0.5) / 3.0
    LocusProblem(LocusKind.GAIN, -0.5, 0.9 * bound, biproper)
    with pytest.raises(ValidationError, match="neutral"):
        LocusProblem(LocusKind.GAIN, -0.5, 1.1 * bound, biproper)
    # delay kind: lambda_max < ln|G(inf)|/|sigma0| = ln(3)/0.5
    bound_d = math.log(3.0) / 0.5
    LocusProblem(LocusKind.DELAY, -0.5, 0.9 * bound_d, biproper)
    with pytest.raises(ValidationError):
        LocusProblem(LocusKind.DELAY, -0.5, 1.1 * bound_d, biproper)


@pytest.mark.xfail(
    strict=True,
    reason="the delay bound reads max(0, ln|G(inf)|/|sigma0|); the root chain at "
    "Re s ~ ln|G(inf)|/lam stays outside the region only for lambda_max < "
    "ln(1/|G(inf)|)/|sigma0|",
)
def test_problem_validation_biproper_delay_bound_keeps_the_root_chain_outside():
    # f = 1 + G(s) e^{-lam s} has a chain of roots at Re s ~ ln|G(inf)|/lam;
    # with |G(inf)| = 3 it lies inside Re s >= -1 for every lam > 0, e.g.
    # 2.4227 + 5.9170j is a root at lam = 0.5
    grows = Plant(zeros=(-2.0,), poles=(-0.5,), gain=3.0, delay=1.0)
    with pytest.raises(ValidationError):
        LocusProblem(LocusKind.DELAY, -1.0, 1.0, grows)
    # with |G(inf)| = 0.3 it lies left of -1 for lam < ln(1/0.3) = 1.204
    shrinks = Plant(zeros=(-2.0,), poles=(-0.5,), gain=0.3, delay=1.0)
    LocusProblem(LocusKind.DELAY, -1.0, 1.0, shrinks)


def test_effective_h():
    plant = first_order_plant(delay=2.0)
    gain_problem = LocusProblem(LocusKind.GAIN, -0.5, 1.0, plant)
    delay_problem = LocusProblem(LocusKind.DELAY, -0.5, 1.0, plant)
    assert gain_problem.effective_h(0.3) == 2.0
    assert delay_problem.effective_h(0.3) == 0.3
