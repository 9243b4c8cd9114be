"""Scalar and polynomial root-finding utilities."""

import math
import random
import re

import numpy as np
import pytest

from rootlocus import rootfind
from rootlocus.errors import BracketError, NoConvergenceError
from rootlocus.plant import Plant, big_lambda_prime, phi_prime
from rootlocus.rootfind import (
    bracketed_root,
    magnitude_extremum_freqs,
    phase_extremum_freqs,
    rational_zeros,
    real_nonneg_roots,
)

from conftest import example3_problem, first_order_plant


def test_bracketed_root_cube_root():
    f = lambda x: x**3 - 2.0
    root = bracketed_root(f, 1.0, 2.0)
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-10)
    assert root == pytest.approx(1.259921, abs=1e-6)


def test_bracketed_root_endpoint():
    f = lambda x: x
    assert bracketed_root(f, 0.0, 1.0) == 0.0
    assert bracketed_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_bracketed_root_boundary_phase():
    # phi(w) = -atan(2w) - w for G = 1/(s+1), sigma0 = -0.5, h = 1; the
    # phi = -pi crossing solves atan(2w) + w = pi, near w = 1.8366
    f = lambda w: -math.atan(2.0 * w) - w + math.pi
    root = bracketed_root(f, 1.0, 3.0)
    assert abs(math.atan(2.0 * root) + root - math.pi) < 1e-10
    assert root == pytest.approx(1.8366, abs=5e-4)


def test_bracketed_root_nan_value_is_no_convergence():
    f = lambda x: x - 0.3 if x < 0.5 else math.nan
    with pytest.raises(NoConvergenceError, match=r"NaN at x = 1\.0"):
        bracketed_root(f, 0.0, 1.0)


def test_bracketed_root_budget_is_no_convergence():
    # halving [-1e300, 1e300] down to a 1e-13 bracket takes over 1000 steps
    f = lambda x: 1.0 if x > 0.3 else -1.0
    with pytest.raises(NoConvergenceError, match="200 iterations; last x = "):
        bracketed_root(f, -1e300, 1e300)


def test_bracketed_root_same_sign_ends_is_bracket_error():
    with pytest.raises(BracketError, match="no sign change"):
        bracketed_root(lambda x: 1.0 + x, 0.0, 1.0)


def _brent_case(rng):
    """(f, lo, hi) of a seeded family: smooth, near-step, step or cubic, at
    scales from 1e-300 to 1e300, some with the root at 0.0, and some cubics
    starting exactly at their root, with f(lo) = +0.0 or -0.0."""
    r = 0.0 if rng.random() < 0.2 else rng.uniform(-3.0, 3.0)
    lo, hi = sorted(rng.uniform(-10.0, 10.0) for _ in range(2))
    scale = 10.0 ** rng.uniform(-300.0, 300.0) if rng.random() < 0.3 else 1.0
    kind = rng.randrange(5)
    if kind == 0:
        a, c = rng.uniform(0.1, 5.0), rng.uniform(-0.2, 0.2)
        return (lambda x: scale * (math.atan(a * (x - r)) + c * math.sin(x - r) * (x - r))), lo, hi
    if kind == 1:
        w = 10.0 ** rng.uniform(-12.0, -1.0)
        return (lambda x: scale * math.tanh((x - r) / w)), lo, hi
    if kind == 2:
        return (lambda x: scale if x > r else -scale), -1e300, 1e300
    if kind == 3:
        return (lambda x: scale * (x - r) ** 3), lo, hi
    b, c, sign = rng.uniform(-3.0, 3.0), rng.uniform(0.0, 3.0), rng.choice((scale, -scale))
    if rng.random() < 0.1:
        lo, hi = (r, max(hi, r + 1.0)) if rng.random() < 0.5 else (min(lo, r - 1.0), r)
    return (lambda x: sign * (x - r) * ((x - b) * (x - b) + c)), lo, hi


def test_bracketed_root_matches_scipy_brentq_bit_for_bit(monkeypatch):
    # scipy's brentq as an independent oracle: the same float, or a failure
    # where it fails (a run past the budget names the same last x); the
    # coarse tolerance 0.5 reaches the -delta of the step-acceptance test
    from scipy.optimize import brentq

    rng = random.Random(20260418)
    checked = failed = endpoint_zeros = 0
    while checked < 3000:
        f, lo, hi = _brent_case(rng)
        f_lo, f_hi = f(lo), f(hi)
        if f_lo != 0.0 and f_hi != 0.0 and (f_lo < 0.0) == (f_hi < 0.0):
            continue
        tol = rng.choice((1e-13, 1e-8, 5e-324, 0.5))
        maxiter = rng.choice((5, 200))
        monkeypatch.setattr(rootfind, "_BRENT_XTOL", tol)
        monkeypatch.setattr(rootfind, "_BRENT_MAXITER", maxiter)
        want, info = brentq(f, lo, hi, xtol=tol, maxiter=maxiter, full_output=True, disp=False)
        if info.converged:
            got = bracketed_root(f, lo, hi)
            assert got.hex() == want.hex(), (lo, hi, tol, maxiter)
        else:
            with pytest.raises(NoConvergenceError, match=re.escape(f"last x = {want!r}") + "$"):
                bracketed_root(f, lo, hi)
            failed += 1
        endpoint_zeros += f_lo == 0.0 or f_hi == 0.0
        checked += 1
    assert failed > 100 and endpoint_zeros > 20


def test_bracketed_root_given_end_values_returns_the_same_float(monkeypatch):
    # a caller that holds f(lo) and f(hi) passes them; on the seeded cases of
    # the brentq oracle the result keeps every bit, or fails alike, and f is
    # called twice less; a same-sign bracket fails alike without a call of f
    rng = random.Random(20260418)
    checked = same_sign = 0
    while checked < 3000:
        f, lo, hi = _brent_case(rng)
        f_lo, f_hi = f(lo), f(hi)
        calls = [0]

        def counted(x):
            calls[0] += 1
            return f(x)

        if f_lo != 0.0 and f_hi != 0.0 and (f_lo < 0.0) == (f_hi < 0.0):
            with pytest.raises(BracketError, match="no sign change") as want:
                bracketed_root(f, lo, hi)
            with pytest.raises(BracketError) as got:
                bracketed_root(counted, lo, hi, f_lo, f_hi)
            assert str(got.value) == str(want.value) and calls[0] == 0
            same_sign += 1
            continue
        monkeypatch.setattr(rootfind, "_BRENT_XTOL", rng.choice((1e-13, 1e-8, 5e-324, 0.5)))
        monkeypatch.setattr(rootfind, "_BRENT_MAXITER", rng.choice((5, 200)))
        outcomes = []
        for args in ((), (f_lo, f_hi)):
            calls[0] = 0
            try:
                outcomes.append((bracketed_root(counted, lo, hi, *args).hex(), calls[0]))
            except NoConvergenceError as exc:
                outcomes.append((str(exc), calls[0]))
        (want, n_want), (got, n_got) = outcomes
        assert got == want, (lo, hi)
        assert n_got == n_want - 2
        checked += 1
    assert same_sign > 100
    # a zero end is returned as is, without a call of f
    assert bracketed_root(lambda x: 1 / 0, 0.0, 1.0, -0.0, 1.0) == 0.0
    assert bracketed_root(lambda x: 1 / 0, 0.0, 1.0, -1.0, 0.0) == 1.0


def test_real_nonneg_roots():
    assert real_nonneg_roots((0.0, -2.0, 1.0)) == pytest.approx([0.0, 2.0])
    assert real_nonneg_roots((0.75, 0.0, 1.0)) == []
    assert real_nonneg_roots((2.0, 1.0)) == []  # root at -2
    # no negative zero sneaks through the clamp
    roots = real_nonneg_roots((0.0, 1.0))
    assert roots == [0.0] and math.copysign(1.0, roots[0]) == 1.0
    # untrimmed, the -1e-20 cubic term would add a root near 1e20
    assert real_nonneg_roots((0.0, -2.0, 1.0, -1e-20)) == pytest.approx([0.0, 2.0])
    # what trims to a constant, and a zero or empty polynomial, has no roots
    assert real_nonneg_roots((3.0, 1e-15)) == []
    assert real_nonneg_roots((3.0,)) == []
    assert real_nonneg_roots((0.0, 0.0)) == []
    assert real_nonneg_roots(()) == []


def _sign_scan_zeros(fn, lo, hi, n=200001):
    from scipy.optimize import brentq

    w = np.linspace(lo, hi, n)
    v = fn(w)
    out = []
    for i in range(n - 1):
        if v[i] == 0.0:
            out.append(w[i])
        elif v[i] * v[i + 1] < 0.0:
            out.append(brentq(fn, w[i], w[i + 1], xtol=1e-13))
    return out


def test_magnitude_extrema_match_sign_scan():
    problem = example3_problem()
    plant, s0 = problem.plant, problem.sigma0
    got = [w for w in magnitude_extremum_freqs(plant, s0) if w <= 20.0]
    want = _sign_scan_zeros(lambda w: big_lambda_prime(plant, s0, w), 1e-6, 20.0)
    assert len(got) >= len(want)
    inner = [w for w in got if 1e-6 < w < 20.0]
    assert len(inner) == len(want)
    for g, w in zip(inner, want):
        assert g == pytest.approx(w, abs=1e-6)


def test_phase_extrema_match_sign_scan():
    problem = example3_problem()
    plant, s0 = problem.plant, problem.sigma0
    got = [w for w in phase_extremum_freqs(plant, s0, plant.delay) if w <= 20.0]
    want = _sign_scan_zeros(lambda w: phi_prime(plant, s0, w), 1e-6, 20.0)
    inner = [w for w in got if 1e-6 < w < 20.0]
    assert len(inner) == len(want)
    for g, w in zip(inner, want):
        assert g == pytest.approx(w, abs=1e-6)


def test_phase_extrema_first_order_empty():
    # phi' = -0.5/(0.25+w^2) - 1 never vanishes
    plant = first_order_plant()
    assert phase_extremum_freqs(plant, -0.5, 1.0) == []


def test_rational_zeros_branch_candidates():
    # G'(s)/G(s) - 1 = 0 for G = 1/((s+1)(s+2)): s^2 + 5s + 5 = 0
    plant = Plant(zeros=(), poles=(-1.0, -2.0), gain=1.0, delay=1.0)
    roots = rational_zeros(plant, "gprime_minus_hg", h=1.0)
    want = sorted([(-5 - math.sqrt(5)) / 2, (-5 + math.sqrt(5)) / 2])
    assert len(roots) == 2
    for r, w in zip(roots, want):
        assert r == pytest.approx(w, abs=1e-10)
    assert roots[0] == pytest.approx(-3.61803, abs=1e-5)
    assert roots[1] == pytest.approx(-1.38197, abs=1e-5)


def test_rational_zeros_one_plus_g():
    plant = first_order_plant(gain=2.0)
    roots = rational_zeros(plant, "one_plus_g")
    assert len(roots) == 1
    assert roots[0] == pytest.approx(-3.0, abs=1e-12)


def test_rational_zeros_constant_plant():
    plant = Plant(zeros=(), poles=(), gain=0.5, delay=1.0)
    # G'/G - h = -h has no zeros
    assert rational_zeros(plant, "gprime_minus_hg", h=1.0) == []


def test_rational_zeros_unknown_target():
    with pytest.raises(ValueError):
        rational_zeros(first_order_plant(), "nonsense")


# --- bit-exact oracles: the polish and the products in their direct numpy forms

def _oracle_newton_polish(f, df, x, steps=5):
    # Newton polish on numpy scalars or 0-d arrays, one root at a time
    for _ in range(steps):
        dfx = df(x)
        if dfx == 0:
            break
        step = f(x) / dfx
        if not np.isfinite(abs(step)):
            break
        x -= step
        if abs(step) < 1e-15 * (1.0 + abs(x)):
            break
    return x


def _oracle_real_polish(c, x):
    # the real polish through np.polynomial.polynomial.polyval of c and of polyder(c)
    dc = np.polynomial.polynomial.polyder(c)
    polyval = np.polynomial.polynomial.polyval
    return _oracle_newton_polish(lambda x: polyval(x, c), lambda x: polyval(x, dc), x)


def _oracle_complex_polish(num):
    # the complex polish of the np.roots roots, one 0-d np.polyval per root
    dnum = np.polyder(num)
    return [
        complex(_oracle_newton_polish(lambda x: np.polyval(num, x), lambda x: np.polyval(dnum, x), complex(r)))
        for r in np.roots(num)
    ]


def _oracle_product_and_leave_one_out(factors, one):
    # each leave-one-out product convolved from the unit on its own
    total = one
    for f in factors:
        total = np.convolve(total, f)
    loo = []
    for i in range(len(factors)):
        acc = one
        for j, f in enumerate(factors):
            if j != i:
                acc = np.convolve(acc, f)
        loo.append(acc)
    return total, loo


def _hex(values):
    out = []
    for v in np.asarray(values).ravel().tolist():
        v = complex(v)
        out.append((v.real.hex(), v.imag.hex()))
    return out


def _seeded_real_polys(rng, count):
    """Ascending real polynomials of degree 1-24: random coefficients over
    many scales, and products of real roots."""
    out = []
    for _ in range(count):
        deg = int(rng.integers(1, 25))
        if rng.random() < 0.5:
            c = rng.standard_normal(deg + 1) * 10.0 ** rng.uniform(-8.0, 8.0, deg + 1)
        else:
            roots = list(rng.uniform(-5.0, 5.0, deg))
            c = np.polynomial.polynomial.polyfromroots(roots) * rng.uniform(0.1, 10.0)
        out.append(c)
    return out


def _reference_polys(monkeypatch):
    """The polynomials the critical-point search of the reference problems
    and of stream plants 28 and 31 hands to ``real_nonneg_roots`` (ascending,
    real) and to ``_polished_roots`` (descending, complex)."""
    from conftest import example1_problem, example2_problem, turning_point_problem
    from test_acceptance import stream_problem

    from rootlocus import critical
    from rootlocus.plant import LocusKind

    real, complex_ = [], []
    real_roots, polished = rootfind.real_nonneg_roots, rootfind._polished_roots

    def keep_real(c):
        real.append(np.array(c, dtype=float))
        return real_roots(c)

    def keep_complex(num):
        complex_.append(num.copy())
        return polished(num)

    monkeypatch.setattr(rootfind, "real_nonneg_roots", keep_real)
    monkeypatch.setattr(rootfind, "_polished_roots", keep_complex)
    problems = [example1_problem(), example2_problem(), example3_problem(),
                turning_point_problem(), stream_problem(28), stream_problem(31)]
    for problem in problems:
        critical.starting_points(problem)
        critical.boundary_crossings(problem)
        if problem.kind is LocusKind.GAIN:
            critical.branch_points_gain(problem)
    monkeypatch.undo()
    assert len(real) >= 10 and len(complex_) >= 5
    return real, complex_


def test_horner_matches_polyval_bit_for_bit():
    rng = np.random.default_rng(20261019)
    checked = 0
    for c in _seeded_real_polys(rng, 400):
        cs = c.tolist()
        xs = list(rng.uniform(-6.0, 6.0, 20)) + [0.0, -0.0, 1e300, -1e-300]
        for x in xs:
            with np.errstate(all="ignore"):
                want = np.polynomial.polynomial.polyval(x, c)
                assert rootfind._horner(cs, x).hex() == float(want).hex(), (cs, x)
            checked += 1
    assert checked == 400 * 24


def test_real_nonneg_roots_keep_the_polyval_polish_bits(monkeypatch):
    rng = np.random.default_rng(20261020)
    real, _ = _reference_polys(monkeypatch)
    polished = 0
    for c in _seeded_real_polys(rng, 800) + real:
        got = real_nonneg_roots(c)
        # the oracle: the same trim and companion roots, the numpy polish
        top = np.max(np.abs(c), initial=0.0)
        keep = c.size
        while keep > 1 and abs(c[keep - 1]) < rootfind._TRIM_REL * top:
            keep -= 1
        cc = c[:keep]
        want = []
        if top != 0.0 and keep > 1:
            for r in np.polynomial.polynomial.polyroots(cc):
                if abs(r.imag) >= rootfind._REAL_IM_TOL * (1.0 + abs(r.real)):
                    continue
                with np.errstate(all="ignore"):
                    x = _oracle_real_polish(cc, float(r.real))
                polished += 1
                if x >= -rootfind._DEDUP_TOL:
                    want.append(float(x) if x > 0.0 else 0.0)
        want.sort()
        dedup = []
        for x in want:
            if not dedup or x - dedup[-1] > rootfind._DEDUP_TOL:
                dedup.append(x)
        assert [x.hex() for x in got] == [x.hex() for x in dedup]
        assert all(type(x) is float for x in got)
    assert polished > 3000


def _seeded_complex_polys(rng, count):
    """Descending complex polynomials of degree 1-20 as ``rational_zeros``
    hands them over: scaled to a largest coefficient of 1, roots clustered,
    repeated, on the axes and at zero."""
    out = []
    for _ in range(count):
        deg = int(rng.integers(1, 21))
        kind = rng.integers(4)
        if kind == 0:
            roots = rng.uniform(-5.0, 5.0, deg) + 1j * rng.uniform(-5.0, 5.0, deg)
        elif kind == 1:
            half = rng.uniform(-3.0, 1.0, deg) + 1j * rng.uniform(0.0, 6.0, deg)
            roots = np.concatenate([half, half.conj()])[:deg]
        elif kind == 2:
            roots = np.repeat(rng.uniform(-2.0, 2.0, (deg + 1) // 2), 2)[:deg] + 0j
        else:
            roots = np.concatenate([np.zeros(int(rng.integers(1, 3))), rng.uniform(-4.0, 0.0, deg)])
        num = np.poly(roots).astype(complex) * rng.uniform(0.2, 5.0)
        out.append(num / np.max(np.abs(num)))
    return out


def test_polished_roots_keep_the_0d_polyval_bits(monkeypatch):
    # numpy's complex multiply rounds differently from Python's complex one;
    # the array recurrence must round each element as the 0-d np.polyval did
    rng = np.random.default_rng(20261021)
    _, reference = _reference_polys(monkeypatch)
    for num in _seeded_complex_polys(rng, 600) + reference:
        with np.errstate(all="ignore"):
            got = rootfind._polished_roots(num)
            want = _oracle_complex_polish(num)
        assert _hex(got) == _hex(want)
        assert all(type(x) is complex for x in got)


def _plant_factors(rng):
    values = list(rng.uniform(-4.0, 0.5, int(rng.integers(0, 4))) + 0j)
    for _ in range(int(rng.integers(0, 4))):
        v = complex(rng.uniform(-4.0, 1.0), rng.uniform(0.1, 6.0))
        values += [v, v.conjugate()]
    rng.shuffle(values)
    return values


def test_leave_one_out_products_keep_the_chain_bits():
    from conftest import example1_problem, example2_problem, turning_point_problem
    from test_acceptance import stream_problem

    rng = np.random.default_rng(20261022)
    sets = [_plant_factors(rng) for _ in range(300)]
    for problem in (example1_problem(), example2_problem(), example3_problem(),
                    turning_point_problem(), stream_problem(28)):
        sets += [list(problem.plant.zeros), list(problem.plant.poles)]
    for values in sets:
        sigma0 = float(rng.uniform(-4.0, -0.1))
        gamma = rootfind._gamma_quadratics(values, sigma0, rootfind._common_scale(values, sigma0))
        linear = rootfind._linear_factors(values)
        for factors, dtype in ((gamma, float), (linear, complex)):
            total, loo = rootfind._product_and_leave_one_out(factors, dtype)
            want_total, want_loo = _oracle_product_and_leave_one_out(factors, np.ones(1, dtype))
            assert total.dtype == want_total.dtype
            assert _hex(total) == _hex(want_total)
            assert [_hex(p) for p in loo] == [_hex(p) for p in want_loo]
        # the total of the linear factors is the polynomial poly_from_roots forms
        assert _hex(rootfind._product_and_leave_one_out(linear, complex)[0]) == _hex(
            rootfind.poly_from_roots(values))


def test_one_gamma_product_build_per_solve(monkeypatch):
    # a gain solve hands one build of the gamma products to the magnitude
    # and the phase extrema; a delay solve needs only the magnitude ones
    from conftest import example1_problem

    from rootlocus import critical
    from rootlocus.engine import compute_root_locus

    builds = 0
    build = rootfind.boundary_products

    def counted(*args):
        nonlocal builds
        builds += 1
        return build(*args)

    monkeypatch.setattr(rootfind, "boundary_products", counted)
    monkeypatch.setattr(critical, "boundary_products", counted)
    for problem in (example3_problem(lambda_max=1.0), example1_problem()):
        builds = 0
        compute_root_locus(problem)
        assert builds == 1
