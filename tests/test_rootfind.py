"""Scalar and polynomial root-finding utilities."""

import math
import random
import re

import numpy as np
import pytest

from rootlocus import rootfind
from rootlocus.critical import CriticalKind
from rootlocus.engine import compute_root_locus
from rootlocus.errors import BracketError, NoConvergenceError
from rootlocus.plant import LocusKind, LocusProblem, Plant
from rootlocus.rootfind import (
    bracketed_root,
    magnitude_extremum_freqs,
    phase_extremum_freqs,
    rational_zeros,
)

from conftest import big_lambda_prime, example3_problem, first_order_plant, phi_prime


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
    want = _sign_scan_zeros(lambda w: phi_prime(plant, s0, w, plant.delay), 1e-6, 20.0)
    inner = [w for w in got if 1e-6 < w < 20.0]
    assert len(inner) == len(want)
    for g, w in zip(inner, want):
        assert g == pytest.approx(w, abs=1e-6)


def test_phase_extrema_first_order_empty():
    # phi' = -0.5/(0.25+w^2) - 1 never vanishes
    plant = first_order_plant()
    assert phase_extremum_freqs(plant, -0.5, 1.0) == []


def _symmetric_values(rng, count, re_lo, re_hi, im_hi):
    values = []
    while len(values) < count:
        re = rng.uniform(re_lo, re_hi)
        if count - len(values) >= 2 and rng.random() < 0.7:
            im = rng.uniform(0.3, im_hi)
            values += [complex(re, im), complex(re, -im)]
        else:
            values.append(complex(re, 0.0))
    return tuple(values)


def high_order_plant(rng, biproper=False):
    """A seeded conjugate-symmetric plant with 10-60 poles and zeros in total
    (n = m when ``biproper``), imaginary parts up to 20, |G(0)| = 1, and a
    sigma0 in (-1, -0.3) at least 0.05 from every real part."""
    order = int(rng.integers(10, 61))
    while True:
        n = order // 2 if biproper else int(rng.integers((order + 1) // 2, order + 1))
        m = n if biproper else order - n
        sigma0 = float(rng.uniform(-1.0, -0.3))
        poles = _symmetric_values(rng, n, -5.0, -0.1, 20.0)
        zeros = _symmetric_values(rng, m, -5.0, 1.0, 20.0)
        if all(abs(v.real - sigma0) >= 0.05 for v in poles + zeros):
            break
    gain = float(np.prod(np.abs(poles)) / np.prod(np.abs(zeros)))
    return Plant(zeros=zeros, poles=poles, gain=gain, delay=float(rng.uniform(0.2, 1.5))), sigma0


def _scan_cells(fn, hi, n):
    """The grid on (0, hi] and the cells [w[i], w[i+1]] where fn changes sign."""
    w = np.linspace(hi / n, hi, n)
    v = fn(w)
    return w, np.flatnonzero(v[:-1] * v[1:] < 0.0)


def test_high_order_extrema_match_a_dense_sign_scan():
    # seeded plants of order 10-60, a third of them biproper, against a sign
    # scan of Lambda' and phi' on 2e5 points of (0, 40], fine enough that no
    # cell of these plants holds two zeros: each sign-change cell holds
    # exactly one returned zero, and no returned zero lies outside them.  The
    # expanded-polynomial route got the Lambda' set wrong in 23 of the 24
    # plants and the phi' set in 20
    rng = np.random.default_rng(20261101)
    high = 40.0
    biproper = 0
    for k in range(24):
        plant, s0 = high_order_plant(rng, biproper=k % 3 == 0)
        biproper += plant.biproper
        for fn, got in (
            (lambda w: big_lambda_prime(plant, s0, w), magnitude_extremum_freqs(plant, s0)),
            (lambda w: phi_prime(plant, s0, w, plant.delay),
             phase_extremum_freqs(plant, s0, plant.delay)),
        ):
            w, cells = _scan_cells(fn, high, 200000)
            inside = [x for x in got if x <= high]
            assert len(inside) == len(cells), (k, len(inside), len(cells))
            for x, i in zip(inside, cells):
                assert w[i] - 1e-9 <= x <= w[i + 1] + 1e-9, (k, x)
    assert biproper >= 8


def test_biproper_plants_with_a_triple_zero_at_infinity():
    # when every pole and zero has |Im v| = |sigma0 - Re v|, each c_v^2 is
    # imaginary, so sum s_v c_v^2 = 0 and Lambda'/w = 0 at w = 0 as well:
    # a biproper plant then has a 3-fold zero of Lambda'/w at infinity and
    # a simple one at w^2 = 0.  For G = (s^2+6s+13)/(s^2+4s+5) at sigma0 -1
    # the sum is exactly 0.0 and dividing by it gave NaN and an aborted run;
    # its boundary magnitude has no extremum
    plant = Plant(zeros=(-3 + 2j, -3 - 2j), poles=(-2 + 1j, -2 - 1j), gain=1.0, delay=1.0)
    assert magnitude_extremum_freqs(plant, -1.0) == []
    assert _scan_cells(lambda w: big_lambda_prime(plant, -1.0, w), 40.0, 200000)[1].size == 0
    result = compute_root_locus(LocusProblem(LocusKind.GAIN, -1.0, 0.3, plant))
    assert [cp.kind for cp in result.critical_points] == [CriticalKind.CROSSING_IN] * 2
    # seeded plants of that class, whose sums are zero only up to rounding,
    # against a sign scan: cutting the zeros at 0 and infinity by the exact
    # test alone returned extrema near 1e-8 or missed real ones in 45 of
    # these 100 plants
    rng = np.random.default_rng(20261103)
    found = 0
    for k in range(100):
        s0 = float(rng.uniform(-1.5, -0.2))
        count = int(rng.integers(1, 6))

        def pairs():
            d = rng.uniform(0.2, 6.0, count)
            re = s0 - np.where(rng.random(count) < 0.5, d, -d)
            return tuple(v for a, b in zip(re, d) for v in (complex(a, b), complex(a, -b)))

        plant = Plant(zeros=pairs(), poles=pairs(), gain=1.0, delay=1.0)
        got = magnitude_extremum_freqs(plant, s0)
        w, cells = _scan_cells(lambda x: big_lambda_prime(plant, s0, x), 60.0, 50000)
        assert len(got) == len(cells), (k, got, w[cells])
        for x, i in zip(got, cells):
            assert w[i] - 1e-9 <= x <= w[i + 1] + 1e-9, (k, x)
        found += len(got)
    assert found > 20


def _benchmark_plants(monkeypatch):
    """(plant, sigma0) of the random_gain and random_delay benchmark problems
    of seeds 1-3."""
    import importlib
    import os

    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))
    workloads = importlib.import_module("workloads")
    return [
        (p.plant, p.sigma0)
        for name in ("random_gain", "random_delay")
        for seed in (1, 2, 3)
        for p in workloads.build(name, seed)
    ]


def test_no_extremum_is_an_artifact_at_zero_or_infinity(monkeypatch):
    # every returned extremum is a sign change of the function it belongs
    # to, within 1e-7 relative: the zero of the odd Lambda' at w = 0 and its
    # J-fold zero at infinity are divided out, not cut off by magnitude, so
    # no value near 1e-8 or 1e16 is returned; this covers the 150 benchmark
    # plants of seeds 1-3 and seeded high-order ones
    rng = np.random.default_rng(20261102)
    plants = _benchmark_plants(monkeypatch) + [high_order_plant(rng, k % 2 == 0) for k in range(10)]
    counted = 0
    for plant, s0 in plants:
        for fn, got in (
            (lambda w: big_lambda_prime(plant, s0, w), magnitude_extremum_freqs(plant, s0)),
            (lambda w: phi_prime(plant, s0, w, plant.delay),
             phase_extremum_freqs(plant, s0, plant.delay)),
        ):
            for x in got:
                assert x > 1e-6
                lo, hi = fn(x * (1.0 - 1e-7)), fn(x * (1.0 + 1e-7))
                assert lo * hi < 0.0, (plant, s0, x)
                counted += 1
    assert counted > 300


def test_boundary_with_a_constant_magnitude_has_no_magnitude_extrema():
    # a pole and a zero mirrored in Re s = sigma0 give |G| = 1 on it: their
    # terms of Lambda' cancel, and so do their equal nodes
    plant = Plant(zeros=(-1.0, -1 + 2j, -1 - 2j), poles=(-2.0, -2 + 2j, -2 - 2j), gain=1.0, delay=1.0)
    assert magnitude_extremum_freqs(plant, -1.5) == []
    w = np.linspace(0.0, 10.0, 11)
    assert np.abs(big_lambda_prime(plant, -1.5, w)).max() < 1e-15
    # the cancelling pair leaves the rest: adding it to a plant keeps the
    # extrema, none for 1/(s + 3) and one for a biproper plant
    for zeros, poles in (((), (-3.0,)), ((-4.0 + 1j, -4.0 - 1j), (-3.0 + 5j, -3.0 - 5j))):
        bare = Plant(zeros=zeros, poles=poles, gain=1.0, delay=1.0)
        both = Plant(zeros=zeros + (-1.0,), poles=poles + (-2.0,), gain=1.0, delay=1.0)
        want = magnitude_extremum_freqs(bare, -1.5)
        assert len(want) == len(zeros) // 2
        assert magnitude_extremum_freqs(both, -1.5) == pytest.approx(want, rel=1e-12)


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


def _oracle_complex_polish(num):
    # the complex polish of the np.roots roots, one 0-d np.polyval per root
    dnum = np.polyder(num)
    return [
        complex(_oracle_newton_polish(lambda x: np.polyval(num, x), lambda x: np.polyval(dnum, x), complex(r)))
        for r in np.roots(num)
    ]


def _hex(values):
    out = []
    for v in np.asarray(values).ravel().tolist():
        v = complex(v)
        out.append((v.real.hex(), v.imag.hex()))
    return out


def _reference_polys(monkeypatch):
    """The descending complex polynomials the critical-point search of the
    reference problems and of stream plants 28 and 31 hands to
    ``_polished_roots``."""
    from conftest import example1_problem, example2_problem, turning_point_problem
    from test_acceptance import stream_problem

    from rootlocus import critical
    from rootlocus.plant import LocusKind

    polys = []
    polished = rootfind._polished_roots

    def keep(num):
        polys.append(num.copy())
        return polished(num)

    monkeypatch.setattr(rootfind, "_polished_roots", keep)
    problems = [example1_problem(), example2_problem(), example3_problem(),
                turning_point_problem(), stream_problem(28), stream_problem(31)]
    for problem in problems:
        critical.starting_points(problem)
        if problem.kind is LocusKind.GAIN:
            critical.branch_points_gain(problem)
    monkeypatch.undo()
    assert len(polys) >= 5
    return polys


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
    reference = _reference_polys(monkeypatch)
    for num in _seeded_complex_polys(rng, 600) + reference:
        with np.errstate(all="ignore"):
            got = rootfind._polished_roots(num)
            want = _oracle_complex_polish(num)
        assert _hex(got) == _hex(want)
        assert all(type(x) is complex for x in got)
