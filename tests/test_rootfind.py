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
