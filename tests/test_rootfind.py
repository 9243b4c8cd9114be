"""Scalar and polynomial root-finding utilities."""

import math

import numpy as np
import pytest

from rootlocus.errors import BracketError, DegenerateError
from rootlocus.plant import Plant, big_lambda_prime, phi_prime
from rootlocus.rootfind import (
    Bracket,
    RealPolynomial,
    bracketed_root,
    magnitude_extremum_freqs,
    phase_extremum_freqs,
    rational_zeros,
    real_nonneg_roots,
)

from conftest import example3_problem, first_order_plant


def test_polynomial_trim_and_degree():
    p = RealPolynomial((1.0, 2.0, 0.0, 1e-20))
    assert p.degree == 1
    assert p.coefficients == (1.0, 2.0)
    assert RealPolynomial((0.0, 0.0)).is_zero
    with pytest.raises(DegenerateError):
        RealPolynomial(())


def test_bracket_validation():
    Bracket(0.0, 1.0, -1.0, 2.0)
    with pytest.raises(BracketError):
        Bracket(1.0, 0.0, -1.0, 2.0)  # reversed endpoints
    with pytest.raises(BracketError):
        Bracket(0.0, 1.0, 1.0, 2.0)  # no sign change


def test_bracketed_root_cube_root():
    f = lambda x: x**3 - 2.0
    root = bracketed_root(f, Bracket(1.0, 2.0, f(1.0), f(2.0)), 1e-12)
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-10)
    assert root == pytest.approx(1.259921, abs=1e-6)


def test_bracketed_root_endpoint():
    f = lambda x: x
    assert bracketed_root(f, Bracket(0.0, 1.0, 0.0, 1.0), 1e-12) == 0.0


def test_bracketed_root_boundary_phase():
    # phi(w) = -atan(2w) - w for G = 1/(s+1), sigma0 = -0.5, h = 1; the
    # phi = -pi crossing solves atan(2w) + w = pi, near w = 1.8366
    f = lambda w: -math.atan(2.0 * w) - w + math.pi
    root = bracketed_root(f, Bracket(1.0, 3.0, f(1.0), f(3.0)), 1e-12)
    assert abs(math.atan(2.0 * root) + root - math.pi) < 1e-10
    assert root == pytest.approx(1.8366, abs=5e-4)


def test_real_nonneg_roots():
    assert real_nonneg_roots(RealPolynomial((0.0, -2.0, 1.0))) == pytest.approx([0.0, 2.0])
    assert real_nonneg_roots(RealPolynomial((0.75, 0.0, 1.0))) == []
    assert real_nonneg_roots(RealPolynomial((2.0, 1.0))) == []  # root at -2
    # no negative zero sneaks through the clamp
    roots = real_nonneg_roots(RealPolynomial((0.0, 1.0)))
    assert roots == [0.0] and math.copysign(1.0, roots[0]) == 1.0
    with pytest.raises(DegenerateError):
        real_nonneg_roots(RealPolynomial((0.0,)))


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
