"""Local series model at critical points: derivatives, multiplicity, rays."""

import cmath
import math

import numpy as np
import pytest

from rootlocus.localmodel import (
    branch_rays,
    char_s_derivatives,
    ds_dlam,
    multiplicity,
    rays_up,
    start_rays,
)
from rootlocus.plant import LocusKind, LocusProblem, Plant, eval_char_fn

from conftest import example3_problem, first_order_plant, turning_point_problem


def _first_order_problem():
    return LocusProblem(LocusKind.GAIN, -5.0, 10.0, first_order_plant())


def test_char_s_derivatives_match_finite_differences():
    # on-locus real-axis point of G = 1/(s+1), h = 1: lam(sigma) = e^sigma/|G|
    problem = _first_order_problem()
    s, lam = complex(-3.0, 0.0), 2.0 * math.exp(-3.0)
    f = lambda z: eval_char_fn(problem.plant, problem.kind, z, lam)
    assert abs(f(s)) < 1e-14
    ders = char_s_derivatives(problem, s, lam, 2)
    assert ders[0] == 0.0
    step = 1e-6
    fd1 = (f(s + step) - f(s - step)) / (2 * step)
    assert abs(ders[1] - fd1) < 1e-8
    step = 1e-4
    fd2 = (f(s + step) - 2 * f(s) + f(s - step)) / step**2
    assert abs(ders[2] - fd2) < 1e-5


def test_f_lambda():
    problem = _first_order_problem()
    lam = 2.0 * math.exp(-3.0)
    # gain case: f = 1 + lam*G*e^{-hs} and lam*G*e^{-hs} = -1 on the locus
    assert problem.f_lambda(complex(-3.0, 0.0), lam) == pytest.approx(-1.0 / lam)
    delay_problem = LocusProblem(LocusKind.DELAY, -5.0, 1.0, first_order_plant(gain=2.0))
    # delay case: df/dlam = -s*G*e^{-lam s} = s on the locus
    assert delay_problem.f_lambda(complex(-3.0, 0.0), 0.0) == pytest.approx(-3.0)


@pytest.mark.parametrize("kind", [LocusKind.GAIN, LocusKind.DELAY])
def test_ds_dlam_matches_finite_differences(kind):
    # G = 2/(s+1), h = 1: a real root at s = -3 for lam = e^{-3} (gain) and
    # the complex one -0.931+3.185j that Newton reaches from -0.6+1.4j at
    # lam = 0.5 (delay), each followed by Newton to lam +- eps
    problem = LocusProblem(kind, -5.0, 1.0, first_order_plant(gain=2.0))
    if kind is LocusKind.GAIN:
        s, lam = complex(-3.0, 0.0), math.exp(-3.0)
    else:
        s, lam = complex(-0.6, 1.4), 0.5

    def root(lam, s):
        for _ in range(60):
            f = eval_char_fn(problem.plant, kind, s, lam)
            fs = (f - 1.0) * (-1.0 / (s + 1.0) - problem.effective_h(lam))
            s -= f / fs
        return s

    s = root(lam, s)
    eps = 1e-6
    fd = (root(lam + eps, s) - root(lam - eps, s)) / (2 * eps)
    assert ds_dlam(problem, s, lam) == pytest.approx(fd, rel=1e-7)


def test_multiplicity_simple_and_double():
    problem = _first_order_problem()
    assert multiplicity(problem, complex(-3.0, 0.0), 2.0 * math.exp(-3.0)) == 1
    # s = -2 at lam = e^{-2} is the double point where the two real roots meet
    assert multiplicity(problem, complex(-2.0, 0.0), math.exp(-2.0)) == 2
    plant = Plant(zeros=(), poles=(-1.0, -2.0), gain=1.0, delay=1.0)
    pr = LocusProblem(LocusKind.GAIN, -5.0, 10.0, plant)
    sb = (-5 + math.sqrt(5)) / 2
    lam_b = math.exp(sb) / abs(plant.transfer(sb))
    assert multiplicity(pr, complex(sb, 0.0), lam_b) == 2


def test_rays_up_structure():
    C = complex(0.3, -1.1)
    for n in (2, 3):
        rays = rays_up(C, n)
        assert len(rays) == n
        for r in rays:
            assert abs(r) == pytest.approx(1.0, rel=1e-12)
            # ds^n = C*dlam with dlam > 0: the n-th power must align with C
            assert cmath.phase(r**n / C) == pytest.approx(0.0, abs=1e-12)
        angles = sorted(cmath.phase(r) for r in rays)
        for a, b in zip(angles, angles[1:]):
            assert b - a == pytest.approx(2 * math.pi / n, abs=1e-12)


def test_branch_rays_vertical_at_real_maximum():
    # lam(sigma) peaks at the branch point, so the locus continues vertically
    problem = _first_order_problem()
    rays = branch_rays(problem, complex(-2.0, 0.0), math.exp(-2.0), 2)
    assert sorted(r.imag for r in rays) == pytest.approx([-1.0, 1.0], abs=1e-9)
    for r in rays:
        assert abs(r.real) < 1e-9


def test_start_rays_double_pole():
    problem = turning_point_problem()
    rays = start_rays(problem, 1j, 2)
    assert len(rays) == 2
    # the two departures from a double pole are pi apart
    assert abs(abs(cmath.phase(rays[0] / rays[1])) - math.pi) < 1e-9


def test_start_rays_simple_pole_matches_cleared_form():
    problem = example3_problem()
    rays = start_rays(problem, complex(-0.5, 0.0), 1)
    assert len(rays) == 1
    # ds/dlam = -N(p)e^{-hp}/D'(p) for the cleared form D + lam*N*e^{-hs}
    p = -0.5
    npol = np.poly([5 + 5j, 5 - 5j])
    dpol = np.poly([-0.5, -1.0, -2.5])
    want = -np.polyval(npol, p) * cmath.exp(-p) / np.polyval(np.polyder(dpol), p)
    assert cmath.phase(rays[0] / want) == pytest.approx(0.0, abs=1e-9)


def test_start_rays_double_delay_start():
    # delay locus of G = 1/(s(s+2)): 1 + G = (s+1)^2/(s(s+2)) has a double
    # root at -1, where s(s+2) + e^{-lam s} = 0 gives (s+1)^2 ~ -lam, so the
    # up rays are +-j
    plant = Plant(zeros=(), poles=(0.0, -2.0), gain=1.0, delay=1.0)
    problem = LocusProblem(LocusKind.DELAY, -1.5, 1.0, plant)
    rays = start_rays(problem, complex(-1.0, 0.0), 2)
    assert sorted(rays, key=lambda w: w.imag) == pytest.approx([-1j, 1j], abs=1e-12)
    # at a small lam the two roots leave -1 along the rays:
    # (s+1)/sqrt(lam) = 0.0005 +- 1.0000001j at lam = 1e-6
    lam = 1e-6
    for ray in rays:
        s = -1.0 + math.sqrt(lam) * ray
        for _ in range(50):
            s -= (s * (s + 2.0) + cmath.exp(-lam * s)) / (
                2.0 * s + 2.0 - lam * cmath.exp(-lam * s)
            )
        assert abs(eval_char_fn(plant, LocusKind.DELAY, s, lam)) < 1e-9
        assert min(abs((s + 1.0) / math.sqrt(lam) - r) for r in rays) < 1e-3
