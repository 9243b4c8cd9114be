"""Critical points: starts, branch points, boundary crossings, directions."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from rootlocus import critical, localmodel, rootfind

from rootlocus.critical import (
    BoundaryLine,
    CriticalKind,
    CriticalPoint,
    _delay_turns,
    _grid_points,
    _psi_bounds,
    _sign_flips,
    boundary_crossings,
    branch_points_gain,
    crossing_direction,
    dedup_points,
    delay_admissible_intervals,
    magnitude_intervals,
    starting_points,
)
from rootlocus.errors import IllPosedCrossingError, PoleZeroProximityError
from rootlocus.plant import LocusKind, LocusProblem, Plant, eval_char_fn, wrap_angle

from conftest import (
    example1_problem,
    example2_problem,
    example3_problem,
    first_order_plant,
)


def _gain_problem(plant, sigma0, lambda_max):
    return LocusProblem(LocusKind.GAIN, sigma0, lambda_max, plant)


def _line(problem):
    """The line of the problem's region boundary, as ``boundary_crossings`` builds it."""
    return BoundaryLine(problem.plant, problem.sigma0)


def test_starting_points_gain():
    plant = first_order_plant()
    inside = _gain_problem(plant, -2.0, 1.0)
    pts = starting_points(inside)
    assert len(pts) == 1
    assert pts[0].kind is CriticalKind.START
    assert pts[0].root == pytest.approx(-1.0)
    assert pts[0].lam == 0.0
    outside = _gain_problem(plant, -0.5, 1.0)
    assert starting_points(outside) == []


def test_starting_points_delay():
    plant = first_order_plant(gain=2.0)
    problem = LocusProblem(LocusKind.DELAY, -4.0, 1.0, plant)
    pts = starting_points(problem)
    assert len(pts) == 1
    assert pts[0].root == pytest.approx(-3.0)  # zero of 1 + 2/(s+1)


def test_starting_points_keep_close_distinct_delay_roots_apart():
    # 1 + G = (s + 1)(s + 1 + d)/(s(s + 2)): two simple roots d apart, close
    # enough to be grouped as one scattered double root
    d = 5e-6
    plant = Plant(zeros=(-(1.0 + d) / d,), poles=(0.0, -2.0), gain=d, delay=1.0)
    problem = LocusProblem(LocusKind.DELAY, -1.5, 1.0, plant)
    pts = starting_points(problem)
    assert [p.multiplicity for p in pts] == [1, 1]
    assert [p.root for p in pts] == [
        pytest.approx(-1.0 - d, abs=1e-9), pytest.approx(-1.0, abs=1e-9)
    ]
    # the derivatives at their midpoint read a double root: f' vanishes there
    assert localmodel.multiplicity(problem, complex(-1.0 - d / 2, 0.0), 0.0) == 2


def test_starting_points_example2_unstable_count():
    pts = starting_points(example2_problem())
    assert len(pts) == 6
    assert sum(1 for p in pts if p.root.real > 0) == 6


def test_branch_points_gain_two_pole_plant():
    # candidates are the roots of s^2+5s+5; only the one where G < 0 is real
    plant = Plant(zeros=(), poles=(-1.0, -2.0), gain=1.0, delay=1.0)
    problem = _gain_problem(plant, -5.0, 100.0)
    bps = branch_points_gain(problem)
    assert len(bps) == 1
    sb = (-5 + math.sqrt(5)) / 2
    assert bps[0].root == pytest.approx(complex(sb, 0.0), abs=1e-9)
    assert bps[0].lam == pytest.approx(math.exp(sb) / abs(plant.transfer(sb)), rel=1e-9)
    assert bps[0].multiplicity == 2


def test_branch_points_gain_first_order():
    problem = _gain_problem(first_order_plant(), -5.0, 1.0)
    bps = branch_points_gain(problem)
    assert len(bps) == 1
    assert bps[0].root == pytest.approx(complex(-2.0, 0.0), abs=1e-10)
    assert bps[0].lam == pytest.approx(math.exp(-2.0), rel=1e-10)


def test_branch_points_discarded_above_lambda_max():
    problem = _gain_problem(first_order_plant(), -5.0, 0.5 * math.exp(-2.0))
    assert branch_points_gain(problem) == []


def test_magnitude_intervals_first_order():
    problem = _gain_problem(first_order_plant(), -0.5, 2.0)
    intervals = magnitude_intervals(problem, _line(problem))
    assert len(intervals) == 1
    lo, hi = intervals[0]
    assert lo == pytest.approx(0.0, abs=1e-12)
    # Lambda(w*) = ln 2 with Lambda(w) = -0.5 + 0.5*ln(0.25+w^2)
    w_star = math.sqrt(math.exp(2 * (math.log(2.0) + 0.5)) - 0.25)
    assert hi == pytest.approx(w_star, rel=1e-9)
    assert hi == pytest.approx(3.2594, abs=1e-4)


def test_magnitude_intervals_empty_when_lambda_max_tiny():
    problem = _gain_problem(first_order_plant(), -0.5, 0.05)
    # min Lambda = Lambda(0) = -0.5 + ln 0.5, e^{that} = 0.3033 > 0.05
    assert magnitude_intervals(problem, _line(problem)) == []


def test_line_phase_equals_phi_at_the_interval_ends():
    problem = _gain_problem(first_order_plant(), -0.5, 2.0)
    line, h = _line(problem), problem.plant.delay
    (lo, hi), = magnitude_intervals(problem, line)
    # the phase offset angle(G(-0.5)) = 0 is formed once, with the line;
    # phi(w) = -atan(w/0.5) - w
    assert line.offset == 0.0
    for w in (lo, hi):
        assert line.phase(w, h) == pytest.approx(-math.atan(2.0 * w) - w)
    assert line.phase(hi, h) < line.phase(lo, h)  # phi' < 0 everywhere here


def test_boundary_crossings_gain_first_order():
    problem = _gain_problem(first_order_plant(), -0.5, 2.0)
    crossings = boundary_crossings(problem)
    assert len(crossings) == 2  # mirrored +/- omega pair
    top = [c for c in crossings if c.root.imag > 0][0]
    w = top.root.imag
    assert abs(math.atan(2.0 * w) + w - math.pi) < 1e-9  # phi(w) = -pi
    assert top.lam == pytest.approx(math.exp(-0.5) * math.sqrt(0.25 + w * w), rel=1e-9)
    assert top.lam == pytest.approx(1.1557, abs=2e-3)
    assert top.kind is CriticalKind.CROSSING_IN
    assert top.root.real == problem.sigma0
    bottom = [c for c in crossings if c.root.imag < 0][0]
    assert bottom.root.imag == pytest.approx(-w)


def test_boundary_crossings_gain_mirror_every_crossing():
    # the scan covers omega >= 0 only; a conjugate-symmetric plant gets the
    # mirror image of every crossing
    found = boundary_crossings(example3_problem())
    assert any(abs(cp.root.imag) > 1e-6 for cp in found)
    for cp in found:
        assert any(
            o.kind is cp.kind
            and o.lam == cp.lam
            and abs(o.root - cp.root.conjugate()) < 1e-12
            for o in found
        )


def test_dedup_points_keeps_kinds_apart():
    s = complex(-1.0, 2.0)
    points = [
        CriticalPoint(CriticalKind.CROSSING_OUT, s, 0.5),
        CriticalPoint(CriticalKind.CROSSING_IN, s, 0.5),
        CriticalPoint(CriticalKind.CROSSING_IN, s + 1e-10, 0.5 + 1e-12),
    ]
    out = dedup_points(points)
    assert sorted(cp.kind.value for cp in out) == ["crossing_in", "crossing_out"]
    assert all(cp.root == s for cp in out)


def test_dedup_points_drops_a_repeat_behind_another_kind():
    s = complex(-1.0, 2.0)
    points = [
        CriticalPoint(CriticalKind.CROSSING_IN, s, 0.5),
        CriticalPoint(CriticalKind.CROSSING_OUT, s, 0.5),
        CriticalPoint(CriticalKind.CROSSING_IN, s + 1e-10, 0.5),
    ]
    out = dedup_points(points)
    assert sorted(cp.kind.value for cp in out) == ["crossing_in", "crossing_out"]
    assert all(cp.root == s for cp in out)


def _dedup_all_pairs(points):
    """The reference: compare each point with every kept point."""
    out = []
    for cp in sorted(points, key=CriticalPoint.key):
        if any(
            kept.kind is cp.kind
            and abs(cp.lam - kept.lam) < 1e-10
            and abs(cp.root - kept.root) < 1e-8
            for kept in out
        ):
            continue
        out.append(cp)
    return out


def test_dedup_points_equals_the_all_pairs_comparison():
    rng = np.random.default_rng(20261018)
    kinds = list(CriticalKind)
    # lam values with gaps of exactly 1e-10 (0, 1e-10, 2e-10), just under and
    # just over it, and equal lams
    base = [0.0, 1e-10, 2e-10, 3e-10, 0.5, 0.5 + 1e-10, 0.5 + 2e-10, 1.0]
    lams = base + [np.nextafter(v, -np.inf) for v in base[1:]] + [np.nextafter(v, np.inf) for v in base]
    roots = [complex(-1.0, 2.0), complex(-1.0, -2.0), complex(0.3, 0.0)]
    assert 1e-10 - 0.0 == 1e-10 and 2e-10 - 1e-10 == 1e-10
    kept_some = dropped_some = 0
    for _ in range(400):
        n = int(rng.integers(1, 40))
        points = [
            CriticalPoint(
                kinds[int(rng.integers(0, 2 if rng.random() < 0.5 else 4))],
                roots[int(rng.integers(0, len(roots)))]
                + complex(*rng.choice([0.0, 3e-9, 1e-8, 2e-8], size=2)),
                float(lams[int(rng.integers(0, len(lams)))]),
            )
            for _ in range(n)
        ]
        want = _dedup_all_pairs(points)
        got = dedup_points(points)
        assert [id(cp) for cp in got] == [id(cp) for cp in want]
        kept_some += len(got)
        dropped_some += n - len(got)
    assert kept_some > 0 and dropped_some > 0


def test_branch_points_gain_skips_a_candidate_at_a_pole():
    plant = Plant(zeros=(), poles=(-0.5, -0.5, -3.0), gain=1.0, delay=1.0)
    problem = _gain_problem(plant, -1.0, 5.0)
    candidates = rootfind.rational_zeros(plant, "gprime_minus_hg", 1.0)
    at_pole = [s for s in candidates if abs(s + 0.5) < 1e-9]
    assert at_pole
    with pytest.raises(PoleZeroProximityError):
        problem.mp(at_pole[0].real, at_pole[0].imag, 1.0)
    assert all(abs(bp.root + 0.5) > 1e-6 for bp in branch_points_gain(problem))


def test_boundary_crossings_gain_excluded_by_lambda_max():
    problem = _gain_problem(first_order_plant(), -0.5, 1.0)
    assert boundary_crossings(problem) == []


def test_crossing_direction_first_order():
    problem = _gain_problem(first_order_plant(), -0.5, 2.0)
    # phi' < 0 for all omega, so every crossing enters the region
    lam = math.exp(_line(problem).big_lambda(1.8366))
    assert crossing_direction(problem, 1.8366, lam) == 1


@pytest.mark.parametrize("kind", [LocusKind.GAIN, LocusKind.DELAY])
def test_crossing_direction_raises_where_u_vanishes(kind):
    # G = 1/(s+1), h = 1 at s = -2: G'/G = 1, so u = G'/G - h_eff is 0 with
    # h_eff = h = 1 (gain) and with h_eff = lam = 1 (delay)
    problem = LocusProblem(kind, -2.0, 1.5, first_order_plant())
    with pytest.raises(IllPosedCrossingError, match="grazing"):
        crossing_direction(problem, 0.0, 1.0)


@pytest.mark.parametrize("gain", [1.0, 1e-12, 1e12])
def test_crossing_direction_raises_at_a_grazing_gain_crossing(gain):
    # at a phase extremum phi' = Re u = 0, so Re ds/dlam = -Re u / (lam |u|^2)
    # vanishes although u does not; the plant's gain scales lam and ds/dlam
    # but not the angle of the tangent, so every scale grazes
    base = example3_problem()
    problem = LocusProblem(
        base.kind, base.sigma0, base.lambda_max / gain, replace(base.plant, gain=gain)
    )
    plant, s0 = problem.plant, problem.sigma0
    w = rootfind.phase_extremum_freqs(plant, s0, plant.delay)[0]
    lam = math.exp(_line(problem).big_lambda(w))
    assert abs(localmodel._u_derivatives(problem, complex(s0, w), lam, 0)[0]) > 0.1
    with pytest.raises(IllPosedCrossingError, match="grazing"):
        crossing_direction(problem, w, lam)


@pytest.mark.parametrize("gain", [1e-10, 1e10])
def test_crossing_kinds_do_not_depend_on_the_gain_scale(gain):
    # G = gain/(s+1) with lambda_max 2/gain is the locus of 1/(s+1) with
    # lambda_max 2, its parameter divided by gain: the same crossings, with
    # the same kinds, at lam scaled by 1/gain
    base = boundary_crossings(_gain_problem(first_order_plant(), -0.5, 2.0))
    scaled = boundary_crossings(_gain_problem(first_order_plant(gain=gain), -0.5, 2.0 / gain))
    assert [c.kind for c in scaled] == [c.kind for c in base]
    assert {c.kind for c in base} == {CriticalKind.CROSSING_IN}
    for c, b in zip(scaled, base):
        assert c.root == pytest.approx(b.root, rel=1e-9)
        assert c.lam * gain == pytest.approx(b.lam, rel=1e-9)


def test_crossing_direction_raises_at_a_grazing_delay_crossing():
    # u = a - lam with a = G'/G: Re(s/u) = Re(s conj(u)) / |u|^2 vanishes at
    # lam = Re(s conj(a)) / sigma0
    problem = example1_problem()
    s = complex(problem.sigma0, 1.0)
    a = localmodel._u_derivatives(problem, s, 0.0, 0)[0]
    lam = (s * a.conjugate()).real / s.real
    assert abs(a - lam) > 0.1
    with pytest.raises(IllPosedCrossingError, match="grazing"):
        crossing_direction(problem, 1.0, lam)


def test_boundary_crossings_residuals_and_order(example1_result, example3_result):
    for problem in (example1_problem(), example3_problem()):
        crossings = boundary_crossings(problem)
        assert crossings, "reference problems have boundary crossings"
        lams = [c.lam for c in crossings]
        assert lams == sorted(lams)
        for c in crossings:
            val = eval_char_fn(problem.plant, problem.kind, c.root, c.lam)
            assert abs(val) < 1e-8
            assert c.root.real == problem.sigma0
        ups = sorted(c.root.imag for c in crossings if c.root.imag > 1e-12)
        downs = sorted(-c.root.imag for c in crossings if c.root.imag < -1e-12)
        assert ups == pytest.approx(downs)


def test_high_order_gain_plant_keeps_every_crossing():
    # a seeded order-40 plant (28 poles, 12 zeros, sigma0 -0.352), pinned
    # because an expanded-polynomial extremum search gets its magnitude
    # extrema, and so its admissible intervals, wrong and finds none of its
    # three upper-half crossings.  The oracle scans Im(G(s) e^{-hs}) on a fine
    # grid of s = sigma0 + jw, keeps the sign changes where Re < 0 and
    # lam = 1/|G e^{-hs}| <= lambda_max, and refines them
    from test_rootfind import high_order_plant

    plant, s0 = high_order_plant(np.random.default_rng(19))
    assert (len(plant.poles), len(plant.zeros), round(s0, 3)) == (28, 12, -0.352)
    problem = _gain_problem(plant, s0, 2.0)

    def loop(w):
        s = s0 + 1j * np.asarray(w)
        g = plant.gain * np.exp(-plant.delay * s)
        for z in plant.zeros:
            g = g * (s - z)
        for p in plant.poles:
            g = g / (s - p)
        return g

    w = np.linspace(1e-4, 60.0, 600000)
    g = loop(w)
    cells = np.flatnonzero((g.imag[:-1] * g.imag[1:] < 0) & (g.real[:-1] < 0))
    want = [brentq(lambda x: loop(x).imag, w[i], w[i + 1], xtol=1e-14) for i in cells]
    want = [x for x in want if 1.0 / abs(loop(x)) <= 2.0]
    assert len(want) == 3
    got = sorted((c for c in boundary_crossings(problem) if c.root.imag > 0), key=lambda c: c.root.imag)
    assert [c.root.imag for c in got] == pytest.approx(want, abs=1e-9)
    for c in got:
        assert c.lam == pytest.approx(1.0 / abs(loop(c.root.imag)), rel=1e-9)


def test_delay_lambda_at_zero():
    plant = first_order_plant(gain=2.0)
    problem = LocusProblem(LocusKind.DELAY, -4.0, 1.0, plant)
    line = _line(problem)

    # |G(-4)| = 2/3 < 1 so lam(0) = ln(2/3)/(-4) > 0
    assert line.delay_lam(0.0) == pytest.approx(math.log(2.0 / 3.0) / -4.0)
    assert line.delay_lam(0.0) == pytest.approx(0.10137, abs=1e-5)


def test_delay_admissible_intervals_clip_both_sides_closed_form():
    # G = 2/(s+1) on sigma0 = -0.5: lam(w) = ln((0.25 + w^2)/4) rises from
    # lam(0) < 0, so the interval starts where lam = 0 and ends where lam = 1
    problem = LocusProblem(LocusKind.DELAY, -0.5, 1.0, first_order_plant(gain=2.0))
    (lo, hi), = delay_admissible_intervals(problem, _line(problem))
    assert lo == pytest.approx(math.sqrt(3.75), abs=1e-9)
    assert hi == pytest.approx(math.sqrt(4.0 * math.e - 0.25), abs=1e-9)


def test_boundary_crossings_delay_example1_against_grid_oracle():
    problem = example1_problem()
    plant, s0, lmax = problem.plant, problem.sigma0, problem.lambda_max
    crossings = boundary_crossings(problem)
    assert crossings

    # independent oracle: scan the wrapped phase residual of the boundary
    # equation on a dense omega grid, refine sign changes with brentq
    def lam_of(w):
        return math.log(abs(plant.transfer(complex(s0, w)))) / s0

    def residual(w):
        lam = lam_of(w)
        s = complex(s0, w)
        return wrap_angle(cmath.phase(plant.transfer(s)) - lam * w - math.pi)

    grid = np.linspace(1e-9, 60.0, 100001)
    vals = np.array([residual(w) for w in grid])
    oracle = []
    for i in range(len(grid) - 1):
        a, b = vals[i], vals[i + 1]
        if a * b < 0 and abs(a - b) < math.pi:  # skip wrap jumps
            w = brentq(residual, grid[i], grid[i + 1], xtol=1e-13)
            lam = lam_of(w)
            if 0.0 <= lam <= lmax:
                oracle.append((w, lam))

    got = sorted((c.root.imag, c.lam) for c in crossings if c.root.imag > 1e-9)
    assert len(got) == len(oracle)
    for (gw, gl), (ow, ol) in zip(got, sorted(oracle)):
        assert gw == pytest.approx(ow, abs=1e-6)
        assert gl == pytest.approx(ol, abs=1e-6)


def _sign_flips_loop(values):
    """The per-index scan that ``_sign_flips`` replaced, kept as its reference."""
    sign = np.sign(values)
    return [
        i
        for i in range(len(values) - 1)
        if sign[i] != 0 and sign[i + 1] != 0 and sign[i] != sign[i + 1]
    ]


def _seeded_delay_problems(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        re = rng.uniform(-5.0, -0.2, size=2)
        if any(abs(r + 1.0) < 0.05 for r in re):
            continue
        im = rng.uniform(0.3, 9.5)
        poles = (complex(re[0], im), complex(re[0], -im), complex(re[1], 0.0))
        gain = abs(poles[0]) ** 2 * abs(poles[2]) * rng.choice((-1.0, 1.0))
        plant = Plant(zeros=(), poles=poles, gain=gain, delay=rng.uniform(0.2, 1.5))
        out.append(LocusProblem(LocusKind.DELAY, -1.0, rng.uniform(0.2, 2.0), plant))
    return out


def _uniform_scan(problem, lo, hi):
    """The full uniform psi' grid that the delay turn search partitions, and
    psi' on every point of it."""
    n = int(1e4 * (1.0 + problem.lambda_max * (hi - lo) / (2 * math.pi)))
    grid = np.linspace(lo, hi, min(max(n, 200), 400000))
    return grid, _line(problem).psi_prime(grid)


def _uniform_turns(problem, grid, dp):
    """The scan the certified partition replaced, kept as its reference:
    every sign change of psi' (``dp``) on the full grid, refined by Brent's
    method."""
    psi_prime = _line(problem).psi_prime
    return [
        rootfind.bracketed_root(psi_prime, grid[i], grid[i + 1], dp[i], dp[i + 1])
        for i in _sign_flips(dp)
    ]


def test_sign_flips_match_the_per_index_loop():
    # psi' on the grids that boundary_crossings scans for the delay locus
    flips = []
    for problem in [example1_problem()] + _seeded_delay_problems(11, 1):
        flips.append(0)
        for lo, hi in delay_admissible_intervals(problem, _line(problem)):
            grid, dp = _uniform_scan(problem, lo, hi)
            got = _sign_flips(dp)
            assert got.tolist() == _sign_flips_loop(dp)
            flips[-1] += len(got)
    assert flips[0] > 0 and sum(flips[1:]) > 0
    # exact zeros are skipped, flips at the first and the last index are kept
    dp = np.array([-1.0, 2.0, 0.0, -3.0, -0.0, 4.0, 5.0, 0.5, -0.5])
    assert _sign_flips(dp).tolist() == _sign_flips_loop(dp) == [0, 7]
    assert _sign_flips(np.array([0.0, 0.0])).tolist() == []


def test_boundary_crossings_delay_empty():
    # min lam(omega) = lam(0) = ln(0.5)/(-0.5) = 1.386 exceeds lambda_max
    plant = Plant(zeros=(), poles=(-1.0,), gain=0.25, delay=1.0)
    problem = LocusProblem(LocusKind.DELAY, -0.5, 0.5, plant)
    assert boundary_crossings(problem) == []


def test_crossing_search_passes_brent_the_end_values_it_holds(monkeypatch):
    # each caller of bracketed_root in the crossing search already holds f at
    # both ends and passes exactly those values, to the bit
    from test_acceptance import stream_problem

    brent = critical.bracketed_root
    callers = set()

    def checked(f, lo, hi, f_lo=None, f_hi=None):
        for x, fx in ((lo, f_lo), (hi, f_hi)):
            assert fx is not None and float(fx).hex() == float(f(x)).hex()
        callers.add(f.__qualname__.split(".")[0])
        return brent(f, lo, hi, f_lo, f_hi)

    monkeypatch.setattr(critical, "bracketed_root", checked)
    for problem in (example1_problem(), example3_problem(), stream_problem(31)):
        boundary_crossings(problem)
    # the phase levels, the admissible-interval clips and the delay psi' turns,
    # whose f is the line's psi'
    assert callers == {"_solve_levels", "_admissible_intervals", "BoundaryLine"}


def _delay_probe_problems(monkeypatch):
    """Example 1, eleven seeded delay plants, the jittered random_delay plants
    of benchmark seeds 1-5 and the first ten high-order delay plants of seeds
    1000-1029 (lambda_max 1) that the validator accepts."""
    import importlib
    import os

    from test_rootfind import high_order_plant

    from rootlocus.errors import ValidationError

    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))
    workloads = importlib.import_module("workloads")
    problems = [example1_problem()] + _seeded_delay_problems(11, 1)
    for seed in range(1, 6):
        problems += workloads.build("random_delay", seed)
    high = []
    for seed in range(1000, 1030):
        plant, s0 = high_order_plant(np.random.default_rng(seed))
        try:
            high.append(LocusProblem(LocusKind.DELAY, s0, 1.0, plant))
        except ValidationError:
            continue
    return problems + high[:10]


def test_delay_turns_equal_the_full_uniform_scan_to_the_bit(monkeypatch):
    # the certified partition finds every sign-change cell of the full grid,
    # with the same end values, so Brent's method returns the same floats;
    # it evaluates psi' at a small share of the grid points
    problems = _delay_probe_problems(monkeypatch)
    evaluated = [0]

    psi_prime = BoundaryLine.psi_prime

    def counted(line, w):
        evaluated[0] += np.size(w)
        return psi_prime(line, w)

    turns = points = 0
    for problem in problems:
        line = _line(problem)
        for lo, hi in delay_admissible_intervals(problem, line):
            grid, dp = _uniform_scan(problem, lo, hi)
            want = _uniform_turns(problem, grid, dp)
            with monkeypatch.context() as m:
                m.setattr(BoundaryLine, "psi_prime", counted)
                got = _delay_turns(line, problem.lambda_max, lo, hi)
            assert [float(w).hex() for w in got] == [w.hex() for w in want]
            turns += len(want)
            points += grid.size
    assert len(problems) == 147 and turns > 20
    assert evaluated[0] < 0.02 * points


def _psi_derivatives(problem, w):
    """psi' and its first three derivatives from G'/G and its derivatives at
    sigma0 + jw.

    d/dw ln G = j u with u = G'/G, so (ln|G|)' = -Im u and arg(G)' = Re u;
    psi = arg G - w ln|G| / sigma0, and d/dw of u^(k) is j u^(k+1)."""
    plant, s0 = problem.plant, problem.sigma0
    s = s0 + 1j * np.asarray(w)
    u = [0j] * 4  # u and its first three derivatives in s
    log_g = math.log(abs(plant.gain))
    for v, sign in [(z, 1.0) for z in plant.zeros] + [(p, -1.0) for p in plant.poles]:
        d = 1.0 / (s - v)
        for k, factor in enumerate((1.0, -1.0, 2.0, -6.0)):
            u[k] = u[k] + sign * factor * d ** (k + 1)
        log_g = log_g + sign * np.log(abs(s - v))
    w = np.asarray(w)
    return (
        u[0].real - (log_g - w * u[0].imag) / s0,
        -u[1].imag + (2.0 * u[0].imag + w * u[1].real) / s0,
        -u[2].real + (3.0 * u[1].real - w * u[2].imag) / s0,
        u[3].imag - (4.0 * u[2].imag + w * u[3].real) / s0,
    )


def _exact_psi_prime(plant, s0, w):
    """psi'(w) = Re u - (ln|G| - w Im u)/sigma0 at sigma0 + jw in mpmath, at
    its working precision."""
    import mpmath

    s = mpmath.mpc(s0, w)
    g, u = mpmath.mpf(plant.gain), mpmath.mpc(0)
    for z in plant.zeros:
        g, u = g * (s - z), u + 1 / (s - z)
    for p in plant.poles:
        g, u = g / (s - p), u - 1 / (s - p)
    return u.real - (mpmath.log(abs(g)) - w * u.imag) / s0


def test_psi_bounds_bound_psi_derivatives_and_rounding(monkeypatch):
    # on random cells of every admissible interval, 200 points each: the
    # bounds of _psi_bounds on |psi''| (order 2) and on the third derivative
    # of psi' (order 4) hold against closed forms from G'/G (which central
    # differences of the next lower closed form confirm), and psi' as
    # computed lies within the rounding bound of psi' at 40 digits
    import mpmath

    rng = np.random.default_rng(20261019)
    cells = 0
    for problem in _delay_probe_problems(monkeypatch):
        plant, s0 = problem.plant, problem.sigma0
        line = _line(problem)
        for lo, hi in delay_admissible_intervals(problem, line):
            for _ in range(3):
                width = (hi - lo) * 10.0 ** rng.uniform(-6.0, 0.0)
                a = rng.uniform(lo, hi - width)
                w = np.linspace(a, a + width, 200)
                second, err = (x[0] for x in _psi_bounds(line, w[:1], w[-1:], 2))
                fourth, err4 = (x[0] for x in _psi_bounds(line, w[:1], w[-1:], 4))
                assert err4 == err  # either order forms the one rounding bound
                d1, d2, _, d4 = _psi_derivatives(problem, w)
                assert d1 == pytest.approx(line.psi_prime(w), rel=1e-9, abs=1e-9)
                assert np.max(abs(d2)) <= second
                assert np.max(abs(d4)) <= fourth
                cells += 1
            x = float(w[rng.integers(0, 200)])
            step = 1e-5 * (1.0 + x)
            lower = _psi_derivatives(problem, [x - step, x + step])[:3]
            upper = _psi_derivatives(problem, x)[1:]
            for k in range(3):
                slope = (lower[k][1] - lower[k][0]) / (2.0 * step)
                assert slope == pytest.approx(upper[k], rel=1e-4, abs=1e-6 * (1.0 + abs(lower[k][0])))
            with mpmath.workdps(40):
                exact = _exact_psi_prime(plant, s0, x)
            assert abs(line.psi_prime(x) - exact) <= err
    assert cells > 400


def test_delay_turns_find_two_zeros_inside_one_grid_cell():
    # a zero at sigma0 - eps + jc and a pole at sigma0 + eps + jc (with their
    # conjugates) leave |G| on Re s = sigma0 as it was and add a phase spike
    # 2 eps/(eps^2 + (w - c)^2) to psi', narrower than the grid step; centred
    # in a cell it turns psi' positive and back inside that cell
    s0, lmax, eps = -1.0, 0.5, 1e-4
    base = Plant(zeros=(), poles=(-1e5,), gain=0.99e5, delay=1.0)
    base_problem = LocusProblem(LocusKind.DELAY, s0, lmax, base)
    (lo, hi), = delay_admissible_intervals(base_problem, _line(base_problem))
    grid, _ = _uniform_scan(base_problem, lo, hi)
    k = grid.size // 2
    c = 0.5 * (grid[k] + grid[k + 1])
    plant = Plant(
        zeros=(complex(s0 - eps, c), complex(s0 - eps, -c)),
        poles=(-1e5, complex(s0 + eps, c), complex(s0 + eps, -c)),
        gain=0.99e5,
        delay=1.0,
    )
    problem = LocusProblem(LocusKind.DELAY, s0, lmax, plant)
    line = _line(problem)
    (lo, hi), = delay_admissible_intervals(problem, line)
    grid, dp = _uniform_scan(problem, lo, hi)
    assert grid[k] < c < grid[k + 1] and dp[k] < 0.0 and dp[k + 1] < 0.0
    assert _uniform_turns(problem, grid, dp) == []
    got = _delay_turns(line, lmax, lo, hi)
    assert len(got) == 2 and all(grid[k] < w < grid[k + 1] for w in got)

    import mpmath

    with mpmath.workdps(40):
        for lo_w, hi_w in ((grid[k], c), (c, grid[k + 1])):
            want = mpmath.findroot(
                lambda w: _exact_psi_prime(plant, s0, w), (lo_w, hi_w), solver="anderson")
            assert min(abs(w - float(want)) for w in got) < 1e-9


def test_psi_bisection_gives_up_loudly(monkeypatch):
    # cells that never clear double at each level; past _MAX_BISECTED the
    # search raises instead of growing without bound
    from rootlocus.errors import NoConvergenceError

    line = BoundaryLine(first_order_plant(gain=2.0), -0.5)
    monkeypatch.setattr(critical, "_cleared3", lambda width, *rest: np.zeros(width.shape, bool))
    a, b = np.array([2.0]), np.array([3.0])
    with pytest.raises(NoConvergenceError, match="cannot clear"):
        critical._hidden_turns(line, a, b, line.psi_prime(a), line.psi_prime(b))


def test_cell_certificates_never_clear_a_cell_holding_a_zero():
    # random cubics on [0, 1] with exact derivative bounds, half of them with
    # two close roots between two of the three sample points: a cell that
    # holds a zero is never cleared, by the end-value test with max|f''| or
    # by the three-value test with max|f'''|; many zero-free cells are
    rng = np.random.default_rng(20261020)
    x = np.linspace(0.0, 1.0, 4001)
    cleared = [0, 0]
    for k in range(3000):
        if k % 2:
            r = rng.uniform(0.0, 0.45)
            far = rng.uniform(1.0, 3.0) * rng.choice((-1.0, 1.0))
            c = np.poly([r, r + rng.uniform(0.0, 0.05), far])[::-1] * rng.choice((-1.0, 1.0))
        else:
            c = rng.normal(size=4) * 10.0 ** rng.uniform(-2.0, 2.0, size=4)
        f = np.polyval(c[::-1], x)
        zero = bool(np.any(np.sign(f[:-1]) != np.sign(f[1:]))) or np.min(abs(f)) < 1e-9
        second = max(abs(2.0 * c[2]), abs(2.0 * c[2] + 6.0 * c[3]))
        fourth = abs(6.0 * c[3])  # the third derivative of the cubic
        fa, fm, fb = (np.array([np.polyval(c[::-1], t)]) for t in (0.0, 0.5, 1.0))
        err = np.array([1e-15 * np.sum(abs(c))])
        by_ends = critical._cleared(np.array([0.0]), np.array([1.0]), fa, fb, second, err)[0]
        by_three = critical._cleared3(np.array([1.0]), fa, fm, fb, fourth, err)[0]
        assert not (zero and (by_ends or by_three)), c
        cleared[0] += bool(by_ends)
        cleared[1] += bool(by_three)
    assert min(cleared) > 300


@pytest.mark.parametrize("lo, hi, n", [(0.37, 12.9, 200), (1.5, 9411.25, 400000), (0.0, 5e-324, 200)])
def test_grid_points_equal_linspace_to_the_bit(lo, hi, n):
    # the delay scan forms only the grid points it reads; they are the floats
    # of np.linspace, at the last index too, and in its branch for a step
    # that rounds to 0.0
    full = np.linspace(lo, hi, n)
    rng = np.random.default_rng(n)
    idx = np.concatenate([[0, 1, n - 2, n - 1], rng.integers(0, n, 500)])
    assert _grid_points(lo, hi, n, idx).tobytes() == full[idx].tobytes()
    assert _grid_points(lo, hi, n, np.arange(n)).tobytes() == full.tobytes()
    if hi - lo < 1e-300:
        assert (hi - lo) / (n - 1) == 0.0 and full[-1] == hi


def test_line_psi_prime_matches_a_central_difference_of_psi():
    from test_rootfind import high_order_plant

    from rootlocus.errors import ValidationError

    problems = [example1_problem()]
    seed = 1000
    while len(problems) < 6:
        plant, s0 = high_order_plant(np.random.default_rng(seed))
        seed += 1
        try:
            problems.append(LocusProblem(LocusKind.DELAY, s0, 1.0, plant))
        except ValidationError:
            continue
    for problem in problems:
        line = _line(problem)
        for w in np.linspace(0.05, 30.0, 41).tolist():
            step = 1e-6 * (1.0 + w)
            fd = (line.psi(w + step) - line.psi(w - step)) / (2.0 * step)
            assert line.psi_prime(w) == pytest.approx(fd, rel=1e-5, abs=1e-5)
