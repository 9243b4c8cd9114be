"""Acceptance suite: reproduction of the reference results, residual and
oracle properties on randomized plants, robustness at branch points, and
byte-level determinism of the command line outputs."""

import cmath
import json
import math
import os
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from rootlocus.cli import EXIT_OK, main as cli_main
from rootlocus.continuation import Termination, _clip_solve
from rootlocus.critical import CriticalKind, boundary_crossings, crossing_direction
from rootlocus.engine import compute_root_locus
from rootlocus.errors import JacobianSingularError, NoConvergenceError, ValidationError
from rootlocus.plant import LocusKind, LocusProblem, Plant, eval_char_fn
from rootlocus.rootfind import magnitude_extremum_freqs, phase_extremum_freqs

from conftest import (
    big_lambda_prime,
    example1_problem,
    example2_problem,
    example3_problem,
    first_order_plant,
    phi_prime,
    turning_point_problem,
)

# independently frozen onset/offset of the criterion-2 stable interval,
# computed by a dense boundary scan (4e6 samples) plus bracketed refinement
# of the phase residual to 1e-15 on the stated plant coefficients
EX2_STABLE_ON = 1.855189787238
EX2_STABLE_OFF = 4.469258335979


# --- criterion 1: delay-locus reference reproduction ------------------------


def test_criterion_1_example1_stability_intervals():
    t0 = time.monotonic()
    result = compute_root_locus(example1_problem())
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    want = [(0.83, 1.50), (4.11, 4.50)]
    assert len(result.stability_intervals) == len(want)
    for (lo, hi), (wlo, whi) in zip(result.stability_intervals, want):
        assert lo == pytest.approx(wlo, abs=0.01)
        assert hi == pytest.approx(whi, abs=0.01)


# --- criterion 2: gain-locus reference reproduction -------------------------


def test_criterion_2_example2_stable_interval():
    t0 = time.monotonic()
    result = compute_root_locus(example2_problem())
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    assert result.initial_unstable_count == 6
    starts = [
        cp for cp in result.critical_points if cp.kind is CriticalKind.START
    ]
    assert sum(1 for cp in starts if cp.root.real > 0) == 6
    assert len(result.stability_intervals) == 1
    lo, hi = result.stability_intervals[0]
    assert lo == pytest.approx(EX2_STABLE_ON, abs=0.002)
    assert hi == pytest.approx(EX2_STABLE_OFF, abs=0.002)
    # stay close to the published 3-decimal endpoints as well
    assert lo == pytest.approx(1.860, abs=0.005)
    assert hi == pytest.approx(4.469, abs=0.005)


# --- criterion 3: branch point, region exit, instability onset --------------


def test_criterion_3_example3_features():
    t0 = time.monotonic()
    result = compute_root_locus(example3_problem())
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0

    branches = [
        cp for cp in result.critical_points if cp.kind is CriticalKind.BRANCH
    ]
    match = [
        cp
        for cp in branches
        if abs(cp.root.real + 0.6976) < 5e-4 and abs(cp.root.imag) < 1e-9
    ]
    assert len(match) == 1
    assert match[0].lam == pytest.approx(0.0009, abs=2e-4)

    # the trajectory starting at s = -2.5 leaves the region at lam = 0.0023
    leavers = [
        t
        for t in result.trajectories
        if abs(t.origin.root - complex(-2.5, 0.0)) < 1e-6
        and t.termination is Termination.LEFT_REGION
    ]
    assert len(leavers) == 1
    assert leavers[0].points[-1].lam == pytest.approx(0.0023, abs=3e-4)

    lams = sorted(e.lam for e in result.imag_axis_events)
    assert lams and lams[0] == pytest.approx(0.07, abs=5e-3)


# --- randomized plant generation --------------------------------------------

SIGMA0 = -1.0


def _symmetric_set(rng, count, re_lo, re_hi):
    vals = []
    remaining = count
    while remaining > 0:
        if remaining >= 2 and rng.random() < 0.7:
            re = rng.uniform(re_lo, re_hi)
            im = rng.uniform(0.3, 9.5)
            vals += [complex(re, im), complex(re, -im)]
            remaining -= 2
        else:
            vals.append(complex(rng.uniform(re_lo, re_hi), 0.0))
            remaining -= 1
    return tuple(vals)


def _random_problem(rng, kind, strictly_proper=False):
    """Random stable conjugate-symmetric plant with structure clear of the
    region boundary; the gain is normalized so |G(0)| = 1."""
    while True:
        n = int(rng.integers(1, 7))
        hi_m = n - 1 if strictly_proper else n
        m = int(rng.integers(0, hi_m + 1)) if hi_m >= 0 else 0
        poles = _symmetric_set(rng, n, -5.0, -0.2)
        zeros = _symmetric_set(rng, m, -5.0, 1.0)
        if any(abs(v.real - SIGMA0) < 0.05 for v in poles + zeros):
            continue
        if any(abs(v) < 0.3 for v in zeros):
            continue
        mag = 1.0
        for p in poles:
            mag *= abs(p)
        for z in zeros:
            mag /= abs(z)
        gain = mag if rng.random() < 0.5 else -mag
        h = rng.uniform(0.2, 1.5)
        plant = Plant(zeros=zeros, poles=poles, gain=gain, delay=h)
        if kind is LocusKind.GAIN:
            lam_max = rng.uniform(0.5, 3.0)
        else:
            lam_max = rng.uniform(0.2, 2.0)
        try:
            return LocusProblem(kind, SIGMA0, lam_max, plant)
        except ValidationError:
            continue


# --- criterion 4: residual bounds on references plus 50 random plants -------

STREAM_SEED = 20260823


def stream_problem(index):
    """Plant ``index`` of the criterion-4 stream: gain plants at even indices,
    delay plants at odd ones."""
    rng = np.random.default_rng(STREAM_SEED)
    for i in range(index + 1):
        problem = _random_problem(rng, LocusKind.GAIN if i % 2 == 0 else LocusKind.DELAY)
    return problem


def _assert_result_residuals(result):
    problem = result.problem
    for traj in result.trajectories:
        for p in traj.points:
            assert p.residual < 1e-4
    for cp in result.critical_points:
        if cp.kind is CriticalKind.START and cp.lam == 0.0:
            continue  # the characteristic function is singular at gain starts
        val = eval_char_fn(problem.plant, problem.kind, cp.root, cp.lam)
        assert abs(val) < 1e-8


def test_criterion_4_reference_residuals(
    example1_result, example2_result, example3_result
):
    for result in (example1_result, example2_result, example3_result):
        _assert_result_residuals(result)


def test_criterion_4_random_plant_residuals():
    rng = np.random.default_rng(STREAM_SEED)
    for i in range(50):
        kind = LocusKind.GAIN if i % 2 == 0 else LocusKind.DELAY
        problem = _random_problem(rng, kind)
        result = compute_root_locus(problem)
        _assert_result_residuals(result)


def test_criterion_4_stream_is_the_benchmark_stream(monkeypatch):
    # the generator redraws a plant on ValidationError only, as the
    # benchmark's copy does; the 50 plants it draws are the benchmark's
    import importlib

    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))
    workloads = importlib.import_module("workloads")
    rng = np.random.default_rng(STREAM_SEED)
    stream = [_random_problem(rng, LocusKind.GAIN if i % 2 == 0 else LocusKind.DELAY)
              for i in range(50)]
    assert workloads.stream_digest(stream) == workloads.STREAM_DIGEST


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 9: stability intervals come from sign changes of sigma "
    "between traced points, and the trace of stream plant 31 steps across its "
    "right-half-plane excursion; it reports stability on all of [0, lambda_max]",
)
def test_stream_plant_31_is_unstable_at_lambda_0_13():
    problem = stream_problem(31)
    assert problem.kind is LocusKind.DELAY
    assert problem.lambda_max == pytest.approx(0.8436, abs=1e-4)
    # an independent Newton solve on the characteristic function: a root pair
    # sits right of the imaginary axis at lam = 0.13
    root = _newton_root(problem, 0.13, complex(0.05, 4.65))
    assert root == pytest.approx(complex(0.010758, 4.665386), abs=1e-6)
    assert abs(eval_char_fn(problem.plant, problem.kind, root, 0.13)) < 1e-14
    result = compute_root_locus(problem)
    assert not any(a <= 0.13 <= b for a, b in result.stability_intervals)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 7(e): critical._cap stops its doubling search where "
    "lam(omega) < -0.05 lambda_max, and on this delay locus lam(omega) rises into "
    "[0, lambda_max] again past omega = 10; no crossing is found and the whole "
    "locus reads stable",
)
def test_delay_intervals_above_the_cap_frequency_are_kept():
    plant = Plant(zeros=(), poles=(-1.0,), gain=300.0, delay=1.0)
    problem = LocusProblem(LocusKind.DELAY, -0.1, 20.0, plant)
    # an independent Newton solve on the characteristic function: a root pair
    # sits right of the imaginary axis at lam = 2.878
    root = _newton_root(problem, 2.878, complex(1.3834, 5.0650))
    assert root == pytest.approx(complex(1.3833989, 5.0649724), abs=1e-6)
    assert abs(eval_char_fn(plant, problem.kind, root, 2.878)) < 1e-13
    result = compute_root_locus(problem)
    assert not any(a <= 2.878 <= b for a, b in result.stability_intervals)


# --- criterion 5: brute-force oracle equivalence at fixed lambda ------------


def _vector_newton(problem, lam, seeds, iters=60):
    plant = problem.plant
    h = problem.effective_h(lam)
    k = lam if problem.kind is LocusKind.GAIN else 1.0
    z = np.asarray(seeds, dtype=complex)
    with np.errstate(all="ignore"):
        return _vector_newton_loop(plant, k, h, z, iters)


def _vector_newton_loop(plant, k, h, z, iters):
    z = z.copy()
    active = np.arange(z.size)
    for _ in range(iters):
        w = z[active]
        num = np.full(w.shape, plant.gain, dtype=complex)
        den = np.ones_like(w)
        u = np.full(w.shape, -h, dtype=complex)
        for zz in plant.zeros:
            num *= w - zz
            u += 1.0 / (w - zz)
        for pp in plant.poles:
            den *= w - pp
            u -= 1.0 / (w - pp)
        g = k * num / den * np.exp(-h * w)
        f = 1.0 + g
        step = f / (g * u)
        step[~np.isfinite(step)] = 0.0
        z[active] = w - step
        # a zero step leaves the iterate unchanged, so every later step is
        # zero too: stop iterating that seed
        active = active[step != 0.0]
    return z


def _cap_radius(problem, lam):
    """Radius beyond which |k G e^{-h s}| < 0.3 throughout the region, so no
    characteristic root at this lam escapes the search domain."""
    plant = problem.plant
    s0 = problem.sigma0
    h = problem.effective_h(lam)
    k = lam if problem.kind is LocusKind.GAIN else 1.0
    rad = max([abs(v) for v in plant.poles + plant.zeros] + [1.0])
    r_cap = 2.0 * rad + abs(s0) + 1.0
    for _ in range(60):
        theta = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 181)
        arc = r_cap * np.exp(1j * theta)
        arc = arc[arc.real >= s0]
        vals = np.array(
            [abs(k * plant.transfer(s)) * math.exp(-h * s0) for s in arc]
        )
        if vals.max() < 0.3:
            break
        r_cap *= 1.5
    return r_cap


def _safe_abs_f(problem, lam, z):
    """|f(z, lam)| over an array; 1.0 at non-finite points and within
    1e-9 (1 + |z|) of a pole, where the plant is not evaluated."""
    plant = problem.plant
    h = problem.effective_h(lam)
    k = lam if problem.kind is LocusKind.GAIN else 1.0
    with np.errstate(all="ignore"):
        num = np.full(z.shape, plant.gain, dtype=complex)
        den = np.ones_like(z)
        near_pole = np.zeros(z.shape, dtype=bool)
        for zz in plant.zeros:
            num *= z - zz
        for pp in plant.poles:
            den *= z - pp
            near_pole |= np.abs(z - pp) < 1e-9 * (1.0 + np.abs(z))
        res = np.abs(1.0 + k * (num / den) * np.exp(-h * z))
    return np.where(np.isfinite(z) & ~near_pole & np.isfinite(res), res, 1.0)


def _oracle_roots(problem, lam, r_cap, n_grid):
    """All characteristic roots in the region at fixed lam: dense grid seeding
    inside the capped domain plus vectorized Newton polish."""
    plant = problem.plant
    s0 = problem.sigma0
    sig = np.linspace(s0, r_cap, n_grid)
    om = np.linspace(0.0, r_cap, n_grid)
    seeds = (sig[None, :] + 1j * om[:, None]).ravel()
    # rings around each pole: roots trapped in pole-zero dipoles, or close to
    # a lightly damped pole at small lam, have basins far smaller than any
    # reasonable grid pitch
    rings = []
    angles = np.exp(2j * math.pi * np.arange(16) / 16)
    for p in plant.poles:
        scale = 1.0 + abs(p)
        for r in (1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.2, 0.6):
            rings.append(p + r * scale * angles)
    if rings:
        seeds = np.concatenate([seeds] + rings)
    z = _vector_newton(problem, lam, seeds)
    res = _safe_abs_f(problem, lam, z)
    keep = z[(res < 1e-9) & (z.real >= s0 - 1e-9) & (np.abs(z) <= r_cap)
             & (z.imag >= -1e-9)]
    roots = []
    for v in sorted(keep, key=lambda c: (c.real, c.imag)):
        if all(abs(v - r) > 1e-6 for r in roots):
            roots.append(complex(v))
    full = list(roots)
    for r in roots:
        if r.imag > 1e-9:
            full.append(r.conjugate())
    return sorted(full, key=lambda c: (c.real, c.imag))


def _traced_roots(problem, result, lam):
    roots = []
    for traj in result.trajectories:
        pts = traj.points
        for a, b in zip(pts[:-1], pts[1:]):
            lo, hi = min(a.lam, b.lam), max(a.lam, b.lam)
            if not (lo - 1e-12 <= lam <= hi + 1e-12):
                continue
            if hi - lo < 1e-15:
                guess = a.as_array()
            else:
                frac = (lam - a.lam) / (b.lam - a.lam)
                guess = a.as_array() + frac * (b.as_array() - a.as_array())
            try:
                y = _clip_solve(problem, guess, "lam", lam)
            except (NoConvergenceError, JacobianSingularError):
                continue
            if y[0] < problem.sigma0 - 1e-9:
                continue
            v = complex(y[0], y[1])
            if all(abs(v - r) > 1e-7 for r in roots):
                roots.append(v)
            break
    return roots


def _match_sets(a, b, tol):
    for x in a:
        assert min(abs(x - y) for y in b) < tol, (x, b)
    for y in b:
        assert min(abs(y - x) for x in a) < tol, (y, a)


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(515151)
    accepted = 0
    while accepted < 20:
        problem = _random_problem(rng, LocusKind.GAIN, strictly_proper=True)
        r_cap = _cap_radius(problem, problem.lambda_max)
        if r_cap > 25.0:
            continue  # keep the grid pitch well below the root spacing
        accepted += 1
        result = compute_root_locus(problem)
        if result.warnings:
            continue  # stalled runs are covered by criterion 4 reporting
        n_grid = int(max(60, 4 * r_cap))
        for _ in range(5):
            lam = rng.uniform(0.05, 0.95) * problem.lambda_max
            coarse = _oracle_roots(problem, lam, r_cap, n_grid)
            fine = _oracle_roots(problem, lam, r_cap, 2 * n_grid)
            # pitch-halving stability of the oracle itself
            assert len(coarse) == len(fine)
            _match_sets(coarse, fine, 1e-6)
            traced = _traced_roots(problem, result, lam)
            if not fine and not traced:
                continue
            assert fine and traced
            _match_sets(fine, traced, 1e-5)


# --- criterion 6: crossing-direction and extremum oracles -------------------


def test_real_double_pole_plants_match_the_oracle_or_warn():
    # criterion-5 plants times a double real pole in the region: the pole is
    # a real multiple start, whose complex up rays must be traced.  A run
    # either reports warnings or matches the oracle at three lam; one of the
    # ten stalls off its double pole (|C| = 4.4 on ds^2 = C dlam), whose first
    # step is placed without the 1/|C| scaling (ROADMAP item 12)
    rng = np.random.default_rng(3)
    accepted = warned = 0
    while accepted < 10:
        base = _random_problem(rng, LocusKind.GAIN, strictly_proper=True)
        p = complex(rng.uniform(-0.95, -0.2), 0.0)
        plant = base.plant
        plant = Plant(zeros=plant.zeros, poles=plant.poles + (p, p),
                      gain=plant.gain * abs(p) ** 2, delay=plant.delay)
        try:
            problem = LocusProblem(LocusKind.GAIN, SIGMA0, base.lambda_max, plant)
        except ValidationError:
            continue
        r_cap = _cap_radius(problem, problem.lambda_max)
        if r_cap > 25.0:
            continue
        accepted += 1
        result = compute_root_locus(problem)
        lams = [rng.uniform(0.05, 0.95) * problem.lambda_max for _ in range(3)]
        if result.warnings:
            warned += 1
            continue
        n_grid = int(max(60, 4 * r_cap))
        for lam in lams:
            oracle = _oracle_roots(problem, lam, r_cap, 2 * n_grid)
            _match_sets(oracle, _traced_roots(problem, result, lam), 1e-5)
    assert warned <= 1


def _newton_root(problem, lam, s):
    plant = problem.plant
    h = problem.effective_h(lam)
    for _ in range(80):
        val = eval_char_fn(plant, problem.kind, s, lam)
        g = val - 1.0
        u = -h
        for zz in plant.zeros:
            u += 1.0 / (s - zz)
        for pp in plant.poles:
            u -= 1.0 / (s - pp)
        step = val / (g * u)
        if not np.isfinite(abs(step)):
            return None
        s = s - step
        if abs(step) < 1e-13 * (1.0 + abs(s)):
            return s
    return None


def test_criterion_6_finite_difference_crossing_directions(
    example1_result, example2_result, example3_result
):
    checked = 0
    for result in (example1_result, example2_result, example3_result):
        problem = result.problem
        for cp in result.critical_points:
            if cp.kind not in (CriticalKind.CROSSING_IN, CriticalKind.CROSSING_OUT):
                continue
            eps = 1e-4 * max(cp.lam, 1e-2)
            lo = _newton_root(problem, cp.lam - eps, cp.root)
            hi = _newton_root(problem, cp.lam + eps, cp.root)
            assert lo is not None and hi is not None
            assert abs(lo - cp.root) < 0.1 and abs(hi - cp.root) < 0.1
            delta = hi.real - lo.real
            want = 1.0 if cp.kind is CriticalKind.CROSSING_IN else -1.0
            assert math.copysign(1.0, delta) == want
            checked += 1
    assert checked >= 4


def _replaced_crossing_direction(problem, omega, lam):
    """The two direction rules that ``crossing_direction`` replaced, written
    out: -sgn phi' on a gain locus and sgn Re(s/u), u = G'/G - lam, on a delay
    locus.  Each raised below 1e-10 in magnitude."""
    s0 = problem.sigma0
    if problem.kind is LocusKind.GAIN:
        d = -phi_prime(problem.plant, s0, omega, problem.plant.delay)
    else:
        u = problem.log_derivative(complex(s0, omega)) - lam
        d = (complex(s0, omega) / u).real
    assert abs(d) >= 1e-10
    return 1 if d > 0 else -1


def test_crossing_direction_matches_the_rules_it_replaced():
    # one rule, sgn Re ds/dlam, for both locus kinds: on every crossing of the
    # reference problems and of the criterion-4 stream it gives the direction
    # the two former rules gave, and the kind the search reports
    rng = np.random.default_rng(STREAM_SEED)
    problems = [example1_problem(), example2_problem(), example3_problem(),
                turning_point_problem()]
    problems += [_random_problem(rng, LocusKind.GAIN if i % 2 == 0 else LocusKind.DELAY)
                 for i in range(50)]
    checked = {LocusKind.GAIN: 0, LocusKind.DELAY: 0}
    for problem in problems:
        for cp in boundary_crossings(problem):
            want = _replaced_crossing_direction(problem, cp.root.imag, cp.lam)
            assert crossing_direction(problem, cp.root.imag, cp.lam) == want
            entering = cp.kind is CriticalKind.CROSSING_IN
            assert entering == (want > 0)
            checked[problem.kind] += 1
    # 1403 gain and 113 delay crossings, mirrors included
    assert checked[LocusKind.GAIN] > 1000 and checked[LocusKind.DELAY] > 100


def _scan_zeros(fn, lo, hi, n):
    w = np.linspace(lo, hi, n)
    v = np.asarray(fn(w))
    out = []
    for i in np.flatnonzero((v[:-1] == 0.0) | (v[:-1] * v[1:] < 0)):
        if v[i] == 0.0:
            out.append(w[i])
        else:
            out.append(brentq(fn, w[i], w[i + 1], xtol=1e-13))
    return out


def test_criterion_6_extremum_zero_sets():
    cases = [
        (first_order_plant(), -0.5, 6.0),
        (example2_problem().plant, -1.0, 4.0),
        (example3_problem().plant, -3.5, 20.0),
    ]
    for plant, s0, w_hi in cases:
        mag = [w for w in magnitude_extremum_freqs(plant, s0) if w <= w_hi]
        want = _scan_zeros(lambda w: big_lambda_prime(plant, s0, w), 1e-6, w_hi, 200001)
        for w in want:
            assert min(abs(w - g) for g in mag) < 1e-6
        for g in mag:
            assert abs(big_lambda_prime(plant, s0, g)) < 1e-7
        ph = [w for w in phase_extremum_freqs(plant, s0, plant.delay) if w <= w_hi]
        want_p = _scan_zeros(lambda w: phi_prime(plant, s0, w, plant.delay), 1e-6, w_hi, 200001)
        for w in want_p:
            assert min(abs(w - g) for g in ph) < 1e-6 if ph else False
        for g in ph:
            assert abs(phi_prime(plant, s0, g, plant.delay)) < 1e-7


# --- criterion 7: robustness at turning/branch points -----------------------


def _chord_angle(p0, p1):
    return math.atan2(p1.omega - p0.omega, p1.sigma - p0.sigma)


def test_criterion_7_turning_point_plant(turning_point_result):
    result = turning_point_result
    assert result.warnings == []
    assert all(t.termination is not Termination.STALLED for t in result.trajectories)
    for traj in result.trajectories:
        lams = [p.lam for p in traj.points]
        assert all(b >= a - 1e-10 for a, b in zip(lams, lams[1:]))
    # each double pole on the axis spawns two branches leaving pi apart
    for pole in (1j, -1j):
        owned = [
            t
            for t in result.trajectories
            if abs(t.origin.root - pole) < 1e-9 and t.origin.lam == 0.0
        ]
        assert len(owned) == 2
        angles = [_chord_angle(t.points[0], t.points[1]) for t in owned]
        diff = abs(angles[0] - angles[1])
        diff = min(diff, 2 * math.pi - diff)
        assert diff == pytest.approx(math.pi, abs=0.05)


def test_criterion_7_branch_angle_example3(example3_result):
    # at the N = 2 branch point the outgoing directions are rotated a quarter
    # turn from the incoming ones
    bp = next(
        cp
        for cp in example3_result.critical_points
        if cp.kind is CriticalKind.BRANCH and abs(cp.root.real + 0.6976) < 5e-4
    )
    incoming = [
        t
        for t in example3_result.trajectories
        if t.termination is Termination.MERGED_AT_BRANCH
        and abs(t.points[-1].root - bp.root) < 1e-6
    ]
    outgoing = [
        t
        for t in example3_result.trajectories
        if abs(t.origin.root - bp.root) < 1e-6 and t.origin.lam == pytest.approx(bp.lam)
    ]
    assert incoming and outgoing
    a_in = _chord_angle(incoming[0].points[-2], incoming[0].points[-1])
    a_out = _chord_angle(outgoing[0].points[0], outgoing[0].points[1])
    diff = abs(a_in - a_out) % math.pi
    diff = min(diff, math.pi - diff)
    assert diff == pytest.approx(math.pi / 2, abs=0.05)


# --- criterion 8: byte-identical reruns -------------------------------------


def test_criterion_8_determinism(tmp_path):
    doc = {
        "plant": {
            "zeros": [[0.0, 0.0], [0.0, 0.0]],
            "poles": [[0.0, 2.0], [0.0, -2.0], [0.0, 4.0], [0.0, -4.0]],
            "gain": 1.0,
            "delay": 1.0,
        },
        "locus": {"kind": "delay", "sigma0": -1.0, "lambda_max": 5.0},
    }
    path = tmp_path / "example1.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["compute", str(path), "--out", str(out1), "--svg"]) == EXIT_OK
    assert cli_main(["compute", str(path), "--out", str(out2), "--svg"]) == EXIT_OK
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    assert "rootlocus.svg" in names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
