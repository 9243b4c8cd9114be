"""Workloads of the rootlocus benchmark: seeded inputs, the timed operation of
each workload, and the correctness checks applied to every output.

The random workloads start from the plant stream of the acceptance suite's
criterion 4 (seed ``STREAM_SEED``, gain plants at even indices, delay plants
at odd ones).  The generator is a copy, so later edits to the test file
cannot shift the workloads; ``check_stream`` pins it to the criterion-4
plants by digest.  The benchmark's ``--seed`` perturbs every coefficient of
those plants by a relative ``JITTER_REL``: each seed gives different numbers
with the same structure and nearly the same work.  Drawing a fresh stream
per seed would not do: the cost of 25 random plants is heavy-tailed and the
suite time of one stream differs from another's by up to a factor of ten.

The reference workload is the four fixed reference problems; its seed only
shuffles the order of operations.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from rootlocus import engine, svg
from rootlocus import io as rl_io
from rootlocus.critical import CriticalKind
from rootlocus.errors import ValidationError
from rootlocus.plant import LocusKind, LocusProblem, Plant, eval_char_fn

STREAM_SEED = 20260823
STREAM_LENGTH = 50
# sha256 of describe() over the 50 plants that criterion 4 draws from STREAM_SEED
STREAM_DIGEST = "78e245bae2b7ecf068943072f9af5226fbf233a219a1cb4824eed9d6d5bb92be"
JITTER_REL = 1e-3

POINT_RESIDUAL_MAX = 1e-4
CRITICAL_RESIDUAL_MAX = 1e-8
GOLDEN_TOL = 1e-9
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_reference.json")

SIGMA0 = -1.0


# --- copy of the criterion-4 generator (tests/test_acceptance.py) ----------


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


# --- seeded workload inputs -------------------------------------------------


def criterion4_stream(seed: int = STREAM_SEED) -> list[LocusProblem]:
    rng = np.random.default_rng(seed)
    return [
        _random_problem(rng, LocusKind.GAIN if i % 2 == 0 else LocusKind.DELAY)
        for i in range(STREAM_LENGTH)
    ]


def describe(problem: LocusProblem) -> str:
    """Exact text form of a problem, floats in hex."""
    plant = problem.plant

    def vals(vs):
        return ",".join(f"{v.real.hex()}:{v.imag.hex()}" for v in vs)

    return (
        f"{problem.kind.value};{problem.sigma0.hex()};{problem.lambda_max.hex()};"
        f"{vals(plant.zeros)};{vals(plant.poles)};{plant.gain.hex()};{plant.delay.hex()}"
    )


def stream_digest(problems: list[LocusProblem]) -> str:
    text = "\n".join(describe(p) for p in problems)
    return hashlib.sha256(text.encode()).hexdigest()


def check_stream() -> None:
    """Raise unless the copied generator still gives the criterion-4 plants."""
    got = stream_digest(criterion4_stream())
    if got != STREAM_DIGEST:
        raise RuntimeError(f"criterion-4 stream digest {got} != {STREAM_DIGEST}")


def _jitter_set(values, rng):
    # the generator emits each complex pair as (v, conj v); keep pairs exact
    out = []
    i = 0
    while i < len(values):
        v = values[i]
        fr, fi = 1.0 + JITTER_REL * rng.uniform(-1.0, 1.0, size=2)
        w = complex(v.real * fr, v.imag * fi)
        if v.imag != 0.0:
            if values[i + 1] != v.conjugate():
                raise ValueError("complex values must come in adjacent conjugate pairs")
            out += [w, w.conjugate()]
            i += 2
        else:
            out.append(w)
            i += 1
    return tuple(out)


def perturb(problem: LocusProblem, rng) -> LocusProblem:
    """The same plant with every coefficient scaled by 1 + JITTER_REL * U(-1, 1)."""
    plant = problem.plant
    while True:
        fg, fh, fl = 1.0 + JITTER_REL * rng.uniform(-1.0, 1.0, size=3)
        new = Plant(
            zeros=_jitter_set(plant.zeros, rng),
            poles=_jitter_set(plant.poles, rng),
            gain=plant.gain * fg,
            delay=plant.delay * fh,
        )
        try:
            return LocusProblem(problem.kind, problem.sigma0, problem.lambda_max * fl, new)
        except ValidationError:
            continue


def random_problems(kind: LocusKind, seed: int) -> list[LocusProblem]:
    rng = np.random.default_rng(seed)
    out = []
    for problem in criterion4_stream():
        if problem.kind is not kind:
            continue
        if not problem.plant.conjugate_symmetric:
            # asymmetric plants lose negative-frequency crossings in the engine
            raise ValueError("asymmetric plant in the workload stream")
        out.append(perturb(problem, rng))
    return out


# --- the reference problems (copied from tests/conftest.py) -----------------


def reference_problems() -> list[LocusProblem]:
    ex1 = LocusProblem(
        LocusKind.DELAY, -1.0, 5.0,
        Plant(zeros=(0.0, 0.0), poles=(2j, -2j, 4j, -4j), gain=1.0, delay=1.0),
    )
    den = [1.0, -6e-4, 1.4081634, -5.6326533e-4, 0.43481891, -8.6963771e-5, 2.6655565e-2]
    ex2 = LocusProblem(
        LocusKind.GAIN, -1.0, 6.0,
        Plant(zeros=(), poles=tuple(np.roots(den)), gain=1e-3, delay=12.48),
    )
    ex3 = LocusProblem(
        LocusKind.GAIN, -3.5, 5.0,
        Plant(
            zeros=(complex(5.0, 5.0), complex(5.0, -5.0)),
            poles=(-0.5, -1.0, -2.5),
            gain=1.0,
            delay=1.0,
        ),
    )
    turning = LocusProblem(
        LocusKind.GAIN, -0.5, 2.0,
        Plant(zeros=(0.0, 0.0), poles=(1j, -1j, 1j, -1j), gain=1.0, delay=4 * np.pi / 3),
    )
    return [ex1, ex2, ex3, turning]


REFERENCE_NAMES = ["example1", "example2", "example3", "turning_point"]


def build(workload: str, seed: int) -> list[LocusProblem]:
    if workload == "random_gain":
        return random_problems(LocusKind.GAIN, seed)
    if workload == "random_delay":
        return random_problems(LocusKind.DELAY, seed)
    if workload == "reference":
        return reference_problems()
    raise ValueError(f"unknown workload {workload!r}")


# --- the timed operations ---------------------------------------------------


def solve(problem: LocusProblem, work_dir: str):
    """One operation of the random workloads."""
    return engine.compute_root_locus(problem, workers=1), 0


def solve_and_write(problem: LocusProblem, work_dir: str):
    """One operation of the reference workload: what ``rootlocus compute --svg``
    does, then a read-back of the written result."""
    result = engine.compute_root_locus(problem, workers=1)
    written = rl_io.emit_results(result, work_dir)
    upper = problem.plant.conjugate_symmetric
    doc = svg.render_svg(result, window=None, upper_half_only=upper)
    path = os.path.join(work_dir, "rootlocus.svg")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(doc)
    written.append(path)
    loaded = rl_io.load_result(work_dir)
    if not rl_io.results_equal(loaded, result):
        raise RuntimeError("load_result does not reproduce the emitted result")
    return result, sum(os.path.getsize(p) for p in written)


def operation(workload: str):
    return solve_and_write if workload == "reference" else solve


# --- correctness ------------------------------------------------------------


def residual_failures(result) -> list[str]:
    """Criterion-4 bounds plus an empty warnings list."""
    problem = result.problem
    out = [f"warning: {w}" for w in result.warnings]
    worst = max((p.residual for t in result.trajectories for p in t.points), default=0.0)
    if not worst < POINT_RESIDUAL_MAX:
        out.append(f"point residual {worst:.3g} >= {POINT_RESIDUAL_MAX:g}")
    for cp in result.critical_points:
        if cp.kind is CriticalKind.START and cp.lam == 0.0:
            continue  # the characteristic function is singular at gain starts
        val = abs(eval_char_fn(problem.plant, problem.kind, cp.root, cp.lam))
        if not val < CRITICAL_RESIDUAL_MAX:
            out.append(f"{cp.kind.value} at {cp.root} has |f| = {val:.3g}")
    return out


def golden_record(result) -> dict:
    """The reference quantities compared against the golden file."""
    return {
        "stability_intervals": [[lo, hi] for lo, hi in result.stability_intervals],
        "critical_points": [
            [cp.kind.value, cp.root.real, cp.root.imag, cp.lam, cp.multiplicity]
            for cp in result.critical_points
        ],
        "imag_axis_events": [[e.lam, e.omega, e.direction] for e in result.imag_axis_events],
        "initial_unstable_count": [[result.initial_unstable_count]],
    }


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def golden_failures(record: dict, want: dict) -> list[str]:
    out = []
    for key, ref in want.items():
        got = record[key]
        if len(got) != len(ref):
            out.append(f"{key}: {len(got)} entries, golden has {len(ref)}")
            continue
        for row_got, row_ref in zip(got, ref):
            for a, b in zip(row_got, row_ref):
                if not (abs(a - b) <= GOLDEN_TOL if isinstance(b, float) else a == b):
                    out.append(f"{key}: {row_got} differs from golden {row_ref}")
                    break
    return out


class Checker:
    """Checks every output of a workload; a failure is never skipped."""

    def __init__(self, workload: str):
        self.golden = None
        if workload == "reference":
            doc = load_golden()
            self.golden = [doc[name] for name in REFERENCE_NAMES]

    def failures(self, index: int, result) -> list[str]:
        out = residual_failures(result)
        if self.golden is not None:
            out += golden_failures(golden_record(result), self.golden[index])
        return out
