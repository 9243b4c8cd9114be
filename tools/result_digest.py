"""One sha256 over everything rootlocus computes for the benchmark's problems.

Run from the root of a checkout (it imports ``src/rootlocus`` and the problem
builders of ``perfbench/workloads.py`` from that checkout):

    python3 tools/result_digest.py

It solves the reference problems once and the random_gain and random_delay
problems at benchmark seeds 1 and 2 (104 runs), and hashes, for each run, the
bytes that ``emit_results`` writes plus every trajectory point, critical point
(with its directions), imaginary-axis event, stability interval, the initial
unstable count, every trajectory's origin, termination and note, and every
warning, with floats in hex.  It prints one sha256 per (workload, seed), over
the run digests of that pair, so a mismatch names the workload, and then the
total over all runs.  Two checkouts that print the same digest computed the
same bits; a change meant to be bit-identical is checked by running this on
the parent and on the change.

Beside the total it prints a "locus" digest over the same runs that leaves
out two things: the emitted bytes, and the points of the real-axis segments
(the trajectories of a gain locus whose every omega is exactly 0.0), whose
samples the closed form lam(sigma) places.  A change to how those samples
are placed or written keeps the locus digest.

Each run is also read back: ``load_result`` on the written directory must
give a result equal (``==``) to the computed one, with every float a float
of the computed bits (-0.0 included).  A run that does not is named, and
the tool exits 1.

With ``--expect <sha256>`` it also prints the expected digest beside the
computed one and exits 1 when they differ, so a bit-for-bit claim is one
command:

    python3 tools/result_digest.py --expect 0fe792761ea26a35b0f45b70543d7987c10d0b779faa00a52f42981f90f118d1
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from rootlocus import compute_root_locus, emit_results, load_result  # noqa: E402

import workloads  # noqa: E402

WORKLOADS = ("reference", "random_gain", "random_delay")
SEEDS = (1, 2)


def _hex(v) -> str:
    if isinstance(v, complex):
        return f"{v.real.hex()}{v.imag.hex()}j"
    return float(v).hex()


def _critical(cp) -> str:
    dirs = ",".join(":".join(_hex(x) for x in d) for d in cp.directions)
    return f"{cp.kind.value} {_hex(cp.root)} {_hex(cp.lam)} {cp.multiplicity} [{dirs}]"


def _real_axis_segment(result, traj) -> bool:
    return result.problem.kind.value == "gain" and all(p.omega == 0.0 for p in traj.points)


def _result_lines(result, locus_only=False):
    for traj in result.trajectories:
        yield f"trajectory {_critical(traj.origin)} {traj.termination.value} {traj.note!r}"
        if locus_only and _real_axis_segment(result, traj):
            continue
        for p in traj.points:
            yield " ".join(_hex(v) for v in (p.sigma, p.omega, p.lam, p.residual, p.step_used))
    for cp in result.critical_points:
        yield f"critical {_critical(cp)}"
    for ev in result.imag_axis_events:
        yield f"axis {_hex(ev.lam)} {_hex(ev.omega)} {ev.direction}"
    for lo, hi in result.stability_intervals:
        yield f"stable {_hex(lo)} {_hex(hi)}"
    yield f"unstable {result.initial_unstable_count}"
    for w in result.warnings:
        yield f"warning {w!r}"


def _leaves(value):
    """Every scalar field of a result, depth first; a complex as its two parts."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            if f.compare:
                yield from _leaves(getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _leaves(v)
    elif isinstance(value, complex):
        yield value.real
        yield value.imag
    else:
        yield value


def round_trip_error(result, work_dir: str) -> str | None:
    """Why ``load_result(work_dir)`` is not ``result`` bit for bit, or None."""
    loaded = load_result(work_dir)
    if loaded != result:
        return "the loaded result differs from the computed one"
    for got, want in zip(_leaves(loaded), _leaves(result), strict=True):
        if isinstance(want, float) and not (type(got) is float and got.hex() == want.hex()):
            return f"loaded {got!r} for the computed {want.hex()}"
    return None


def digest_run(problem, work_dir: str) -> tuple[bytes, bytes, str | None]:
    """sha256 of one run, its emitted files and then its in-memory result;
    its locus sha256, without the files and the real-axis samples; and its
    round-trip error (None when the written result reads back exactly)."""
    result = compute_root_locus(problem)
    h = hashlib.sha256()
    for path in sorted(emit_results(result, work_dir)):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read() + b"\0")
    error = round_trip_error(result, work_dir)
    for line in _result_lines(result):
        h.update(line.encode() + b"\n")
    locus = hashlib.sha256()
    for line in _result_lines(result, locus_only=True):
        locus.update(line.encode() + b"\n")
    return h.digest(), locus.digest(), error


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--expect", metavar="SHA256", help="exit 1 unless the total equals this")
    args = parser.parse_args()
    total, locus = hashlib.sha256(), hashlib.sha256()
    runs = 0
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for workload in WORKLOADS:
                if workload == "reference" and seed != SEEDS[0]:
                    continue  # the reference problems do not depend on the seed
                part, locus_part = hashlib.sha256(), hashlib.sha256()
                problems = workloads.build(workload, seed)
                for i, problem in enumerate(problems):
                    work_dir = os.path.join(tmp, f"{workload}_{seed}_{i}")
                    run, run_locus, error = digest_run(problem, work_dir)
                    if error is not None:
                        errors.append(f"{workload} seed {seed} problem {i}: {error}")
                    part.update(run)
                    total.update(run)
                    locus_part.update(run_locus)
                    locus.update(run_locus)
                runs += len(problems)
                print(
                    f"{workload} seed {seed} ({len(problems)} runs): {part.hexdigest()}"
                    f"  locus {locus_part.hexdigest()}"
                )
    print(f"{runs} runs, {runs - len(errors)} read back exactly")
    print(f"locus {locus.hexdigest()}")
    print(total.hexdigest())
    for error in errors:
        print(f"ROUND TRIP: {error}", file=sys.stderr)
    status = 1 if errors else 0
    if args.expect is not None:
        print(f"expected {args.expect}")
        if total.hexdigest() != args.expect.strip().lower():
            print("MISMATCH", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
