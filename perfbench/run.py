"""Benchmark of the rootlocus engine, run from the root of a checkout:

    python3 perfbench/run.py --workload random_gain --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each one is there):
  random_gain   the 25 gain plants of the criterion-4 stream; one operation is
                one compute_root_locus
  random_delay  the 25 delay plants of the same stream
  reference     examples 1-3 and the turning-point plant; one operation is what
                ``rootlocus compute --svg`` does, plus a read-back of the result
  all           each of the three in its own process, one summary

With ``--trace 0`` the run times whole passes over the workload's problems,
each pass in a fresh seeded order, after one untimed warm-up pass, and prints
the end-to-end metrics.  With ``--trace 1`` it alternates untraced passes
with passes in which every layer is wrapped (tracing.py), checks that both
give identical results, and prints the per-layer metrics.  Times are scaled
to a reference machine speed (calibration.py); the wall figures are printed
beside them.  Every output is checked (workloads.Checker); an exception, a
warning or a failed check counts as a failed operation.  The last line of
standard output is one JSON object; a BENCH_*.json with the environment,
every sample and any spans goes to .perfbench_out/ in the checkout.
"""

import os

# one thread everywhere: set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.special import betainc  # noqa: E402

import calibration  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("random_gain", "random_delay", "reference")
MIN_SAMPLES = 100  # so that at least 10 samples lie beyond the 90th percentile
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Phase:
    """Consecutive passes over a workload's problems."""

    times: list = field(default_factory=list)  # per pass, each problem's seconds, scaled
    raw: list = field(default_factory=list)  # per pass, each problem's wall seconds
    traced: list = field(default_factory=list)  # per pass, whether the layers were wrapped
    op_ids: list = field(default_factory=list)  # per pass, operation id of each problem
    bytes_written: list = field(default_factory=list)  # per pass
    attempted: int = 0
    failures: list = field(default_factory=list)
    first: dict = field(default_factory=dict)  # (traced, problem) -> first result

    def samples(self, traced=False, raw=False) -> list:
        """Per problem, the seconds of its operations in the chosen passes."""
        rows = [t for t, tr in zip(self.raw if raw else self.times, self.traced) if tr == traced]
        return [list(col) for col in zip(*rows)]


def suite_s(samples) -> float:
    return sum(statistics.median(s) for s in samples)


def run_passes(problems, op, checker, work_dir, seconds, min_passes, rng,
               tracer=None) -> Phase:
    """Whole passes, each in a fresh order, until ``seconds`` have gone and at
    least ``min_passes`` are done.  With a tracer, every second pass runs with
    the layers wrapped, so traced and untraced passes see the same machine."""
    phase = Phase()
    next_op = 0
    start = time.perf_counter()
    while len(phase.times) < min_passes or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(phase.times) % 2 == 1
        times, raw, ids = [0.0] * len(problems), [0.0] * len(problems), [0] * len(problems)
        nbytes = 0
        order = list(range(len(problems)))
        rng.shuffle(order)
        gc.collect()
        kernel_before = calibration.kernel_s()
        with tracer.installed() if traced else contextlib.nullcontext():
            for i in order:
                ids[i] = next_op
                if tracer is not None:
                    tracer.op = next_op
                next_op += 1
                phase.attempted += 1
                t0 = time.perf_counter()
                try:
                    result, written = op(problems[i], work_dir)
                except Exception as exc:  # a failed operation is counted, never skipped
                    result, error = None, f"{type(exc).__name__}: {exc}"
                raw[i] = time.perf_counter() - t0
                kernel_after = calibration.kernel_s()
                factor = calibration.factor([kernel_before, kernel_after])
                kernel_before = kernel_after
                times[i] = raw[i] * factor
                if tracer is not None:
                    tracer.scales[ids[i]] = factor
                if result is None:
                    phase.failures.append(f"problem {i}: {error}")
                    continue
                nbytes += written
                bad = checker.failures(i, result)
                if bad:
                    phase.failures.append(f"problem {i}: " + "; ".join(bad[:3]))
                if tracer is not None:
                    phase.first.setdefault((traced, i), result)
        phase.times.append(times)
        phase.raw.append(raw)
        phase.traced.append(traced)
        phase.op_ids.append(ids)
        phase.bytes_written.append(nbytes)
    return phase


def measure_setup(workload, seed, work_dir) -> list:
    """Seconds to import rootlocus and run the first operation, each time in a
    fresh interpreter, as (scaled, wall) pairs."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "first_op.py"), workload, str(seed), work_dir],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        wall, factor = map(float, proc.stdout.split()[-2:])
        out.append((wall * factor, wall))
    return out


def harrell_davis(values, p) -> float:
    """The p-quantile as a Beta-weighted mean of all order statistics.

    Operations of one problem cluster together, so a single order statistic
    at a quantile that falls near the edge of a cluster jumps from run to
    run; the weighted mean is steadier and estimates the same quantile."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def timing(passes, setup) -> dict:
    """Time metrics from each pass's per-problem seconds and the set-up times."""
    samples = [list(col) for col in zip(*passes)]
    # with an even number of problems the median of all samples falls in the
    # gap between two problems' times, so p50 is the median over passes of
    # each pass's median operation
    return {
        "solve_ms_p50": 1e3 * statistics.median(statistics.median(t) for t in passes),
        "solve_ms_p90": 1e3 * harrell_davis([t for s in samples for t in s], 0.9),
        "suite_s": suite_s(samples),
        "setup_s": statistics.median(setup),
    }


def run_workload(args, manifest) -> dict:
    import tracing
    import workloads
    from rootlocus import io as rl_io

    workloads.check_stream()
    problems = workloads.build(args.workload, args.seed)
    op = workloads.operation(args.workload)
    checker = workloads.Checker(args.workload)
    rng = random.Random(args.seed)
    work_dir = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    report = {"workload": args.workload, "environment": environment(args.seed),
              "seconds": args.seconds, "trace": args.trace,
              "problems": [workloads.describe(p) for p in problems]}
    try:
        if args.trace == 0:
            setup = measure_setup(args.workload, args.seed, work_dir)
            warm = run_passes(problems, op, checker, work_dir, 0, 1, rng)
            timed = run_passes(problems, op, checker, work_dir, args.seconds,
                               math.ceil(MIN_SAMPLES / len(problems)), rng)
            attempted = warm.attempted + timed.attempted
            failures = warm.failures + timed.failures
            values = timing(timed.times, [s for s, _ in setup])
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values["failed_ratio"] = len(failures) / attempted
            wall = timing(timed.raw, [w for _, w in setup])
            values.update({f"wall.{k}": v for k, v in wall.items()})
            n_passes = len(timed.times)
            report["setup_s_each"] = setup
            report["samples_s"] = timed.samples()
            report["wall_samples_s"] = timed.samples(raw=True)
        else:
            tracer = tracing.Tracer()
            warm = run_passes(problems, op, checker, work_dir, 0, 1, rng)
            timed = run_passes(problems, op, checker, work_dir, args.seconds, 2, rng,
                               tracer=tracer)
            attempted = warm.attempted + timed.attempted
            failures = warm.failures + timed.failures
            for i in range(len(problems)):
                a, b = timed.first.get((False, i)), timed.first.get((True, i))
                if a is not None and b is not None and not rl_io.results_equal(a, b):
                    failures.append(f"problem {i}: traced result differs from untraced")
            traced_ids = [ids for ids, tr in zip(timed.op_ids, timed.traced) if tr]
            values, unstable = tracing.pass_metrics(tracer, traced_ids)
            failures += [f"count {k} differs between traced passes" for k in unstable]
            nbytes = {b for b, tr in zip(timed.bytes_written, timed.traced) if tr}
            if len(nbytes) != 1:
                failures.append("bytes written differ between traced passes")
            values["io.bytes_written"] = max(nbytes)
            plain_s, traced_s = suite_s(timed.samples()), suite_s(timed.samples(traced=True))
            values["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
            n_passes = len(traced_ids)
            report["suite_s"] = {"untraced": plain_s, "traced": traced_s}
            report["spans"] = {"columns": ["id", "parent", "op", "name", "start_ns", "end_ns",
                                           "child_ns"], "rows": tracer.spans}
            report["op_ids"] = traced_ids  # per traced pass, the op id of each problem
            report["counts"] = [[op_id, name, n] for (op_id, name), n in tracer.counts.items()]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    report["attempted"] = attempted
    report["failures"] = failures
    report["values"] = values

    kind = "end_to_end" if args.trace == 0 else "per_layer"
    metrics = {}
    for spec in manifest[kind]:
        if spec["name"] not in values:
            raise BenchError(f"metric {spec['name']} is not measured")
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    for message in failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)

    print("environment: " + json.dumps(report["environment"]))
    print(f"workload {args.workload}: {len(problems)} problems, {n_passes} "
          f"{'traced' if args.trace else 'timed'} passes, n={n_passes * len(problems)} "
          f"operations in them, {attempted} attempted, {len(failures)} failed")
    units = {s["name"]: s["unit"] for s in manifest["end_to_end"] + manifest["per_layer"]}
    units.setdefault("failed_ratio", "1")
    for name, value in values.items():
        print(f"  {args.workload}.{name} = {value:.6g} {units.get(name.split('wall.')[-1], '')}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def run_all(args, manifest) -> dict:
    """Each workload in its own process; one summary of all their metrics."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {workload} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        total["correct"] = total["correct"] and part["correct"]
        total["attempted"] += part["attempted"]
        total["failed"] += part["failed"]
        for name, metric in part["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(SRC, "rootlocus", "__init__.py")):
            raise BenchError(f"no rootlocus package under {SRC}")
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        sys.path[:0] = [SRC, HERE]
        if args.workload == "all":
            result = run_all(args, manifest)
        else:
            result = run_workload(args, manifest)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
