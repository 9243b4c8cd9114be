"""Alternating A/B runs of the benchmark: an earlier revision against this checkout.

Run from anywhere inside a checkout:

    python3 tools/ab_bench.py --base HEAD~1 --workload random_gain --pairs 10 --seconds 6

It checks out ``--base`` in a temporary ``git worktree`` and runs
``perfbench/run.py --workload W --seed S --seconds S`` there and in this
checkout as it stands (uncommitted edits included), one run of each per pair.
The pairs alternate which side runs first, so a drift of the machine's speed
falls on both sides alike.  ``--workload all`` runs every workload in each
pair, one after the other, and prints one report block per workload, so that
"no metric worse on any workload" is one command.  For every end-to-end
metric of BENCHMARK.json a block gives the median and quartiles of each
side, the change of the medians, the pairs in which the change did better,
whether the medians differ by more than the spread between the base's
quartiles, and whether the change's median is worse than the base's by more
than the metric's ``bound`` (a fraction of the base's median); the tool
exits 1 if one is.  Runs whose operations failed are counted and named.  The
worktree is removed on exit, also after an error or an interrupt.

With ``--trace 1`` the runs are traced (``perfbench/run.py --trace 1``) and
the blocks give the same lines for every per-layer metric of BENCHMARK.json
instead, so that a change names the layer that moved.  Per-layer metrics
have no bound.  A count of what the
engine found (``critical.crossings_found``) must then be equal on both sides
in every pair; the block says whether it is, and the tool exits 1 if not.
Each block also ends with one line saying in how many pairs every work count
of ``EXACT`` in ``perfbench/tracing.py`` (Newton iterations, corrector calls,
residual passes, ...) was equal on both sides, naming each count that was
not and the pairs where it was not.  A change may do more or less work on
purpose, so that line does not change the exit code.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("random_gain", "random_delay", "reference")
# per-layer counts of results, not of work: a change that keeps the results keeps them
MATCHED = ("critical.crossings_found",)
# what a report line holds when a check fails; main exits 1 on either
DIFFERS, OVER_BOUND = "DIFFERS", "WORSE THAN ITS BOUND"


def _git(*args: str) -> str:
    out = subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True, text=True)
    return out.stdout.strip()


def _run(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON summary ``perfbench/run.py`` prints last, run in ``checkout``."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"perfbench/run.py exited with code {proc.returncode} in {checkout}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def exact_counts() -> tuple[str, ...]:
    """The work counts ``perfbench/tracing.py`` holds to repeat exactly from
    one pass to the next (its ``EXACT``), read without importing it."""
    with open(os.path.join(ROOT, "perfbench", "tracing.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "EXACT" for t in node.targets):
            return tuple(ast.literal_eval(node.value))
    raise RuntimeError("perfbench/tracing.py defines no EXACT")


def _unequal_pairs(runs: dict[str, list[dict]], name: str) -> list[int]:
    """The pairs, counted from 1, in which the two sides' ``name`` differ."""
    return [i + 1 for i, (b, c) in enumerate(zip(runs["base"], runs["change"]))
            if b["metrics"][name]["value"] != c["metrics"][name]["value"]]


def exact_counts_line(runs: dict[str, list[dict]], names) -> str:
    """In how many pairs every count of ``names`` is equal on both sides, and
    each count that is not, with its pairs."""
    unequal = {name: pairs for name in names if (pairs := _unequal_pairs(runs, name))}
    pairs = len(runs["base"])
    equal = pairs - len(set().union(*unequal.values()))
    line = f"work counts of tracing.EXACT: all equal on both sides in {equal}/{pairs} pairs"
    if unequal:
        line += "; unequal: " + ", ".join(f"{n} in pairs {p}" for n, p in unequal.items())
    return line


def report(specs: list[dict], runs: dict[str, list[dict]]) -> list[str]:
    """One line per metric of ``specs``, from the paired run summaries, and
    one per metric of MATCHED among them."""
    lines = []
    pairs = len(runs["base"])
    width = max(13, *(len(spec["name"]) for spec in specs))
    for spec in specs:
        name, lower = spec["name"], spec["better"] == "lower"
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        b1, b2, b3 = _quartiles(base)
        c1, c2, c3 = _quartiles(change)
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        gain = (b2 - c2) if lower else (c2 - b2)
        rel = f"{100.0 * (c2 / b2 - 1.0):+.1f}%" if b2 else "n/a"
        line = (
            f"{name:>{width}}: base {b2:.6g} [{b1:.6g}, {b3:.6g}]  change {c2:.6g} "
            f"[{c1:.6g}, {c3:.6g}] {spec['unit']}  {rel}  "
            f"better in {wins}/{pairs} pairs  "
            f"beyond the base quartile spread: {'yes' if gain > b3 - b1 else 'no'}"
        )
        if "bound" in spec:
            over = -gain > spec["bound"] * abs(b2)
            line += f"  {OVER_BOUND if over else 'within its bound'} ({spec['bound']:.0%})"
        lines.append(line)
    for name in MATCHED:
        if any(spec["name"] == name for spec in specs):
            differ = _unequal_pairs(runs, name)
            lines.append(f"{name}: equal on both sides in {pairs - len(differ)}/{pairs} pairs"
                         + (f"; {DIFFERS} in pairs {differ}" if differ else ""))
    for side in ("base", "change"):
        failed = [r["failed"] for r in runs[side]]
        if any(failed) or not all(r["correct"] for r in runs[side]):
            lines.append(f"{side}: failed operations per run {failed}")
    return lines


def run_pairs(sides: dict[str, str], workloads, pairs: int, seed: int,
              seconds: float, trace: int = 0) -> dict[str, dict[str, list[dict]]]:
    """Run summaries by workload and side ("base", "change", each a checkout
    directory in ``sides``): in every pair, each workload once per side, the
    side that runs first alternating from pair to pair."""
    runs = {w: {"base": [], "change": []} for w in workloads}
    for pair in range(pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for workload in workloads:
            for side in order:
                runs[workload][side].append(_run(sides[side], workload, seed, seconds, trace))
        print(f"pair {pair + 1}/{pairs} done", file=sys.stderr, flush=True)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced runs, reported by per-layer metric")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0.0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        specs = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    commit = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    # a SIGTERM unwinds through the finally below, as an interrupt does
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    tmp = tempfile.mkdtemp(prefix="ab_bench_")
    worktree = os.path.join(tmp, "base")
    try:
        _git("worktree", "add", "--detach", worktree, commit)
        runs = run_pairs({"base": worktree, "change": ROOT}, workloads, args.pairs,
                         args.seed, args.seconds, args.trace)
    finally:
        if os.path.isdir(worktree):
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", worktree],
                           capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"], capture_output=True)
    exact = exact_counts() if args.trace else ()
    blocks = []
    for workload in workloads:
        blocks.append("\n".join([
            f"workload {workload}, seed {args.seed}, {args.seconds:g} s per "
            f"{'traced ' if args.trace else ''}run, {args.pairs} pairs; "
            f"base {commit[:12]} ({args.base}), change: this checkout",
            *report(specs, runs[workload]),
            *([exact_counts_line(runs[workload], exact)] if exact else []),
        ]))
    print("\n\n".join(blocks))
    return 1 if any(flag in block for block in blocks for flag in (DIFFERS, OVER_BOUND)) else 0


if __name__ == "__main__":
    sys.exit(main())
