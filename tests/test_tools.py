"""The A/B tool's pairing and the digest tool's change report, without
running the benchmark or the digest."""

import importlib.util
import json
import math
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def _ab_bench():
    spec = importlib.util.spec_from_file_location("ab_bench", os.path.join(ROOT, "tools", "ab_bench.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_bench_runs_every_workload_in_each_pair_alternating_sides(monkeypatch):
    ab = _ab_bench()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        specs = json.load(fh)["end_to_end"]
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        assert trace == 0
        calls.append((checkout, workload))
        value = 2.0 if checkout == "base_dir" else 1.0
        metrics = {s["name"]: {"value": value, "unit": s["unit"]} for s in specs}
        return {"correct": True, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(ab, "_run", fake_run)
    runs = ab.run_pairs({"base": "base_dir", "change": "change_dir"}, ab.WORKLOADS, 2, 7, 1.0)
    first = [(side, w) for w in ab.WORKLOADS for side in ("base_dir", "change_dir")]
    second = [(side, w) for w in ab.WORKLOADS for side in ("change_dir", "base_dir")]
    assert calls == first + second
    for workload in ab.WORKLOADS:
        lines = ab.report(specs, runs[workload])
        assert len(lines) == len(specs)
        assert all("better in 2/2 pairs" in line for line in lines)
        assert all(line.endswith(f"within its bound ({s['bound']:.0%})")
                   for line, s in zip(lines, specs))


def test_ab_bench_flags_a_metric_worse_than_its_bound_and_exits_1(monkeypatch):
    # suite_s 25% worse is over its 20% bound; setup_s 20% worse is within its
    # 25% bound; every other metric is unchanged
    ab = _ab_bench()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        specs = json.load(fh)["end_to_end"]
    bounds = {s["name"]: s["bound"] for s in specs}
    assert (bounds["suite_s"], bounds["setup_s"]) == (0.2, 0.25)

    def paired_runs(worse):
        def fake_run(checkout, workload, seed, seconds, trace):
            change = checkout == "change_dir"
            metrics = {s["name"]: {"value": worse.get(s["name"], 2.0) if change else 2.0,
                                   "unit": s["unit"]} for s in specs}
            return {"correct": True, "failed": 0, "metrics": metrics}

        monkeypatch.setattr(ab, "_run", fake_run)
        return ab.run_pairs({"base": "base_dir", "change": "change_dir"}, ("reference",), 2,
                            7, 1.0)["reference"]

    over = paired_runs({"suite_s": 2.5, "setup_s": 2.4})
    lines = {line.split(":")[0].strip(): line for line in ab.report(specs, over)}
    assert lines["suite_s"].endswith("+25.0%  better in 0/2 pairs  beyond the base quartile "
                                     "spread: no  WORSE THAN ITS BOUND (20%)")
    assert lines["setup_s"].endswith("+20.0%  better in 0/2 pairs  beyond the base quartile "
                                     "spread: no  within its bound (25%)")
    assert sum(ab.OVER_BOUND in line for line in lines.values()) == 1
    under = paired_runs({"setup_s": 2.4})
    assert not any(ab.OVER_BOUND in line for line in ab.report(specs, under))

    # the whole tool, without git or a benchmark run: it exits 1 over a bound
    monkeypatch.setattr(ab, "_git", lambda *args: "0" * 40)
    monkeypatch.setattr(ab.subprocess, "run", lambda *args, **kwargs: None)
    monkeypatch.setattr(ab.signal, "signal", lambda *args: None)
    for runs, code in ((over, 1), (under, 0)):
        monkeypatch.setattr(ab, "run_pairs", lambda sides, workloads, *args, runs=runs: {
            w: runs for w in workloads})
        assert ab.main(["--base", "HEAD", "--workload", "reference", "--pairs", "2"]) == code


def test_ab_bench_traced_report_gives_every_layer_and_matches_crossing_counts(monkeypatch):
    # with --trace 1 the blocks report the per-layer metrics of both sides;
    # the crossings found must be equal pair by pair, and a layer whose base
    # median is 0 (no real-axis work on a delay locus) reads n/a, not an error
    ab = _ab_bench()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        specs = json.load(fh)["per_layer"]
    seen = []

    def fake_run(checkout, workload, seed, seconds, trace):
        seen.append(trace)
        change = checkout == "change_dir"
        metrics = {s["name"]: {"value": 1.0, "unit": s["unit"]} for s in specs}
        metrics["critical.crossings_ms"]["value"] = 40.0 if change else 50.0
        metrics["critical.crossings_found"]["value"] = 288
        metrics["continuation.real_axis_ms"]["value"] = 0.0
        return {"correct": True, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(ab, "_run", fake_run)
    runs = ab.run_pairs({"base": "base_dir", "change": "change_dir"}, ("random_delay",), 2, 1,
                        1.0, trace=1)["random_delay"]
    assert seen == [1] * 4
    lines = ab.report(specs, runs)
    assert len(lines) == len(specs) + 1
    moved = [line for line in lines if line.lstrip().startswith("critical.crossings_ms:")]
    assert len(moved) == 1 and "-20.0%" in moved[0] and "better in 2/2 pairs" in moved[0]
    real_axis = [line for line in lines if "continuation.real_axis_ms:" in line]
    assert "n/a" in real_axis[0]
    assert lines[-1] == "critical.crossings_found: equal on both sides in 2/2 pairs"
    runs["change"][1]["metrics"]["critical.crossings_found"]["value"] = 286
    assert ab.report(specs, runs)[-1] == (
        "critical.crossings_found: equal on both sides in 1/2 pairs; DIFFERS in pairs [2]")


def test_ab_bench_traced_blocks_name_every_work_count_that_differs(monkeypatch, capsys):
    # with --trace 1 each block ends with one line on the work counts of
    # perfbench/tracing.EXACT: in how many pairs all of them are equal, and
    # each one that differs with its pairs; the exit code does not change
    import importlib

    ab = _ab_bench()
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    assert ab.exact_counts() == importlib.import_module("tracing").EXACT
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    specs = bench["per_layer"] + bench["end_to_end"]

    def paired_runs(unequal):
        # pair k of each side; the change's counts in ``unequal`` are off in their pairs
        def side(change, pair):
            metrics = {s["name"]: {"value": 10.0, "unit": s["unit"]} for s in specs}
            for name, pairs in unequal.items():
                if change and pair in pairs:
                    metrics[name]["value"] = 11.0
            return {"correct": True, "failed": 0, "metrics": metrics}

        return {"base": [side(False, k) for k in (1, 2, 3)],
                "change": [side(True, k) for k in (1, 2, 3)]}

    runs = paired_runs({"plant.mp_calls": (2, 3), "rootfind.calls": (3,)})
    assert ab.exact_counts_line(runs, ab.exact_counts()) == (
        "work counts of tracing.EXACT: all equal on both sides in 1/3 pairs; unequal: "
        "plant.mp_calls in pairs [2, 3], rootfind.calls in pairs [3]")
    assert ab.exact_counts_line(paired_runs({}), ab.exact_counts()) == (
        "work counts of tracing.EXACT: all equal on both sides in 3/3 pairs")

    # the whole tool: the line ends each traced block, and differing work
    # counts leave the exit code 0; an untraced block has no such line
    monkeypatch.setattr(ab, "_git", lambda *args: "0" * 40)
    monkeypatch.setattr(ab.subprocess, "run", lambda *args, **kwargs: None)
    monkeypatch.setattr(ab.signal, "signal", lambda *args: None)
    monkeypatch.setattr(ab, "run_pairs", lambda sides, workloads, *args: {
        w: runs for w in workloads})
    assert ab.main(["--base", "HEAD", "--workload", "all", "--pairs", "3", "--trace", "1"]) == 0
    blocks = capsys.readouterr().out.strip().split("\n\n")
    assert len(blocks) == len(ab.WORKLOADS)
    for block in blocks:
        assert block.splitlines()[-1].startswith(
            "work counts of tracing.EXACT: all equal on both sides in 1/3 pairs; unequal: ")
    assert ab.main(["--base", "HEAD", "--workload", "reference", "--pairs", "3"]) == 0
    assert "tracing.EXACT" not in capsys.readouterr().out


def test_result_digest_matches_axis_events_inside_tie_groups(monkeypatch):
    # a conjugate event pair whose lam tie to the last bits may come back in
    # the other order: it is matched by (direction, omega), counted as one
    # reordered group, and its lam moved by 1 ulp reads as 1 ulp, not ~9e18
    import sys
    from types import SimpleNamespace

    from rootlocus.engine import ImagAxisEvent

    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "result_digest", os.path.join(ROOT, "tools", "result_digest.py"))
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)

    def result(events):
        return SimpleNamespace(trajectories=[], critical_points=[], stability_intervals=[],
                               imag_axis_events=[ImagAxisEvent(*e) for e in events])

    lam = 1.0102753803200897
    nxt = math.nextafter(lam, 2.0)
    old = result([(0.5, 0.0, 1), (lam, -6.9, 1), (nxt, 6.9, 1), (2.0, 1.0, -1), (2.0, -1.0, -1)])
    new = result([(0.5, 0.0, 1), (lam, 6.9, 1), (nxt, -6.9, 1), (2.0, 1.0, -1), (2.0, -1.0, -1)])
    changes = digest.Changes()
    changes.add(3, old, new)
    assert changes.reordered == 1
    assert changes.ulps["axis events"] == 1
    report = changes.report(4)
    assert "  axis-event tie groups reordered: 1" in report
    # events out of tie move by their own ulps, in order
    changes = digest.Changes()
    changes.add(0, result([(0.5, 0.0, 1), (1.0, 2.0, 1)]),
                result([(0.5, 0.0, 1), (math.nextafter(1.0, 2.0), 2.0, 1)]))
    assert changes.reordered == 0
    assert changes.ulps["axis events"] == 1


def test_result_digest_prints_the_svg_digest_of_every_run(monkeypatch, capsys):
    # beside each locus digest the tool prints the sha256 over the runs' SVGs,
    # rendered as the reference workload renders them, and one over all runs;
    # the total stays the digest of the emitted files and the result
    import hashlib
    import sys

    from rootlocus import compute_root_locus, render_svg
    from rootlocus.plant import LocusKind, LocusProblem

    from conftest import example1_problem, first_order_plant

    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "result_digest", os.path.join(ROOT, "tools", "result_digest.py"))
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    # example 1 is conjugate symmetric with points below the axis; the one-pole plant's
    # real-axis segment is its only trajectory
    problems = [example1_problem(), LocusProblem(LocusKind.GAIN, -3.0, 2.0, first_order_plant())]
    monkeypatch.setattr(digest.workloads, "build", lambda workload, seed: problems)
    monkeypatch.setattr(sys, "argv", ["result_digest.py"])
    assert digest.main() == 0
    lines = capsys.readouterr().out.splitlines()

    svgs = []
    for problem in problems:
        result = compute_root_locus(problem)
        upper = problem.plant.conjugate_symmetric
        svgs.append(hashlib.sha256(render_svg(result, None, upper_half_only=upper).encode()))
    part = hashlib.sha256(b"".join(h.digest() for h in svgs)).hexdigest()
    pair_lines = [line for line in lines if " runs): " in line]
    assert len(pair_lines) == 5  # reference at one seed, the random workloads at two
    assert all(line.endswith(f"  svg {part}") for line in pair_lines)
    total = hashlib.sha256(b"".join(h.digest() for h in svgs) * 5).hexdigest()
    assert f"svg {total}" in lines
    assert "10 runs, 10 read back exactly" in lines


def test_result_digest_rewrites_every_run_in_place(monkeypatch, capsys):
    # each run is written again over the previous run's files and must match
    # its fresh write; a writer that does not cut a longer file is caught
    # (example 1 and the one-pole plant each have files longer than the other's)
    import sys

    from rootlocus import io as rl_io
    from rootlocus.plant import LocusKind, LocusProblem

    from conftest import example1_problem, first_order_plant

    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "result_digest", os.path.join(ROOT, "tools", "result_digest.py"))
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    problems = [example1_problem(), LocusProblem(LocusKind.GAIN, -3.0, 2.0, first_order_plant())]
    monkeypatch.setattr(digest.workloads, "build", lambda workload, seed: problems)
    monkeypatch.setattr(sys, "argv", ["result_digest.py"])
    assert digest.main() == 0
    out = capsys.readouterr()
    assert "10 rewritten in place exactly" in out.out.splitlines()
    total = out.out.splitlines()[-1]

    def uncut(path, data):
        with open(path, "r+b" if os.path.exists(path) else "wb") as fh:
            fh.write(data)

    monkeypatch.setattr(rl_io, "_write_file", uncut)
    assert digest.main() == 1
    out = capsys.readouterr()
    # the fresh writes, and so the total, are unchanged; only the first run,
    # written into an empty directory, is rewritten exactly
    assert out.out.splitlines()[-1] == total
    assert "1 rewritten in place exactly" in out.out.splitlines()
    rewrites = [line for line in out.err.splitlines() if line.startswith("REWRITE: ")]
    assert len(rewrites) == 9
    assert all(line.endswith(" rewritten in place differs from its fresh write")
               for line in rewrites)


def test_result_digest_expect_passes_only_on_the_total(monkeypatch, capsys):
    # --expect exits 0 on the total digest, given in upper case with spaces
    # around it, and 1 on any other, printing the expected line either way
    import sys

    from rootlocus.plant import LocusKind, LocusProblem

    from conftest import first_order_plant

    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "result_digest", os.path.join(ROOT, "tools", "result_digest.py"))
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    problems = [LocusProblem(LocusKind.GAIN, -3.0, 2.0, first_order_plant())]
    monkeypatch.setattr(digest.workloads, "build", lambda workload, seed: problems)
    monkeypatch.setattr(sys, "argv", ["result_digest.py"])
    assert digest.main() == 0
    total = capsys.readouterr().out.splitlines()[-1]
    flipped = total[:-1] + ("0" if total[-1] != "0" else "1")
    for given, status in ((f"  {total.upper()} ", 0), (flipped, 1), (total[:-1], 1)):
        monkeypatch.setattr(sys, "argv", ["result_digest.py", "--expect", given])
        assert digest.main() == status
        out = capsys.readouterr()
        assert f"expected {given}" in out.out.splitlines()
        assert ("MISMATCH" in out.err.splitlines()) == bool(status)
