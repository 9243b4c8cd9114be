"""The A/B tool's pairing, without running the benchmark."""

import importlib.util
import json
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

    def fake_run(checkout, workload, seed, seconds):
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
