"""Spans and counters around the layers of rootlocus, recorded from outside the
package by patching each function at the name through which it is looked up.

Every engine call site reaches its callees through a module attribute
(``critical.starting_points``, ``cont._clip_solve``) or a module global
(``correct`` inside ``continuation``), so replacing the module attribute
catches every call.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import contextmanager

from rootlocus import continuation, critical, engine, localmodel, svg
from rootlocus import io as rl_io
from rootlocus.plant import LocusProblem

# (owner, attribute, span name); the layer is the span name up to its first dot
SPANS = [
    (engine, "compute_root_locus", "engine.compute_root_locus"),
    (critical, "starting_points", "critical.starting_points"),
    (critical, "branch_points_gain", "critical.branch_points_gain"),
    (critical, "boundary_crossings", "critical.boundary_crossings"),
    (critical, "rational_zeros", "rootfind.rational_zeros"),
    (critical, "magnitude_extremum_freqs", "rootfind.magnitude_extremum_freqs"),
    (critical, "phase_extremum_freqs", "rootfind.phase_extremum_freqs"),
    (localmodel, "multiplicity", "localmodel.multiplicity"),
    (localmodel, "branch_rays", "localmodel.branch_rays"),
    (localmodel, "start_rays", "localmodel.start_rays"),
    (localmodel, "initial_tangent_simple", "localmodel.initial_tangent_simple"),
    (continuation, "trace_trajectory", "continuation.trace_trajectory"),
    (continuation, "correct", "continuation.correct"),
    (continuation, "_clip_solve", "continuation.clip_solve"),
    (continuation, "solve_branch_point", "continuation.solve_branch_point"),
    (continuation, "real_axis_segments", "continuation.real_axis_segments"),
    (rl_io, "emit_results", "io.emit_results"),
    (rl_io, "load_result", "io.load_result"),
    (svg, "render_svg", "svg.render_svg"),
]

# what a span's return value adds to the counters
RESULT_COUNTS = {
    "continuation.trace_trajectory": ("continuation.points", lambda r: len(r[0].points) - 1),
    "critical.boundary_crossings": ("critical.crossings_found", len),
}

# span row layout
ID, PARENT, OP, NAME, START, END, CHILD = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.op = -1
        self.counts: Counter = Counter()  # per operation: counts[op, name]
        self.scales: dict = {}  # per operation, its machine-speed factor

    def span(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        on_result = RESULT_COUNTS.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            row = [len(spans), stack[-1][ID] if stack else -1, self.op, name, 0, 0, 0]
            spans.append(row)
            stack.append(row)
            row[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                row[END] = clock()
                stack.pop()
                if stack:
                    stack[-1][CHILD] += row[END] - row[START]
            if on_result is not None:
                counts[self.op, on_result[0]] += on_result[1](out)
            return out

        return wrapper

    def counted_mp(self, fn):
        counts = self.counts

        def mp(problem, sigma, omega, lam):
            counts[self.op, "plant.mp_calls"] += 1
            return fn(problem, sigma, omega, lam)

        return mp

    def counted_jacobian(self, fn):
        counts, stack = self.counts, self.stack

        def jacobian(problem, y):
            # one Jacobian per Newton iteration of the corrector
            if stack and stack[-1][NAME] == "continuation.correct":
                counts[self.op, "continuation.newton_iters"] += 1
            return fn(problem, y)

        return jacobian

    @contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        patches = [(owner, attr, self.span(name, getattr(owner, attr)))
                   for owner, attr, name in SPANS]
        patches.append((LocusProblem, "mp", self.counted_mp(LocusProblem.mp)))
        patches.append((continuation, "_mp_jacobian",
                        self.counted_jacobian(continuation._mp_jacobian)))
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, fn in patches:
                setattr(owner, attr, fn)
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def op_metrics(tracer: Tracer, ops: list[int]) -> dict[str, float]:
    """Per-layer figures summed over the given operations (one suite pass),
    times scaled to the reference machine speed like the end-to-end ones."""
    wanted = set(ops)
    by_id = {}
    total = Counter()
    self_ns = Counter()
    calls = Counter()
    layer_ns = Counter()
    layer_calls = Counter()
    for row in tracer.spans:
        if row[OP] not in wanted:
            continue
        by_id[row[ID]] = row
        factor = tracer.scales[row[OP]]
        dur = (row[END] - row[START]) * factor
        name = row[NAME]
        total[name] += dur
        self_ns[name] += dur - row[CHILD] * factor
        calls[name] += 1
        parent = by_id.get(row[PARENT])
        layer = _layer(name)
        if parent is None or _layer(parent[NAME]) != layer:
            layer_ns[layer] += dur
            layer_calls[layer] += 1
    counts = Counter()
    for (op, name), n in tracer.counts.items():
        if op in wanted:
            counts[name] += n

    def ms(ns):
        return ns / 1e6

    iters = counts["continuation.newton_iters"]
    points = counts["continuation.points"]
    correct_calls = calls["continuation.correct"]
    out = {
        "continuation.correct_ms": ms(total["continuation.correct"]),
        "continuation.correct_calls": correct_calls,
        "continuation.newton_iters": iters,
        "continuation.us_per_newton_iter": total["continuation.correct"] / 1e3 / iters if iters else 0.0,
        "continuation.newton_iters_per_point": iters / points if points else 0.0,
        "continuation.accepted_per_correct": points / correct_calls if correct_calls else 0.0,
        "continuation.trace_self_ms": ms(self_ns["continuation.trace_trajectory"]),
        "continuation.clip_solve_ms": ms(total["continuation.clip_solve"]),
        "continuation.clip_solve_calls": calls["continuation.clip_solve"],
        "continuation.branch_solve_calls": calls["continuation.solve_branch_point"],
        "continuation.points": points,
        "continuation.trajectories": calls["continuation.trace_trajectory"],
        "continuation.real_axis_ms": ms(total["continuation.real_axis_segments"]),
        "plant.mp_calls": counts["plant.mp_calls"],
        "critical.crossings_ms": ms(total["critical.boundary_crossings"]),
        "critical.crossings_found": counts["critical.crossings_found"],
        "critical.starting_points_ms": ms(total["critical.starting_points"]),
        "critical.branch_points_ms": ms(total["critical.branch_points_gain"]),
        "rootfind.ms": ms(layer_ns["rootfind"]),
        "rootfind.calls": layer_calls["rootfind"],
        "localmodel.ms": ms(layer_ns["localmodel"]),
        "engine.self_ms": ms(self_ns["engine.compute_root_locus"]),
        "io.emit_ms": ms(total["io.emit_results"]),
        "io.load_ms": ms(total["io.load_result"]),
        "svg.render_ms": ms(total["svg.render_svg"]),
    }
    return out


# figures that must repeat exactly from one pass to the next
EXACT = (
    "continuation.correct_calls",
    "continuation.newton_iters",
    "continuation.clip_solve_calls",
    "continuation.branch_solve_calls",
    "continuation.points",
    "continuation.trajectories",
    "plant.mp_calls",
    "critical.crossings_found",
    "rootfind.calls",
)


def pass_metrics(tracer: Tracer, passes: list[list[int]]) -> tuple[dict[str, float], list[str]]:
    """Median over passes of each figure, and the exact counts that differed."""
    per_pass = [op_metrics(tracer, ops) for ops in passes]
    out = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    unstable = [k for k in EXACT if len({m[k] for m in per_pass}) != 1]
    return out, unstable
