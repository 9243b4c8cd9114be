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
are placed or written keeps the locus digest.  Beside that it prints an
"svg" digest over the SVG of each run, ``render_svg(result, None,
upper_half_only=plant.conjugate_symmetric)`` as the reference workload of
the benchmark renders it; neither side digest enters the total.

Each run is also read back: ``load_result`` on the written directory must
give a result equal (``==``) to the computed one, with every float a float
of the computed bits (-0.0 included).  A run that does not is named, and
the tool exits 1.

Each run is also written a second time, into one directory that every run
before it was written into, so that its files are rewritten in place over
the previous run's (the first run's, into an empty directory).  Every file
``emit_results`` names there must hold the bytes of the fresh write; the
tool prints how many runs did, and names any that did not and exits 1.

With ``--expect <sha256>`` it also prints the expected digest beside the
computed one and exits 1 when they differ, so a bit-for-bit claim is one
command:

    python3 tools/result_digest.py --expect 6801d7645ea42b671ea7461bc4f85ee840e41dfa527791d1a746f343ede09fc5

A change meant to move only last bits is checked value by value instead.
``--keep DIR`` saves each run's ``result.json`` under ``DIR/<workload>_<seed>_<i>``;
``--against DIR`` reads the files one checkout saved there with this
checkout's ``load_result`` and, for each (workload, seed), names the runs
that differ, any change in trajectory or event counts or in the
terminations of the trajectories, and the largest
change in units in the last place (ulps) in trajectory points (sigma, omega
and lam; residuals aside), origins, critical points, axis events and
stability intervals.  Axis events whose lam tie within 1e-9 (a conjugate
pair) are matched inside their tie group, and the groups listed in another
order are counted on a line of their own.  Points one side has and the
other lacks are counted as added or removed.  On the reference workload it
also checks README's last-bit rule, since the benchmark's golden check
compares the axis-event rows in order: a reordered tie group, an axis event
moved by any ulp or a changed axis-event count prints a "LAST-BIT RULE"
line and the tool exits 1.  Trajectory points, origins, critical points and
stability intervals may move, and the random workloads are not checked:

    python3 tools/result_digest.py --keep /tmp/before          # parent checkout
    python3 tools/result_digest.py --against /tmp/before       # this checkout
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import hashlib
import os
import shutil
import struct
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from rootlocus import compute_root_locus, emit_results, load_result, render_svg  # noqa: E402

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


def svg_digest(result) -> bytes:
    """sha256 of the SVG of ``result`` as the benchmark's reference workload
    renders it: auto window, upper half only for a conjugate-symmetric plant."""
    upper = result.problem.plant.conjugate_symmetric
    return hashlib.sha256(render_svg(result, None, upper_half_only=upper).encode()).digest()


def digest_run(problem, work_dir: str):
    """sha256 of one run, its emitted files and then its in-memory result;
    its locus sha256, without the files and the real-axis samples; its
    round-trip error (None when the written result reads back exactly); and
    the result."""
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
    return h.digest(), locus.digest(), error, result


def rewrite_error(result, fresh_dir: str, reused_dir: str) -> str | None:
    """Which file of ``result`` written over the files in ``reused_dir``
    differs from its fresh write in ``fresh_dir``, or None."""
    for path in emit_results(result, reused_dir):
        name = os.path.basename(path)
        with open(path, "rb") as a, open(os.path.join(fresh_dir, name), "rb") as b:
            if a.read() != b.read():
                return f"{name} rewritten in place differs from its fresh write"
    return None


def _ordinal(x: float) -> int:
    """Integers in the order of the floats, one apart for adjacent floats."""
    n = struct.unpack("<q", struct.pack("<d", x))[0]
    return n if n >= 0 else -(n & 0x7FFFFFFFFFFFFFFF)


def _ulps(a, b) -> int:
    """Largest ulp distance between corresponding floats of two flat tuples."""
    return max((abs(_ordinal(x) - _ordinal(y)) for x, y in zip(a, b, strict=True)), default=0)


def _cp_values(cp) -> tuple:
    return (cp.root.real, cp.root.imag, cp.lam, *(x for d in cp.directions for x in d))


class Changes:
    """What moved between saved results and recomputed ones, over many runs."""

    AREAS = ("points", "origins", "critical points", "axis events", "stability intervals")

    def __init__(self):
        self.runs: list[int] = []
        self.counts: list[str] = []
        self.ulps = dict.fromkeys(self.AREAS, 0)
        self.added = self.removed = 0
        self.reordered = 0
        self.recounted_events = 0  # runs whose axis-event count changed

    def _pairs(self, area: str, old: list[tuple], new: list[tuple]) -> None:
        if len(old) == len(new):
            for a, b in zip(old, new):
                if len(a) == len(b):
                    self.ulps[area] = max(self.ulps[area], _ulps(a, b))

    def _events(self, old, new) -> None:
        """Axis events matched inside each tie group, a run of saved events
        whose lam lie within 1e-9 of the one before: conjugate events tie to
        the last bits, and a change may list such a group in another order.
        The members of a group are matched by (direction, omega); a group
        whose members are listed in another order counts as reordered."""
        if len(old) != len(new):
            self.recounted_events += 1
            return

        def key(e):
            return (e.direction, e.omega)

        start = 0
        for end in range(1, len(old) + 1):
            if end < len(old) and old[end].lam - old[end - 1].lam <= 1e-9:
                continue
            a, b = old[start:end], new[start:end]
            order_a = sorted(range(len(a)), key=lambda i: key(a[i]))
            order_b = sorted(range(len(b)), key=lambda i: key(b[i]))
            self.reordered += order_a != order_b
            self._pairs("axis events", [(a[i].lam, a[i].omega) for i in order_a],
                        [(b[i].lam, b[i].omega) for i in order_b])
            start = end

    def _points(self, old, new) -> None:
        old = [(p.sigma, p.omega, p.lam) for p in old]
        new = [(p.sigma, p.omega, p.lam) for p in new]
        matcher = difflib.SequenceMatcher(None, old, new, autojunk=False)
        for op, i1, i2, j1, j2 in matcher.get_opcodes():
            if op == "replace" and i2 - i1 == j2 - j1:
                self._pairs("points", old[i1:i2], new[j1:j2])
            elif op != "equal":
                self.removed += i2 - i1
                self.added += j2 - j1

    def add(self, index: int, old, new) -> None:
        """Record run ``index``: ``old`` loaded from disk, ``new`` computed."""
        if old == new:
            return
        self.runs.append(index)
        for what, a, b in (
            ("trajectories", old.trajectories, new.trajectories),
            ("critical points", old.critical_points, new.critical_points),
            ("axis events", old.imag_axis_events, new.imag_axis_events),
        ):
            if len(a) != len(b):
                self.counts.append(f"run {index}: {what} {len(a)} -> {len(b)}")
        ends = [[t.termination for t in r.trajectories] for r in (old, new)]
        if ends[0] != ends[1]:
            self.counts.append(f"run {index}: trajectory terminations differ")
        for t_old, t_new in zip(old.trajectories, new.trajectories):
            self._points(t_old.points, t_new.points)
        self._pairs("origins", [_cp_values(t.origin) for t in old.trajectories],
                    [_cp_values(t.origin) for t in new.trajectories])
        self._pairs("critical points", [_cp_values(c) for c in old.critical_points],
                    [_cp_values(c) for c in new.critical_points])
        self._events(old.imag_axis_events, new.imag_axis_events)
        self._pairs("stability intervals", old.stability_intervals, new.stability_intervals)

    def last_bit_breach(self) -> str | None:
        """What breaks README's last-bit rule for the reference workload, or
        None: the benchmark's golden check compares the axis-event rows in
        order, so no tie group may be reordered and no axis event may move
        (nor any run gain or lose one)."""
        what = []
        if self.reordered:
            what.append(f"axis-event tie groups reordered: {self.reordered}")
        if self.ulps["axis events"]:
            what.append(f"axis events moved: up to {self.ulps['axis events']} ulp")
        if self.recounted_events:
            what.append(f"runs whose axis-event count changed: {self.recounted_events}")
        return "; ".join(what) or None

    def report(self, total: int) -> list[str]:
        if not self.runs:
            return [f"  all {total} runs equal"]
        lines = [f"  {len(self.runs)} of {total} runs differ: {self.runs}"]
        lines += [f"  {c}" for c in self.counts]
        moved = ", ".join(f"{area} {self.ulps[area]}" for area in self.AREAS)
        lines.append(f"  largest ulp change: {moved}")
        lines.append(f"  axis-event tie groups reordered: {self.reordered}")
        lines.append(f"  points added {self.added}, removed {self.removed}")
        return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--expect", metavar="SHA256", help="exit 1 unless the total equals this")
    parser.add_argument("--keep", metavar="DIR", help="save each run's result.json under DIR")
    parser.add_argument("--against", metavar="DIR",
                        help="report what moved against the results saved under DIR")
    args = parser.parse_args()
    report: list[str] = []
    total, locus, svg = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    runs = 0
    errors, rewrites, breaches = [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        reused_dir = os.path.join(tmp, "rewritten")
        for seed in SEEDS:
            for workload in WORKLOADS:
                if workload == "reference" and seed != SEEDS[0]:
                    continue  # the reference problems do not depend on the seed
                part, locus_part, svg_part = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
                problems = workloads.build(workload, seed)
                changes = Changes()
                for i, problem in enumerate(problems):
                    name = f"{workload}_{seed}_{i}"
                    work_dir = os.path.join(tmp, name)
                    run, run_locus, error, result = digest_run(problem, work_dir)
                    if error is not None:
                        errors.append(f"{workload} seed {seed} problem {i}: {error}")
                    error = rewrite_error(result, work_dir, reused_dir)
                    if error is not None:
                        rewrites.append(f"{workload} seed {seed} problem {i}: {error}")
                    if args.keep is not None:
                        os.makedirs(os.path.join(args.keep, name), exist_ok=True)
                        shutil.copy(os.path.join(work_dir, "result.json"),
                                    os.path.join(args.keep, name, "result.json"))
                    if args.against is not None:
                        changes.add(i, load_result(os.path.join(args.against, name)), result)
                    part.update(run)
                    total.update(run)
                    locus_part.update(run_locus)
                    locus.update(run_locus)
                    run_svg = svg_digest(result)
                    svg_part.update(run_svg)
                    svg.update(run_svg)
                runs += len(problems)
                print(
                    f"{workload} seed {seed} ({len(problems)} runs): {part.hexdigest()}"
                    f"  locus {locus_part.hexdigest()}  svg {svg_part.hexdigest()}"
                )
                if args.against is not None:
                    report += [f"{workload} seed {seed} against {args.against}:"]
                    report += changes.report(len(problems))
                    breach = changes.last_bit_breach() if workload == "reference" else None
                    if breach is not None:
                        breaches.append(f"{workload} seed {seed}: {breach}")
    print(f"{runs} runs, {runs - len(errors)} read back exactly")
    print(f"{runs - len(rewrites)} rewritten in place exactly")
    print(f"locus {locus.hexdigest()}")
    print(f"svg {svg.hexdigest()}")
    print(total.hexdigest())
    for line in report:
        print(line)
    for error in errors:
        print(f"ROUND TRIP: {error}", file=sys.stderr)
    for error in rewrites:
        print(f"REWRITE: {error}", file=sys.stderr)
    for breach in breaches:
        print(f"LAST-BIT RULE: {breach} (on the reference workload no axis event may move "
              "and no tie group may be reordered)", file=sys.stderr)
    status = 1 if errors or rewrites or breaches else 0
    if args.expect is not None:
        print(f"expected {args.expect}")
        if total.hexdigest() != args.expect.strip().lower():
            print("MISMATCH", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
