"""Problem-file parsing and result serialization.

The problem file is a JSON document:

    {
      "plant": {"zeros": [[re, im], ...], "poles": [[re, im], ...],
                "gain": 1.0, "delay": 1.0},
      "locus": {"kind": "gain" | "delay", "sigma0": -1.0, "lambda_max": 5.0},
      "continuation": { ... optional ContinuationConfig overrides ... }
    }

Results are written as one structured JSON file plus per-trajectory CSVs, a
critical-points CSV and a stability-intervals text file.  All floats are
serialized with 17 significant digits so that parsing the files back
reproduces the computed values bit for bit.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields

import numpy as np

from .continuation import ContinuationConfig, Termination, Trajectory, TrajectoryPoint
from .critical import CriticalKind, CriticalPoint
from .engine import ImagAxisEvent, RootLocusResult
from .errors import ParseError, ValidationError
from .plant import LocusKind, LocusProblem, Plant

# field name -> annotation ("float", "int" or "float | None")
_CONFIG_TYPES = {f.name: f.type for f in fields(ContinuationConfig)}


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _require(mapping, key, where):
    if key not in mapping:
        raise ParseError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _complex_list(raw, where):
    out = []
    if not isinstance(raw, list):
        raise ParseError(f"{where}: expected a list of [re, im] pairs")
    for i, item in enumerate(raw):
        if not (isinstance(item, list) and len(item) == 2):
            raise ParseError(f"{where}[{i}]: expected an [re, im] pair")
        re, im = (_real(v, f"{where}[{i}][{j}]") for j, v in enumerate(item))
        out.append(complex(re, im))
    return tuple(out)


def _real(raw, where):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ParseError(f"{where}: expected a real number, got {raw!r}")
    return float(raw)


def _config_value(raw, name, where):
    """A continuation override checked against the annotation of its field."""
    kind = _CONFIG_TYPES[name]
    if raw is None and kind == "float | None":
        return None
    if kind == "int":
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ParseError(f"{where}: expected an integer, got {raw!r}")
        return raw
    return _real(raw, where)


def parse_problem_dict(doc: dict, where: str = "problem") -> tuple[LocusProblem, ContinuationConfig]:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: top level must be an object")
    plant_doc = _require(doc, "plant", where)
    locus_doc = _require(doc, "locus", where)
    plant = Plant(
        zeros=_complex_list(plant_doc.get("zeros", []), f"{where}.plant.zeros"),
        poles=_complex_list(_require(plant_doc, "poles", f"{where}.plant"), f"{where}.plant.poles"),
        gain=_real(_require(plant_doc, "gain", f"{where}.plant"), f"{where}.plant.gain"),
        delay=_real(_require(plant_doc, "delay", f"{where}.plant"), f"{where}.plant.delay"),
    )
    kind_raw = _require(locus_doc, "kind", f"{where}.locus")
    try:
        kind = LocusKind(kind_raw)
    except ValueError:
        raise ParseError(
            f'{where}.locus.kind: expected "gain" or "delay", got {kind_raw!r}'
        ) from None
    problem = LocusProblem(
        kind=kind,
        sigma0=_real(_require(locus_doc, "sigma0", f"{where}.locus"), f"{where}.locus.sigma0"),
        lambda_max=_real(
            _require(locus_doc, "lambda_max", f"{where}.locus"), f"{where}.locus.lambda_max"
        ),
        plant=plant,
    )
    overrides = doc.get("continuation", {})
    if not isinstance(overrides, dict):
        raise ParseError(f"{where}.continuation: expected an object")
    unknown = set(overrides) - set(_CONFIG_TYPES)
    if unknown:
        raise ParseError(
            f"{where}.continuation: unknown fields {sorted(unknown)}; "
            f"valid fields are {sorted(_CONFIG_TYPES)}"
        )
    values = {
        name: _config_value(raw, name, f"{where}.continuation.{name}")
        for name, raw in overrides.items()
    }
    try:
        config = ContinuationConfig(**values)
    except ValueError as exc:
        raise ValidationError(f"{where}.continuation: {exc}") from None
    return problem, config


def parse_problem(path: str) -> tuple[LocusProblem, ContinuationConfig]:
    """Read and validate a problem file; raises ParseError or ValidationError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_problem_dict(doc, where=path)


def problem_to_dict(problem: LocusProblem) -> dict:
    return {
        "plant": {
            "zeros": [[z.real, z.imag] for z in problem.plant.zeros],
            "poles": [[p.real, p.imag] for p in problem.plant.poles],
            "gain": problem.plant.gain,
            "delay": problem.plant.delay,
        },
        "locus": {
            "kind": problem.kind.value,
            "sigma0": problem.sigma0,
            "lambda_max": problem.lambda_max,
        },
    }


def _point_row(pt: TrajectoryPoint) -> list[str]:
    return [_fmt(pt.sigma), _fmt(pt.omega), _fmt(pt.lam), _fmt(pt.residual)]


def _critical_to_dict(cp: CriticalPoint) -> dict:
    return {
        "kind": cp.kind.value,
        "sigma": float(cp.root.real),
        "omega": float(cp.root.imag),
        "lambda": float(cp.lam),
        "multiplicity": cp.multiplicity,
        "directions": [[float(d[0]), float(d[1]), float(d[2])] for d in cp.directions],
    }


def _critical_from_dict(doc: dict) -> CriticalPoint:
    cp = CriticalPoint(
        CriticalKind(doc["kind"]),
        complex(doc["sigma"], doc["omega"]),
        doc["lambda"],
        multiplicity=doc["multiplicity"],
    )
    cp.directions = [np.array(d) for d in doc["directions"]]
    return cp


def result_to_dict(result: RootLocusResult) -> dict:
    return {
        "problem": problem_to_dict(result.problem),
        "trajectories": [
            {
                "id": i,
                "origin": _critical_to_dict(t.origin),
                "termination": t.termination.value,
                "note": t.note,
                "points": [
                    [float(p.sigma), float(p.omega), float(p.lam),
                     float(p.residual), float(p.step_used)]
                    for p in t.points
                ],
            }
            for i, t in enumerate(result.trajectories)
        ],
        "critical_points": [_critical_to_dict(cp) for cp in result.critical_points],
        "imag_axis_events": [
            {"lambda": float(e.lam), "omega": float(e.omega), "direction": e.direction}
            for e in result.imag_axis_events
        ],
        "stability_intervals": [[float(a), float(b)] for a, b in result.stability_intervals],
        "initial_unstable_count": result.initial_unstable_count,
        "warnings": list(result.warnings),
    }


def result_from_dict(doc: dict) -> RootLocusResult:
    problem, _ = parse_problem_dict(doc["problem"], where="result.problem")
    trajectories = []
    for t in doc["trajectories"]:
        points = [TrajectoryPoint(*row) for row in t["points"]]
        trajectories.append(
            Trajectory(
                _critical_from_dict(t["origin"]),
                points,
                Termination(t["termination"]),
                t.get("note", ""),
            )
        )
    events = [
        ImagAxisEvent(e["lambda"], e["omega"], e["direction"])
        for e in doc["imag_axis_events"]
    ]
    return RootLocusResult(
        problem,
        trajectories,
        [_critical_from_dict(c) for c in doc["critical_points"]],
        events,
        [(a, b) for a, b in doc["stability_intervals"]],
        doc["initial_unstable_count"],
        list(doc["warnings"]),
    )


def _iter_fmt(o):
    if isinstance(o, float):
        yield _fmt(o)
    elif isinstance(o, dict):
        yield "{"
        first = True
        for k, v in o.items():
            if not first:
                yield ", "
            first = False
            yield json.dumps(str(k))
            yield ": "
            yield from _iter_fmt(v)
        yield "}"
    elif isinstance(o, (list, tuple)):
        yield "["
        for i, v in enumerate(o):
            if i:
                yield ", "
            yield from _iter_fmt(v)
        yield "]"
    else:
        yield json.dumps(o)


def dumps_result(result: RootLocusResult) -> str:
    return "".join(_iter_fmt(result_to_dict(result))) + "\n"


def emit_results(result: RootLocusResult, out_dir: str) -> list[str]:
    """Write the result files into ``out_dir``; returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def path_of(name):
        return os.path.join(out_dir, name)

    def write_text(name, text):
        p = path_of(name)
        try:
            with open(p, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"writing {p}: {exc}") from exc
        written.append(p)

    write_text("result.json", dumps_result(result))

    for i, traj in enumerate(result.trajectories):
        rows = ["sigma,omega,lambda,residual"]
        rows += [",".join(_point_row(p)) for p in traj.points]
        write_text(f"trajectory_{i:04d}.csv", "\n".join(rows) + "\n")

    rows = ["kind,sigma,omega,lambda,multiplicity"]
    for cp in result.critical_points:
        rows.append(
            ",".join(
                [cp.kind.value, _fmt(cp.root.real), _fmt(cp.root.imag),
                 _fmt(cp.lam), str(cp.multiplicity)]
            )
        )
    write_text("critical_points.csv", "\n".join(rows) + "\n")

    lines = [f"{_fmt(a)} {_fmt(b)}" for a, b in result.stability_intervals]
    write_text("stability_intervals.txt", "\n".join(lines) + ("\n" if lines else ""))
    return written


def load_result(out_dir: str) -> RootLocusResult:
    """Parse a result directory written by emit_results."""
    p = os.path.join(out_dir, "result.json")
    try:
        with open(p, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{p}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return result_from_dict(doc)


def results_equal(a: RootLocusResult, b: RootLocusResult) -> bool:
    """Field-for-field equality of two results (array-safe)."""
    return result_to_dict(a) == result_to_dict(b)
