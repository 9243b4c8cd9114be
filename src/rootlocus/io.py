"""Problem-file parsing and result serialization.

The problem file is a JSON document:

    {
      "plant": {"zeros": [[re, im], ...], "poles": [[re, im], ...],
                "gain": 1.0, "delay": 1.0},
      "locus": {"kind": "gain" | "delay", "sigma0": -1.0, "lambda_max": 5.0}
    }

"zeros" may be left out; every other key is required, and any other key is a
parse error.  Step control is fixed and has no settings in the file.

Results are written as one structured JSON file plus per-trajectory CSVs, a
critical-points CSV and a stability-intervals text file.  All floats are
serialized with 17 significant digits, and ``load_result`` reads every one
back as a float, so a loaded result holds the computed values bit for bit
(-0.0 included) and compares equal to the computed one with ``==``.  A
point's residual is inf where e^M overflows; ``result.json`` writes it as
``json.dumps`` does, ``Infinity``, and the CSV as ``inf``.  A file that
exists is rewritten in place and cut to its new length.
"""

from __future__ import annotations

import json
import os

from .continuation import Termination, Trajectory, TrajectoryPoint
from .critical import CriticalKind, CriticalPoint
from .engine import ImagAxisEvent, RootLocusResult
from .errors import ParseError
from .plant import LocusKind, LocusProblem, Plant

# the keys of a problem document and of its two objects
_PROBLEM_KEYS = ("plant", "locus")
_PLANT_KEYS = ("zeros", "poles", "gain", "delay")
_LOCUS_KEYS = ("kind", "sigma0", "lambda_max")


# a point's CSV line, each field with 17 significant digits
_POINT_CSV = "%.17g,%.17g,%.17g,%.17g"
# a point's non-finite fields as json.dumps writes them; ".17g" writes the keys
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


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


def _object(raw, keys, where):
    """``raw``, an object with no key outside ``keys``."""
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: expected an object")
    for key in raw:
        if key not in keys:
            raise ParseError(f"{where}.{key}: unknown key; valid keys are {', '.join(keys)}")
    return raw


def parse_problem_dict(doc: dict, where: str = "problem") -> LocusProblem:
    _object(doc, _PROBLEM_KEYS, where)
    plant_doc = _object(_require(doc, "plant", where), _PLANT_KEYS, f"{where}.plant")
    locus_doc = _object(_require(doc, "locus", where), _LOCUS_KEYS, f"{where}.locus")
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
    return LocusProblem(
        kind=kind,
        sigma0=_real(_require(locus_doc, "sigma0", f"{where}.locus"), f"{where}.locus.sigma0"),
        lambda_max=_real(
            _require(locus_doc, "lambda_max", f"{where}.locus"), f"{where}.locus.lambda_max"
        ),
        plant=plant,
    )


def parse_problem(path: str) -> LocusProblem:
    """Read and validate a problem file; raises ParseError or ValidationError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_problem_dict(doc, where=path)


def _leaf(v, kind=float):
    """``v``, a leaf of ``result.json`` of type ``kind``; TypeError if not."""
    if type(v) is not kind:
        raise TypeError(f"expected a {kind.__name__}, got {v!r}")
    return v


def _int(v) -> int:
    """The integer the float ``v`` holds; ValueError or OverflowError if none."""
    n = int(_leaf(v))
    if n != v:
        raise ValueError(f"expected an integer, got {v!r}")
    return n


def _critical_from_dict(doc: dict) -> CriticalPoint:
    return CriticalPoint(
        CriticalKind(doc["kind"]),
        complex(_leaf(doc["sigma"]), _leaf(doc["omega"])),
        _leaf(doc["lambda"]),
        _int(doc["multiplicity"]),
        [tuple(map(_leaf, d)) for d in doc["directions"]],
    )


def result_from_dict(doc: dict) -> RootLocusResult:
    """The result in ``doc``, ``result.json`` parsed with every number a float
    (as ``load_result`` parses it); the integer fields are made ints here.
    Raises TypeError or ValueError for a leaf of the wrong type."""
    problem = parse_problem_dict(doc["problem"], where="result.problem")
    trajectories = []
    for t in doc["trajectories"]:
        # a row of five floats in one check; any other row leaf by leaf, so
        # that its error is the one ``_leaf`` or the constructor raises
        points = [
            TrajectoryPoint(*row)
            if type(row) is list and len(row) == 5
            and type(row[0]) is type(row[1]) is type(row[2]) is type(row[3]) is type(row[4])
            is float
            else TrajectoryPoint(*map(_leaf, row))
            for row in t["points"]
        ]
        trajectories.append(
            Trajectory(
                _critical_from_dict(t["origin"]),
                points,
                Termination(t["termination"]),
                _leaf(t.get("note", ""), str),
            )
        )
    events = [
        ImagAxisEvent(_leaf(e["lambda"]), _leaf(e["omega"]), _int(e["direction"]))
        for e in doc["imag_axis_events"]
    ]
    return RootLocusResult(
        problem,
        trajectories,
        [_critical_from_dict(c) for c in doc["critical_points"]],
        events,
        [(_leaf(a), _leaf(b)) for a, b in doc["stability_intervals"]],
        _int(doc["initial_unstable_count"]),
        [_leaf(w, str) for w in doc["warnings"]],
    )


def _obj(pairs) -> str:
    return "{" + ", ".join(f'"{k}": {v}' for k, v in pairs) + "}"


def _arr(items) -> str:
    return "[" + ", ".join(items) + "]"


# the fixed tokens of result.json: every kind and termination, and the
# integers a multiplicity or a direction takes, as json.dumps writes them
_TOKENS = {v: json.dumps(v.value) for v in (*CriticalKind, *Termination)}
_TOKENS.update((n, json.dumps(n)) for n in range(-1, 10))


def _token(v) -> str:
    """``json.dumps`` of a kind, a termination or an int, from ``_TOKENS``."""
    text = _TOKENS.get(v)
    return text if text is not None else json.dumps(v)


def _critical_json(cp: CriticalPoint) -> str:
    return _obj([
        ("kind", _TOKENS[cp.kind]),
        ("sigma", _fmt(cp.root.real)),
        ("omega", _fmt(cp.root.imag)),
        ("lambda", _fmt(cp.lam)),
        ("multiplicity", _token(cp.multiplicity)),
        ("directions", _arr(f"[{_fmt(d[0])}, {_fmt(d[1])}, {_fmt(d[2])}]"
                            for d in cp.directions)),
    ])


def _point_json(line: str, step: float) -> str:
    """A point's ``result.json`` row, from its CSV ``line`` and its step."""
    row = "[%s, %.17g]" % (line.replace(",", ", "), step)
    if "n" in row:  # inf or nan
        row = "[" + ", ".join(_NON_FINITE.get(v, v) for v in row[1:-1].split(", ")) + "]"
    return row


def _result_json(result: RootLocusResult, lines: list[list[str]]) -> str:
    """``result.json``, floats with 17 significant digits; ``lines`` holds each
    trajectory's point CSV lines."""
    problem, plant = result.problem, result.problem.plant
    problem_json = _obj([
        ("plant", _obj([
            ("zeros", _arr(f"[{_fmt(z.real)}, {_fmt(z.imag)}]" for z in plant.zeros)),
            ("poles", _arr(f"[{_fmt(p.real)}, {_fmt(p.imag)}]" for p in plant.poles)),
            ("gain", _fmt(plant.gain)),
            ("delay", _fmt(plant.delay)),
        ])),
        ("locus", _obj([
            ("kind", json.dumps(problem.kind.value)),
            ("sigma0", _fmt(problem.sigma0)),
            ("lambda_max", _fmt(problem.lambda_max)),
        ])),
    ])
    trajectories = _arr(
        _obj([
            ("id", str(i)),
            ("origin", _critical_json(t.origin)),
            ("termination", _TOKENS[t.termination]),
            ("note", json.dumps(t.note)),
            ("points", _arr(
                _point_json(line, p.step_used) for line, p in zip(traj_lines, t.points)
            )),
        ])
        for i, (t, traj_lines) in enumerate(zip(result.trajectories, lines))
    )
    events = _arr(
        _obj([("lambda", _fmt(e.lam)), ("omega", _fmt(e.omega)),
              ("direction", _token(e.direction))])
        for e in result.imag_axis_events
    )
    return _obj([
        ("problem", problem_json),
        ("trajectories", trajectories),
        ("critical_points", _arr(_critical_json(cp) for cp in result.critical_points)),
        ("imag_axis_events", events),
        ("stability_intervals", _arr(f"[{_fmt(a)}, {_fmt(b)}]"
                                     for a, b in result.stability_intervals)),
        ("initial_unstable_count", json.dumps(result.initial_unstable_count)),
        ("warnings", _arr(map(json.dumps, result.warnings))),
    ]) + "\n"


def _point_lines(result: RootLocusResult) -> list[list[str]]:
    """Each trajectory's points as CSV lines of sigma, omega, lambda, residual."""
    return [
        [_POINT_CSV % (p.sigma, p.omega, p.lam, p.residual) for p in t.points]
        for t in result.trajectories
    ]


def _keep_contents(path, flags):
    """``open``'s opener for "wb" without O_TRUNC: the flags "wb" passes are
    O_WRONLY | O_CREAT | O_TRUNC, with O_BINARY on Windows and close-on-exec;
    a new file gets mode 0o666 (less the umask) as under "wb", where
    ``os.open`` alone would give 0o777."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_file(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` in place: over any bytes the file holds, then
    cut it to ``len(data)``.  Truncating a file that holds data to zero first
    frees its blocks and, on ext4, starts writeback when it is closed; a
    rewrite of the same few blocks does neither.  Nothing is fsynced."""
    try:
        with open(path, "wb", opener=_keep_contents) as fh:
            fh.write(data)
            fh.truncate()
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc


def emit_results(result: RootLocusResult, out_dir: str) -> list[str]:
    """Write the result files into ``out_dir``; returns the written paths.

    Each point's fields are formatted once, into its CSV line, and its
    ``result.json`` row is made from that line."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def write_text(name, text):
        p = os.path.join(out_dir, name)
        _write_file(p, text.encode("utf-8"))  # bytes skip the text layer's setup
        written.append(p)

    point_lines = _point_lines(result)
    write_text("result.json", _result_json(result, point_lines))

    for i, traj_lines in enumerate(point_lines):
        lines = ["sigma,omega,lambda,residual", *traj_lines]
        write_text(f"trajectory_{i:04d}.csv", "\n".join(lines) + "\n")

    lines = ["kind,sigma,omega,lambda,multiplicity"]
    for cp in result.critical_points:
        lines.append(
            ",".join(
                [cp.kind.value, _fmt(cp.root.real), _fmt(cp.root.imag),
                 _fmt(cp.lam), str(cp.multiplicity)]
            )
        )
    write_text("critical_points.csv", "\n".join(lines) + "\n")

    lines = [f"{_fmt(a)} {_fmt(b)}" for a, b in result.stability_intervals]
    write_text("stability_intervals.txt", "\n".join(lines) + ("\n" if lines else ""))
    return written


def load_result(out_dir: str) -> RootLocusResult:
    """Parse a result directory written by emit_results: the result as it was
    computed, every float with the bits it had (``-0`` is read as -0.0).

    Raises ParseError for a missing or malformed ``result.json``, and
    ValidationError for a problem in it that the validator rejects."""
    p = os.path.join(out_dir, "result.json")
    try:
        with open(p, encoding="utf-8") as fh:
            doc = json.load(fh, parse_int=float)
    except OSError as exc:
        raise ParseError(f"{p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{p}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    try:
        return result_from_dict(doc)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # a missing key, a value of the wrong type, an unknown enum value, an
        # infinite integer
        raise ParseError(f"{p}: malformed result ({type(exc).__name__}: {exc})") from exc


def results_equal(a: RootLocusResult, b: RootLocusResult) -> bool:
    """Field-for-field equality of two results: ``a == b``."""
    return a == b
