"""Problem parsing, result serialization, round trips."""

import dataclasses
import json
import math
import os
import re
import stat

import numpy as np
import pytest

from rootlocus.continuation import Termination, Trajectory, TrajectoryPoint
from rootlocus.engine import compute_root_locus
from rootlocus.errors import ParseError, ValidationError
from rootlocus.io import (
    emit_results,
    load_result,
    parse_problem,
    parse_problem_dict,
    results_equal,
)
from rootlocus.plant import LocusKind, LocusProblem

from conftest import first_order_plant


EXAMPLE3_DOC = {
    "plant": {
        "zeros": [[5.0, 5.0], [5.0, -5.0]],
        "poles": [[-0.5, 0.0], [-1.0, 0.0], [-2.5, 0.0]],
        "gain": 1.0,
        "delay": 1.0,
    },
    "locus": {"kind": "gain", "sigma0": -3.5, "lambda_max": 5.0},
}


def _write(tmp_path, doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_parse_example3(tmp_path):
    problem = parse_problem(_write(tmp_path, EXAMPLE3_DOC))
    assert problem.kind is LocusKind.GAIN
    assert problem.sigma0 == -3.5
    assert len(problem.plant.poles) == 3
    # the stated poles factor the cubic s^3 + 4s^2 + 4.25s + 1.25
    assert np.poly([-0.5, -1.0, -2.5]) == pytest.approx([1.0, 4.0, 4.25, 1.25])


def test_parse_errors_name_the_field(tmp_path):
    doc = {"plant": dict(EXAMPLE3_DOC["plant"]), "locus": dict(EXAMPLE3_DOC["locus"])}
    del doc["plant"]["gain"]
    with pytest.raises(ParseError, match=r"plant.*gain"):
        parse_problem(_write(tmp_path, doc))

    doc = {"plant": EXAMPLE3_DOC["plant"], "locus": dict(EXAMPLE3_DOC["locus"], kind="nope")}
    with pytest.raises(ParseError, match="gain.*delay|kind"):
        parse_problem(_write(tmp_path, doc))

    doc = {"plant": dict(EXAMPLE3_DOC["plant"], bogus=1), "locus": EXAMPLE3_DOC["locus"]}
    with pytest.raises(ParseError, match=r"plant\.bogus"):
        parse_problem(_write(tmp_path, doc))

    bad = {"plant": dict(EXAMPLE3_DOC["plant"], poles=[[1.0]]), "locus": EXAMPLE3_DOC["locus"]}
    with pytest.raises(ParseError, match=r"poles\[0\]"):
        parse_problem(_write(tmp_path, bad))


def test_parse_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError, match="broken.json"):
        parse_problem(str(path))


def test_parse_missing_file():
    with pytest.raises(ParseError):
        parse_problem("/nonexistent/problem.json")


def test_validation_pole_on_boundary(tmp_path):
    doc = {
        "plant": {"zeros": [], "poles": [[-1.0, 0.0]], "gain": 1.0, "delay": 1.0},
        "locus": {"kind": "gain", "sigma0": -1.0, "lambda_max": 1.0},
    }
    with pytest.raises(ValidationError, match="boundary"):
        parse_problem(_write(tmp_path, doc))


def test_validation_biproper_bound_message(tmp_path):
    doc = {
        "plant": {"zeros": [[-2.0, 0.0]], "poles": [[-1.0, 0.0]], "gain": 3.0, "delay": 1.0},
        "locus": {"kind": "gain", "sigma0": -0.5, "lambda_max": 5.0},
    }
    with pytest.raises(ValidationError, match="lambda_max"):
        parse_problem(_write(tmp_path, doc))


def _doc(plant=None, locus=None):
    """A one-pole gain problem with the given plant and locus fields replaced."""
    doc = {
        "plant": {"zeros": [], "poles": [[-1.0, 0.0]], "gain": 1.0, "delay": 1.0},
        "locus": {"kind": "gain", "sigma0": -0.5, "lambda_max": 1.0},
    }
    doc["plant"].update(plant or {})
    doc["locus"].update(locus or {})
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        _doc(locus={"lambda_max": math.inf}),
        _doc(locus={"sigma0": -math.inf}),
        _doc(plant={"gain": math.inf}),
        _doc(plant={"delay": math.inf}),
        _doc(plant={"poles": [[math.nan, 0.0]]}),
        _doc(plant={"zeros": [[math.inf, 0.0]], "poles": [[-1.0, 0.0], [-2.0, 0.0]]}),
    ],
)
def test_validation_rejects_non_finite_json_numbers(tmp_path, doc):
    # json writes these as Infinity and NaN, and json.load reads them back
    assert "Infinity" in json.dumps(doc) or "NaN" in json.dumps(doc)
    with pytest.raises(ValidationError, match="finite"):
        parse_problem(_write(tmp_path, doc))


@pytest.mark.parametrize(
    "doc, field",
    [
        (_doc(plant={"poles": [[True, False]]}), "plant.poles[0][0]"),
        (_doc(plant={"poles": [["-1", "0"]]}), "plant.poles[0][0]"),
        (_doc(plant={"zeros": [[-2.0, None]], "poles": [[-1, 0], [-3, 0]]}), "plant.zeros[0][1]"),
    ],
)
def test_parse_rejects_non_numbers(tmp_path, doc, field):
    with pytest.raises(ParseError, match=re.escape(field)):
        parse_problem(_write(tmp_path, doc))


def test_problem_dict_round_trip(tmp_path):
    # the problem section of result.json is a problem document
    problem = LocusProblem(LocusKind.GAIN, -1.5, 2.0, first_order_plant())
    emit_results(compute_root_locus(problem), str(tmp_path))
    doc = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    again = parse_problem_dict(doc["problem"])
    assert again == problem


@pytest.fixture(scope="module")
def small_result():
    problem = LocusProblem(LocusKind.GAIN, -1.5, 5.0, first_order_plant())
    return compute_root_locus(problem)


def test_emit_and_load_round_trip(small_result, tmp_path):
    out = tmp_path / "out"
    written = emit_results(small_result, str(out))
    names = {os.path.basename(p) for p in written}
    assert "result.json" in names
    assert "critical_points.csv" in names
    assert "stability_intervals.txt" in names
    assert any(n.startswith("trajectory_") for n in names)

    loaded = load_result(str(out))
    assert results_equal(loaded, small_result)
    # emitting the loaded result reproduces the files byte for byte
    out2 = tmp_path / "out2"
    emit_results(loaded, str(out2))
    for name in sorted(names):
        a = (out / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, name


def test_load_result_names_the_file_of_a_missing_directory(tmp_path):
    missing = tmp_path / "nowhere"
    with pytest.raises(ParseError, match=re.escape(str(missing / "result.json"))):
        load_result(str(missing))


def test_load_result_names_the_file_of_a_truncated_result(small_result, tmp_path):
    emit_results(small_result, str(tmp_path))
    path = tmp_path / "result.json"
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) // 2], encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(str(path)) + r":\d+:\d+: "):
        load_result(str(tmp_path))


def test_trajectory_csv_shape(small_result, tmp_path):
    out = tmp_path / "csv"
    emit_results(small_result, str(out))
    text = (out / "trajectory_0000.csv").read_text(encoding="utf-8")
    lines = text.strip().split("\n")
    assert lines[0] == "sigma,omega,lambda,residual"
    assert len(lines) == 1 + len(small_result.trajectories[0].points)
    lams = [float(l.split(",")[2]) for l in lines[1:]]
    assert all(b >= a - 1e-12 for a, b in zip(lams, lams[1:]))


def test_seventeen_digit_floats_round_trip(small_result, tmp_path):
    emit_results(small_result, str(tmp_path))
    doc = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    pt = small_result.trajectories[0].points[1]
    assert doc["trajectories"][0]["points"][1][0] == pt.sigma
    rng = np.random.default_rng(3)
    for x in rng.standard_normal(100):
        assert float(format(float(x), ".17g")) == float(x)


def test_emit_empty_result(tmp_path):
    # region contains no starting root and no crossing below lambda_max
    problem = LocusProblem(LocusKind.GAIN, -0.5, 1.0, first_order_plant())
    result = compute_root_locus(problem)
    assert result.trajectories == []
    out = tmp_path / "empty"
    emit_results(result, str(out))
    assert (out / "critical_points.csv").read_text(encoding="utf-8").startswith("kind,")
    assert (out / "stability_intervals.txt").read_text(encoding="utf-8") != ""
    loaded = load_result(str(out))
    assert results_equal(loaded, result)


# --- byte identity against the recursive writer ------------------------------


def _iter_fmt(o):
    """The recursive writer ``result.json`` was first written with: floats
    with 17 significant digits, everything else through ``json.dumps``; a
    non-finite float as ``json.dumps`` writes it, so that the file parses."""
    if isinstance(o, float):
        yield format(o, ".17g") if math.isfinite(o) else json.dumps(o)
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


# result.json's keys, in their written order
_RESULT_KEYS = ["problem", "trajectories", "critical_points", "imag_axis_events",
                "stability_intervals", "initial_unstable_count", "warnings"]
_PLANT_KEYS = ["zeros", "poles", "gain", "delay"]
_LOCUS_KEYS = ["kind", "sigma0", "lambda_max"]
_TRAJECTORY_KEYS = ["id", "origin", "termination", "note", "points"]
_CRITICAL_KEYS = ["kind", "sigma", "omega", "lambda", "multiplicity", "directions"]
_EVENT_KEYS = ["lambda", "omega", "direction"]


def _assert_result_keys(doc):
    assert list(doc) == _RESULT_KEYS
    assert list(doc["problem"]) == ["plant", "locus"]
    assert list(doc["problem"]["plant"]) == _PLANT_KEYS
    assert list(doc["problem"]["locus"]) == _LOCUS_KEYS
    for i, traj in enumerate(doc["trajectories"]):
        assert list(traj) == _TRAJECTORY_KEYS and traj["id"] == i
        assert list(traj["origin"]) == _CRITICAL_KEYS
        assert all(len(row) == 5 for row in traj["points"])
    assert all(list(cp) == _CRITICAL_KEYS for cp in doc["critical_points"])
    assert all(list(ev) == _EVENT_KEYS for ev in doc["imag_axis_events"])


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


def _assert_identical(loaded, result):
    """``loaded == result``, and every float of ``loaded`` is a float with
    the bits of the computed one (so -0.0 is not 0.0)."""
    assert loaded == result
    for got, want in zip(_leaves(loaded), _leaves(result), strict=True):
        if isinstance(want, float):
            assert type(got) is float and got.hex() == want.hex(), (got, want)
        else:
            assert type(got) is type(want) and got == want, (got, want)


def _reference_files(result) -> dict[str, str]:
    """The CSV and text files ``emit_results`` writes, built field by field
    as the recursive writer did."""
    fmt = lambda x: format(float(x), ".17g")  # noqa: E731
    files = {}
    for i, traj in enumerate(result.trajectories):
        rows = ["sigma,omega,lambda,residual"]
        rows += [",".join(fmt(v) for v in (p.sigma, p.omega, p.lam, p.residual))
                 for p in traj.points]
        files[f"trajectory_{i:04d}.csv"] = "\n".join(rows) + "\n"
    rows = ["kind,sigma,omega,lambda,multiplicity"]
    for cp in result.critical_points:
        rows.append(",".join([cp.kind.value, fmt(cp.root.real), fmt(cp.root.imag),
                              fmt(cp.lam), str(cp.multiplicity)]))
    files["critical_points.csv"] = "\n".join(rows) + "\n"
    lines = [f"{fmt(a)} {fmt(b)}" for a, b in result.stability_intervals]
    files["stability_intervals.txt"] = "\n".join(lines) + ("\n" if lines else "")
    return files


def _assert_emitted_like_reference(result, out):
    written = emit_results(result, str(out))
    want = _reference_files(result)
    assert sorted(os.path.basename(p) for p in written) == sorted([*want, "result.json"])
    for name, text in want.items():
        assert (out / name).read_bytes() == text.encode("utf-8"), name
    # result.json is what the recursive writer makes of its own parse, so
    # every number in it is the 17-digit form of the float it parses to ...
    text = (out / "result.json").read_bytes().decode("utf-8")
    doc = json.loads(text, parse_int=float)
    assert "".join(_iter_fmt(doc)) + "\n" == text
    _assert_result_keys(doc)
    for i, traj in enumerate(doc["trajectories"]):
        csv_rows = want[f"trajectory_{i:04d}.csv"].split("\n")[1:-1]
        assert [",".join(format(v, ".17g") for v in row[:4]) for row in traj["points"]] == csv_rows
    # ... and those floats are the computed ones, bit for bit
    _assert_identical(load_result(str(out)), result)


@pytest.mark.parametrize(
    "name", ["example1_result", "example2_result", "example3_result", "turning_point_result"]
)
def test_emit_matches_the_recursive_writer_on_reference_results(name, request, tmp_path):
    _assert_emitted_like_reference(request.getfixturevalue(name), tmp_path / name)


def test_emit_over_earlier_results_matches_the_recursive_writer(request, tmp_path):
    # each result is written over the one before, so that files both shrink
    # and grow; every file an emit names must then hold only its own bytes
    out = tmp_path / "out"
    sizes = {}
    shrank = grew = 0
    for name in ["example3_result", "turning_point_result", "example2_result",
                 "example1_result"]:
        result = request.getfixturevalue(name)
        _assert_emitted_like_reference(result, out)
        for f in ["result.json", *_reference_files(result)]:
            before, sizes[f] = sizes.get(f), (out / f).stat().st_size
            shrank += before is not None and sizes[f] < before
            grew += before is not None and sizes[f] > before
        if name == "turning_point_result":
            # example 3's trajectories beyond the turning point's 8 stay (ROADMAP item 15)
            stale = set(os.listdir(out)) - {"result.json", *_reference_files(result)}
            assert len(stale) == 51 and all(f.startswith("trajectory_") for f in stale)
    assert shrank and grew


def test_written_files_get_the_mode_of_open_wb(small_result, tmp_path):
    # a new file gets 0o666 less the umask, as under open(p, "wb"); a file
    # that exists keeps its mode
    probe = tmp_path / "probe"
    with open(probe, "wb"):
        pass
    out = tmp_path / "out"
    written = emit_results(small_result, str(out))
    want = stat.S_IMODE(probe.stat().st_mode)
    assert all(stat.S_IMODE(os.stat(p).st_mode) == want for p in written)
    path = out / "result.json"
    text = path.read_bytes()
    path.write_bytes(text + b"stale tail")
    path.chmod(0o600)
    emit_results(small_result, str(out))
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert path.read_bytes() == text


def test_emit_names_a_result_path_it_cannot_write(small_result, tmp_path):
    (tmp_path / "result.json").mkdir()
    with pytest.raises(OSError, match=re.escape(f"writing {tmp_path / 'result.json'}: ")):
        emit_results(small_result, str(tmp_path))


def test_emit_matches_the_recursive_writer_on_an_empty_result(tmp_path):
    result = compute_root_locus(LocusProblem(LocusKind.GAIN, -0.5, 1.0, first_order_plant()))
    assert result.trajectories == [] and result.imag_axis_events == []
    _assert_emitted_like_reference(result, tmp_path / "empty")


def test_emit_matches_the_recursive_writer_on_escapes_and_negative_zero(small_result, tmp_path):
    traj = small_result.trajectories[0]
    # the extremes of the single-format writer: a subnormal, the largest
    # float and the inf residual of an overflowing e^M
    extreme = TrajectoryPoint(-0.0, 5e-324, 1.7976931348623157e308, math.inf, 0.25)
    odd = Trajectory(
        traj.origin,
        [TrajectoryPoint(-0.0, 0.0, 0.5, -0.0, -0.0), extreme] + traj.points[1:],
        Termination.STALLED,
        'stalled at "s" = C:\\path, λ ≈ 1e-3 \u2603\n',
    )
    result = dataclasses.replace(
        small_result,
        trajectories=[odd] + small_result.trajectories[1:],
        warnings=['trajectory "0" stalled \\ at σ = -0', "plain", "\x00\x1f tab\t"],
    )
    _assert_emitted_like_reference(result, tmp_path / "odd")
    text = (tmp_path / "odd" / "result.json").read_text(encoding="utf-8")
    assert "[-0, 0, 0.5, -0, -0]" in text
    assert "[-0, 4.9406564584124654e-324, 1.7976931348623157e+308, Infinity, 0.25]" in text
    csv = (tmp_path / "odd" / "trajectory_0000.csv").read_text(encoding="utf-8")
    assert "\n-0,4.9406564584124654e-324,1.7976931348623157e+308,inf\n" in csv
    assert "\\u03bb" in text and '\\"s\\"' in text and "C:\\\\path" in text


def test_load_result_returns_the_written_floats(small_result, tmp_path):
    traj = small_result.trajectories[0]
    odd = dataclasses.replace(
        traj, points=[TrajectoryPoint(-0.0, 0.0, 1.0, -0.0, 2.0)] + traj.points[1:]
    )
    result = dataclasses.replace(small_result, trajectories=[odd] + small_result.trajectories[1:])
    emit_results(result, str(tmp_path))
    loaded = load_result(str(tmp_path))
    point = dataclasses.astuple(loaded.trajectories[0].points[0])
    assert [type(v) for v in point] == [float] * 5
    assert [v.hex() for v in point] == [
        "-0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0", "-0x0.0p+0", "0x1.0000000000000p+1"
    ]
    assert type(loaded.initial_unstable_count) is int
    assert all(type(cp.multiplicity) is int for cp in loaded.critical_points)
    _assert_identical(loaded, result)


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda doc: {k: v for k, v in doc.items() if k != "trajectories"}, "KeyError"),
        (lambda doc: [doc], "TypeError"),
        (lambda doc: dict(doc, initial_unstable_count=math.inf), "OverflowError"),
    ],
    ids=["missing_trajectories", "top_level_array", "infinite_count"],
)
def test_load_result_raises_parse_error_for_a_malformed_result_json(
    small_result, tmp_path, edit, error
):
    emit_results(small_result, str(tmp_path))
    path = tmp_path / "result.json"
    doc = edit(json.loads(path.read_text(encoding="utf-8")))
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{path}: malformed result ({error}")):
        load_result(str(tmp_path))


def _set(path, value):
    """An edit of a result document: the leaf at ``path`` becomes ``value``."""

    def edit(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        doc[last] = value

    return edit


@pytest.mark.parametrize(
    "edit, error",
    [
        (_set(["warnings"], [1]), "TypeError: expected a str, got 1.0"),
        (_set(["trajectories", 0, "note"], 7), "TypeError: expected a str, got 7.0"),
        (
            _set(["trajectories", 0, "points", 1, 2], "0.5"),
            "TypeError: expected a float, got '0.5'",
        ),
        (
            _set(["trajectories", 0, "points", 1], [0.5, 0.5, 0.5, 0.5]),
            "TypeError: TrajectoryPoint.__init__() missing 1 required positional argument: "
            "'step_used'",
        ),
        (
            _set(["critical_points", 0, "multiplicity"], 2.5),
            "ValueError: expected an integer, got 2.5",
        ),
    ],
    ids=["number_warning", "number_note", "string_in_point_row", "four_field_point_row",
         "fractional_multiplicity"],
)
def test_load_result_checks_leaf_types(small_result, tmp_path, edit, error):
    emit_results(small_result, str(tmp_path))
    path = tmp_path / "result.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{path}: malformed result ({error})")):
        load_result(str(tmp_path))
