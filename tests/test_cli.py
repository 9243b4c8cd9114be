"""Command-line interface: exit codes, outputs, logging."""

import json
import os
import subprocess
import sys

import pytest

from rootlocus import cli, continuation
from rootlocus.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, main
from rootlocus.continuation import Termination
from rootlocus.errors import NoConvergenceError
from rootlocus.io import load_result


PROBLEM = {
    "plant": {
        "zeros": [[5.0, 5.0], [5.0, -5.0]],
        "poles": [[-0.5, 0.0], [-1.0, 0.0], [-2.5, 0.0]],
        "gain": 1.0,
        "delay": 1.0,
    },
    "locus": {"kind": "gain", "sigma0": -3.5, "lambda_max": 0.1},
}


def _write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_compute_success(tmp_path):
    problem = _write_problem(tmp_path, PROBLEM)
    out = tmp_path / "out"
    code = main(["compute", problem, "--out", str(out), "--svg"])
    assert code == EXIT_OK
    names = sorted(os.listdir(out))
    assert "result.json" in names
    assert "rootlocus.svg" in names
    assert "critical_points.csv" in names
    assert "stability_intervals.txt" in names
    assert any(n.startswith("trajectory_") for n in names)


def test_compute_window_and_workers(tmp_path):
    problem = _write_problem(tmp_path, PROBLEM)
    out = tmp_path / "out"
    code = main(
        ["compute", problem, "--out", str(out), "--svg",
         "--window", "-3.5", "0.5", "-2", "2"]
    )
    assert code == EXIT_OK
    # the engine is serial; the thread-count flag no longer exists
    with pytest.raises(SystemExit):
        main(["compute", problem, "--out", str(out), "--workers", "2"])


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    code = main(["compute", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_validation_error_exit_code(tmp_path, capsys):
    doc = dict(PROBLEM, locus={"kind": "gain", "sigma0": -1.0, "lambda_max": 0.1})
    problem = _write_problem(tmp_path, doc)
    code = main(["compute", problem, "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert "boundary" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["gain", "delay"])
def test_pole_within_proximity_of_the_boundary_exit_code(tmp_path, capsys, kind):
    doc = {
        "plant": {"zeros": [], "poles": [[-1.0 + 1.5e-9, 0.0], [-3.0, 0.0]],
                  "gain": 1.0, "delay": 1.0},
        "locus": {"kind": kind, "sigma0": -1.0, "lambda_max": 1.0},
    }
    problem = _write_problem(tmp_path, doc)
    code = main(["compute", problem, "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION == 3
    assert "boundary" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["gain", "delay"])
def test_asymmetric_plant_exit_code(tmp_path, capsys, kind):
    # the crossing search scans omega >= 0 only and mirrors what it finds, so
    # an asymmetric plant would lose its negative-frequency roots silently
    doc = {
        "plant": {"zeros": [], "poles": [[-0.3, 2.0], [-2.0, -0.5]], "gain": 3.0, "delay": 1.0},
        "locus": {"kind": kind, "sigma0": -1.0, "lambda_max": 1.0},
    }
    problem = _write_problem(tmp_path, doc)
    code = main(["compute", problem, "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION == 3
    assert "conjugate pairs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("demo", ["example3_gain.json", "example1_delay.json"])
def test_stalled_run_warns_and_exit_code(tmp_path, capsys, monkeypatch, demo):
    # a corrector that cannot converge stalls every traced trajectory: the run
    # still writes a readable result, warns once per stalled trajectory and
    # exits 4 (it used to overflow in the residual, or spawn from a "branch
    # point" far left of sigma0 and write inf)
    monkeypatch.setattr(continuation, "_MAX_NEWTON_ITERS", 1)
    monkeypatch.setattr(continuation, "_CORRECTOR_TOL", 1e-300)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos", demo)
    out = tmp_path / "out"
    assert main(["compute", path, "--out", str(out)]) == EXIT_NUMERICAL
    result = load_result(str(out))
    stalled = [t for t in result.trajectories if t.termination is Termination.STALLED]
    warned = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert stalled and len(warned) == len(stalled) == len(result.warnings)
    problem = result.problem
    for cp in result.critical_points:
        assert cp.root.real >= problem.sigma0 and 0.0 <= cp.lam <= problem.lambda_max


def test_solver_error_exit_code(tmp_path, capsys, monkeypatch):
    # a RootLocusError out of the engine is reported on stderr and exits 4,
    # with nothing written
    def failing(problem):
        raise NoConvergenceError("branch-point solve did not converge")

    monkeypatch.setattr(cli, "compute_root_locus", failing)
    problem, out = _write_problem(tmp_path, PROBLEM), tmp_path / "out"
    assert main(["compute", problem, "--out", str(out)]) == EXIT_NUMERICAL == 4
    assert capsys.readouterr().err == "error: branch-point solve did not converge\n"
    assert not out.exists()


def test_runs_are_byte_identical(tmp_path):
    problem = _write_problem(tmp_path, PROBLEM)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["compute", problem, "--out", str(out1), "--svg"]) == EXIT_OK
    assert main(["compute", problem, "--out", str(out2), "--svg"]) == EXIT_OK
    names1 = sorted(os.listdir(out1))
    assert names1 == sorted(os.listdir(out2))
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    # a third run rewrites the first run's files in place; lengthened first,
    # each must be cut back to the bytes of the fresh directory
    for name in names1:
        with open(out1 / name, "ab") as fh:
            fh.write(b"stale tail\n")
    assert main(["compute", problem, "--out", str(out1), "--svg"]) == EXIT_OK
    assert sorted(os.listdir(out1)) == names1
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_log_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ROOTLOCUS_LOG", "INFO")
    problem = _write_problem(tmp_path, PROBLEM)
    assert main(["compute", problem, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert "warning:" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "plant, locus, code",
    [
        ({"poles": [[float("nan"), 0.0]]}, {}, EXIT_VALIDATION),
        ({"delay": float("inf")}, {}, EXIT_VALIDATION),
        ({}, {"sigma0": float("-inf")}, EXIT_VALIDATION),
        ({"poles": [[True, False]]}, {}, EXIT_PARSE),
        ({"poles": [["-1", "0"]]}, {}, EXIT_PARSE),
    ],
)
def test_non_finite_and_non_numeric_problems_exit_code(tmp_path, capsys, plant, locus, code):
    doc = {
        "plant": {"zeros": [], "poles": [[-1.0, 0.0]], "gain": 1.0, "delay": 1.0, **plant},
        "locus": {"kind": "gain", "sigma0": -0.5, "lambda_max": 1.0, **locus},
    }
    problem = _write_problem(tmp_path, doc)
    assert main(["compute", problem, "--out", str(tmp_path / "out")]) == code
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "where, key, valid",
    [
        ((), "contination", "plant, locus"),
        ((), "continuation", "plant, locus"),
        (("plant",), "zeroes", "zeros, poles, gain, delay"),
        (("locus",), "lamda_max", "kind, sigma0, lambda_max"),
    ],
    ids=["top", "continuation", "plant", "locus"],
)
def test_unknown_key_exit_code(tmp_path, capsys, where, key, valid):
    # an unknown key used to be ignored (a misspelt "zeros" ran with no
    # zeros); a step-control block, which no longer sets anything, is one too
    doc = json.loads(json.dumps(PROBLEM))
    obj = doc[where[0]] if where else doc
    obj[key] = {"max_newton_iters": 1} if key == "continuation" else 1.0
    problem = _write_problem(tmp_path, doc)
    assert main(["compute", problem, "--out", str(tmp_path / "out")]) == EXIT_PARSE
    path = ".".join([problem, *where, key])
    assert f"error: {path}: unknown key; valid keys are {valid}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("window", [["1", "0", "-2", "2"], ["0", "1", "nan", "2"]])
def test_bad_window_exit_code(tmp_path, capsys, window):
    # a bad window used to fail in the SVG writer, after every result file was
    # written, with a traceback and exit 1
    problem = _write_problem(tmp_path, PROBLEM)
    code = main(["compute", problem, "--out", str(tmp_path / "out"), "--svg", "--window", *window])
    assert code == EXIT_PARSE
    assert "error: --window" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["BASIC_FORMAT", "verbose"])
def test_log_env_var_takes_only_level_names(tmp_path, capsys, monkeypatch, value):
    # BASIC_FORMAT used to name a logging attribute that is no level and crash
    # the run; an unknown name fell back to WARNING without a word
    monkeypatch.setenv("ROOTLOCUS_LOG", value)
    problem = _write_problem(tmp_path, PROBLEM)
    assert main(["compute", problem, "--out", str(tmp_path / "out")]) == EXIT_OK
    warned = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert len(warned) == 1 and repr(value) in warned[0] and "WARNING" in warned[0]


def test_import_loads_no_scipy():
    # scipy is a test dependency only; importing the library and its CLI in a
    # fresh interpreter must not load any part of it
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, rootlocus, rootlocus.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
