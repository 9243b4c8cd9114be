"""The demos run end to end in a fresh interpreter on the public API, so a
change to that API breaks the test suite and not only the README's examples."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def _run_demo(name, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_branch_point_walkthrough_demo():
    lines = _run_demo("branch_point_walkthrough.py")
    assert lines[0] == "59 trajectories traced"
    assert "  branch       s = -0.69762+0.00000j  lam = 0.000933  N = 2" in lines
    assert "unstable roots at lam = 0: 0" in lines
    assert lines[-1] == "stable gain intervals: [(0.0, 0.0703)]"


def test_delay_sweep_demo_writes_its_svg(tmp_path):
    svg = tmp_path / "sweep.svg"
    lines = _run_demo("delay_sweep.py", "--svg", str(svg))
    assert lines == [
        "24 trajectories, 20 imaginary-axis events",
        "stable delay intervals:",
        "  [0.8215, 1.5017]",
        "  [4.1077, 4.5051]",
        f"wrote {svg}",
    ]
    assert svg.read_text(encoding="utf-8").startswith("<svg")
