"""SVG rendering: determinism, markers, windowing."""

import re

import pytest

from rootlocus.critical import CriticalKind
from rootlocus.svg import render_svg


def test_svg_is_deterministic(example3_result):
    a = render_svg(example3_result)
    b = render_svg(example3_result)
    assert a == b
    assert a.startswith("<svg")
    assert a.rstrip().endswith("</svg>")


def test_svg_structure(example3_result):
    doc = render_svg(example3_result)
    assert "Re(s)" in doc and "Im(s)" in doc
    assert "stroke-dasharray" in doc  # region boundary line
    traj_ids = set(re.findall(r'id="traj-(\d+)"', doc))
    assert len(traj_ids) == len(
        [t for t in example3_result.trajectories if len(t.points) >= 2]
    )


def test_svg_marker_counts(example3_result):
    doc = render_svg(example3_result)
    counts = {
        kind: doc.count(f'class="{kind}"')
        for kind in ("start", "branch", "crossing-in", "crossing-out")
    }
    want = {
        "start": CriticalKind.START,
        "branch": CriticalKind.BRANCH,
        "crossing-in": CriticalKind.CROSSING_IN,
        "crossing-out": CriticalKind.CROSSING_OUT,
    }
    for name, kind in want.items():
        expected = sum(1 for cp in example3_result.critical_points if cp.kind is kind)
        # markers outside the auto window may be dropped, never invented
        assert counts[name] <= expected
    assert counts["start"] >= 1
    assert counts["branch"] >= 1


def test_svg_upper_half_only(example3_result):
    doc = render_svg(example3_result, upper_half_only=True)
    # the omega = 0 axis maps to the bottom data edge: no polyline point below it
    bottom = None
    for m in re.finditer(r'points="([^"]+)"', doc):
        for pair in m.group(1).split():
            y = float(pair.split(",")[1])
            bottom = y if bottom is None else max(bottom, y)
    full = render_svg(example3_result, upper_half_only=False)
    assert doc != full
    assert bottom is not None


def test_svg_window_override(example3_result):
    doc = render_svg(example3_result, window=(-3.5, 0.5, -2.0, 2.0))
    assert doc == render_svg(example3_result, window=(-3.5, 0.5, -2.0, 2.0))
    assert doc != render_svg(example3_result)
