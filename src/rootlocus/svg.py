"""Static SVG rendering of a computed root locus.

Output is fully deterministic: element order follows the sorted result
collections, coordinates are written with fixed precision, and no timestamps
or generator metadata are embedded.
"""

from __future__ import annotations

import math

from .critical import CriticalKind
from .engine import RootLocusResult

_WIDTH = 800.0
_HEIGHT = 600.0
_MARGIN = 60.0
_UPPER_TOL = 1e-9


def _c(v: float) -> str:
    return f"{v:.3f}"


class _Frame:
    """Affine map from the (sigma, omega) window to SVG pixel coordinates."""

    def __init__(self, window):
        slo, shi, wlo, whi = window
        if not (slo < shi and wlo < whi):
            raise ValueError(f"degenerate plot window {window}")
        self.slo, self.shi, self.wlo, self.whi = slo, shi, wlo, whi
        self.kx = (_WIDTH - 2 * _MARGIN) / (shi - slo)
        self.ky = (_HEIGHT - 2 * _MARGIN) / (whi - wlo)

    def x(self, sigma: float) -> float:
        return _MARGIN + (sigma - self.slo) * self.kx

    def y(self, omega: float) -> float:
        return _HEIGHT - _MARGIN - (omega - self.wlo) * self.ky

    def contains(self, sigma: float, omega: float) -> bool:
        return self.slo <= sigma <= self.shi and self.wlo <= omega <= self.whi


def _auto_window(result: RootLocusResult, upper_half_only: bool):
    sigmas = [result.problem.sigma0]
    omegas = [0.0]
    for t in result.trajectories:
        sigmas += [p.sigma for p in t.points]
        omegas += [p.omega for p in t.points]
    for cp in result.critical_points:
        sigmas.append(cp.root.real)
        omegas.append(cp.root.imag)
    slo, shi = min(sigmas), max(sigmas)
    wlo, whi = min(omegas), max(omegas)
    if upper_half_only:
        wlo = 0.0
    pad_s = 0.05 * (shi - slo) + 0.1
    pad_w = 0.05 * (whi - wlo) + 0.1
    return (slo - pad_s, shi + pad_s, wlo - pad_w, whi + pad_w)


def _polyline_points(frame, pts, upper_half_only):
    # frame.x and frame.y written out, with the same operations in the same order
    slo, kx, wlo, ky = frame.slo, frame.kx, frame.wlo, frame.ky
    chunks: list[list[str]] = [[]]
    for p in pts:
        omega = p.omega
        if upper_half_only:
            if omega < -_UPPER_TOL:
                if chunks[-1]:
                    chunks.append([])
                continue
            omega = max(omega, 0.0)
        chunks[-1].append(
            "%.3f,%.3f" % (_MARGIN + (p.sigma - slo) * kx, _HEIGHT - _MARGIN - (omega - wlo) * ky)
        )
    return [c for c in chunks if len(c) >= 2]


def render_svg(
    result: RootLocusResult,
    window: tuple[float, float, float, float] | None = None,
    upper_half_only: bool = False,
) -> str:
    """Render the result as an SVG document string."""
    if window is None:
        window = _auto_window(result, upper_half_only)
    frame = _Frame(window)
    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_c(_WIDTH)}" '
        f'height="{_c(_HEIGHT)}" viewBox="0 0 {_c(_WIDTH)} {_c(_HEIGHT)}">'
    )
    out.append('<rect width="100%" height="100%" fill="white"/>')

    # axes
    if frame.wlo <= 0.0 <= frame.whi:
        y0 = frame.y(0.0)
        out.append(
            f'<line x1="{_c(_MARGIN)}" y1="{_c(y0)}" x2="{_c(_WIDTH - _MARGIN)}" '
            f'y2="{_c(y0)}" stroke="#999" stroke-width="1"/>'
        )
    if frame.slo <= 0.0 <= frame.shi:
        x0 = frame.x(0.0)
        out.append(
            f'<line x1="{_c(x0)}" y1="{_c(_MARGIN)}" x2="{_c(x0)}" '
            f'y2="{_c(_HEIGHT - _MARGIN)}" stroke="#999" stroke-width="1"/>'
        )
    out.append(
        f'<text x="{_c(_WIDTH - _MARGIN + 8)}" y="{_c(_HEIGHT / 2)}" '
        f'font-size="14" font-family="sans-serif">Re(s)</text>'
    )
    out.append(
        f'<text x="{_c(_WIDTH / 2)}" y="{_c(_MARGIN - 12)}" '
        f'font-size="14" font-family="sans-serif">Im(s)</text>'
    )

    # region boundary Re(s) = sigma0
    s0 = result.problem.sigma0
    if frame.slo <= s0 <= frame.shi:
        xb = frame.x(s0)
        out.append(
            f'<line x1="{_c(xb)}" y1="{_c(_MARGIN)}" x2="{_c(xb)}" '
            f'y2="{_c(_HEIGHT - _MARGIN)}" stroke="#c33" stroke-width="1" '
            f'stroke-dasharray="6,4"/>'
        )

    for i, traj in enumerate(result.trajectories):
        for chunk in _polyline_points(frame, traj.points, upper_half_only):
            out.append(
                f'<polyline id="traj-{i}" fill="none" stroke="#36c" '
                f'stroke-width="1.5" points="{" ".join(chunk)}"/>'
            )

    for cp in result.critical_points:
        sg, wg = cp.root.real, cp.root.imag
        if upper_half_only and wg < -_UPPER_TOL:
            continue
        if not frame.contains(sg, wg):
            continue
        x, y = frame.x(sg), frame.y(wg)
        if cp.kind is CriticalKind.START:
            out.append(
                f'<path d="M {_c(x - 5)} {_c(y - 5)} L {_c(x + 5)} {_c(y + 5)} '
                f'M {_c(x - 5)} {_c(y + 5)} L {_c(x + 5)} {_c(y - 5)}" '
                f'stroke="#000" stroke-width="1.5" class="start"/>'
            )
        elif cp.kind is CriticalKind.BRANCH:
            out.append(
                f'<path d="M {_c(x)} {_c(y - 6)} L {_c(x + 6)} {_c(y)} '
                f'L {_c(x)} {_c(y + 6)} L {_c(x - 6)} {_c(y)} Z" '
                f'fill="none" stroke="#080" stroke-width="1.5" class="branch"/>'
            )
        else:
            entering = cp.kind is CriticalKind.CROSSING_IN
            out.append(
                f'<circle cx="{_c(x)}" cy="{_c(y)}" r="4" fill="none" '
                f'stroke="#c33" stroke-width="1.5" '
                f'class="{"crossing-in" if entering else "crossing-out"}"/>'
            )
            dx = 10.0 if entering else -10.0
            out.append(
                f'<path d="M {_c(x)} {_c(y)} L {_c(x + dx)} {_c(y)} '
                f'L {_c(x + dx - math.copysign(4, dx))} {_c(y - 3)} '
                f'M {_c(x + dx)} {_c(y)} '
                f'L {_c(x + dx - math.copysign(4, dx))} {_c(y + 3)}" '
                f'fill="none" stroke="#c33" stroke-width="1"/>'
            )

    out.append("</svg>")
    return "\n".join(out) + "\n"
