"""Local analysis of the characteristic function around multiple roots.

Provides the successive s-derivatives of the characteristic function in the
log-free form, the resulting multiplicity test, and the ray structure that
governs how trajectories enter and leave a branch point or a multiple
starting root.

Near a root s~ of multiplicity N at parameter lam~ the characteristic
function behaves as

    f(s~ + ds, lam~ + dlam) ~ g_N/N! * ds^N + f_lam * dlam

so the locus satisfies ds^N = C * dlam with C = -N! * f_lam / g_N.  The N
complex directions C^{1/N} * exp(2 pi i k / N) are the rays along which the
locus leaves the point with increasing parameter ("up" rays); rotating any
ray by pi/N flips the parameter side.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .plant import LocusKind, LocusProblem
from .rootfind import poly_from_roots

_MULT_MAX = 6
_MULT_REL = 1e-6
_POLISH_ITERS = 8


def _u_derivatives(problem: LocusProblem, s: complex, lam: float, kmax: int) -> list[complex]:
    """Derivatives of u(s) = G'(s)/G(s) - h_eff, orders 0..kmax."""
    heff = problem.effective_h(lam)
    out = []
    for i in range(kmax + 1):
        acc = 0.0 + 0.0j
        for z in problem.plant.zeros:
            acc += 1.0 / (s - z) ** (i + 1)
        for p in problem.plant.poles:
            acc -= 1.0 / (s - p) ** (i + 1)
        acc *= (-1.0) ** i * math.factorial(i)
        if i == 0:
            acc -= heff
        out.append(acc)
    return out


def char_s_derivatives(problem: LocusProblem, s: complex, lam: float, kmax: int) -> list[complex]:
    """Derivatives d^k f / d s^k at a point where f(s, lam) = 0, orders 0..kmax.

    Uses f = 1 + g with g' = g * u, seeded with g = -1 at the root.
    """
    u = _u_derivatives(problem, s, lam, kmax)
    g = [-1.0 + 0.0j]
    for k in range(kmax):
        acc = 0.0 + 0.0j
        for j in range(k + 1):
            acc += math.comb(k, j) * g[j] * u[k - j]
        g.append(acc)
    g[0] = 0.0 + 0.0j  # f = 1 + g vanishes at the root
    return g


def f_lambda(problem: LocusProblem, s: complex, lam: float) -> complex:
    """df/dlam at a root of the characteristic function."""
    if problem.kind is LocusKind.GAIN:
        return -1.0 / lam
    return complex(s)


def multiplicity(problem: LocusProblem, s: complex, lam: float) -> int:
    """Root multiplicity N: first s-derivative of f with significant magnitude."""
    g = char_s_derivatives(problem, s, lam, _MULT_MAX)
    mags = [abs(g[k]) / math.factorial(k) for k in range(1, _MULT_MAX + 1)]
    top = max(mags)
    if top == 0.0:
        return 1
    for k, m in enumerate(mags, start=1):
        if m > _MULT_REL * top:
            return k
    return 1


def polish_multiple_root(problem: LocusProblem, s: complex, lam: float, n: int) -> complex:
    """Newton on the (n-1)-th s-derivative of f from s, n >= 2: its root is
    simple where f has an n-fold one, so the iteration converges quadratically
    where Newton on f itself only halves the error."""
    for _ in range(_POLISH_ITERS):
        g = char_s_derivatives(problem, s, lam, n)
        if g[n] == 0.0:
            break
        step = g[n - 1] / g[n]
        s -= step
        if abs(step) <= 1e-15 * (1.0 + abs(s)):
            break
    return s


def rays_up(C: complex, N: int) -> list[complex]:
    """Unit s-plane directions along which the locus leaves with dlam > 0."""
    base = C ** (1.0 / N) if N > 1 else C
    out = []
    for k in range(N):
        w = base * cmath.exp(2j * math.pi * k / N)
        out.append(w / abs(w))
    return out


def branch_rays(problem: LocusProblem, s: complex, lam: float, N: int) -> list[complex]:
    """Up-ray directions at an interior branch point of multiplicity N."""
    g = char_s_derivatives(problem, s, lam, N)
    C = -math.factorial(N) * f_lambda(problem, s, lam) / g[N]
    return rays_up(C, N)


def start_rays(problem: LocusProblem, s0: complex, N: int) -> list[complex]:
    """Up-ray directions at a starting root of multiplicity N (lam = 0).

    Computed on the polynomial-cleared characteristic form, where the point
    is a regular order-N root even though G itself is singular there.
    """
    plant = problem.plant
    num = plant.gain * poly_from_roots(plant.zeros)
    den = poly_from_roots(plant.poles)
    if problem.kind is LocusKind.GAIN:
        # F = D + lam * alpha * Num * e^{-hs}
        f_lam = np.polyval(num, s0) * cmath.exp(-plant.delay * s0)
        top = den
    else:
        # F = D + alpha * Num * e^{-lam s}
        f_lam = -s0 * np.polyval(num, s0)
        top = np.polyadd(den, num)
    d = top
    for _ in range(N):
        d = np.polyder(d)
    C = -math.factorial(N) * f_lam / np.polyval(d, s0)
    return rays_up(C, N)


def initial_tangent_simple(problem: LocusProblem, s: complex, lam: float) -> np.ndarray:
    """Unit tangent (Re ds, Im ds, dlam) with dlam > 0 at a simple locus point.

    At gain-case starting points (lam = 0, s a simple pole of G) the
    polynomial-cleared derivative formula is used.
    """
    plant = problem.plant
    if lam == 0.0 and problem.kind is LocusKind.GAIN:
        num = plant.gain * poly_from_roots(plant.zeros)
        den = poly_from_roots(plant.poles)
        dden = np.polyder(den)
        ds_dlam = -np.polyval(num, s) * cmath.exp(-plant.delay * s) / np.polyval(dden, s)
    else:
        # on the locus f_s = -u, so ds/dlam = -f_lam / f_s = f_lam / u
        u = _u_derivatives(problem, s, lam, 0)[0]
        ds_dlam = f_lambda(problem, s, lam) / u
    d = np.array([ds_dlam.real, ds_dlam.imag, 1.0])
    return d / np.linalg.norm(d)
