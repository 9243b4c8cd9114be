"""The local model of the locus at a root: tangent, multiplicity and rays.

The s-derivatives of the characteristic function f, in the log-free form,
give the multiplicity test and the model by which trajectories leave a root.

Near a root s~ of multiplicity N at parameter lam~ the characteristic
function behaves as

    f(s~ + ds, lam~ + dlam) ~ g_N/N! * ds^N + f_lam * dlam

so the locus satisfies ds^N = C * dlam with C = -N! * f_lam / g_N
(``LocusProblem.f_lambda``).  The N complex directions
C^{1/N} * exp(2 pi i k / N) are the rays along which the locus leaves the
point with increasing parameter ("up" rays); rotating any ray by pi/N flips
the parameter side.  At a simple root g_1 = -u, u = G'/G - h_eff, so the
tangent is ds/dlam = f_lam / u (``ds_dlam``); the sign of its real part is
the direction of a boundary crossing.  A delay start is a regular root of
f; a gain start is a pole of G, where f is singular, so its C comes from
the polynomial-cleared form D + lam * K N e^{-hs} (``_cleared_gain_c``).
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
    """Derivatives of u(s) = G'(s)/G(s) - h_eff, orders 0..kmax; order 0
    takes G'/G from ``LocusProblem.log_derivative``."""
    out = [problem.log_derivative(s) - problem.effective_h(lam)]
    for i in range(1, kmax + 1):
        acc = 0.0 + 0.0j
        for z in problem.plant.zeros:
            acc += 1.0 / (s - z) ** (i + 1)
        for p in problem.plant.poles:
            acc -= 1.0 / (s - p) ** (i + 1)
        acc *= (-1.0) ** i * math.factorial(i)
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


def ds_dlam(problem: LocusProblem, s: complex, lam: float) -> complex:
    """ds/dlam = -f_lam / f_s = f_lam / u at a simple root; ZeroDivisionError at u = 0."""
    return problem.f_lambda(s, lam) / _u_derivatives(problem, s, lam, 0)[0]


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
    C = -math.factorial(N) * problem.f_lambda(s, lam) / g[N]
    return rays_up(C, N)


def _cleared_gain_c(problem: LocusProblem, s: complex, n: int) -> complex:
    """C of ds^n = C dlam at a gain start s, an n-fold pole of G, from the
    cleared form F = D + lam K N e^{-hs}, regular there: -n! F_lam / D^(n)(s)."""
    plant = problem.plant
    num = plant.gain * poly_from_roots(plant.zeros)
    d = poly_from_roots(plant.poles)
    for _ in range(n):
        d = np.polyder(d)
    f_lam = np.polyval(num, s) * cmath.exp(-plant.delay * s)
    return -math.factorial(n) * f_lam / np.polyval(d, s)


def start_rays(problem: LocusProblem, s0: complex, N: int) -> list[complex]:
    """Up-ray directions at a starting root of multiplicity N (lam = 0): a
    delay start is a regular root of f, a gain start takes the cleared C."""
    if problem.kind is LocusKind.GAIN:
        return rays_up(_cleared_gain_c(problem, s0, N), N)
    return branch_rays(problem, s0, 0.0, N)


def initial_tangent_simple(problem: LocusProblem, s: complex, lam: float) -> np.ndarray:
    """Unit tangent (Re ds, Im ds, dlam) with dlam > 0 at a simple locus point;
    at a gain start (lam = 0, a simple pole of G) ds/dlam is the cleared C."""
    if lam == 0.0 and problem.kind is LocusKind.GAIN:
        ds = _cleared_gain_c(problem, s, 1)
    else:
        ds = ds_dlam(problem, s, lam)
    d = np.array([ds.real, ds.imag, 1.0])
    return d / np.linalg.norm(d)
