"""Scalar, pole-sum and polynomial root-finding utilities.

The boundary extrema are the zeros of a constant plus simple poles in
omega^2: the eigenvalues of a diagonal plus a rank-one matrix.  The zeros of
1 + G and of G'/G - h are companion-matrix eigenvalues of the expanded
numerator, Newton-polished.  Brent's method (Brent, *Algorithms for
Minimization Without Derivatives*, 1973) finds a root on a sign-changing
bracket, as Charles Harris's C ``brentq`` runs it.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import BracketError, DegenerateError, NoConvergenceError
from .plant import Plant

_REAL_IM_TOL = 1e-7
_BRENT_XTOL = 1e-13
_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 200
#: a sum below this share of its term sizes is rounding (60 terms: < 1e-13)
_MOMENT_TOL = 1e-12


def _nan_error(x: float) -> NoConvergenceError:
    return NoConvergenceError(f"Brent's method: f is NaN at x = {x!r}")


def bracketed_root(f, lo: float, hi: float, f_lo=None, f_hi=None) -> float:
    """A root of f on [lo, hi] by Brent's method; a zero end is returned as is.

    Step for step Charles Harris's C ``brentq`` with ``xtol`` 1e-13, ``rtol``
    4 eps and 200 iterations, so it returns the same float.  ``f_lo`` and
    ``f_hi``, when given, are f(lo) and f(hi), which a caller that already
    holds them passes instead of having f evaluated again.  A NaN value of
    f or a run that does not converge raises ``NoConvergenceError``; ends
    whose values have the same sign raise ``BracketError``.
    """
    xpre, xcur = float(lo), float(hi)
    fpre = float(f(xpre) if f_lo is None else f_lo)
    if fpre != fpre:
        raise _nan_error(xpre)
    fcur = float(f(xcur) if f_hi is None else f_hi)
    if fcur != fcur:
        raise _nan_error(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketError(f"no sign change on [{xpre}, {xcur}]: f={fpre:g}, {fcur:g}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate; where C divides by zero it gets an inf or a
                # NaN, which fails the test below just as inf does
                try:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                except ZeroDivisionError:
                    stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if fcur != fcur:
            raise _nan_error(xcur)
    raise NoConvergenceError(
        f"Brent's method did not converge in {_BRENT_MAXITER} iterations; last x = {xcur!r}"
    )


def _pole_sum_zeros(const: complex, nodes: np.ndarray, residues: np.ndarray) -> list[float]:
    """The w > 0, ascending, whose square is a real zero of
    const + sum_k residues[k]/(y - nodes[k]), const != 0: an eigenvalue of
    diag(nodes) - (residues/const) 1^T, a diagonal plus a rank-one matrix
    (Golub, *SIAM Rev.* 15, 1973), with a small imaginary part.  A failed
    eigenvalue solve raises ``NoConvergenceError``."""
    a = np.diag(nodes) - (residues / const)[:, None]
    try:
        ys = np.linalg.eigvals(a).tolist()
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"boundary extrema: eigenvalue solve failed: {exc}") from exc
    return sorted(math.sqrt(y.real) for y in ys
                  if y.real > 0.0 and abs(y.imag) < _REAL_IM_TOL * (1.0 + y.real))


def _boundary_nodes(plant: Plant, sigma0: float) -> tuple[np.ndarray, np.ndarray]:
    """c_v = Im v + j(sigma0 - Re v) of the poles v, then the zeros, and the
    signs s_v, +1 at a pole.  With d = sigma0 - Re v, the terms
    (w - Im v)/|s - v|^2 of Lambda' and d/|s - v|^2 of phi' on s = sigma0 + jw
    are (1/(w - c) + 1/(w - conj c))/2 and (1/(w - c) - 1/(w - conj c))/(2j),
    and conjugate symmetry pairs conj(c_v) with -c_(conj v), so over all v
    Lambda' = w sum s_v/(w^2 - c_v^2) and phi' = -h + j sum s_v c_v/(w^2 - c_v^2)."""
    v = np.array(plant.poles + plant.zeros, dtype=complex)
    sign = np.concatenate([np.ones(len(plant.poles)), -np.ones(len(plant.zeros))])
    return v.imag + 1j * (sigma0 - v.real), sign


def magnitude_extremum_freqs(plant: Plant, sigma0: float) -> list[float]:
    """Positive zeros of Lambda', the w-derivative of
    ``critical.BoundaryLine.big_lambda``, ascending.

    f = Lambda'/w = sum_k r_k/(y - y_k), y = w^2, y_k = c_k^2 (nonzero: no
    pole or zero lies on the boundary), r_k = s_k, has no constant.  Its
    zeros at y = 0 and y = inf are divided out exactly, f/y =
    sum (r_k/y_k)/(y - y_k) and (y - y_N) f = sum r +
    sum_{k<N} r_k (y_k - y_N)/(y - y_k), while the sum that shows one,
    f(0) = -sum r_k/y_k or sum r, is at most ``_MOMENT_TOL`` of its term
    sizes.  Infinity takes one step when n != m, two for most biproper
    plants and three or more when sum s_k y_k = 0 too, as when every
    |Im v| = |sigma0 - Re v| (then f(0) = 0 as well).  A dropped zero that
    is not exact lies within about 1e-6 |c_k| of 0 or past 1e6 |c_k|.
    Equal nodes are merged first, so a pole and a zero mirrored in
    Re s = sigma0, whose terms cancel, leave none.
    """
    c, sign = _boundary_nodes(plant, sigma0)
    merged: dict[complex, float] = {}
    for y, s in zip((c * c).tolist(), sign.tolist()):
        merged[y] = merged.get(y, 0.0) + s
    nodes = np.array([y for y, s in merged.items() if s], dtype=complex)
    r = np.array([s for s in merged.values() if s], dtype=complex)
    size = np.abs(r)
    for _ in range(nodes.size - 1):  # f = P/Q with deg P < deg Q = N
        if abs((r / nodes).sum()) > _MOMENT_TOL * (size / abs(nodes)).sum():
            break
        r, size = r / nodes, size / abs(nodes)
    while nodes.size:
        const, r = r.sum(), r[:-1] * (nodes[:-1] - nodes[-1])
        if abs(const) > _MOMENT_TOL * size.sum():
            return _pole_sum_zeros(const, nodes[:-1], r)
        size, nodes = size[:-1] * (abs(nodes[:-1]) + abs(nodes[-1])), nodes[:-1]
    return []  # Lambda' = 0: |G| is constant on the boundary


def phase_extremum_freqs(plant: Plant, sigma0: float, h: float) -> list[float]:
    """Positive zeros of phi', the w-derivative of the boundary phase of
    G e^{-hs} (``critical.BoundaryLine.phase``), ascending: phi' = -h + sum
    of simple poles in w^2 (see ``_boundary_nodes``), whose constant -h is
    nonzero."""
    c, sign = _boundary_nodes(plant, sigma0)
    return _pole_sum_zeros(-h, c * c, 1j * sign * c)


def poly_from_roots(roots) -> np.ndarray:
    """Monic complex polynomial with the given roots, descending coefficients."""
    acc = np.array([1.0 + 0.0j])
    for r in roots:
        acc = np.convolve(acc, np.array([1.0, -r]))
    return acc


def _polished_roots(num: np.ndarray) -> list[complex]:
    """The ``np.roots`` roots of the descending complex polynomial ``num``,
    each after at most five Newton steps.

    The polynomial and its derivative are evaluated at all the roots still
    moving in one ``np.polyval`` call each, whose array recurrence rounds
    each element as its 0-d evaluation does.  Each root divides as a numpy
    scalar and stops on its own at a zero derivative, a non-finite step or a
    step below rounding.
    """
    dnum = np.polyder(num)
    xs = np.roots(num).astype(complex)
    moving = list(range(xs.size))
    for _ in range(5):
        if not moving:
            break
        at = xs[moving]
        still = []
        for i, f_i, df_i in zip(moving, np.polyval(num, at), np.polyval(dnum, at)):
            if df_i == 0:
                continue
            step = f_i / df_i  # divided as numpy scalars, whose rounding the roots keep
            if not np.isfinite(abs(step)):
                continue
            x = xs[i] = xs[i] - step
            if abs(step) >= 1e-15 * (1.0 + abs(x)):
                still.append(i)
        moving = still
    return xs.tolist()


def rational_zeros(plant: Plant, target: str, h: float = 0.0) -> list[complex]:
    """Zeros of a structured rational function built from the plant.

    target "gprime_minus_hg": zeros of G'(s)/G(s) - h (branch-point candidates).
    target "one_plus_g": zeros of 1 + G(s) (delay-locus starting points).
    """
    if target == "one_plus_g":
        num = np.polyadd(poly_from_roots(plant.poles), plant.gain * poly_from_roots(plant.zeros))
    elif target == "gprime_minus_hg":
        # monic numerator and denominator, the gain excluded
        zs, ps = plant.zeros, plant.poles
        num_z, den_p = poly_from_roots(zs), poly_from_roots(ps)
        acc = np.array([0.0 + 0.0j])
        for i in range(len(zs)):
            acc = np.polyadd(acc, np.convolve(poly_from_roots(zs[:i] + zs[i + 1:]), den_p))
        for i in range(len(ps)):
            acc = np.polysub(acc, np.convolve(poly_from_roots(ps[:i] + ps[i + 1:]), num_z))
        num = np.polysub(acc, h * np.convolve(num_z, den_p))
    else:
        raise ValueError(f"unknown rational-zeros target {target!r}")

    top = np.max(np.abs(num)) if num.size else 0.0
    if top == 0.0:
        raise DegenerateError("assembled numerator polynomial is identically zero")
    num = num / top
    num = np.trim_zeros(num, "f")
    if num.size <= 1:
        return []
    return sorted(_polished_roots(num), key=lambda c: (c.real, c.imag))
