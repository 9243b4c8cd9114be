"""Scalar and polynomial root-finding utilities.

Polynomials are stored as ascending-degree real coefficient arrays.  The
boundary-extremum polynomials are assembled by explicit convolution with
rescaling after each product, then solved through companion-matrix
eigenvalues with a short Newton polish.  Scalar roots on a sign-changing
bracket come from Brent's method (Brent, *Algorithms for Minimization
Without Derivatives*, 1973), as Charles Harris's C ``brentq`` runs it.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import BracketError, DegenerateError, NoConvergenceError
from .plant import Plant

_TRIM_REL = 1e-14
_REAL_IM_TOL = 1e-7
_DEDUP_TOL = 1e-8
_BRENT_XTOL = 1e-13
_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 200


def bracketed_root(f, lo: float, hi: float, f_lo=None, f_hi=None) -> float:
    """A root of f on [lo, hi] by Brent's method; a zero end is returned as is.

    Step for step Charles Harris's C ``brentq`` with ``xtol`` 1e-13, ``rtol``
    4 eps and 200 iterations, so it returns the same float.  ``f_lo`` and
    ``f_hi``, when given, are f(lo) and f(hi), which a caller that already
    holds them passes instead of having f evaluated again.  A NaN value of
    f or a run that does not converge raises ``NoConvergenceError``; ends
    whose values have the same sign raise ``BracketError``.
    """

    def value(x, fx=None):
        fx = float(f(x) if fx is None else fx)
        if fx != fx:
            raise NoConvergenceError(f"Brent's method: f is NaN at x = {x!r}")
        return fx

    xpre, xcur = float(lo), float(hi)
    fpre = value(xpre, f_lo)
    fcur = value(xcur, f_hi)
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
        fcur = value(xcur)
    raise NoConvergenceError(
        f"Brent's method did not converge in {_BRENT_MAXITER} iterations; last x = {xcur!r}"
    )


def _horner(c: list[float], x: float) -> float:
    """The ascending polynomial c at x, step for step as
    ``np.polynomial.polynomial.polyval`` rounds it, on plain floats."""
    y = c[-1] + x * 0
    for ck in reversed(c[:-1]):
        y = ck + y * x
    return y


def real_nonneg_roots(coefficients) -> list[float]:
    """All real roots >= 0 of the real polynomial with these ascending
    coefficients, ascending and deduplicated; [] for a constant or zero one.

    Trailing coefficients below ``_TRIM_REL`` times the largest are dropped;
    then companion eigenvalues with small imaginary part are kept and each
    is polished with at most five Newton steps, which stop at a zero
    derivative, a non-finite step or a step below rounding.
    """
    c = np.asarray(coefficients, dtype=float)
    top = np.max(np.abs(c), initial=0.0)
    keep = c.size
    while keep > 1 and abs(c[keep - 1]) < _TRIM_REL * top:
        keep -= 1
    c = c[:keep]
    if top == 0.0 or keep <= 1:
        return []
    raw = np.polynomial.polynomial.polyroots(c).tolist()
    cs = c.tolist()
    dc = [k * ck for k, ck in enumerate(cs) if k]  # as polyder forms it
    out: list[float] = []
    for r in raw:
        if abs(r.imag) >= _REAL_IM_TOL * (1.0 + abs(r.real)):
            continue
        x = r.real
        for _ in range(5):
            dfx = _horner(dc, x)
            if dfx == 0:
                break
            step = _horner(cs, x) / dfx
            if not math.isfinite(step):
                break
            x -= step
            if abs(step) < 1e-15 * (1.0 + abs(x)):
                break
        if x < -_DEDUP_TOL:
            continue
        out.append(x if x > 0.0 else 0.0)
    out.sort()
    dedup: list[float] = []
    for x in out:
        if not dedup or x - dedup[-1] > _DEDUP_TOL:
            dedup.append(x)
    return dedup


def _gamma_quadratics(values, sigma0: float, scale: float = 1.0) -> list[np.ndarray]:
    """gamma(w) = ((sigma0 - re)^2 + (w - im)^2) / scale as ascending quadratics."""
    out = []
    for v in values:
        ds = sigma0 - v.real
        out.append(np.array([ds * ds + v.imag * v.imag, -2.0 * v.imag, 1.0]) / scale)
    return out


def _common_scale(values, sigma0: float) -> float:
    """Geometric-mean magnitude of the gamma quadratics, keeping products of a
    fixed factor count uniformly scaled so they can be added exactly."""
    tops = [
        max((sigma0 - v.real) ** 2 + v.imag * v.imag, 1.0) for v in values
    ]
    if not tops:
        return 1.0
    return float(np.exp(np.mean(np.log(tops))))


def _product_and_leave_one_out(factors: list[np.ndarray], dtype=float):
    """The product of ``factors`` and, for each i, the product of all but
    factors[i], as np.convolve chains from a unit of ``dtype``.

    Every chain multiplies the factors in their order, so the ith
    leave-one-out product is the prefix before i convolved with the factors
    after i: the same convolutions in the same order as a chain of its own,
    with the n prefixes shared by all of them.
    """
    prefixes = [np.ones(1, dtype)]
    for f in factors:
        prefixes.append(np.convolve(prefixes[-1], f))
    loo = []
    for i, acc in enumerate(prefixes[:-1]):
        for f in factors[i + 1:]:
            acc = np.convolve(acc, f)
        loo.append(acc)
    return prefixes[-1], loo


def boundary_products(plant: Plant, sigma0: float):
    """Common scale, then the gamma products and their leave-one-out products
    over the zeros and over the poles: (scale, big_z, loo_z, big_p, loo_p).
    ``magnitude_extremum_freqs`` and ``phase_extremum_freqs`` take them
    built once for both."""
    scale = _common_scale(plant.zeros + plant.poles, sigma0)
    big_z, loo_z = _product_and_leave_one_out(_gamma_quadratics(plant.zeros, sigma0, scale))
    big_p, loo_p = _product_and_leave_one_out(_gamma_quadratics(plant.poles, sigma0, scale))
    return scale, big_z, loo_z, big_p, loo_p


def _poly_add(*terms: np.ndarray) -> np.ndarray:
    size = max(t.size for t in terms)
    acc = np.zeros(size)
    for t in terms:
        acc[: t.size] += t
    return acc


def magnitude_extremum_freqs(plant: Plant, sigma0: float, products=None) -> list[float]:
    """Non-negative zeros of the boundary log-magnitude derivative.

    Assembles the numerator polynomial of big_lambda_prime in omega and
    returns its non-negative real roots.  ``products`` are those of
    ``boundary_products(plant, sigma0)``, built here when not given.
    """
    _, big_z, loo_z, big_p, loo_p = products or boundary_products(plant, sigma0)

    pole_sum = np.array([0.0])
    for p, loo in zip(plant.poles, loo_p):
        term = np.convolve(np.array([-p.imag, 1.0]), loo)
        pole_sum = _poly_add(pole_sum, term)
    zero_sum = np.array([0.0])
    for z, loo in zip(plant.zeros, loo_z):
        term = np.convolve(np.array([-z.imag, 1.0]), loo)
        zero_sum = _poly_add(zero_sum, term)

    poly = _poly_add(np.convolve(big_z, pole_sum), -np.convolve(big_p, zero_sum))
    return real_nonneg_roots(poly)


def phase_extremum_freqs(plant: Plant, sigma0: float, h: float, products=None) -> list[float]:
    """Non-negative zeros of the boundary phase derivative phi'; ``products``
    as for ``magnitude_extremum_freqs``."""
    scale, big_z, loo_z, big_p, loo_p = products or boundary_products(plant, sigma0)

    zero_sum = np.array([0.0])
    for z, loo in zip(plant.zeros, loo_z):
        zero_sum = _poly_add(zero_sum, (sigma0 - z.real) * loo)
    pole_sum = np.array([0.0])
    for p, loo in zip(plant.poles, loo_p):
        pole_sum = _poly_add(pole_sum, (sigma0 - p.real) * loo)

    # the h term carries one more gamma factor than the sums; multiplying by
    # the common scale keeps every term at the same power of the scale
    poly = _poly_add(
        np.convolve(big_p, zero_sum),
        -np.convolve(big_z, pole_sum),
        -h * scale * np.convolve(big_z, big_p),
    )
    return real_nonneg_roots(poly)


def poly_from_roots(roots) -> np.ndarray:
    """Monic complex polynomial with the given roots, descending coefficients."""
    acc = np.array([1.0 + 0.0j])
    for r in roots:
        acc = np.convolve(acc, np.array([1.0, -r]))
    return acc


def _linear_factors(roots) -> list[np.ndarray]:
    """The descending factors s - r, as ``poly_from_roots`` multiplies them."""
    return [np.array([1.0, -r]) for r in roots]


def _polished_roots(num: np.ndarray) -> list[complex]:
    """The ``np.roots`` roots of the descending complex polynomial ``num``,
    each after at most five Newton steps.

    The polynomial and its derivative are evaluated at all the roots still
    moving in one array pass of ``np.polyval``'s recurrence, which rounds
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
        fx, dfx = np.zeros_like(at), np.zeros_like(at)
        for pv in num:
            fx = fx * at + pv
        for pv in dnum:
            dfx = dfx * at + pv
        still = []
        for i, f_i, df_i in zip(moving, fx, dfx):
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
        num_z, loo_z = _product_and_leave_one_out(_linear_factors(plant.zeros), complex)
        den_p, loo_p = _product_and_leave_one_out(_linear_factors(plant.poles), complex)
        acc = np.array([0.0 + 0.0j])
        for loo in loo_z:
            acc = np.polyadd(acc, np.convolve(loo, den_p))
        for loo in loo_p:
            acc = np.polysub(acc, np.convolve(loo, num_z))
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
