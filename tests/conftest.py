"""Shared fixtures: the three reference problems and cached engine runs."""

import numpy as np
import pytest

from rootlocus.engine import compute_root_locus
from rootlocus.plant import LocusKind, LocusProblem, Plant


def big_lambda_prime(plant, sigma0, w):
    """dLambda/dw on Re s = sigma0 (Lambda = h sigma0 - ln|G|): the poles'
    (w - Im v)/|s - v|^2 less the zeros'.  A reference for the extremum
    scans; a float gives a numpy float."""
    w = np.asarray(w, dtype=float)
    acc = np.zeros(w.shape)
    for v, sign in [(p, 1.0) for p in plant.poles] + [(z, -1.0) for z in plant.zeros]:
        t = w - v.imag
        acc = acc + sign * t / (t * t + (sigma0 - v.real) ** 2)
    return acc[()]


def phi_prime(plant, sigma0, w, h):
    """d/dw of the phase of G e^{-hs} on Re s = sigma0: -h plus the zeros'
    (sigma0 - Re v)/|s - v|^2 less the poles'.  A reference for the extremum
    scans; a float gives a numpy float."""
    w = np.asarray(w, dtype=float)
    acc = np.full(w.shape, -h)
    for v, sign in [(z, 1.0) for z in plant.zeros] + [(p, -1.0) for p in plant.poles]:
        t, x = w - v.imag, sigma0 - v.real
        acc = acc + sign * x / (t * t + x ** 2)
    return acc[()]


def first_order_plant(gain=1.0, delay=1.0):
    """G = gain/(s+1) with dead time."""
    return Plant(zeros=(), poles=(-1.0,), gain=gain, delay=delay)


def example1_problem():
    """Delay locus of G = s^2/((s^2+4)(s^2+16)) inside Re(s) >= -1."""
    plant = Plant(zeros=(0.0, 0.0), poles=(2j, -2j, 4j, -4j), gain=1.0, delay=1.0)
    return LocusProblem(LocusKind.DELAY, -1.0, 5.0, plant)


def example2_problem():
    """Gain locus of the 6th-order all-pole plant, h = 12.48, inside Re(s) >= -1."""
    den = [1.0, -6e-4, 1.4081634, -5.6326533e-4, 0.43481891, -8.6963771e-5, 2.6655565e-2]
    poles = tuple(np.roots(den))
    plant = Plant(zeros=(), poles=poles, gain=1e-3, delay=12.48)
    return LocusProblem(LocusKind.GAIN, -1.0, 6.0, plant)


def example3_problem(lambda_max=5.0):
    """Gain locus of G = (s^2-10s+50)/((s+0.5)(s+1)(s+2.5)), h = 1, Re(s) >= -3.5."""
    plant = Plant(
        zeros=(complex(5.0, 5.0), complex(5.0, -5.0)),
        poles=(-0.5, -1.0, -2.5),
        gain=1.0,
        delay=1.0,
    )
    return LocusProblem(LocusKind.GAIN, -3.5, lambda_max, plant)


def turning_point_problem():
    """Gain locus of G = s^2/((s^2+1)^2), h = 4*pi/3: double poles on the axis."""
    plant = Plant(zeros=(0.0, 0.0), poles=(1j, -1j, 1j, -1j), gain=1.0, delay=4 * np.pi / 3)
    return LocusProblem(LocusKind.GAIN, -0.5, 2.0, plant)


@pytest.fixture(scope="session")
def example1_result():
    return compute_root_locus(example1_problem())


@pytest.fixture(scope="session")
def example2_result():
    return compute_root_locus(example2_problem())


@pytest.fixture(scope="session")
def example3_result():
    return compute_root_locus(example3_problem())


@pytest.fixture(scope="session")
def turning_point_result():
    return compute_root_locus(turning_point_problem())
