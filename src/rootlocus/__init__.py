"""Root locus of SISO dead-time systems inside a right half-plane.

Computes the complete root locus of 1 + lam*G(s)*exp(-h*s) (controller gain)
or 1 + G(s)*exp(-lam*s) (time delay) for lam in [0, lambda_max] and
Re(s) >= sigma0, by critical-point computation and pseudo-arclength
continuation, along with imaginary-axis crossings and stability intervals.
"""

from .continuation import Termination, Trajectory, TrajectoryPoint
from .critical import CriticalKind, CriticalPoint
from .engine import ImagAxisEvent, RootLocusResult, compute_root_locus
from .errors import (
    BracketError,
    DegenerateError,
    IllPosedCrossingError,
    JacobianSingularError,
    NoConvergenceError,
    ParseError,
    PoleZeroProximityError,
    RootLocusError,
    ValidationError,
)
from .io import emit_results, load_result, parse_problem, results_equal
from .plant import LocusKind, LocusProblem, Plant
from .svg import render_svg

__version__ = "1.0.0"

__all__ = [
    "BracketError",
    "CriticalKind",
    "CriticalPoint",
    "DegenerateError",
    "IllPosedCrossingError",
    "ImagAxisEvent",
    "JacobianSingularError",
    "LocusKind",
    "LocusProblem",
    "NoConvergenceError",
    "ParseError",
    "Plant",
    "PoleZeroProximityError",
    "RootLocusError",
    "RootLocusResult",
    "Termination",
    "Trajectory",
    "TrajectoryPoint",
    "ValidationError",
    "compute_root_locus",
    "emit_results",
    "load_result",
    "parse_problem",
    "render_svg",
    "results_equal",
    "__version__",
]
