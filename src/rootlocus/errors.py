"""Exception hierarchy for the root-locus library."""


class RootLocusError(Exception):
    """Base class for all library errors."""


class ValidationError(RootLocusError):
    """Invalid plant or problem data."""


class ParseError(RootLocusError):
    """Malformed problem or result file; message carries path/field context."""


class PoleZeroProximityError(RootLocusError):
    """Evaluation requested too close to a pole or zero of the plant."""


class DegenerateError(RootLocusError):
    """A polynomial or secant direction degenerated to (numerical) zero."""


class BracketError(RootLocusError):
    """A bracket without a sign change was handed to a bracketed solver."""


class NoConvergenceError(RootLocusError):
    """An iterative solve (Newton or Brent) failed to converge within its budget."""


class JacobianSingularError(RootLocusError):
    """Corrector Jacobian is (numerically) singular, typically near a branch point."""


class IllPosedCrossingError(RootLocusError):
    """Crossing direction requested at a grazing crossing (Re ds/dlam ~ 0)."""
