"""Exception types shared across the package."""


class EnspulseError(Exception):
    """Base class for package-specific failures."""


class InfeasibleError(EnspulseError):
    """A design target is provably unreachable with the requested resources.

    This is a *verdict*, not a malfunction: the CLI maps it to its own exit
    code so callers can distinguish "cannot be done" from "bad input".
    """


class DegenerateExtractionError(EnspulseError):
    """Backward spinor recursion hit a step it cannot invert."""


class CompletionError(InfeasibleError):
    """Spectral factorization failed to reproduce the norm constraint.

    The target is valid input that this design cannot realize (a flat
    ``|Q|`` near 1, for example), so it is an infeasibility verdict.
    """


class SchemaError(EnspulseError):
    """A pulse/grid/report file does not match its schema."""
