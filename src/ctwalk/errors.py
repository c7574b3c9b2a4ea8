"""Exception types shared across the package.

Two families: ``ValidationError`` for bad inputs (the CLI maps these to
exit code 2) and ``NumericsError`` for failures of a numerical procedure
on valid inputs (exit code 1), such as an ill-conditioned eigenbasis.
"""


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class UnknownVertexError(ValidationError):
    """Vertex index outside the graph."""


class NotBipartiteError(ValidationError):
    """Graph contains an odd cycle; no two-coloring exists."""


class GridMismatchError(ValidationError):
    """Series do not share the same uniform time grid."""


class NumericsError(RuntimeError):
    """A numerical procedure failed on otherwise valid inputs."""


class NoZeroCrossingError(NumericsError):
    """First-passage density never crosses zero on the given grid."""


class ZeroNormError(NumericsError):
    """First-passage density integrates to (numerically) zero."""


class DegenerateNormalizationError(NumericsError):
    """Complement probability did not decay; no normalization possible."""


class IllConditionedError(NumericsError):
    """Eigenbasis propagator cannot be trusted: ill-conditioned or drifting."""
