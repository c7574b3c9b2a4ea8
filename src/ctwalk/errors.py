"""Exception types shared across the package.

Two families, one per CLI exit code: ``ValidationError`` for bad inputs
(exit code 2), such as an unknown vertex, a graph with an odd cycle or
series on different grids, and ``NumericsError`` for failures of a
numerical procedure on valid inputs (exit code 1), such as an
ill-conditioned eigenbasis or a density that integrates to zero. The one
subclass, ``NoZeroCrossingError``, is what the quantum horizon search
catches to double its grid.
"""


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class NumericsError(RuntimeError):
    """A numerical procedure failed on otherwise valid inputs."""


class NoZeroCrossingError(NumericsError):
    """First-passage density never crosses zero on the given grid."""
