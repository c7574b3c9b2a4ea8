"""Exception types shared across the package, and the one budget refusal.

Two families, one per CLI exit code: ``ValidationError`` for bad inputs
(exit code 2), such as an unknown vertex, a graph with an odd cycle or
series on different grids, and ``NumericsError`` for failures of a
numerical procedure on valid inputs (exit code 1), such as an
ill-conditioned eigenbasis or a density that integrates to zero. The one
subclass, ``NoZeroCrossingError``, is what the quantum horizon search
catches to double its grid. ``refuse_over`` is how every work or size
budget refuses an input: as bad input, before the work it bounds.
"""


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class NumericsError(RuntimeError):
    """A numerical procedure failed on otherwise valid inputs."""


class NoZeroCrossingError(NumericsError):
    """First-passage density never crosses zero on the given grid."""


def _count(x: float) -> str:
    """x as its digits below 1e15, else to three significant digits."""
    try:
        return f"{x:.15g}" if abs(x) < 1e15 else f"{x:.3g}"
    except OverflowError:  # an int past the largest float
        from decimal import Decimal  # not at import: the CLI's imports stay light
        return f"{Decimal(x):.3g}"


def refuse_over(amount: float, budget: float, what: str, remedy: str = "") -> None:
    """Raise ValidationError("<what> exceeds the budget of <budget>[; <remedy>]"), with the
    amount in place of the "{}" in what, unless amount <= budget: so a nan is refused too."""
    if not amount <= budget:
        remedy = f"; {remedy}" if remedy else ""
        raise ValidationError(f"{what.replace('{}', _count(amount))} exceeds the budget of "
                              f"{_count(budget)}{remedy}")
