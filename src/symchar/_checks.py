"""The package's error classes and its one count check.

A leaf module: every pipeline module raises these, and the command line
catches them, without loading the arithmetic of ``polyring``.  ``polyring``
exports the errors in its ``__all__``, so ``symchar.polyring.InconsistencyError``
and ``symchar.InconsistencyError`` are these same classes.
"""

from __future__ import annotations


class ExactDivisionError(ArithmeticError):
    """A quotient that was expected to be a polynomial is not one."""


class InconsistencyError(ArithmeticError):
    """An internal invariant failed (integrality, a cross-check, a symmetry): a bug.

    Raised explicitly rather than through ``assert``, so the checks also run
    under ``python -O``.
    """


class PoleError(ZeroDivisionError):
    """A rational function was evaluated at a zero of a denominator factor."""


def check_count(value, what: str, least: int = 0, most: int | None = None) -> None:
    """ValueError unless value is an int, not a bool, in least..most (no upper bound if None)."""
    if type(value) is int and value >= least and (most is None or value <= most):
        return
    if most is None:
        raise ValueError("%s must be a %s integer, got %r"
                         % (what, "positive" if least else "non-negative", value))
    raise ValueError("%s %r outside %d..%d" % (what, value, least, most))
