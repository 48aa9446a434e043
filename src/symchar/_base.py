"""The package's error classes, its one count check, its bounded memo and ``Frozen``.

A leaf module: it imports nothing from the package, and every pipeline
module and the command line take their base names from it without loading
the arithmetic of ``polyring``.  ``polyring`` exports the errors in its
``__all__``, so ``symchar.polyring.InconsistencyError`` and
``symchar.InconsistencyError`` are these same classes.

Each stage of the pipeline keeps one memo, a dict from its checked input
to its result: root systems by (series, rank) in ``rootsys``, weight tables
by (root system, highest weight) in ``weightsys``, pole data by table
content in ``pfdcore``, on each ``ClosedCharacter`` its characters and its
orbit summands by degree, filled by ``charformula.character_at`` and
``charformula.orbit_split``, and cyclotomic polynomials by index in
``univariate``.  Beside them, not a memo, each ``ClosedCharacter`` keeps
each orbit's pole terms lifted to its common denominator, one entry per
orbit, filled once by ``orbit_split``.  Results are shared between
callers and never copied, so the value classes derive from ``Frozen``.
"""

from __future__ import annotations

from operator import attrgetter


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


# The most entries any one memo holds.
MEMO_SIZE = 32


def recall(memo: dict, key, compute):
    """memo[key], stored from compute() on a miss; the oldest entry goes when memo is full.

    Keys that compare equal share one entry (1 == 1.0 == True), so every
    caller checks its arguments before it builds the key.
    """
    value = memo.get(key)
    if value is None:
        value = compute()
        if len(memo) >= MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = value
    return value


class Frozen:
    """A read-only value whose fields are its class's own public annotations.

    Fields are set by position or keyword, then ``__post_init__`` runs; it
    may set more attributes with ``object.__setattr__``.  Equality (same
    class only), hash and repr go over the field values in order.
    """

    def __init_subclass__(cls):
        fields = tuple(name for name in vars(cls).get("__annotations__", ()) if name[0] != "_")
        get = attrgetter(*fields)
        cls._fields = fields
        cls._values = staticmethod(get if len(fields) > 1 else lambda value: (get(value),))

    def __init__(self, *args, **kwargs):
        given = dict(zip(self._fields, args), **kwargs)
        if len(args) + len(kwargs) != len(self._fields) or given.keys() != set(self._fields):
            raise TypeError("%s takes the fields %s" % (type(self).__name__, self._fields))
        vars(self).update(given)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot set or delete field %r" % name)

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % pair for pair in zip(self._fields, self._values(self))))
