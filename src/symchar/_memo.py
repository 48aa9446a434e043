"""The bounded memo behind each stage of the pipeline, and the frozen values it holds.

Each stage keeps one dict from its checked input to its result: root
systems by (series, rank) in ``rootsys``, weight tables by (root system,
highest weight) in ``weightsys``, pole data by table content in
``pfdcore``, on each ``ClosedCharacter`` its characters and its orbit
summands by degree, filled by ``charformula.character_at`` and
``charformula.orbit_split``, and cyclotomic polynomials by index in
``univariate``.  Beside them, not a memo, each ``ClosedCharacter`` keeps
each orbit's pole terms lifted to its common denominator, one entry per
orbit, filled once by ``orbit_split``.  Results are shared between
callers and never copied, so the value classes derive from ``Frozen``.
"""

from __future__ import annotations

from operator import attrgetter

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
