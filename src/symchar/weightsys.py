"""Weight systems of irreducible highest-weight modules.

Multiplicities come from the Freudenthal recursion, run on the root
system's integral form (the Gram matrix as integers over one scale), so
every multiplicity is one exact integer division; dimensions come from the
Weyl dimension formula on the same form, also one exact integer division,
and the two are cross-checked on every construction.  Each table carries
its root system; building a table checks its entries and that the simple
reflections keep them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod
from operator import mul
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from ._base import Frozen, InconsistencyError, check_count, recall
from .rootsys import RootSystem, Weight, checked_weight, is_dominant, weight_diff, weight_sum

if TYPE_CHECKING:  # polyring loads only when a table's character is asked for
    from .polyring import LaurentPoly

__all__ = ["MultiplicityTable", "weight_system", "dim_irrep"]


class MultiplicityTable(Frozen):
    """Finite map weight -> multiplicity for one module of a root system.

    Construction checks that there are entries, that every weight (the
    highest too) is an integer vector of the root system's rank, that every
    multiplicity is a positive integer and that each simple reflection keeps
    the multiplicities, and a lookup checks its weight (ValueError
    otherwise).  The entries are kept as a read-only copy, so the checks
    hold for the table's lifetime and tables can be shared.
    """

    highest_weight: Weight
    entries: Mapping[Weight, int]
    root_system: RootSystem

    def __post_init__(self):
        rs, entries = self.root_system, dict(self.entries)
        if not entries:
            raise ValueError("empty multiplicity table")
        checked_weight(rs, self.highest_weight)
        for mu, count in entries.items():
            checked_weight(rs, mu)
            check_count(count, "multiplicity table entry %s" % (mu,), 1)
        for mu, i in product(entries, range(1, rs.rank + 1)):
            if entries.get(rs.reflect(i, mu)) != entries[mu]:
                raise ValueError("%s: multiplicity of %s differs from its reflection %d"
                                 % (rs.label, mu, i))
        object.__setattr__(self, "entries", MappingProxyType(entries))
        # The table's content, pfd_decompose's memo key; not a field.
        object.__setattr__(self, "_content",
                           (rs.label, self.highest_weight, tuple(sorted(entries.items()))))

    @property
    def rank(self) -> int:
        return len(self.highest_weight)

    def dimension(self) -> int:
        return sum(self.entries.values())

    def multiplicity(self, mu) -> int:
        return self.entries.get(checked_weight(self.root_system, mu), 0)

    def support(self) -> list[Weight]:
        return sorted(self.entries)

    def character_poly(self) -> LaurentPoly:
        """The character as a Laurent polynomial (sum of m(mu) q^mu)."""
        from .polyring import LaurentPoly
        return LaurentPoly(self.rank, dict(self.entries))

    def to_json(self) -> list[dict]:
        return [{"weight": list(mu), "mult": self.entries[mu]} for mu in self.support()]


def _support_closure(rs: RootSystem, highest: Weight) -> set[Weight]:
    """All weights of the module, generated by descending root strings.

    From any weight mu with mu[i] > 0 the string mu - t*a_i stays inside
    the weight diagram for t = 1..mu[i]; iterating this from the highest
    weight reaches the entire support.
    """
    seen = {highest}
    frontier = [highest]
    while frontier:
        nxt = []
        for mu in frontier:
            for i, coeff in enumerate(mu):
                if coeff > 0:
                    alpha = rs.simple_roots[i]
                    for t in range(1, coeff + 1):
                        down = tuple(m - t * a for m, a in zip(mu, alpha))
                        if down not in seen:
                            seen.add(down)
                            nxt.append(down)
        frontier = nxt
    return seen


# Weight tables by (root system, highest weight); see _base.
_TABLES: dict[tuple[RootSystem, Weight], MultiplicityTable] = {}


def weight_system(rs: RootSystem, highest) -> MultiplicityTable:
    """Complete multiplicity table of the irreducible module with this highest weight.

    The weight is checked on every call; the table is computed once per
    (root system, highest weight) and then shared.
    """
    highest = _checked_highest(rs, highest)
    return recall(_TABLES, (rs, highest), lambda: _freudenthal(rs, highest))


def _checked_highest(rs: RootSystem, highest) -> Weight:
    """highest as a tuple of ints, or ValueError unless it is an integral dominant weight of rs."""
    highest = checked_weight(rs, highest)
    if not is_dominant(highest):
        raise ValueError("highest weight %r is not dominant" % (highest,))
    return highest


def _freudenthal(rs: RootSystem, highest: Weight) -> MultiplicityTable:
    """The multiplicity table of a checked dominant weight, cross-checked."""
    # Every inner product and height below is scale times the true one; the
    # scale cancels in the Freudenthal quotient and does not change the order.
    gram, heights, _ = rs.integral_form

    def covector(mu: Weight) -> tuple[int, ...]:
        return tuple(sum(map(mul, row, mu)) for row in gram)

    def norm(mu: Weight) -> int:
        shifted = weight_sum(mu, rs.rho)
        return sum(map(mul, shifted, covector(shifted)))

    support = _support_closure(rs, highest)
    order = sorted(support, key=lambda mu: (sum(map(mul, heights, weight_diff(highest, mu))), mu))
    roots = [(alpha, covector(alpha)) for alpha in rs.positive_roots]
    top_norm = norm(highest)
    mult: dict[Weight, int] = {highest: 1}
    for mu in order:
        if mu == highest:
            continue
        acc = 0
        for alpha, form in roots:
            nu = weight_sum(mu, alpha)
            while nu in support:
                count = mult.get(nu)
                if count:
                    acc += count * sum(map(mul, nu, form))
                nu = weight_sum(nu, alpha)
        denom = top_norm - norm(mu)
        if denom == 0:
            raise InconsistencyError("Freudenthal denominator vanished at weight %s" % (mu,))
        value, rest = divmod(2 * acc, denom)
        if rest or value < 1:
            raise InconsistencyError(
                "Freudenthal multiplicity %s at weight %s" % (Fraction(2 * acc, denom), mu)
            )
        mult[mu] = value

    try:
        table = MultiplicityTable(highest_weight=highest, entries=mult, root_system=rs)
    except ValueError as error:
        raise InconsistencyError("Freudenthal table: %s" % error) from error
    if table.dimension() != dim_irrep(rs, highest):
        raise InconsistencyError(
            "Freudenthal dimension %d differs from the Weyl dimension %d"
            % (table.dimension(), dim_irrep(rs, highest))
        )
    return table


def dim_irrep(rs: RootSystem, highest) -> int:
    """Dimension of the module by Weyl's formula, on the integral form (its scale cancels)."""
    highest = _checked_highest(rs, highest)
    shifted, gram = weight_sum(highest, rs.rho), rs.integral_form[0]
    forms = [[sum(map(mul, row, alpha)) for row in gram] for alpha in rs.positive_roots]
    top = prod(sum(map(mul, shifted, form)) for form in forms)
    bottom = prod(sum(map(mul, rs.rho, form)) for form in forms)
    value, rest = divmod(top, bottom)
    if rest or value < 1:
        raise InconsistencyError("Weyl dimension formula gave %s for %s"
                                 % (Fraction(top, bottom), highest))
    return value
