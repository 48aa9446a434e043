"""Character assembly for concrete symmetric-power degrees.

character_at turns the closed pole data into the actual character of the
N-th symmetric power, the sum of the C(N+k-1, N) q^(N nu) A(nu,k), for
every N by one route: polyring.kronecker_sum computes the sum as one integer
over the box N*[min_i, max_i] of the module's weights, each term divided by
its own factors as a power series, and raises ExactDivisionError when one
of its checks fails.  The coefficients must be positive integers that sum
to C(dim-1+N, N); every error names the module and N.  Each degree is
assembled once per ClosedCharacter and kept on it (a bounded memo, see
_base), so the characters live exactly as long as their pole data; n is
checked on every call.  multiplicity_at reads a weight multiplicity off
that polynomial as a shifted constant term.

orbit_split regroups the same sum by Weyl orbits of dominant weights.  Once
per ClosedCharacter the pole terms are grouped by the dominant weight of
their orbit, and each is lifted to its orbit's common denominator, the
largest power of each factor over the orbit's terms; the lifted terms are
kept.  The grouping assumes no Weyl equivariance, so it holds for any pole
data.  For degree n both routes build their parts with _parts: each
orbit's are added over its one denominator by
FactoredRational.shifted_sum and reduced once.  A numerator over a fixed
denominator is unique, so this is the value and the form the per-part sum
over that denominator gives.  A module whose weights form one orbit has its
character as its one summand.  The summands are kept on the ClosedCharacter
by degree like the characters, n and rs checked on every call, and each
call gets a new list of them.
"""

from __future__ import annotations

from math import comb

from ._base import Frozen, recall
from .pfdcore import ClosedCharacter, PFDTerm, binomial_poly
from .polyring import (
    ExactDivisionError, FactoredRational, InconsistencyError, LaurentPoly, check_count,
    check_exponent, kronecker_sum,
)
from .rootsys import RootSystem, Weight, weight_scale

__all__ = [
    "CharacterPoly",
    "OrbitSummand",
    "character_at",
    "multiplicity_at",
    "orbit_split",
]


class CharacterPoly(Frozen):
    """A symmetric-power character: a Laurent polynomial with positive integer coefficients."""

    rank: int
    terms: LaurentPoly

    def __post_init__(self):
        if self.rank != self.terms.rank:
            raise ValueError("rank-%d character with rank-%d terms" % (self.rank, self.terms.rank))
        # Checked on the integer terms over their scale; the Fraction view only
        # formats the message.
        terms, scale = self.terms._terms, self.terms._scale
        bad = [mu for mu, c in terms.items() if c % scale or c <= 0]
        if bad:
            raise InconsistencyError("character coefficients must be positive integers, "
                                     "not %s at %s" % (self.terms.terms[min(bad)], min(bad)))

    def multiplicity(self, mu) -> int:
        return self.terms._terms.get(check_exponent(mu, self.terms.rank), 0) // self.terms._scale

    def coefficient_sum(self) -> int:
        return sum(self.terms._terms.values()) // self.terms._scale

    def support(self) -> list[Weight]:
        return self.terms.support()

    def to_json(self) -> list[dict]:
        terms, scale = self.terms._terms, self.terms._scale
        return [{"weight": list(mu), "mult": terms[mu] // scale} for mu in sorted(terms)]


class OrbitSummand(Frozen):
    """The part of one symmetric-power character carried by a single Weyl orbit."""

    dominant_weight: Weight
    value: FactoredRational

    def to_json(self) -> dict:
        return {"dominant_weight": list(self.dominant_weight), "value": self.value.to_json()}


def _parts(terms, n: int) -> list[tuple[FactoredRational, int, Weight]]:
    """(A(nu,k), C(n+k-1, n), n nu) for each pole term: the parts of their degree-n sum."""
    return [(t.coeff, binomial_poly(t.order, n), weight_scale(n, t.weight)) for t in terms]


def character_at(cc: ClosedCharacter, n: int) -> CharacterPoly:
    """Character of the n-th symmetric power, as an exact Laurent polynomial.

    n is checked on every call; the character is computed once per degree
    and kept on cc, so it lives as long as the pole data and is shared.
    """
    check_count(n, "symmetric-power degree")
    return recall(cc._characters, n, lambda: _assemble(cc, n))


def _assemble(cc: ClosedCharacter, n: int) -> CharacterPoly:
    """The degree-n character by the Kronecker route, its coefficient sum checked."""
    where = "%s%s, N=%d" % (cc.source.root_system.label, cc.source.highest_weight, n)
    parts, total = _parts(cc.terms, n), comb(cc.source.dimension() - 1 + n, n)
    columns = list(zip(*cc.source.support()))
    try:
        character = CharacterPoly(rank=cc.rank, terms=kronecker_sum(
            parts, [n * min(c) for c in columns], [n * max(c) for c in columns], total))
        if character.coefficient_sum() != total:
            raise InconsistencyError("coefficients sum to %d, not C(dim-1+N, N) = %d"
                                     % (character.coefficient_sum(), total))
        return character
    except (ExactDivisionError, InconsistencyError) as error:
        raise type(error)("%s: %s" % (where, error)) from error


def multiplicity_at(cp: CharacterPoly, mu) -> int:
    """Weight multiplicity in the symmetric power: the coefficient at q^mu."""
    return cp.multiplicity(mu)


def orbit_split(cc: ClosedCharacter, rs: RootSystem, n: int) -> list[OrbitSummand]:
    """Regroup the degree-n character by Weyl orbits of dominant weights.

    The summands add up to the full character of the n-th symmetric power;
    each one collects q^(n w.nu) times the pole coefficients of the orbit
    weights w.nu.  rs must be the root system of the module's table,
    cc.source.root_system; otherwise ValueError.  n and rs are checked on
    every call; the summands are computed once per degree and kept on cc,
    and each call returns a new list of the shared, read-only summands.
    """
    check_count(n, "symmetric-power degree")
    if rs != cc.source.root_system:
        raise ValueError("root system %s is not %s, the root system of the pole data"
                         % (rs.label, cc.source.root_system.label))
    return list(recall(cc._orbits, n, lambda: _split(cc, rs, n)))


def _split(cc: ClosedCharacter, rs: RootSystem, n: int) -> tuple[OrbitSummand, ...]:
    """The degree-n orbit summands: each orbit's kept terms' parts summed and reduced once."""
    if not cc._lifts:
        cc._lifts.update(_lift(cc, rs))
    if len(cc._lifts) == 1:
        (nu,) = cc._lifts
        return (OrbitSummand(nu, FactoredRational(character_at(cc, n).terms)),)
    return tuple(OrbitSummand(nu, FactoredRational.shifted_sum(_parts(kept, n), cc.rank).reduced())
                 for nu, kept in sorted(cc._lifts.items()))


def _lift(cc: ClosedCharacter, rs: RootSystem) -> dict[Weight, tuple[PFDTerm, ...]]:
    """Per dominant weight nu, the pole terms of its orbit over their common denominator.

    The common denominator holds the largest power of each factor over the
    orbit's terms; each term keeps its weight and order, its coefficient
    lifted to that denominator.  A module with one orbit keeps none.
    """
    orbits: dict[Weight, list] = {}
    for term in cc.terms:
        orbits.setdefault(rs.to_dominant(term.weight)[0], []).append(term)
    if len(orbits) == 1:
        return dict.fromkeys(orbits, ())
    lifts = {}
    for nu, terms in orbits.items():
        common: dict[Weight, int] = {}
        for term in terms:
            for alpha, power in term.coeff.factors.items():
                common[alpha] = max(common.get(alpha, 0), power)
        lifts[nu] = tuple(PFDTerm(t.weight, t.order, _lifted(t.coeff, common)) for t in terms)
    return lifts


def _lifted(f: FactoredRational, common) -> FactoredRational:
    """f over the denominator common, which holds each factor of f at least as often.

    FactoredRational.sum brings its parts over the largest power of each
    factor among them, in one packing, so f + 1/common - 1/common is f over
    common.
    """
    if f.factors == common:
        return f
    unit = FactoredRational(LaurentPoly.one(f.rank), common)
    return FactoredRational.sum([f, unit, -unit], f.rank)
