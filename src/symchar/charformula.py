"""Character assembly for concrete symmetric-power degrees.

character_at turns the closed pole data into the actual character of the
N-th symmetric power, the sum of the C(N+k-1, N) q^(N nu) A(nu,k), for
every N by one route: polyring.kronecker_sum computes the sum as one integer
over the box N*[min_i, max_i] of the module's weights, each term divided by
its own factors as a power series, and raises ExactDivisionError when one
of its checks fails.  The coefficients must be positive integers that sum
to C(dim-1+N, N); every error names the module and N.  Each degree is
assembled once per ClosedCharacter and kept on it (a bounded memo, see
_memo), so the characters live exactly as long as their pole data; n is
checked on every call.  multiplicity_at reads a weight multiplicity off
that polynomial as a shifted constant term.

orbit_split regroups the same sum by Weyl orbits of dominant weights; its
summands are kept on the ClosedCharacter by degree in the same way, n and
rs checked on every call, and each call gets a new list of them.
univariate_pfd decomposes a rank-1 summand into a Laurent-polynomial part
plus proper fractions over powers of cyclotomic polynomials, all on rank-1
LaurentPoly values.  The reduction is Hermite-style: for each Phi_d^k the
residue numerator is the numerator times the inverse of the rest of the
denominator, modulo Phi_d; it is subtracted and Phi_d divided out exactly,
so every numerator has degree below deg(Phi_d).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod

from ._memo import Frozen, recall
from .pfdcore import ClosedCharacter, binomial_poly
from .polyring import (
    ExactDivisionError, FactoredRational, InconsistencyError, LaurentPoly, check_count,
    check_exponent, kronecker_sum,
)
from .rootsys import RootSystem, Weight, weight_scale

__all__ = [
    "CharacterPoly",
    "OrbitSummand",
    "CyclotomicPole",
    "UnivariatePFD",
    "character_at",
    "multiplicity_at",
    "orbit_split",
    "univariate_pfd",
    "cyclotomic",
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


class CyclotomicPole(Frozen):
    """A proper fraction numerator / Phi_index(q)^power with deg(numerator) < deg(Phi)."""

    index: int
    power: int
    numerator: tuple[Fraction, ...]  # dense, constant term first

    def to_json(self) -> dict:
        return {
            "cyclotomic_index": self.index,
            "power": self.power,
            "numerator": [str(c) for c in self.numerator],
        }


class UnivariatePFD(Frozen):
    """Laurent part plus cyclotomic pole terms of a rank-1 rational function."""

    laurent_part: LaurentPoly
    pole_terms: tuple[CyclotomicPole, ...]

    def as_fraction_pair(self) -> tuple[LaurentPoly, LaurentPoly]:
        """Reassemble into (numerator, denominator) with a plain polynomial denominator."""
        powers: dict[int, int] = {}
        for term in self.pole_terms:
            powers[term.index] = max(powers.get(term.index, 0), term.power)
        den = prod((_phi(d) ** k for d, k in sorted(powers.items())), start=LaurentPoly.one(1))
        num = self.laurent_part * den
        for term in self.pole_terms:
            cofactor = _divmod(den, _phi(term.index) ** term.power)[0]
            num = num + LaurentPoly(1, {(i,): c for i, c in enumerate(term.numerator)}) * cofactor
        return num, den

    def to_json(self) -> dict:
        return {
            "laurent_part": self.laurent_part.to_json(),
            "pole_terms": [term.to_json() for term in self.pole_terms],
        }


def _parts(cc: ClosedCharacter, n: int) -> list[tuple[FactoredRational, int, Weight]]:
    """(A(nu,k), C(n+k-1, n), n nu) for each pole term: the parts of the degree-n character."""
    return [(t.coeff, binomial_poly(t.order, n), weight_scale(n, t.weight)) for t in cc.terms]


def _summands(parts) -> list[FactoredRational]:
    """The summands C(n+k-1, n) q^(n nu) A(nu,k) of the parts, as values."""
    return [f * LaurentPoly.monomial(beta, c) for f, c, beta in parts]


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
    parts, total = _parts(cc, n), comb(cc.source.dimension() - 1 + n, n)
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
    """The degree-n orbit summands, each orbit's parts summed and reduced once."""
    grouped: dict[Weight, list[FactoredRational]] = {}
    for term, part in zip(cc.terms, _summands(_parts(cc, n))):
        grouped.setdefault(rs.dominant_representative(term.weight), []).append(part)
    return tuple(
        OrbitSummand(nu, FactoredRational.sum(grouped[nu], cc.rank).reduced())
        for nu in sorted(grouped)
    )


# -- univariate machinery ----------------------------------------------------
#
# Univariate polynomials are rank-1 LaurentPoly values.  The one operation
# LaurentPoly lacks is division with remainder by a polynomial: _divmod, for
# exponents >= 0.  A numerator with negative exponents is first multiplied by
# q^(k*d), which is 1 modulo Phi_d, and shifted back once Phi_d is divided out.


def _divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """(quotient, remainder) of rank-1 polynomials a and b, both with exponents >= 0."""
    if b.is_zero:
        raise ZeroDivisionError("univariate division by zero")
    top, lead = max((e, c) for (e,), c in b.terms.items())
    rem = {e: c for (e,), c in a.terms.items()}
    quot: dict[tuple[int], Fraction] = {}
    while rem and (high := max(rem)) >= top:
        factor, offset = rem[high] / lead, high - top
        quot[(offset,)] = factor
        for (e,), c in b.terms.items():
            value = rem.get(e + offset, 0) - factor * c
            if value:
                rem[e + offset] = value
            else:
                del rem[e + offset]
    return LaurentPoly(1, quot), LaurentPoly(1, {(e,): c for e, c in rem.items()})


def _mod_inverse(a: LaurentPoly, modulus: LaurentPoly) -> LaurentPoly:
    """Inverse of a modulo the (irreducible) modulus, by extended Euclid."""
    r0, r1 = modulus, _divmod(a, modulus)[1]
    t0, t1 = LaurentPoly.zero(1), LaurentPoly.one(1)
    while not r1.is_zero:
        quot, rem = _divmod(r0, r1)
        r0, r1, t0, t1 = r1, rem, t1, t0 - quot * t1
    if list(r0.terms) != [(0,)]:
        raise ZeroDivisionError("element not invertible modulo the given polynomial")
    return _divmod(t0 * (1 / r0.terms[(0,)]), modulus)[1]


# Cyclotomic polynomials by index; see _memo.
_CYCLOTOMICS: dict[int, LaurentPoly] = {}


def _phi(d: int) -> LaurentPoly:
    """Phi_d = (q^d - 1) / prod of the Phi_e for proper divisors e of d, built once."""

    def build() -> LaurentPoly:
        num = LaurentPoly(1, {(d,): 1, (0,): -1})
        for e in range(1, d):
            if d % e == 0:
                num, rem = _divmod(num, _phi(e))
                if not rem.is_zero:
                    raise InconsistencyError("Phi_%d does not divide q^%d - 1" % (e, d))
        if any(c.denominator != 1 for c in num.terms.values()):
            raise InconsistencyError("non-integral coefficient in cyclotomic polynomial %d" % d)
        return num

    return recall(_CYCLOTOMICS, d, build)


def cyclotomic(d: int) -> tuple[int, ...]:
    """Dense integer coefficients of the d-th cyclotomic polynomial (constant first)."""
    check_count(d, "cyclotomic index", 1)
    phi = _phi(d)
    return tuple(int(phi.coefficient((i,))) for i in range(max(phi.terms)[0] + 1))


def univariate_pfd(f: FactoredRational) -> UnivariatePFD:
    """Decompose a rank-1 factored rational function over cyclotomic poles.

    The result is a Laurent-polynomial part plus proper fractions
    numerator / Phi_d(q)^k with deg(numerator) < deg(Phi_d), sorted by
    (d, k).  Reassembling them reproduces the input exactly.
    """
    if f.rank != 1:
        raise ValueError("univariate decomposition requires a rank-1 function")
    f = f.reduced()

    # 1 - q^a = -(q^a - 1) = - prod of Phi_d over divisors d of a.
    powers: dict[int, int] = {}
    for (a,), k in f.factors.items():
        for d in range(1, a + 1):
            if a % d == 0:
                powers[d] = powers.get(d, 0) + k
    num = f.numerator * (-1) ** sum(f.factors.values())

    poles: list[CyclotomicPole] = []
    for d in sorted(powers):
        phi = _phi(d)
        rest = prod((_phi(e) ** k for e, k in powers.items() if e > d), start=LaurentPoly.one(1))
        rest_inv = _mod_inverse(rest, phi)
        # Work on q^lift * num, with q^lift == 1 modulo Phi_d and every exponent >= 0.
        lift = d * max(0, -(min(num.terms, default=(0,))[0] // d))
        up = LaurentPoly.monomial((lift,))
        num, rest_up = num * up, rest * up
        for k in range(powers[d], 0, -1):
            residue = _divmod(_divmod(num, phi)[1] * rest_inv, phi)[1]
            if not residue.is_zero:
                dense = tuple(residue.coefficient((i,)) for i in range(max(residue.terms)[0] + 1))
                poles.append(CyclotomicPole(index=d, power=k, numerator=dense))
            # q^lift * (num - residue * rest) is divisible by Phi_d; divide it out.
            num, rem = _divmod(num - residue * rest_up, phi)
            if not rem.is_zero:
                raise InconsistencyError("cyclotomic reduction by Phi_%d is not exact" % d)
        num = num * LaurentPoly.monomial((-lift,))

    poles.sort(key=lambda term: (term.index, term.power))
    return UnivariatePFD(laurent_part=num, pole_terms=tuple(poles))
