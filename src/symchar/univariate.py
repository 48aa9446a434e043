"""Rank-1 partial fractions over cyclotomic poles.

univariate_pfd decomposes a rank-1 summand into a Laurent-polynomial part
plus proper fractions over powers of cyclotomic polynomials, all on rank-1
LaurentPoly values.  The reduction is Hermite-style: for each Phi_d^k the
residue numerator is the numerator times the inverse of the rest of the
denominator, modulo Phi_d; it is subtracted and Phi_d divided out exactly,
so every numerator has degree below deg(Phi_d).

Univariate polynomials are rank-1 LaurentPoly values.  The one operation
LaurentPoly lacks is division with remainder by a polynomial: _divmod, for
exponents >= 0.  A numerator with negative exponents is first multiplied by
q^(k*d), which is 1 modulo Phi_d, and shifted back once Phi_d is divided out.
Each cyclotomic polynomial is built once, in a bounded memo (see _memo).
No subcommand of the command line runs this module, so none loads it.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from ._checks import InconsistencyError, check_count
from ._memo import Frozen, recall
from .polyring import FactoredRational, LaurentPoly

__all__ = ["CyclotomicPole", "UnivariatePFD", "univariate_pfd", "cyclotomic"]


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
