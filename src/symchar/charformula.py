"""Character assembly for concrete symmetric-power degrees.

character_at turns the closed pole data into the actual character of the
N-th symmetric power: the weighted sum of coefficients is accumulated as a
single factored rational function over one common denominator, and the
final (always exact) division by its binomial factors, one at a time,
recovers the Laurent polynomial.  multiplicity_at reads a weight
multiplicity off that polynomial as a shifted constant term.

orbit_split regroups the same sum by Weyl orbits of dominant weights, and
univariate_pfd decomposes a rank-1 summand into a Laurent-polynomial part
plus proper fractions over powers of cyclotomic polynomials.  The
cyclotomic reduction is Hermite-style: for each cyclotomic factor the top
residue numerator is computed modulo that factor (using the inverse of the
complementary denominator in the quotient ring), subtracted, and the
remaining function divided down exactly; numerators therefore always have
degree strictly below the cyclotomic's degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .pfdcore import ClosedCharacter, binomial_poly
from .polyring import ExactDivisionError, FactoredRational, LaurentPoly
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


@dataclass(frozen=True)
class CharacterPoly:
    """The character of one symmetric power as a Laurent polynomial."""

    rank: int
    terms: LaurentPoly

    def multiplicity(self, mu) -> int:
        value = self.terms.coefficient(tuple(mu))
        assert value.denominator == 1
        return int(value)

    def coefficient_sum(self) -> int:
        total = self.terms.coefficient_sum()
        assert total.denominator == 1
        return int(total)

    def support(self) -> list[Weight]:
        return self.terms.support()

    def to_json(self) -> list[dict]:
        return [
            {"weight": list(mu), "mult": int(self.terms.terms[mu])}
            for mu in self.terms.support()
        ]


@dataclass(frozen=True)
class OrbitSummand:
    """The part of one symmetric-power character carried by a single Weyl orbit."""

    dominant_weight: Weight
    value: FactoredRational

    def to_json(self) -> dict:
        return {"dominant_weight": list(self.dominant_weight), "value": self.value.to_json()}


@dataclass(frozen=True)
class CyclotomicPole:
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


@dataclass(frozen=True)
class UnivariatePFD:
    """Laurent part plus cyclotomic pole terms of a rank-1 rational function."""

    laurent_part: LaurentPoly
    pole_terms: tuple[CyclotomicPole, ...]

    def as_fraction_pair(self) -> tuple[LaurentPoly, LaurentPoly]:
        """Reassemble into (numerator, denominator) with a plain polynomial denominator."""
        powers: dict[int, int] = {}
        for term in self.pole_terms:
            powers[term.index] = max(powers.get(term.index, 0), term.power)
        den = LaurentPoly.one(1)
        for d in sorted(powers):
            den = den * _cyclotomic_poly(d) ** powers[d]
        num = self.laurent_part * den
        for term in self.pole_terms:
            cofactor = LaurentPoly.one(1)
            for d in sorted(powers):
                drop = term.power if d == term.index else 0
                cofactor = cofactor * _cyclotomic_poly(d) ** (powers[d] - drop)
            num = num + _dense_to_laurent(0, list(term.numerator)) * cofactor
        return num, den

    def to_json(self) -> dict:
        return {
            "laurent_part": self.laurent_part.to_json(),
            "pole_terms": [term.to_json() for term in self.pole_terms],
        }


def _contributions(cc: ClosedCharacter, n: int) -> list[tuple[Weight, FactoredRational]]:
    """(nu, C(n+k-1, n) q^(n nu) A(nu,k)) for each pole term: the degree-n summands."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("symmetric-power degree must be a non-negative integer")
    return [
        (t.weight, t.coeff * binomial_poly(t.order, n) * LaurentPoly.monomial(weight_scale(n, t.weight)))
        for t in cc.terms
    ]


def character_at(cc: ClosedCharacter, n: int) -> CharacterPoly:
    """Character of the n-th symmetric power, as an exact Laurent polynomial."""
    rank = cc.rank
    total = FactoredRational.sum([part for _, part in _contributions(cc, n)], rank)
    poly = total.as_laurent()  # ExactDivisionError here means an upstream bug
    for coeff in poly.terms.values():
        if coeff.denominator != 1 or coeff <= 0:
            raise ExactDivisionError("character coefficients must be positive integers")
    return CharacterPoly(rank=rank, terms=poly)


def multiplicity_at(cp: CharacterPoly, mu) -> int:
    """Weight multiplicity in the symmetric power: the coefficient at q^mu."""
    return cp.multiplicity(mu)


def orbit_split(cc: ClosedCharacter, rs: RootSystem, n: int) -> list[OrbitSummand]:
    """Regroup the degree-n character by Weyl orbits of dominant weights.

    The summands add up to the full character of the n-th symmetric power;
    each one collects q^(n w.nu) times the pole coefficients of the orbit
    weights w.nu.
    """
    grouped: dict[Weight, list[FactoredRational]] = {}
    for weight, part in _contributions(cc, n):
        grouped.setdefault(rs.dominant_representative(weight), []).append(part)
    return [
        OrbitSummand(
            dominant_weight=nu,
            value=FactoredRational.sum(grouped[nu], cc.rank).reduced(),
        )
        for nu in sorted(grouped)
    ]


# -- univariate machinery ----------------------------------------------------
#
# Dense univariate polynomials over Q are plain coefficient lists, constant
# term first, with no trailing zeros.


def _trim(coeffs: list[Fraction]) -> list[Fraction]:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _dense_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


def _dense_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


def _dense_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    rem = list(a)
    quot = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
    lead = b[-1]
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        factor = rem[-1] / lead
        quot[shift] = factor
        for j, cb in enumerate(b):
            rem[shift + j] -= factor * cb
        _trim(rem)
    return _trim(quot), rem


def _dense_mod(a: list[Fraction], modulus: list[Fraction]) -> list[Fraction]:
    return _dense_divmod(a, modulus)[1]


def _dense_mod_inverse(a: list[Fraction], modulus: list[Fraction]) -> list[Fraction]:
    """Inverse of a modulo the (irreducible) modulus, by extended Euclid."""
    r0, r1 = list(modulus), _dense_mod(a, modulus)
    t0: list[Fraction] = []
    t1: list[Fraction] = [Fraction(1)]
    while r1:
        quot, rem = _dense_divmod(r0, r1)
        r0, r1 = r1, rem
        t0, t1 = t1, _dense_sub(t0, _dense_mul(quot, t1))
    if len(r0) != 1:
        raise ZeroDivisionError("element not invertible modulo the given polynomial")
    return _dense_mod([c / r0[0] for c in t0], modulus)


_CYCLOTOMIC_CACHE: dict[int, tuple[int, ...]] = {}


def cyclotomic(d: int) -> tuple[int, ...]:
    """Dense integer coefficients of the d-th cyclotomic polynomial (constant first)."""
    if not isinstance(d, int) or d < 1:
        raise ValueError("cyclotomic index must be a positive integer")
    cached = _CYCLOTOMIC_CACHE.get(d)
    if cached is None:
        # Phi_d = (q^d - 1) / prod of the Phi_e for proper divisors e of d.
        num = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
        for e in range(1, d):
            if d % e == 0:
                num, rem = _dense_divmod(num, [Fraction(c) for c in cyclotomic(e)])
                assert not rem
        assert all(c.denominator == 1 for c in num)
        cached = tuple(int(c) for c in num)
        _CYCLOTOMIC_CACHE[d] = cached
    return cached


def _cyclotomic_fracs(d: int) -> list[Fraction]:
    return [Fraction(c) for c in cyclotomic(d)]


def _cyclotomic_poly(d: int) -> LaurentPoly:
    return _dense_to_laurent(0, _cyclotomic_fracs(d))


def _laurent_to_dense(poly: LaurentPoly) -> tuple[int, list[Fraction]]:
    """Rank-1 Laurent polynomial as (shift, dense coefficients of q^-shift * poly)."""
    if poly.is_zero:
        return 0, []
    exponents = [e[0] for e in poly.terms]
    shift = min(exponents)
    coeffs = [Fraction(0)] * (max(exponents) - shift + 1)
    for (e,), c in poly.terms.items():
        coeffs[e - shift] = c
    return shift, coeffs


def _dense_to_laurent(shift: int, coeffs: list[Fraction]) -> LaurentPoly:
    return LaurentPoly(1, {(shift + i,): c for i, c in enumerate(coeffs) if c})


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


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
    sign = 1
    for (a,), k in f.factors.items():
        for d in _divisors(a):
            powers[d] = powers.get(d, 0) + k
        if k % 2:
            sign = -sign
    shift, num = _laurent_to_dense(f.numerator)
    if sign < 0:
        num = [-c for c in num]

    poles: list[CyclotomicPole] = []
    for d in sorted(powers):
        if not powers[d]:
            continue
        phi = _cyclotomic_fracs(d)
        rest = [Fraction(1)]
        for d2, k2 in powers.items():
            if d2 > d and k2:
                for _ in range(k2):
                    rest = _dense_mul(rest, _cyclotomic_fracs(d2))
        rest_inv = _dense_mod_inverse(rest, phi)
        while powers[d]:
            k = powers[d]
            # q^shift modulo Phi_d, using q^d == 1 in the quotient ring.
            shift_poly = [Fraction(0)] * (shift % d) + [Fraction(1)]
            residue = _dense_mod(_dense_mul(_dense_mod(num, phi), rest_inv), phi)
            residue = _dense_mod(_dense_mul(residue, shift_poly), phi)
            if residue:
                poles.append(CyclotomicPole(index=d, power=k, numerator=tuple(residue)))
            # (q^shift num - residue * rest) is divisible by Phi_d; divide it out.
            sub = _dense_mul(residue, rest)
            base = min(shift, 0)
            width = max(shift + len(num), len(sub)) - base
            merged = [Fraction(0)] * width
            for i, c in enumerate(num):
                merged[shift - base + i] += c
            for i, c in enumerate(sub):
                merged[-base + i] -= c
            quot, rem = _dense_divmod(_trim(merged), phi)
            assert not rem, "cyclotomic reduction left a remainder"
            shift = base
            num = quot
            while num and not num[0]:
                num.pop(0)
                shift += 1
            powers[d] -= 1

    poles.sort(key=lambda term: (term.index, term.power))
    return UnivariatePFD(laurent_part=_dense_to_laurent(shift, num), pole_terms=tuple(poles))
