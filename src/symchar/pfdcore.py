"""Partial-fraction data of the graded symmetric-power character.

For a module with multiplicity table m, the graded character
prod_nu (1 - q^nu z)^(-m(nu)) decomposes over the z-poles as
sum_(nu,k) A_(nu,k)(q) (1 - q^nu z)^(-k) with 1 <= k <= m(nu).  The
coefficient attached to the pole at z = q^(-mu) of order m(mu) - l is

    A_(mu, m(mu)-l) = (-1)^l / (l! q^(l*mu)) * G^(l)(q^(-mu)),

where G(z) is the product over the other weights.  The derivatives are
evaluated through the logarithmic derivative S = G'/G, whose own
derivatives at z = q^(-mu) are explicit sums of monomials over binomial
powers; G^(l+1) then follows from the Leibniz rule.  No polynomial in z is
ever materialized and every denominator stays a product of binomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .polyring import FactoredRational, LaurentPoly
from .rootsys import Weight, weight_diff, weight_scale
from .weightsys import MultiplicityTable

__all__ = [
    "PFDTerm",
    "ClosedCharacter",
    "binomial_poly",
    "pfd_decompose",
    "sl2_coefficient",
    "fundamental_coefficient",
]


@dataclass(frozen=True)
class PFDTerm:
    """One pole contribution: coefficient of (1 - q^weight z)^(-order)."""

    weight: Weight
    order: int
    coeff: FactoredRational

    def to_json(self) -> dict:
        return {"weight": list(self.weight), "order": self.order, "A": self.coeff.to_json()}


@dataclass(frozen=True)
class ClosedCharacter:
    """The complete pole data of one module's graded symmetric-power character."""

    source: MultiplicityTable
    terms: tuple[PFDTerm, ...]

    @property
    def rank(self) -> int:
        return self.source.rank

    def coefficient_sum(self) -> FactoredRational:
        """Sum of all coefficients; equals 1 exactly (the N = 0 specialization)."""
        return FactoredRational.sum([term.coeff for term in self.terms], self.rank)

    def to_json(self) -> list[dict]:
        return [term.to_json() for term in self.terms]


def binomial_poly(k: int, n: int) -> int:
    """Value of the degree-(k-1) coefficient polynomial: C(n + k - 1, n)."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("order k must be a positive integer")
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a non-negative integer")
    return comb(n + k - 1, n)


def pfd_decompose(table: MultiplicityTable) -> ClosedCharacter:
    """All pole coefficients of the graded character of the given module."""
    support = table.support()
    if not support:
        raise ValueError("empty multiplicity table")
    rank = table.rank
    terms: list[PFDTerm] = []
    for mu in support:
        order_max = table.multiplicity(mu)
        others = [(nu, table.multiplicity(nu)) for nu in support if nu != mu]

        # G evaluated at z = q^(-mu): a pure product of binomial inverses.
        g_values = [
            FactoredRational(
                LaurentPoly.one(rank),
                [(weight_diff(nu, mu), count) for nu, count in others],
            )
        ]
        if order_max > 1:
            # S^(j)(q^-mu) = sum_nu m(nu) j! q^((j+1)nu) / (1 - q^(nu-mu))^(j+1)
            s_values = []
            for j in range(order_max - 1):
                acc = FactoredRational.zero(rank)
                for nu, count in others:
                    piece = FactoredRational(
                        LaurentPoly.monomial(
                            weight_scale(j + 1, nu), count * factorial(j)
                        ),
                        [(weight_diff(nu, mu), j + 1)],
                    )
                    acc = acc + piece
                s_values.append(acc)
            for l in range(1, order_max):
                total = FactoredRational.zero(rank)
                for j in range(l):
                    total = total + comb(l - 1, j) * (g_values[j] * s_values[l - 1 - j])
                g_values.append(total)

        for l in range(order_max):
            coeff = g_values[l] * Fraction((-1) ** l, factorial(l))
            if l:
                coeff = coeff * LaurentPoly.monomial(weight_scale(-l, mu))
            terms.append(PFDTerm(weight=mu, order=order_max - l, coeff=coeff))

    terms.sort(key=lambda term: (term.weight, term.order))
    return ClosedCharacter(source=table, terms=tuple(terms))


def sl2_coefficient(m: int, i: int) -> FactoredRational:
    """Closed-form rank-1 coefficient for the module with highest weight (m,).

    The coefficient attached to the weight m - 2i is
    (-1)^i q^((m-i)(m-i+1)) / prod_(j != i) (q^(2|i-j|) - 1).
    """
    if not isinstance(m, int) or m < 0:
        raise ValueError("m must be a non-negative integer")
    if not isinstance(i, int) or not 0 <= i <= m:
        raise ValueError("index i=%r out of range 0..%d" % (i, m))
    # (q^(2a) - 1) = -(1 - q^(2a)); one sign flip per factor.
    sign = (-1) ** (i + m)
    numerator = LaurentPoly.monomial(((m - i) * (m - i + 1),), sign)
    factors = [((2 * abs(i - j),), 1) for j in range(m + 1) if j != i]
    return FactoredRational(numerator, factors)


def fundamental_coefficient(rank: int, i: int) -> FactoredRational:
    """Closed-form coefficient for the defining module of the rank-r type A algebra.

    With the boundary convention w_0 = w_(r+1) = 0, the coefficient for the
    weight -w_i + w_(i+1) is the product over j != i of
    (1 - q^(e_(j+1) + e_i - e_j - e_(i+1)))^(-1), where e_k is the exponent
    vector of the k-th variable (zero for k = 0 and k = r + 1).
    """
    if not isinstance(rank, int) or rank < 1:
        raise ValueError("rank must be a positive integer")
    if not isinstance(i, int) or not 0 <= i <= rank:
        raise ValueError("index i=%r out of range 0..%d" % (i, rank))

    def unit(k: int) -> Weight:
        if k == 0 or k == rank + 1:
            return (0,) * rank
        return tuple(int(t == k - 1) for t in range(rank))

    factors = []
    for j in range(rank + 1):
        if j == i:
            continue
        alpha = tuple(
            a + b - c - d
            for a, b, c, d in zip(unit(j + 1), unit(i), unit(j), unit(i + 1))
        )
        factors.append((alpha, 1))
    return FactoredRational(LaurentPoly.one(rank), factors)
