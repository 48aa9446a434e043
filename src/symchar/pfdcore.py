"""Partial-fraction data of the graded symmetric-power character.

For a module with multiplicity table m, the graded character
prod_nu (1 - q^nu z)^(-m(nu)) decomposes over the z-poles as
sum_(nu,k) A_(nu,k)(q) (1 - q^nu z)^(-k) with 1 <= k <= m(nu).  In
u = 1 - q^mu z each other factor is (1 - q^(nu-mu)) (1 - d_nu u), with
d_nu = 1/(1 - q^(mu-nu)), so the product is u^(-m(mu)) G(q^(-mu)) times
prod_(nu != mu) (1 - d_nu u)^(-m(nu)), G(z) being the product over the
other weights, and A_(mu, m(mu)-l) = g_l is the u^l coefficient of
G(q^(-mu)) times that product.  Newton's identity on the power sums
p_k = sum_nu m(nu) d_nu^k gives it, as oracle.adams_series does on the q^nu:

    g_0 = G(q^(-mu)),    l * g_l = sum_(k=1..l) p_k g_(l-k).

No polynomial in z is ever materialized and every denominator stays a
product of binomials.

Each g_l is summed once over one common denominator and reduced once.
Each p_k is summed and reduced once per direction of alpha, which gives the
same reduced form as one reduction of the whole sum, because binomials of
different directions are coprime.  The products p_k g_(l-k) and the
scaling by 1/l are plain ``*``, which never cancels; a reduced value times
a nonzero scalar stays reduced, so every A(nu,k) comes out reduced.

The recursion runs at the dominant weights of the support only.  The
product is invariant under the Weyl group acting on exponents (the table
is Weyl invariant, which MultiplicityTable checks), and the decomposition
in z is unique, so A(w.nu, k) = w.A(nu, k): every other term is the
dominant term of its orbit with its numerator exponents and factors mapped
by the integer matrix of w (RootSystem.to_dominant, FactoredRational.mapped).
q^e -> q^(w.e) is a ring automorphism that permutes the binomials, so the
mapped value is exact.  Its form equals the one the recursion would give at
w.nu on every module checked, but reduced() is not canonical, so that is an
observation which the pinned outputs guard, not a theorem.  A failure in
the recursion names the module, the pole weight and the order.

A table checks its entries and their Weyl invariance when it is built, so
pfd_decompose checks only that the highest weight is dominant, then
computes the pole data once per table content (root-system label, highest
weight, sorted entries) and hands the same ClosedCharacter to every later
caller; the oldest goes when the memo is full (see _base).  Each
ClosedCharacter also keeps, by degree, the characters that
charformula.character_at and the orbit summands that charformula.orbit_split
have computed from it, and, once, each orbit's terms over one denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

from ._base import Frozen, recall
from .polyring import (
    ExactDivisionError, FactoredRational, InconsistencyError, LaurentPoly, check_count,
)
from .rootsys import Weight, is_dominant, weight_diff
from .weightsys import MultiplicityTable

__all__ = [
    "PFDTerm",
    "ClosedCharacter",
    "binomial_poly",
    "pfd_decompose",
    "sl2_coefficient",
    "fundamental_coefficient",
]


class PFDTerm(Frozen):
    """One pole contribution: coefficient of (1 - q^weight z)^(-order)."""

    weight: Weight
    order: int
    coeff: FactoredRational

    def to_json(self) -> dict:
        return {"weight": list(self.weight), "order": self.order, "A": self.coeff.to_json()}


class ClosedCharacter(Frozen):
    """The complete pole data of one module's graded symmetric-power character."""

    source: MultiplicityTable
    terms: tuple[PFDTerm, ...]

    def __post_init__(self):
        # Characters and orbit summands by degree, filled by character_at and
        # orbit_split, and each orbit's terms lifted by orbit_split; not fields.
        object.__setattr__(self, "_characters", {})
        object.__setattr__(self, "_orbits", {})
        object.__setattr__(self, "_lifts", {})

    @property
    def rank(self) -> int:
        return self.source.rank

    def to_json(self) -> list[dict]:
        return [term.to_json() for term in self.terms]


def binomial_poly(k: int, n: int) -> int:
    """Value of the degree-(k-1) coefficient polynomial: C(n + k - 1, n)."""
    check_count(k, "order k", 1)
    check_count(n, "n")
    return comb(n + k - 1, n)


def _power_sum(mu: Weight, others, k: int, rank: int) -> FactoredRational:
    """p_k = sum_nu m(nu) / (1 - q^(mu-nu))^k, reduced.

    The pieces are grouped by the primitive direction of their normalized
    factor (nu and 2mu - nu share one factor, and parallel alphas share a
    direction), and each class is summed and reduced once; a lone piece is
    a constant over one binomial power and already reduced.  Binomials of
    different directions are coprime, so a reduction of the whole sum could
    only cancel within one direction, which the class reductions already
    did; the sum of the classes is returned unreduced.
    """
    classes: dict[Weight, list[FactoredRational]] = {}
    for nu, count in others:
        piece = FactoredRational(LaurentPoly.constant(rank, count), [(weight_diff(mu, nu), k)])
        (alpha,) = piece.factors
        step = gcd(*alpha)
        classes.setdefault(tuple(a // step for a in alpha), []).append(piece)
    parts = [
        members[0] if len(members) == 1 else FactoredRational.sum(members, rank).reduced()
        for members in classes.values()
    ]
    return FactoredRational.sum(parts, rank)


# Pole data by (root-system label, highest weight, sorted entries); see _base.
_POLE_DATA: dict[tuple, ClosedCharacter] = {}


def pfd_decompose(table: MultiplicityTable) -> ClosedCharacter:
    """All pole coefficients of the graded character of the given module.

    The table checked its entries when it was built; the highest weight is
    checked to be dominant on every call.  The pole data is computed once
    per table content and then shared, with the characters kept on it.
    """
    if not is_dominant(table.highest_weight):
        raise ValueError("multiplicity table: highest weight %s is not dominant"
                         % (table.highest_weight,))
    return recall(_POLE_DATA, table._content, lambda: _decompose(table))


def _decompose(table: MultiplicityTable) -> ClosedCharacter:
    """The pole data of a checked table, its terms sorted by (weight, order): each weight of the
    sorted support takes its dominant weight's terms, mapped by RootSystem.to_dominant's matrix."""
    rs, support = table.root_system, table.support()
    dominant = {mu: _dominant_terms(table, support, mu)[::-1]
                for mu in filter(is_dominant, support)}
    terms = [PFDTerm(weight, order, coeff.mapped(matrix)) for weight in support
             for nu, matrix in [rs.to_dominant(weight)] for order, coeff in dominant[nu]]
    return ClosedCharacter(source=table, terms=tuple(terms))


def _dominant_terms(
    table: MultiplicityTable, support: list[Weight], mu: Weight
) -> list[tuple[int, FactoredRational]]:
    """(order, A(mu, order)) for every order of the pole at mu, by Newton's identity.

    An ExactDivisionError or InconsistencyError on the way is raised again
    with the module, mu and the order being computed.
    """
    rank = table.rank
    order_max = table.entries[mu]
    others = [(nu, table.entries[nu]) for nu in support if nu != mu]

    # g_0 = G(q^(-mu)): a pure product of binomial inverses.
    g_values = [
        FactoredRational(
            LaurentPoly.one(rank),
            [(weight_diff(nu, mu), count) for nu, count in others],
        )
    ]
    p_values: list[FactoredRational] = []
    try:
        for l in range(1, order_max):
            # l g_l = sum_(k=1..l) p_k g_(l-k)
            p_values.append(_power_sum(mu, others, l, rank))
            products = [p * g for p, g in zip(p_values, reversed(g_values))]
            g_values.append(FactoredRational.sum(products, rank).reduced() * Fraction(1, l))
    except (ExactDivisionError, InconsistencyError) as error:
        raise type(error)("%s%s, pole weight %s, order %d: %s" % (
            table.root_system.label, table.highest_weight, mu, order_max - l, error
        )) from error

    return [(order_max - l, value) for l, value in enumerate(g_values)]


def sl2_coefficient(m: int, i: int) -> FactoredRational:
    """Closed-form rank-1 coefficient for the module with highest weight (m,).

    The coefficient attached to the weight m - 2i is
    (-1)^i q^((m-i)(m-i+1)) / prod_(j != i) (q^(2|i-j|) - 1).
    """
    check_count(m, "m")
    check_count(i, "index", 0, m)
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
    check_count(rank, "rank", 1)
    check_count(i, "index", 0, rank)

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
