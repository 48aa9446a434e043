"""Independent cross-checks for the character pipeline: the truncated Molien
product, the Newton recursion, the h_n identity and a rank-1 quadrature check.

Everything here works straight from a multiplicity table or a character
polynomial and deliberately never touches the pole-decomposition modules,
so the two routes share no failure modes beyond the base ring.  The
Molien product and the Newton recursion run on {int: int} dicts keyed by
exponent vectors packed with this module's own helper, and unpack each row
once, into the LaurentPoly they return.  Floating point appears only in
the quadrature check; all other arithmetic is exact.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from operator import lshift

from ._memo import Frozen
from .polyring import FactoredRational, InconsistencyError, LaurentPoly, check_count
from .rootsys import Weight, weight_diff, weight_scale
from .weightsys import MultiplicityTable

__all__ = [
    "GradedTruncation",
    "truncated_molien",
    "adams_series",
    "adams_symmetric",
    "hsym_character",
    "quadrature_check",
]


class GradedTruncation(Frozen):
    """Coefficients of z^0..z^degree_bound of a graded character series."""

    coefficients: tuple[LaurentPoly, ...]

    @property
    def degree_bound(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, n: int) -> LaurentPoly:
        check_count(n, "degree", 0, self.degree_bound)
        return self.coefficients[n]


def _packing(rank: int, exponents, n_max: int):
    """Pack and unpack the sums of at most n_max of the given exponent vectors.

    Coordinate i is a signed digit of radix 2^bits at position i, with
    2^(bits-1) above the reach: n_max times the largest |coordinate| of the
    exponents, which bounds every coordinate of such a sum, so keys add.
    """
    reach = n_max * max((abs(c) for e in exponents for c in e), default=0)
    bits = reach.bit_length() + 1
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    shifts = [bits * i for i in range(rank)]
    offset = sum(half << s for s in shifts)

    def pack(e: Weight) -> int:
        return sum(map(lshift, e, shifts))

    def unpack(row: dict[int, int]) -> LaurentPoly:
        keys = [key + offset for key in row]
        columns = [[((key >> s) & mask) - half for key in keys] for s in shifts]
        return LaurentPoly(rank, dict(zip(zip(*columns), row.values())))

    return pack, unpack


def truncated_molien(table: MultiplicityTable, n_max: int) -> GradedTruncation:
    """Expand prod_mu (1 - q^mu z)^(-m(mu)) through degree n_max in z.

    The degree-n coefficient is the character of the n-th symmetric power,
    obtained here purely by truncated geometric-series multiplication: each
    of the m(mu) copies of a factor is one pass h_n += q^mu h_(n-1) in
    increasing n, on integer coefficient dicts with packed exponent keys.
    """
    check_count(n_max, "truncation bound")
    support = table.support()
    pack, unpack = _packing(table.rank, support, n_max)
    rows: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(n_max)]
    for mu in support:
        step = pack(mu)
        for _ in range(table.multiplicity(mu)):
            for below, row in zip(rows, rows[1:]):
                for key, coeff in below.items():
                    key += step
                    row[key] = row.get(key, 0) + coeff
    return GradedTruncation(tuple(map(unpack, rows)))


def adams_series(char_v: LaurentPoly, n_max: int) -> GradedTruncation:
    """Characters of the symmetric powers 0..n_max via the Newton-style recursion.

    With psi_k the exponent-scaling operation e -> k*e, the characters h_t
    of the symmetric powers satisfy t*h_t = sum_(k=1..t) psi_k(char) h_(t-k).
    The recursion runs once, on integer coefficient dicts with packed
    exponent keys, and each division by t must be exact.
    """
    check_count(n_max, "symmetric-power degree")
    pack, unpack = _packing(char_v.rank, char_v.terms, n_max)
    hs: list[dict[int, int]] = [{0: 1}]
    # h_1 is char_v itself, so a non-integral input fails as its first step would.
    if n_max and any(c.denominator != 1 for c in char_v.terms.values()):
        raise InconsistencyError("non-integral intermediate symmetric-power character")
    char = {pack(e): int(c) for e, c in char_v.terms.items()}
    powers = [{k * key: c for key, c in char.items()} for k in range(1, n_max + 1)]
    for t in range(1, n_max + 1):
        acc: dict[int, int] = {}
        for power, lower in zip(powers, reversed(hs)):
            for ea, ca in power.items():
                for eb, cb in lower.items():
                    key = ea + eb
                    acc[key] = acc.get(key, 0) + ca * cb
        h = {}
        for key, total in acc.items():
            quotient, remainder = divmod(total, t)
            if remainder:
                raise InconsistencyError("non-integral intermediate symmetric-power character")
            if quotient:
                h[key] = quotient
        hs.append(h)
    return GradedTruncation(tuple(map(unpack, hs)))


def adams_symmetric(char_v: LaurentPoly, n: int) -> LaurentPoly:
    """Character of the n-th symmetric power: the top row of `adams_series`."""
    return adams_series(char_v, n).coefficient(n)


def hsym_character(weights: list[Weight], n: int) -> LaurentPoly:
    """Character of the n-th symmetric power of a multiplicity-free module.

    Plugs the weight monomials into the complete homogeneous symmetric
    polynomial identity h_n(x_1..x_k) = sum_i x_i^n / prod_(j!=i) (1 - x_j/x_i)
    and recovers the Laurent polynomial by exact division.
    """
    weights = [tuple(mu) for mu in weights]
    if len(set(weights)) != len(weights):
        raise ValueError("weights must be pairwise distinct (multiplicity-free module)")
    if not weights:
        raise ValueError("empty weight list")
    check_count(n, "symmetric-power degree")
    rank = len(weights[0])
    parts = [
        FactoredRational(
            LaurentPoly.monomial(weight_scale(n, mu)),
            [(weight_diff(nu, mu), 1) for j, nu in enumerate(weights) if j != i],
        )
        for i, mu in enumerate(weights)
    ]
    return FactoredRational.sum(parts, rank).as_laurent()


_SAMPLES = 512


def quadrature_check(
    table: MultiplicityTable,
    mu: Weight,
    z,
    n_max: int,
) -> tuple[float, Fraction, float]:
    """Numeric check of the generating function sum_n z^n m_n(mu) at rank 1.

    The left side is the circle integral of q^(-mu) times the graded
    character, integrated by the trapezoid rule on _SAMPLES uniform points
    (spectrally accurate for this smooth periodic integrand); the right
    side is the exact series truncated at n_max.  Returns (numeric value,
    exact truncated series, absolute gap).  The gap is dominated by the
    geometric tail of the series, so it shrinks as n_max grows while
    |z| <= 1/2 keeps the evaluation away from the unit radius of
    convergence.
    """
    if table.rank != 1:
        raise ValueError("quadrature check is implemented for rank 1 only")
    z = Fraction(z)
    if abs(z) > Fraction(1, 2):
        raise ValueError("|z| must be at most 1/2")
    mu = tuple(mu)

    truncation = truncated_molien(table, n_max)
    series = Fraction(0)
    for n in range(n_max + 1):
        series += z**n * truncation.coefficient(n).coefficient(mu)

    weights = [(nu[0], table.multiplicity(nu)) for nu in table.support()]
    z_f = float(z)
    target = mu[0]
    total = 0j
    for t in range(_SAMPLES):
        x = 2.0 * math.pi * t / _SAMPLES
        value = 1.0 + 0j
        for exponent, count in weights:
            value *= (1.0 - cmath.exp(1j * exponent * x) * z_f) ** (-count)
        total += cmath.exp(-1j * target * x) * value
    numeric = (total / _SAMPLES).real
    return numeric, series, abs(numeric - float(series))
