import random
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from symchar import cli
from symchar.charformula import character_at
from symchar.oracle import truncated_molien
from symchar.pfdcore import (
    _dominant_terms,
    _power_sum,
    binomial_poly,
    fundamental_coefficient,
    pfd_decompose,
    sl2_coefficient,
)
from symchar import polyring
from symchar.polyring import ExactDivisionError, FactoredRational, LaurentPoly, PoleError
from symchar.rootsys import build_root_system, from_label, is_dominant, weight_diff
from symchar.weightsys import weight_system


def q(exponent, coeff=1):
    return LaurentPoly.monomial((exponent,), coeff)


class TestBinomialPoly:
    def test_order_one_is_constant(self):
        assert all(binomial_poly(1, n) == 1 for n in range(10))

    def test_order_two_is_linear(self):
        assert all(binomial_poly(2, n) == n + 1 for n in range(10))

    def test_iterated_summation_value(self):
        # triple nested unit sum up to 4
        assert binomial_poly(3, 4) == 15

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            binomial_poly(0, 3)
        with pytest.raises(ValueError):
            binomial_poly(2, -1)


class TestSl2Adjoint:
    def test_paper_coefficients(self, sl2_adjoint):
        closed = pfd_decompose(sl2_adjoint)
        got = {(term.weight, term.order): term.coeff for term in closed.terms}
        assert got[((2,), 1)] == FactoredRational(q(6), [((2,), 1), ((4,), 1)])
        assert got[((0,), 1)] == FactoredRational(q(2, -1), [((2,), 2)])
        assert got[((-2,), 1)] == FactoredRational(LaurentPoly.one(1), [((2,), 1), ((4,), 1)])

    def test_coefficients_sum_to_one(self, sl2_adjoint):
        assert character_at(pfd_decompose(sl2_adjoint), 0).terms == 1


def test_trivial_module(a1):
    closed = pfd_decompose(weight_system(a1, (0,)))
    assert len(closed.terms) == 1
    term = closed.terms[0]
    assert term.weight == (0,) and term.order == 1
    assert term.coeff == 1


class TestSl3Adjoint:
    def test_zero_weight_coefficients(self, sl3_adjoint):
        closed = pfd_decompose(sl3_adjoint)
        got = {(term.weight, term.order): term.coeff for term in closed.terms}
        # -3 a^4 b^4 / ((ab-1)^2 (a-b^2)^2 (a^2-b)^2), rewritten over binomials
        expected = FactoredRational(
            LaurentPoly.monomial((-2, 4), -3),
            [((1, 1), 2), ((-1, 2), 2), ((-2, 1), 2)],
        )
        assert expected.evaluate((Fraction(2), Fraction(3))) == Fraction(-3888, 1225)
        assert got[((0, 0), 1)] == expected
        assert ((0, 0), 2) in got
        # the order-2 coefficient is the same product without the derivative factor 3
        assert got[((0, 0), 2)] == expected * Fraction(1, 3)

    def test_term_count_matches_total_multiplicity(self, sl3_adjoint):
        closed = pfd_decompose(sl3_adjoint)
        assert len(closed.terms) == sum(sl3_adjoint.entries.values())

    def test_orders_bounded_by_multiplicity(self, sl3_adjoint):
        closed = pfd_decompose(sl3_adjoint)
        for term in closed.terms:
            assert 1 <= term.order <= sl3_adjoint.multiplicity(term.weight)

    def test_denominators_are_support_differences(self, sl3_adjoint):
        support = set(sl3_adjoint.support())
        differences = {
            weight_diff(nu, mu) for nu in support for mu in support if nu != mu
        }
        closed = pfd_decompose(sl3_adjoint)
        for term in closed.terms:
            for alpha in term.coeff.factors:
                negated = tuple(-x for x in alpha)
                assert alpha in differences or negated in differences


class TestMultiplicityFree:
    @pytest.mark.parametrize(
        "series,rank,highest",
        [("A", 1, (3,)), ("A", 2, (1, 0)), ("B", 2, (0, 1)), ("A", 3, (1, 0, 0))],
    )
    def test_order_one_product_formula(self, series, rank, highest):
        rs = build_root_system(series, rank)
        table = weight_system(rs, highest)
        assert all(count == 1 for count in table.entries.values())
        closed = pfd_decompose(table)
        for term in closed.terms:
            assert term.order == 1
            expected = FactoredRational(
                LaurentPoly.one(rank),
                [(weight_diff(nu, term.weight), 1) for nu in table.support() if nu != term.weight],
            )
            assert term.coeff == expected


class TestSumToOne:
    @pytest.mark.parametrize(
        "series,rank,highest",
        [("A", 1, (4,)), ("A", 2, (1, 1)), ("A", 2, (2, 0)), ("B", 2, (1, 0)), ("G", 2, (1, 0))],
    )
    def test_unit_sum(self, series, rank, highest):
        rs = build_root_system(series, rank)
        closed = pfd_decompose(weight_system(rs, highest))
        assert character_at(closed, 0).terms == 1


class TestReconstruction:
    @pytest.mark.parametrize("series,rank,highest", [("A", 1, (3,)), ("A", 2, (1, 1))])
    def test_reconstruction_at_random_points(self, series, rank, highest):
        rs = build_root_system(series, rank)
        table = weight_system(rs, highest)
        closed = pfd_decompose(table)
        rng = random.Random(17)
        checked = 0
        while checked < 10:
            point = tuple(Fraction(rng.randint(2, 9), rng.randint(1, 3)) for _ in range(rank))
            z = Fraction(rng.randint(1, 5), rng.randint(6, 11))
            try:
                lhs = Fraction(0)
                for term in closed.terms:
                    base = Fraction(1)
                    for value, e in zip(point, term.weight):
                        base *= value**e
                    lhs += term.coeff.evaluate(point) / (1 - base * z) ** term.order
                rhs = Fraction(1)
                for mu in table.support():
                    base = Fraction(1)
                    for value, e in zip(point, mu):
                        base *= value**e
                    rhs /= (1 - base * z) ** table.multiplicity(mu)
            except (PoleError, ZeroDivisionError):
                continue
            assert lhs == rhs
            checked += 1


class TestClosedForms:
    @pytest.mark.parametrize("m", range(7))
    def test_sl2_closed_form_matches_decomposition(self, a1, m):
        closed = pfd_decompose(weight_system(a1, (m,)))
        got = {term.weight: term.coeff for term in closed.terms}
        for i in range(m + 1):
            assert got[(m - 2 * i,)] == sl2_coefficient(m, i)

    def test_sl2_closed_form_values(self):
        assert sl2_coefficient(2, 0) == FactoredRational(q(6), [((2,), 1), ((4,), 1)])
        assert sl2_coefficient(2, 1) == FactoredRational(q(2, -1), [((2,), 2)])
        # q^12/((q^6-1)(q^4-1)(q^2-1)) carries three sign flips over binomials
        assert sl2_coefficient(3, 0) == FactoredRational(
            q(12, -1), [((2,), 1), ((4,), 1), ((6,), 1)]
        )
        assert sl2_coefficient(0, 0) == 1

    def test_sl2_index_range(self):
        with pytest.raises(ValueError):
            sl2_coefficient(3, 4)
        with pytest.raises(ValueError):
            sl2_coefficient(3, -1)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_fundamental_closed_form_matches_decomposition(self, rank):
        rs = build_root_system("A", rank)
        highest = (1,) + (0,) * (rank - 1)
        table = weight_system(rs, highest)
        closed = pfd_decompose(table)
        got = {term.weight: term.coeff for term in closed.terms}
        support = table.support()
        for i in range(rank + 1):
            # weight -w_i + w_(i+1) with the boundary convention w_0 = w_(r+1) = 0
            weight = tuple(int(t == i) - int(t == i - 1) for t in range(rank))
            assert weight in got, (i, support)
            assert got[weight] == fundamental_coefficient(rank, i)

    def test_fundamental_rank_one_matches_sl2(self):
        assert fundamental_coefficient(1, 0) == sl2_coefficient(1, 0)
        assert fundamental_coefficient(1, 1) == sl2_coefficient(1, 1)

    def test_fundamental_rank_one_values(self):
        # q^2/(q^2 - 1) = -q^2/(1 - q^2) and -1/(q^2 - 1) = 1/(1 - q^2)
        assert fundamental_coefficient(1, 0) == FactoredRational(q(2, -1), [((2,), 1)])
        assert fundamental_coefficient(1, 1) == FactoredRational(LaurentPoly.one(1), [((2,), 1)])

    def test_fundamental_index_range(self):
        with pytest.raises(ValueError):
            fundamental_coefficient(2, 3)


def _one_sum_power_sum(mu, others, k, rank):
    """p_k with every piece summed over one common denominator and reduced once."""
    pieces = [
        FactoredRational(LaurentPoly.constant(rank, count), [(weight_diff(mu, nu), k)])
        for nu, count in others
    ]
    return FactoredRational.sum(pieces, rank).reduced()


@pytest.mark.parametrize("label,highest", [
    ("A1", (6,)), ("A2", (2, 1)), ("A2", (3, 0)), ("B2", (1, 1)), ("B2", (0, 2)),
    ("G2", (1, 0)), ("G2", (0, 1)), ("A3", (1, 0, 1)),
])
def test_log_derivative_by_direction_matches_one_sum(label, highest):
    # The p_k are the Taylor coefficients in u of the logarithmic derivative
    # of prod_nu (1 - d_nu u)^(-m(nu)).  Each module has weight strings of
    # length >= 3 through some mu, so some directions hold several alphas
    # (nu - mu, 2(nu - mu), ...).
    table = weight_system(from_label(label), highest)
    support = table.support()
    for mu in support:
        others = [(nu, table.multiplicity(nu)) for nu in support if nu != mu]
        for k in (1, 2):
            got = _power_sum(mu, others, k, table.rank)
            expected = _one_sum_power_sum(mu, others, k, table.rank)
            assert got.factors == expected.factors
            assert got.numerator == expected.numerator


def _leibniz_terms(table, mu):
    """(order, A(mu, order)) by the derivative route, as a reference.

    A(mu, m(mu)-l) = (-1)^l / (l! q^(l*mu)) G^(l)(q^(-mu)), where G^(l)
    follows from the Leibniz rule G^(l) = sum_j C(l-1, j) G^(j) S^(l-1-j)
    on the logarithmic derivative S = G'/G, whose derivatives
    S^(j)(q^-mu) = sum_nu m(nu) j! q^((j+1)nu) / (1 - q^(nu-mu))^(j+1)
    are each summed over one common denominator and reduced once.
    """
    rank = table.rank
    order_max = table.multiplicity(mu)
    others = [(nu, table.multiplicity(nu)) for nu in table.support() if nu != mu]
    g_values = [
        FactoredRational(LaurentPoly.one(rank), [(weight_diff(nu, mu), m) for nu, m in others])
    ]
    s_values = []
    for l in range(1, order_max):
        j = l - 1
        pieces = [
            FactoredRational(
                LaurentPoly.monomial(tuple((j + 1) * x for x in nu), count * factorial(j)),
                [(weight_diff(nu, mu), j + 1)],
            )
            for nu, count in others
        ]
        s_values.append(FactoredRational.sum(pieces, rank).reduced())
        products = [
            g * s * comb(j, i) for i, (g, s) in enumerate(zip(g_values, reversed(s_values)))
        ]
        g_values.append(FactoredRational.sum(products, rank).reduced())
    return [
        (order_max - l, value * LaurentPoly.monomial(
            tuple(-l * x for x in mu), Fraction((-1) ** l, factorial(l))
        ))
        for l, value in enumerate(g_values)
    ]


# Modules with a dominant weight of multiplicity >= 2.
MULTIPLE_WEIGHTS = [
    ("A2", (2, 1)), ("B2", (1, 1)), ("G2", (0, 1)), ("C3", (0, 1, 0)), ("A3", (1, 0, 1)),
    ("A2", (2, 2)), ("B3", (0, 1, 0)), ("F4", (0, 0, 0, 1)),
]


@pytest.mark.parametrize("label,highest", MULTIPLE_WEIGHTS,
                         ids=["%s%s" % module for module in MULTIPLE_WEIGHTS])
def test_newton_terms_match_the_leibniz_route(label, highest):
    # Each Newton sum is a nonzero scalar times a unit monomial times the
    # Leibniz sum over the same factor multiset, so reduced() cancels the
    # same factors and the terms agree in form, not only in value.
    table = weight_system(from_label(label), highest)
    support = table.support()
    for mu in filter(is_dominant, support):
        got = _dominant_terms(table, support, mu)
        expected = _leibniz_terms(table, mu)
        assert [order for order, _ in got] == [order for order, _ in expected]
        for (_, coeff), (_, reference) in zip(got, expected):
            assert coeff.factors == reference.factors
            assert coeff.numerator == reference.numerator


# Modules with a non-symmetric weight of multiplicity >= 3: most of their
# pole terms are transported from the dominant ones.
TRANSPORT_HEAVY = [("A2", (3, 3)), ("B2", (1, 3)), ("G2", (1, 1))]


def _value_at(coeff, point):
    """coeff at point, a tuple of Fractions, exactly: the integer numerator
    is summed over one common denominator before the single division."""
    rank = len(point)
    low = [min(e[i] for e in coeff._terms) for i in range(rank)]
    high = [max(e[i] for e in coeff._terms) for i in range(rank)]
    total = 0
    for e, c in coeff._terms.items():
        for i, x in enumerate(point):
            c *= x.numerator ** (e[i] - low[i]) * x.denominator ** (high[i] - e[i])
        total += c
    value = Fraction(total, coeff._scale)
    for i, x in enumerate(point):
        value *= x ** low[i] / x.denominator ** (high[i] - low[i])
    for alpha, power in coeff.factors.items():
        value /= (1 - _monomial_at(point, alpha)) ** power
    return value


def _monomial_at(point, exponent):
    value = Fraction(1)
    for x, e in zip(point, exponent):
        value *= x**e
    return value


@pytest.mark.parametrize("label,highest", TRANSPORT_HEAVY,
                         ids=["%s%s" % module for module in TRANSPORT_HEAVY])
def test_transport_heavy_pole_data_matches_molien(label, highest):
    # sum A(nu,k) C(N+k-1,N) q^(N nu) == Molien coefficient, exactly at one
    # point whose coordinates are ratios of distinct primes, so no factor
    # (1 - q^alpha) vanishes there; N = 0 is the coefficient sum.
    table = weight_system(from_label(label), highest)
    closed = pfd_decompose(table)
    point = (Fraction(2, 3), Fraction(5, 7))
    molien = truncated_molien(table, 2)
    values = [(_value_at(term.coeff, point), term) for term in closed.terms]
    for n in range(3):
        got = sum(
            value * binomial_poly(term.order, n) * _monomial_at(point, term.weight) ** n
            for value, term in values
        )
        assert got == molien.coefficient(n).evaluate(point)
    # N = 0 exactly, not only at the point: the pole terms sum to the constant 1.
    assert character_at(closed, 0).terms == LaurentPoly.one(2)


PRIME = (1 << 61) - 1


def _pole_identity_holds(table, terms):
    """Whether sum A(nu,k)(x) (1 - x^nu z)^-k == prod_nu (1 - x^nu z)^-m(nu) modulo the prime,
    at the seeded point x and z = 3, 5, 7.  Each term is (nu, k, integer terms, scale,
    factors), and A(nu,k)(x) is evaluated from them alone, not from a kept residue."""
    seeds = polyring._seeds(table.rank)

    def at(e):
        return prod(pow(x, k, PRIME) for x, k in zip(seeds, e)) % PRIME

    values = []
    for nu, k, numerator, scale, factors in terms:
        below = scale
        for alpha, power in factors.items():
            below = below * pow(1 - at(alpha), power, PRIME) % PRIME
        values.append((at(nu), k, sum(c * at(e) for e, c in numerator.items())
                       * pow(below, -1, PRIME) % PRIME))
    for z in (3, 5, 7):
        left = sum(a * pow(1 - x * z, -k, PRIME) for x, k, a in values) % PRIME
        right = prod(pow(1 - at(mu) * z, -table.multiplicity(mu), PRIME)
                     for mu in table.support()) % PRIME
        if left != right:
            return False
    return True


def _pole_terms(closed):
    return [(t.weight, t.order, t.coeff._terms, t.coeff._scale, t.coeff.factors)
            for t in closed.terms]


IDENTITY_MODULES = [
    ("A1", (4,)), ("A2", (2, 1)), ("A3", (1, 0, 1)), ("B2", (1, 1)), ("B3", (0, 1, 0)),
    ("C3", (0, 1, 0)), ("D4", (1, 0, 0, 0)), ("G2", (0, 1)), ("F4", (0, 0, 0, 1)),
    ("B5", (0, 0, 0, 0, 1)), ("E6", (1, 0, 0, 0, 0, 0)), ("E7", (0, 0, 0, 0, 0, 0, 1)),
    ("D8", (0, 0, 0, 0, 0, 0, 0, 1)), ("A8", (0, 0, 1, 0, 0, 0, 0, 0)),
]


@pytest.mark.parametrize("label,highest", IDENTITY_MODULES,
                         ids=["%s%s" % module for module in IDENTITY_MODULES])
def test_pole_data_is_an_identity_in_z(label, highest):
    table = weight_system(from_label(label), highest)
    assert _pole_identity_holds(table, _pole_terms(pfd_decompose(table)))


@pytest.mark.parametrize("label,highest", [
    ("A2", (2, 1)), ("F4", (0, 0, 0, 1)), ("E7", (0, 0, 0, 0, 0, 0, 1)),
], ids=["A2", "F4", "E7"])
def test_the_identity_fails_on_one_wrong_coefficient(label, highest):
    table = weight_system(from_label(label), highest)
    terms = _pole_terms(pfd_decompose(table))
    nu, k, numerator, scale, factors = terms[0]
    wrong = dict(numerator)
    e = next(iter(wrong))
    wrong[e] += 1
    terms[0] = nu, k, wrong, scale, factors
    assert not _pole_identity_holds(table, terms)


def test_pole_data_failure_names_the_pole(capsys, monkeypatch):
    def fail(self):
        raise ExactDivisionError("numerator not divisible by (1 - q1)")

    monkeypatch.setattr(FactoredRational, "reduced", fail)
    message = r"^A2\(1, 1\), pole weight \(0, 0\), order 1: numerator not divisible by \(1 - q1\)$"
    with pytest.raises(ExactDivisionError, match=message) as caught:
        pfd_decompose(weight_system(from_label("A2"), (1, 1)))
    assert isinstance(caught.value.__cause__, ExactDivisionError)
    assert cli.main(["pfd", "--algebra", "A2", "--lambda", "1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "pole weight (0, 0), order 1" in captured.err
