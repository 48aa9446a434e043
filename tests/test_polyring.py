import doctest
import itertools
import random
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symchar import (
    MultiplicityTable, adams_series, binomial_poly, build_partition_matrix, build_root_system,
    character_at, check_partition_equivalence, count_solutions, cyclotomic, from_label,
    fundamental_coefficient, hsym_character, orbit_split, pfd_decompose, polyring,
    sl2_coefficient, truncated_molien, weight_system,
)
from symchar.polyring import ExactDivisionError, FactoredRational, LaurentPoly, PoleError


def q(exponent, coeff=1):
    return LaurentPoly.monomial((exponent,), coeff)


# LaurentPoly's +, - and * run on the integer core of FactoredRational, so
# expected values of core operations come from these schoolbook loops on
# Fraction coefficients instead.  A scalar operand stands for a constant.


def _reference_add(a, b):
    """a + b, term by term."""
    b = b if isinstance(b, LaurentPoly) else LaurentPoly.constant(a.rank, b)
    merged = dict(a.terms)
    for exponent, coeff in b.terms.items():
        merged[exponent] = merged.get(exponent, 0) + coeff
    return LaurentPoly(a.rank, merged)  # the constructor drops zero coefficients


def _reference_mul(a, b):
    """a * b, every pair of terms."""
    b = b if isinstance(b, LaurentPoly) else LaurentPoly.constant(a.rank, b)
    product = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            product[key] = product.get(key, 0) + ca * cb
    return LaurentPoly(a.rank, product)


def _reference_pow(a, k):
    result = LaurentPoly.one(a.rank)
    for _ in range(k):
        result = _reference_mul(result, a)
    return result


class TestLaurentPoly:
    def test_difference_of_squares(self):
        assert (q(2) + 1) * (q(2) - 1) == q(4) - 1

    def test_multiplication_by_zero(self):
        ab = LaurentPoly.monomial((1, 1)) - 1
        assert (ab * LaurentPoly.zero(2)).is_zero

    def test_cyclotomic_style_product(self):
        assert (1 - q(2)) * (1 + q(2) + q(4)) == 1 - q(6)

    def test_zero_coefficients_dropped(self):
        poly = LaurentPoly(1, {(3,): 0, (1,): 2})
        assert poly.terms == {(1,): Fraction(2)}

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            q(1) + LaurentPoly.monomial((1, 0))

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            LaurentPoly(1, {(0,): 0.5})

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ValueError, match="non-integer exponent"):
            LaurentPoly(1, {(0.5,): 1})

    def test_negative_exponents(self):
        poly = q(-2, 3) + q(2)
        assert poly.coefficient((-2,)) == 3
        assert poly.evaluate((Fraction(2),)) == Fraction(3, 4) + 4

    def test_coefficient_rejects_an_exponent_of_the_wrong_length(self):
        poly = LaurentPoly.monomial((1, 1)) - 1
        message = r"^exponent vector of length 1 in a rank-2 polynomial$"
        with pytest.raises(ValueError, match=message):
            poly.coefficient((1,))

    def test_power(self):
        assert (q(1) + q(-1)) ** 2 == q(2) + 2 + q(-2)
        assert (q(1) + 1) ** 0 == LaurentPoly.one(1)


class TestOperatorsMatchTheReferenceLoops:
    """+, - and * term for term against the schoolbook loops, on seeded random values."""

    SCALARS = (0, 3, Fraction(-2, 5))

    def test_polynomial_operands(self):
        rng = random.Random(229)
        zeros = 0
        for case in range(80):
            rank = 1 + case % 4
            a = _fraction_poly(rng, rank)
            # Every eighth b is -a, so that a + b cancels to zero, as a - a does.
            b = -a if case % 8 == 0 else _fraction_poly(rng, rank)
            minus_a, minus_b = _reference_mul(a, -1), _reference_mul(b, -1)
            for got, expected in (
                (a + b, _reference_add(a, b)),
                (a - b, _reference_add(a, minus_b)),
                (b - a, _reference_add(b, minus_a)),
                (a - a, _reference_add(a, minus_a)),
                (a * b, _reference_mul(a, b)),
            ):
                assert got.rank == rank
                assert got.terms == expected.terms
                zeros += got.is_zero
        assert zeros >= 80 + 10

    def test_scalar_operands(self):
        rng = random.Random(233)
        for case in range(40):
            rank = 1 + case % 4
            a = _fraction_poly(rng, rank)
            for scalar in self.SCALARS:
                minus_a = _reference_mul(a, -1)
                for got, expected in (
                    (a + scalar, _reference_add(a, scalar)),
                    (scalar + a, _reference_add(a, scalar)),
                    (a - scalar, _reference_add(a, -scalar)),
                    (scalar - a, _reference_add(minus_a, scalar)),
                    (a * scalar, _reference_mul(a, scalar)),
                    (scalar * a, _reference_mul(a, scalar)),
                ):
                    assert got.rank == rank
                    assert got.terms == expected.terms
                assert (a * scalar).is_zero == (scalar == 0)

    def test_numerators_over_a_scale_that_is_not_the_least(self):
        # A product with a constant and a sum of parts keep the scale they
        # reach, here twice and six times the least one, with integer terms
        # to match; every query must read the same value as from the Fractions.
        rng = random.Random(239)
        for case in range(40):
            rank = 1 + case % 4
            a, b = _fraction_poly(rng, rank), _fraction_poly(rng, rank)
            point = tuple(Fraction(rng.randint(2, 7), rng.randint(1, 3)) for _ in range(rank))
            doubled = (FactoredRational(a) * 2 * Fraction(1, 2)).numerator
            summed = FactoredRational.sum(
                [FactoredRational(a) * Fraction(1, 6), FactoredRational(a) * Fraction(5, 6)], rank
            ).numerator
            for wide, times in ((doubled, 2), (summed, 6)):
                assert wide._scale == times * a._scale
                assert wide == a and a == wide and wide.terms == a.terms
                # The same integer terms over another scale are another value.
                assert wide != a * times
                assert wide.to_json() == [{"exp": list(e), "coef": str(c)}
                                          for e, c in sorted(a.terms.items())]
                assert wide.coefficient_sum() == sum(a.terms.values())
                assert wide.evaluate(point) == sum(
                    c * prod(x ** k for x, k in zip(point, e)) for e, c in a.terms.items())
                for got, expected in (
                    (wide + b, _reference_add(a, b)),
                    (b - wide, _reference_add(b, _reference_mul(a, -1))),
                    (wide * b, _reference_mul(a, b)),
                ):
                    assert got.terms == expected.terms
        assert LaurentPoly(1, {(0,): Fraction(2, 4)}).to_json() == [{"exp": [0], "coef": "1/2"}]


class TestExactDivision:
    def test_simple_quotient(self):
        assert (q(4) - 1).exact_div(q(2) - 1) == q(2) + 1

    def test_longer_quotient(self):
        assert (q(12) - 1).exact_div(q(4) - 1) == q(8) + q(4) + 1

    def test_remainder_carried_on_failure(self):
        # The error names the binomial that does not divide.
        with pytest.raises(ExactDivisionError, match=r"divisible by \(1 - q\)$"):
            (q(2) + 1).exact_div(q(1) - 1)

    def test_laurent_shift_quotient(self):
        numerator = q(1) - q(-1)
        divisor = q(-1)
        assert numerator.exact_div(divisor) == q(2) - 1

    def test_binomial_roundtrip_random(self):
        # Divisors c*q^beta*(1 - q^alpha)^k in ranks 1-3, with alpha of mixed
        # sign allowed; the power is divided out one binomial at a time.
        # Adding a monomial to a multiple makes it non-divisible.
        rng = random.Random(7)
        for _ in range(60):
            rank = rng.randint(1, 3)
            alpha = (0,) * rank
            while not any(alpha):
                alpha = tuple(rng.randint(-3, 3) for _ in range(rank))
            beta = tuple(rng.randint(-2, 2) for _ in range(rank))
            c = Fraction(rng.choice([1, -1, 2, -3]), rng.randint(1, 3))
            binomial = LaurentPoly(rank, {beta: c, tuple(b + a for b, a in zip(beta, alpha)): -c})
            k = rng.randint(1, 3)
            quotient = _random_poly(rng, rank, ensure_nonzero=True)
            product = _reference_mul(quotient, _reference_pow(binomial, k))
            for _ in range(k):
                product = product.exact_div(binomial)
            assert product == quotient

            inexact = _reference_add(_reference_mul(quotient, binomial), LaurentPoly.monomial(
                tuple(rng.randint(-3, 3) for _ in range(rank))
            ))
            with pytest.raises(ExactDivisionError):
                inexact.exact_div(binomial)

    def test_three_term_divisor_rejected(self):
        with pytest.raises(ValueError):
            (q(3) - 1).exact_div(q(2) + q(1) + 1)

    def test_non_unit_binomial_rejected(self):
        # Only c*q^beta*(1 - q^alpha) divides: 1 + q, 2 - q and q - 2 do not
        # have that shape, even where the quotient would be a polynomial.
        for divisor in (1 + q(1), 2 - q(1), q(1) - 2):
            with pytest.raises(ValueError):
                (divisor * (q(2) + 1)).exact_div(divisor)

    def test_ring_axioms_random(self):
        rng = random.Random(11)
        for _ in range(20):
            a = _random_poly(rng, rank=2)
            b = _random_poly(rng, rank=2)
            c = _random_poly(rng, rank=2)
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def _random_poly(rng, rank, ensure_nonzero=False):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exponent = tuple(rng.randint(-3, 3) for _ in range(rank))
        terms[exponent] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    poly = LaurentPoly(rank, terms)
    if ensure_nonzero and poly.is_zero:
        return LaurentPoly.one(rank) + LaurentPoly.monomial((1,) * rank)
    return poly


def _random_fr(rng, rank):
    numerator = _random_poly(rng, rank, ensure_nonzero=True)
    factors = []
    for _ in range(rng.randint(0, 2)):
        alpha = tuple(rng.randint(-2, 2) for _ in range(rank))
        if any(alpha):
            factors.append((alpha, rng.randint(1, 2)))
    return FactoredRational(numerator, factors)


def _random_point(rng, rank, fr_list):
    while True:
        point = tuple(Fraction(rng.randint(2, 7), rng.randint(1, 3)) for _ in range(rank))
        try:
            for fr in fr_list:
                fr.evaluate(point)
        except (PoleError, ZeroDivisionError):
            continue
        return point


class TestFactoredRational:
    def test_additive_identity(self):
        f = FactoredRational(q(6), [((2,), 1), ((4,), 1)])
        assert f + FactoredRational.zero(1) == f

    def test_cancellation(self):
        f = FactoredRational(q(2), [((2,), 2)])
        g = FactoredRational(q(2, -1), [((2,), 2)])
        assert (f + g).is_zero

    def test_sl2_adjoint_coefficients_sum_to_one(self):
        # q^6/((q^4-1)(q^2-1)) - q^2/(q^2-1)^2 + 1/((q^4-1)(q^2-1)) == 1
        top = FactoredRational(q(6), [((2,), 1), ((4,), 1)])
        middle = FactoredRational(q(2, -1), [((2,), 2)])
        bottom = FactoredRational(LaurentPoly.one(1), [((2,), 1), ((4,), 1)])
        assert top + middle + bottom == 1

    def test_evaluation(self):
        f = FactoredRational(LaurentPoly.one(1), [((2,), 1), ((4,), 1)])
        # 1/((1-q^2)(1-q^4)) at q=2 is 1/45
        assert f.evaluate((Fraction(2),)) == Fraction(1, 45)

    def test_evaluation_squared_factor(self):
        f = FactoredRational(q(2, -1), [((2,), 2)])
        # -q^2/(1-q^2)^2 = -9/64 at q=3; equals -q^2/(q^2-1)^2 with sign absorbed
        assert f.evaluate((Fraction(3),)) == Fraction(-9, 64)

    def test_pole_error(self):
        f = FactoredRational(LaurentPoly.one(1), [((2,), 1)])
        with pytest.raises(PoleError):
            f.evaluate((Fraction(1),))

    def test_evaluation_point_of_the_wrong_length(self):
        # The numerator checks the point before any factor is evaluated.
        f = FactoredRational(LaurentPoly.one(2), [((1, 0), 1)])
        with pytest.raises(ValueError, match="wrong length"):
            f.evaluate((1,))

    def test_zero_exponent_factor_rejected(self):
        with pytest.raises(ValueError):
            FactoredRational(LaurentPoly.one(2), [((0, 0), 1)])

    def test_non_integer_factor_exponent_rejected(self):
        with pytest.raises(ValueError, match="non-integer denominator exponent"):
            FactoredRational(LaurentPoly.one(1), [((1.5,), 1)])
        with pytest.raises(ValueError, match="non-integer denominator exponent"):
            FactoredRational.sum([FactoredRational(LaurentPoly.one(1), [((1.0,), 1)]),
                                  FactoredRational(LaurentPoly.one(1), [((2,), 1)])], 1)
        with pytest.raises(ValueError, match="denominator exponent of wrong length"):
            FactoredRational(LaurentPoly.one(1), [((1, 2), 1)])

    @pytest.mark.parametrize("build", [
        lambda: LaurentPoly(1, {(True,): 2}),
        lambda: LaurentPoly.one(1).coefficient((False,)),
        lambda: FactoredRational(LaurentPoly.one(1), [((True,), 1)]),
        lambda: FactoredRational(LaurentPoly.one(1), [((1,), True)]),
    ], ids=["exponent", "lookup", "factor exponent", "factor power"])
    def test_bool_exponents_and_powers_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_mixed_normalizations_compare_equal(self):
        # q^6/((q^4-1)(q^2-1)) written via negative exponents: -q^-2... the
        # constructor absorbs units, equality is semantic either way.
        plain = FactoredRational(q(6), [((2,), 1), ((4,), 1)])
        twisted = FactoredRational(q(0), [((-2,), 1), ((-4,), 1)])
        assert plain == twisted

    def test_reduction_cancels_shared_factor(self):
        f = FactoredRational(_reference_mul(1 - q(2), q(3) + 1), [((2,), 1), ((4,), 1)])
        reduced = f.reduced()
        assert reduced.factors == {(4,): 1}
        assert reduced == f

    def test_as_laurent_round_trip(self):
        poly = q(4) + 2 * q(2) + 1
        f = FactoredRational(_reference_mul(poly, _reference_pow(1 - q(2), 2)), [((2,), 2)])
        assert f.as_laurent() == poly

    def test_equality_and_evaluation_agree_random(self):
        rng = random.Random(23)
        for _ in range(20):
            f = _random_fr(rng, 2)
            g = _random_fr(rng, 2)
            assert f == f
            assert (f == g) == (g == f)
            point = _random_point(rng, 2, [f, g])
            if f == g:
                assert f.evaluate(point) == g.evaluate(point)

    def test_operations_match_evaluation_random(self):
        rng = random.Random(31)
        for _ in range(20):
            f = _random_fr(rng, 2)
            g = _random_fr(rng, 2)
            total = f + g
            product = f * g
            point = _random_point(rng, 2, [f, g, total, product])
            assert total.evaluate(point) == f.evaluate(point) + g.evaluate(point)
            assert product.evaluate(point) == f.evaluate(point) * g.evaluate(point)

    def test_json_shapes(self):
        f = FactoredRational(q(6), [((2,), 1), ((4,), 1)])
        blob = f.to_json()
        assert blob["num"] == [{"exp": [6], "coef": "1"}]
        assert blob["den"] == [
            {"alpha": [2], "power": 1},
            {"alpha": [4], "power": 1},
        ]


class TestOperatorContract:
    """Arithmetic never cancels; only reduced() (and as_laurent through it) does."""

    def test_product_merges_factor_multisets_without_reducing(self):
        f = FactoredRational(1 - q(2), [((2,), 1)])
        g = FactoredRational(q(1), [((2,), 1), ((3,), 2)])
        product = f * g
        assert product.factors == {(2,): 2, (3,): 2}
        assert product.numerator == LaurentPoly(1, {(1,): 1, (3,): -1})
        assert product.reduced().factors == {(2,): 1, (3,): 2}
        for unit in (3, Fraction(-1, 2), q(-4, 5)):
            scaled = f * unit
            assert scaled.factors == f.factors
            assert scaled.numerator == _reference_mul(f.numerator, unit)
            assert (unit * f).numerator == scaled.numerator

    def test_sum_takes_the_largest_power_without_reducing(self):
        f = FactoredRational(LaurentPoly.one(1), [((2,), 2), ((3,), 1)])
        g = FactoredRational(q(1), [((2,), 1), ((5,), 1)])
        assert (f + g).factors == {(2,): 2, (3,): 1, (5,): 1}
        assert (f - g).factors == {(2,): 2, (3,): 1, (5,): 1}
        h = FactoredRational(LaurentPoly.one(1), [((2,), 1)])
        one = h - h * q(2)
        assert one.factors == {(2,): 1}
        assert one.numerator == LaurentPoly(1, {(0,): 1, (2,): -1})
        assert one == 1
        assert one.reduced().factors == {}

    def test_equal_by_construction(self):
        # Numerator and denominator both times (1 - q^alpha)^k, alpha of
        # either sign, so the constructor mixes normalizations.
        rng = random.Random(41)
        for _ in range(40):
            rank = rng.randint(1, 3)
            f = _random_fr(rng, rank)
            alpha, k = _nonzero_vector(rng, rank), rng.randint(1, 2)
            g = FactoredRational(
                _reference_mul(f.numerator, _reference_pow(_binomial(alpha), k)),
                [*f.factors.items(), (alpha, k)],
            )
            assert f == g and g == f
            bump = LaurentPoly.monomial(tuple(rng.randint(-2, 2) for _ in range(rank)))
            assert f != g + bump
            assert f + bump != g

    def test_as_laurent_error_names_the_smallest_factor_left(self):
        # (1 - q1) cancels (1 - q1) only; (1 - q2) and (1 - q1*q2) are left.
        f = FactoredRational(
            LaurentPoly(2, {(0, 0): 1, (1, 0): -1}), [((1, 1), 1), ((1, 0), 1), ((0, 1), 1)]
        )
        with pytest.raises(ExactDivisionError, match=r"divisible by \(1 - q2\)$"):
            f.as_laurent()
        g = FactoredRational(1 - q(2), [((1,), 1), ((2,), 1), ((3,), 1)])
        with pytest.raises(ExactDivisionError, match=r"divisible by \(1 - q\^2\)$"):
            g.as_laurent()


# Every binary operator of both classes; each also runs with the operand on the left.
BINARY_OPERATORS = {
    "==": lambda x, y: x == y,
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
}


@pytest.mark.parametrize("reflected", [False, True], ids=["value first", "operand first"])
@pytest.mark.parametrize("symbol", BINARY_OPERATORS)
@pytest.mark.parametrize("cls", [LaurentPoly, FactoredRational])
def test_operators_coerce_their_operand_or_refuse_it(cls, symbol, reflected):
    def apply(value, operand):
        op = BINARY_OPERATORS[symbol]
        return op(operand, value) if reflected else op(value, operand)

    def as_cls(poly):
        return poly if cls is LaurentPoly else FactoredRational(poly)

    poly = LaurentPoly(2, {(1, 0): Fraction(3, 2), (0, -1): -2, (0, 0): 1})
    value = as_cls(poly)
    # A LaurentPoly is a FactoredRational with no factors; wrapped, it is one with factors.
    assert isinstance(LaurentPoly.one(2), FactoredRational)
    assert LaurentPoly.one(2).factors == {}
    assert LaurentPoly.evaluate is FactoredRational.evaluate
    assert type(FactoredRational(poly)) is FactoredRational
    assert isinstance(FactoredRational(poly).to_json(), dict)
    assert isinstance(poly.to_json(), list)
    with pytest.raises(TypeError, match="numerator must be a LaurentPoly"):
        FactoredRational(3)
    # A value that keeps factors is a FactoredRational, whichever class builds it.
    pole = FactoredRational(q(1), [((1,), 1)])
    for kept in (LaurentPoly.sum([pole], 1), LaurentPoly.shifted_sum([(pole, 1, (0,))], 1)):
        assert type(kept) is FactoredRational
        assert kept.factors == {(1,): 1}
        assert kept.to_json() == pole.to_json()
    # An operand neither class takes: TypeError, and == is False.
    for foreign in ("q", 0.5, None):
        if symbol == "==":
            assert apply(value, foreign) is False
        else:
            with pytest.raises(TypeError):
                apply(value, foreign)
    # An int or Fraction stands for a constant, on either side.
    for scalar in (0, 3, Fraction(-2, 5)):
        got = apply(value, scalar)
        if symbol == "==":
            assert got is False
            assert apply(as_cls(LaurentPoly.constant(2, scalar)), scalar) is True
            continue
        if symbol == "+":
            expected = _reference_add(poly, scalar)
        elif symbol == "-" and reflected:
            expected = _reference_add(_reference_mul(poly, -1), scalar)
        elif symbol == "-":
            expected = _reference_add(poly, -scalar)
        else:
            expected = _reference_mul(poly, scalar)
        assert type(got) is cls
        if cls is FactoredRational:
            assert got.factors == {}
            got = got.numerator
        assert got.terms == expected.terms
    # Another rank, in either class, is an error.
    for other_rank in (q(1), FactoredRational(q(1))):
        with pytest.raises(ValueError, match="rank mismatch"):
            apply(value, other_rank)
    with pytest.raises(ValueError, match="rank mismatch in summation"):
        type(value).sum([value, as_cls(q(1))], 2)
    # A LaurentPoly with a FactoredRational gives a FactoredRational.
    other = LaurentPoly.monomial((1, 1), 2) - 1
    rational = FactoredRational(other, [((1, 1), 1)])
    partner = rational if cls is LaurentPoly else other
    if symbol == "==":
        assert apply(value, FactoredRational(poly) if cls is LaurentPoly else poly) is True
        assert apply(value, partner) is False
        return
    got = apply(value, partner)
    assert type(got) is FactoredRational
    partner_rational = rational if cls is LaurentPoly else FactoredRational(other)
    assert got == apply(FactoredRational(poly), partner_rational)


def test_the_module_examples_hold():
    failed, attempted = doctest.testmod(polyring)
    assert failed == 0
    assert attempted >= 3  # the examples are found, so an empty run cannot pass


def _binomial(alpha):
    """The LaurentPoly 1 - q^alpha."""
    return LaurentPoly(len(alpha), {(0,) * len(alpha): 1, tuple(alpha): -1})


def _divide_binomial(poly, alpha):
    """poly / (1 - q^alpha) on Fraction coefficients, or None when it is not a polynomial.

    The quotient is the running sum Q(e) = sum_(t>=0) P(e - t*alpha).  Two
    terms of P on one alpha-chain are at most ``span`` steps apart, so Q can
    be nonzero only at p + t*alpha with p a term of P and 0 <= t <= span,
    and only the terms of P up to 2*span steps below add to it there.  Q is
    the quotient iff multiplying it back gives P.
    """
    i = next(k for k, a in enumerate(alpha) if a)
    coords = [e[i] for e in poly.terms]
    span = (max(coords) - min(coords)) // abs(alpha[i]) if coords else 0

    def step(e, t):
        return tuple(x + t * a for x, a in zip(e, alpha))

    support = {step(p, t) for p in poly.terms for t in range(span + 1)}
    quotient = LaurentPoly(
        poly.rank,
        {e: sum(poly.coefficient(step(e, -t)) for t in range(2 * span + 1)) for e in support},
    )
    return quotient if _reference_mul(quotient, _binomial(alpha)) == poly else None


def _reference_as_laurent(f):
    """numerator / denominator one binomial at a time, or None when it is not a polynomial."""
    result = f.numerator
    for alpha in sorted(f.factors):
        for _ in range(f.factors[alpha]):
            result = _divide_binomial(result, alpha)
            if result is None:
                return None
    return result


def _reference_reduced(f):
    """Greedy cancellation in sorted factor order, one binomial at a time."""
    numerator, remaining = f.numerator, dict(f.factors)
    for alpha in sorted(remaining):
        while remaining[alpha]:
            quotient = _divide_binomial(numerator, alpha)
            if quotient is None:
                break
            numerator = quotient
            remaining[alpha] -= 1
        if not remaining[alpha]:
            del remaining[alpha]
    return numerator, remaining


def _nonzero_vector(rng, rank):
    vector = (0,) * rank
    while not any(vector):
        vector = tuple(rng.randint(-2, 2) for _ in range(rank))
    return vector


def _mixed_denominator_poly(rng, rank):
    """A nonzero polynomial whose coefficients have denominators 1, 2, 3 and 4."""
    terms = {}
    for denominator in (1, 2, 3, 4):
        exponent = tuple(rng.randint(-3, 3) for _ in range(rank))
        coeff = Fraction(rng.choice([-5, -2, 1, 3]), denominator)
        terms[exponent] = terms.get(exponent, 0) + coeff
    poly = LaurentPoly(rank, terms)
    return poly if not poly.is_zero else LaurentPoly.constant(rank, Fraction(1, 6))


def _random_factored_case(rng):
    """(f, exact) with f = numerator / prod of binomials over Fraction coefficients.

    The numerator is a polynomial with mixed coefficient denominators times
    a random sub-multiset of the denominator's binomials.  In half the cases
    it is also multiplied by a random binomial, so that its coefficient sum
    is 0 and only the per-chain sums can reject a trial division; in one
    case out of four it gets an extra monomial.  ``exact`` says whether the
    numerator was built as a multiple of the whole denominator.
    """
    rank = rng.randint(1, 3)
    raw = [(_nonzero_vector(rng, rank), rng.randint(1, 2)) for _ in range(rng.randint(1, 4))]
    factors = FactoredRational(LaurentPoly.one(rank), raw).factors  # lexicographically positive
    numerator = _mixed_denominator_poly(rng, rank)
    if rng.random() < 0.5:
        numerator = _reference_mul(numerator, _binomial(_nonzero_vector(rng, rank)))
    exact = True
    for alpha, power in factors.items():
        kept = rng.randint(0, power)
        exact = exact and kept == power
        numerator = _reference_mul(numerator, _reference_pow(_binomial(alpha), kept))
    if rng.random() < 0.25:
        numerator = _reference_add(numerator, LaurentPoly.monomial(
            tuple(rng.randint(-2, 2) for _ in range(rank)), Fraction(1, 3)
        ))
        exact = False
    return FactoredRational(numerator, factors), exact


def _agrees_with_references(f):
    """Check reduced() and as_laurent() against the references; how much cancelled."""
    numerator, remaining = _reference_reduced(f)
    reduced = f.reduced()
    assert reduced.factors == remaining
    assert reduced.numerator == numerator
    expected = _reference_as_laurent(f)
    if expected is None:
        with pytest.raises(ExactDivisionError):
            f.as_laurent()
    else:
        assert f.as_laurent() == expected
    if not remaining:
        return "whole"
    return "none" if remaining == f.factors else "partial"


class TestIntegerCore:
    """as_laurent, reduced() and sum against references on Fraction arithmetic."""

    CASES = 150

    def test_as_laurent_matches_factor_by_factor_division(self):
        rng = random.Random(101)
        raised = scaled = 0
        for _ in range(self.CASES):
            f, exact = _random_factored_case(rng)
            if any(c.denominator > 1 for c in f.numerator.terms.values()):
                scaled += 1
            expected = _reference_as_laurent(f)
            if expected is None:
                raised += 1
                with pytest.raises(ExactDivisionError):
                    f.as_laurent()
                continue
            quotient = f.as_laurent()
            assert quotient == expected
            assert all(isinstance(c, Fraction) for c in quotient.terms.values())
            # Neither the reference nor cross-multiplication shares the chain walk.
            assert FactoredRational(quotient) == f
        assert 0 < raised < self.CASES
        assert scaled > self.CASES // 2

    def test_exact_cases_divide(self):
        rng = random.Random(103)
        exact_cases = 0
        for _ in range(self.CASES):
            f, exact = _random_factored_case(rng)
            if exact:
                exact_cases += 1
                assert FactoredRational(f.as_laurent()) == f
        assert exact_cases > 10

    def test_reduced_matches_greedy_reference(self):
        rng = random.Random(107)
        partial = 0
        for _ in range(self.CASES):
            f, _ = _random_factored_case(rng)
            numerator, remaining = _reference_reduced(f)
            reduced = f.reduced()
            assert reduced.factors == remaining
            assert reduced.numerator == numerator
            assert reduced == f
            if remaining and remaining != f.factors:
                partial += 1
        assert partial > 0

    def test_reduced_returns_self_when_nothing_cancels(self):
        f = FactoredRational(q(1) + Fraction(1, 2), [((2,), 1)])
        assert f.reduced() is f

    def test_terms_on_different_chains_stay_apart(self):
        # q^(0,0) and q^(1,0) lie on different (0,1)-chains: a chain index
        # read modulo the key of alpha, rather than off its coordinate,
        # would put them on one chain and call the division exact.
        f = FactoredRational(LaurentPoly(2, {(0, 0): 1, (1, 0): -1}), [((0, 1), 1)])
        assert f.reduced() is f
        with pytest.raises(ExactDivisionError, match=r"divisible by \(1 - q2\)$"):
            f.as_laurent()
        g = FactoredRational(LaurentPoly(2, {(0, 0): 1, (0, 1): -1}), [((1, 0), 1)])
        assert g.reduced() is g
        # With r = 5 the chain base of q^(5,5,0) along (1,-5,0) is (0,30,0),
        # r^2 + r from the origin; a window that held only the terms would
        # wrap it onto the base of q^(0,-2,2).
        h = FactoredRational(LaurentPoly(3, {(5, 5, 0): 1, (0, -2, 2): -1}), [((1, -5, 0), 1)])
        assert h.reduced() is h
        with pytest.raises(ExactDivisionError):
            h.as_laurent()
        assert FactoredRational(LaurentPoly(2, {(0, 0): 1, (0, 1): -1}), [((0, 1), 1)]).as_laurent() == 1

    def test_wide_exponents_at_rank_four(self):
        rng = random.Random(113)
        outcomes = set()
        for case in range(16):
            factors = []
            for _ in range(rng.randint(1, 3)):
                alpha = [rng.randint(-60, 60) for _ in range(4)]
                alpha[case % 2] = rng.randint(20, 60) * rng.choice((-1, 1))
                if case % 2:
                    alpha[0] = 0
                factors.append((tuple(alpha), rng.randint(1, 2)))
            numerator = LaurentPoly(4, {
                tuple(rng.randint(-60, 60) for _ in range(4)): Fraction(rng.randint(1, 9), rng.randint(1, 4))
                for _ in range(3)
            })
            if case % 4 == 3:
                numerator = _reference_mul(numerator, _binomial((0, 0, 1, -60)))
            for alpha, power in FactoredRational(LaurentPoly.one(4), factors).factors.items():
                numerator = _reference_mul(
                    numerator, _reference_pow(_binomial(alpha), rng.randint(0, power))
                )
            outcomes.add(_agrees_with_references(FactoredRational(numerator, factors)))
        assert outcomes == {"whole", "partial", "none"}

    def test_mixed_sign_factors(self):
        rng = random.Random(127)
        # (-1,5) is normalized onto (1,-5), so that factor has power 3.
        factors = [((1, -5), 2), ((2, -4), 1), ((0, 1), 2), ((-1, 5), 1)]
        outcomes = set()
        for case in range(9):
            # Every factor, none of them (times 1 - q^(1,0), so that only
            # the chain sums reject), or a random part of them.
            numerator = _mixed_denominator_poly(rng, 2)
            if case % 3 == 1:
                numerator = _reference_mul(numerator, _binomial((1, 0)))
            for alpha, power in (((1, -5), 3), ((2, -4), 1), ((0, 1), 2)):
                kept = (power, 0, rng.randint(0, power))[case % 3]
                numerator = _reference_mul(numerator, _reference_pow(_binomial(alpha), kept))
            outcomes.add(_agrees_with_references(FactoredRational(numerator, factors)))
        assert outcomes == {"whole", "partial", "none"}

    def test_reduced_returns_self_before_packing_when_the_coefficient_sum_is_nonzero(
        self, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("numerator packed")

        monkeypatch.setattr(polyring, "_Packing", refuse)
        f = FactoredRational(LaurentPoly(2, {(0, 0): 2, (1, 1): -1}), [((1, 1), 2), ((0, 1), 1)])
        assert f.reduced() is f
        with pytest.raises(ExactDivisionError, match=r"divisible by \(1 - q2\)$"):
            f.as_laurent()

    def test_sum_whose_lifts_reach_the_edge_of_the_window(self):
        # q^(5*alpha) lifted by (1 - q^alpha)^3 ends at 8*alpha: the lifts
        # reach exactly max|e| + 3*max|alpha| = 8, the edge of the box -8..8.
        for rank in (2, 3, 4):
            alpha = (1, -1, 1, -1)[:rank]
            e = tuple(5 * a for a in alpha)
            parts = [
                FactoredRational(LaurentPoly.monomial(tuple(-x for x in e), Fraction(1, 3)), [(alpha, 3)]),
                FactoredRational(LaurentPoly.monomial(e, 2)),
                FactoredRational(LaurentPoly.monomial(e[::-1], -1), [(tuple(-x for x in alpha), 1)]),
            ]
            total = FactoredRational.sum(parts, rank)
            numerator, factors = _reference_sum(parts, rank)
            assert total.factors == factors
            assert total.numerator == numerator
            assert max(abs(x) for e in numerator.terms for x in e) == 8

    def test_sum_matches_evaluation(self):
        rng = random.Random(109)
        for _ in range(40):
            rank = rng.randint(1, 3)
            parts = [_random_fr(rng, rank) for _ in range(rng.randint(1, 5))]
            parts.append(FactoredRational(_mixed_denominator_poly(rng, rank)))
            total = FactoredRational.sum(parts, rank)
            for _ in range(2):
                point = _random_point(rng, rank, parts + [total])
                assert total.evaluate(point) == sum(p.evaluate(point) for p in parts)


def _positive_vectors(rng, rank, count):
    """``count`` distinct nonzero vectors whose first nonzero entry is positive."""
    found = set()
    while len(found) < count:
        vector = tuple(rng.randint(-4, 4) for _ in range(rank)) if rank > 1 else (rng.randint(1, 40),)
        if not any(vector):
            continue
        if next(x for x in vector if x) < 0:
            vector = tuple(-x for x in vector)
        found.add(vector)
    return sorted(found)


def _fraction_poly(rng, rank):
    """A nonzero polynomial with coefficient denominators drawn from 1..6."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exponent = tuple(rng.randint(-3, 3) for _ in range(rank))
        terms[exponent] = Fraction(rng.choice([-7, -3, -1, 1, 2, 5]), rng.randint(1, 6))
    poly = LaurentPoly(rank, terms)
    return poly if not poly.is_zero else LaurentPoly.constant(rank, Fraction(1, 5))


def _sum_case(rng, rank, count, overlapping):
    """(parts, raw): ``count`` parts and their (numerator, [(alpha, k)]) as given.

    Overlapping parts draw their factors from one pool of three vectors;
    disjoint parts each own two vectors.  Each alpha is negated at random,
    so the constructor has to flip it.  When there are at least two parts
    the second is minus the first, so a partial sum cancels to zero.
    """
    pool = _positive_vectors(rng, rank, 3 if overlapping else 2 * count)
    raw = []
    for index in range(count):
        own = pool if overlapping else pool[2 * index:2 * index + 2]
        chosen = rng.sample(own, rng.randint(0, len(own)))
        factors = [(alpha if rng.random() < 0.5 else tuple(-x for x in alpha), rng.randint(1, 3))
                   for alpha in chosen]
        raw.append((_fraction_poly(rng, rank), factors))
    if count >= 2:
        raw[1] = (-raw[0][0], raw[0][1])
    return [FactoredRational(num, factors) for num, factors in raw], raw


def _reference_sum(parts, rank):
    """Cross-multiplication over the max-power denominator with the reference loops."""
    common = {}
    for part in parts:
        for alpha, power in part.factors.items():
            common[alpha] = max(common.get(alpha, 0), power)
    total = LaurentPoly.zero(rank)
    for part in parts:
        lifted = part.numerator
        for alpha, power in common.items():
            lifted = _reference_mul(
                lifted, _reference_pow(_binomial(alpha), power - part.factors.get(alpha, 0))
            )
        total = _reference_add(total, lifted)
    return total, common if not total.is_zero else {}


def _raw_value(raw, point):
    """numerator(point) / prod (1 - point^alpha)^k with alpha as given, not normalized."""
    numerator, factors = raw
    value = numerator.evaluate(point)
    for alpha, power in factors:
        monomial = Fraction(1)
        for x, a in zip(point, alpha):
            monomial *= x ** a
        value /= (1 - monomial) ** power
    return value


class TestPairwiseSum:
    """FactoredRational.sum against cross-multiplication and evaluation."""

    def test_sum_matches_cross_multiplication(self):
        rng = random.Random(211)
        shapes = set()
        for case in range(72):
            rank = 1 + case % 3
            count = (0, 1, 2, 3, 5, 7)[case // 3 % 6]
            overlapping = case // 18 % 2 == 0
            parts, raw = _sum_case(rng, rank, count, overlapping)
            total = FactoredRational.sum(parts, rank)
            numerator, factors = _reference_sum(parts, rank)
            assert total.factors == factors
            assert total.numerator == numerator
            assert total.rank == rank
            for _ in range(2):
                point = _random_point(rng, rank, parts + [total])
                assert total.evaluate(point) == sum(_raw_value(r, point) for r in raw)
            shapes.add((rank, count, overlapping))
        assert len(shapes) == 36

    def test_cancelled_partial_sum_keeps_its_factors(self):
        f = FactoredRational(q(1), [((2,), 2)])
        g = FactoredRational(q(3), [((5,), 1)])
        total = FactoredRational.sum([f, -f, g], 1)
        assert total.factors == {(2,): 2, (5,): 1}
        assert total.numerator == LaurentPoly(1, {(3,): 1, (5,): -2, (7,): 1})
        assert FactoredRational.sum([f, -f], 1).factors == {}
        assert FactoredRational.sum([], 2).is_zero

    def test_numerator_round_trip(self):
        rng = random.Random(223)
        for _ in range(30):
            rank = rng.randint(1, 3)
            poly = _fraction_poly(rng, rank)
            (alpha,) = _positive_vectors(rng, rank, 1)
            k = rng.randint(1, 3)
            assert FactoredRational(poly).numerator == poly
            assert FactoredRational(poly, [(alpha, k)]).numerator == poly
            flipped = FactoredRational(poly, [(tuple(-x for x in alpha), k)])
            assert flipped.factors == {alpha: k}
            unit = LaurentPoly.monomial(tuple(k * x for x in alpha), (-1) ** k)
            assert flipped.numerator == _reference_mul(poly, unit)
            # Rebuilt from the integer terms, not handed back.
            assert (FactoredRational(poly) * 1).numerator == poly
            assert (-FactoredRational(poly)).numerator == -poly
            # A numerator over three times the least scale goes round as well.
            wide = (FactoredRational(poly) * 3 * Fraction(1, 3)).numerator
            assert FactoredRational(wide, [(alpha, k)]).numerator.terms == poly.terms
            assert FactoredRational(wide, [(alpha, k)]) == FactoredRational(poly, [(alpha, k)])
            assert FactoredRational(wide).to_json() == FactoredRational(poly).to_json()
        zero = FactoredRational(LaurentPoly.zero(2), [((-1, 0), 1)])
        assert zero.numerator.is_zero and zero.factors == {}
        assert (zero * FactoredRational(LaurentPoly.one(2), [((1, 1), 1)])).is_zero


@st.composite
def _kronecker_cases(draw):
    """A target with positive coefficients in a small box, split into parts.

    Part j is c_j * q^beta_j * (P_j * prod (1 - q^alpha)^k * q^-beta_j / c_j)
    over prod (1 - q^alpha)^k, so the P_j add up to the target; a last pair
    g/D and -g/D cancels, though both series run past the window.
    """
    rank = draw(st.integers(1, 3))
    lows = tuple(draw(st.integers(-3, 1)) for _ in range(rank))
    highs = tuple(low + draw(st.integers(0, 3)) for low in lows)
    box = list(itertools.product(*(range(l, h + 1) for l, h in zip(lows, highs))))
    target = draw(st.dictionaries(st.sampled_from(box), st.integers(1, 60), min_size=1))
    vectors = st.tuples(*[st.integers(-2, 2)] * rank)
    # alpha with its first nonzero coordinate positive; later ones may be negative.
    alphas = vectors.filter(any).map(lambda a: a if next(filter(None, a)) > 0 else
                                     tuple(-x for x in a))
    factor_sets = st.dictionaries(alphas, st.integers(1, 2), min_size=1, max_size=3)

    def part(p, c, beta, factors):
        numerator = LaurentPoly(rank, {e: Fraction(v, c) for e, v in p.items()})
        for alpha, k in factors.items():
            numerator = numerator * (1 - LaurentPoly.monomial(alpha)) ** k
        numerator = numerator * LaurentPoly.monomial(tuple(-b for b in beta))
        return FactoredRational(numerator, factors), c, beta

    pieces = {}
    for e, v in target.items():
        pieces.setdefault(draw(st.integers(0, 2)), {})[e] = v
    parts = [part(p, draw(st.integers(1, 6)), draw(vectors), draw(factor_sets))
             for p in pieces.values()]
    nonzero = st.integers(-9, 9).filter(bool)
    g = draw(st.dictionaries(st.sampled_from(box), nonzero, min_size=1))
    (f, c, beta), den = part(g, draw(st.integers(1, 6)), draw(vectors), {}), draw(factor_sets)
    parts += [(FactoredRational(f.numerator, den), c, beta),
              (FactoredRational(-f.numerator, den), c, beta)]
    return parts, lows, highs, target


class TestKroneckerSum:
    def test_digits_wider_than_a_machine_word(self):
        # Scaled coefficients past 2^64 are decoded byte by byte, not as machine words.
        big = 3 ** 45
        parts = [
            (FactoredRational(LaurentPoly(2, {(0, 0): big, (2, 0): -big}), [((1, 0), 1)]), 2, (0, 1)),
            (FactoredRational(LaurentPoly(2, {(0, 0): Fraction(big, 7), (0, 3): Fraction(-big, 7)}),
                              [((0, 1), 1)]), 7, (0, 0)),
        ]
        got = polyring.kronecker_sum(parts, (0, 0), (1, 2), 7 * big)
        symbolic = FactoredRational.sum(
            [f * LaurentPoly.monomial(beta, c) for f, c, beta in parts], 2).as_laurent()
        assert got.terms == symbolic.terms == {
            (0, 0): big, (0, 1): 3 * big, (0, 2): big, (1, 1): 2 * big}
        assert 7 * max(got.terms.values()) > 2 ** 64

    @pytest.mark.parametrize("exponents, lows, highs, named", [
        ([(-1, 0)], (0, 0), (1, 1), "(-1, 0)"),
        # Slot -3 is below the box and its lower digit is 1: coordinate 0 is a floor.
        ([(0, 0), (-2, 1)], (0, 0), (1, 1), "(-2, 1)"),
        ([(3, 0, 1)], (0, 0, 0), (2, 1, 1), "(3, 0, 1)"),
    ])
    def test_a_term_outside_the_box_is_named_by_its_exponent(self, exponents, lows, highs, named):
        parts = [(FactoredRational(LaurentPoly.monomial(e)), 1, (0,) * len(e)) for e in exponents]
        message = "the sum has a term at %s, outside the box %s..%s" % (named, lows, highs)
        with pytest.raises(ExactDivisionError) as caught:
            polyring.kronecker_sum(parts, lows, highs, len(exponents))
        assert str(caught.value) == message

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(case=_kronecker_cases())
    def test_the_sum_of_a_split_target_is_the_target(self, case):
        parts, lows, highs, target = case
        got = polyring.kronecker_sum(parts, lows, highs, sum(target.values()))
        assert got.terms == target


class TestIntegerProduct:
    """The product of integer numerators against the reference product on Fractions."""

    def test_product_matches_laurent_product(self):
        rng = random.Random(227)
        for case in range(60):
            rank = 1 + case % 4
            # Narrow exponents fill the packed window; wide ones leave it
            # mostly empty.
            spread = (2, 30)[case // 4 % 2]
            polys = []
            for _ in range(2):
                terms = {}
                for _ in range(rng.randint(1, 8)):
                    exponent = tuple(rng.randint(-spread, spread) for _ in range(rank))
                    terms[exponent] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                polys.append(LaurentPoly(rank, terms))
            f, g = (FactoredRational(p, [((1,) * rank, 1)]) for p in polys)
            product = f * g
            assert product.numerator == _reference_mul(polys[0], polys[1])
            assert product.factors == ({(1,) * rank: 2} if not product.is_zero else {})


def _matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _apply(matrix, e):
    return tuple(sum(x * y for x, y in zip(row, e)) for row in matrix)


def _unimodular(rng, rank):
    """A random integer matrix of determinant +-1: signed row swaps and row additions."""
    matrix = [[int(r == c) * rng.choice((1, -1)) for c in range(rank)] for r in range(rank)]
    for _ in range(3 * rank):
        i, j = rng.sample(range(rank), 2) if rank > 1 else (0, 0)
        if i != j:
            k = rng.choice((-2, -1, 1, 2))
            matrix[i] = [x + k * y for x, y in zip(matrix[i], matrix[j])]
            if rng.random() < 0.3:
                matrix[i], matrix[j] = matrix[j], matrix[i]
    return tuple(map(tuple, matrix))


class TestMapped:
    """FactoredRational.mapped: q^e -> q^(M.e) on numerator and factors."""

    def test_identity_keeps_the_value_and_its_form(self):
        rng = random.Random(71)
        for _ in range(30):
            rank = rng.randint(1, 3)
            f = _random_fr(rng, rank)
            identity = tuple(tuple(int(r == c) for c in range(rank)) for r in range(rank))
            image = f.mapped(identity)
            assert image == f
            assert image.to_json() == f.to_json()

    def test_lex_negative_images_are_normalized_as_by_the_constructor(self):
        rng = random.Random(73)
        flips = 0
        for case in range(40):
            rank = 2 + case % 2
            f = _random_fr(rng, rank)
            matrix = _unimodular(rng, rank)
            images = [(_apply(matrix, alpha), k) for alpha, k in f.factors.items()]
            flips += any(next(x for x in alpha if x) < 0 for alpha, _ in images)
            expected = FactoredRational(
                LaurentPoly(rank, {_apply(matrix, e): c for e, c in f.numerator.terms.items()}),
                images,
            )
            image = f.mapped(matrix)
            assert image == expected
            assert image.to_json() == expected.to_json()
            assert all(next(x for x in alpha if x) > 0 for alpha in image.factors)
        assert flips

    def test_fraction_coefficients_keep_their_scale(self):
        numerator = LaurentPoly(2, {(1, 0): Fraction(1, 6), (0, 1): Fraction(-3, 4)})
        f = FactoredRational(numerator, [((1, 1), 1), ((0, 1), 2)])
        image = f.mapped(((-1, 0), (1, 1)))
        assert image._scale == f._scale == 12
        # (1, 1) -> (-1, 2), flipped to (1, -2) with the unit -q^(1, -2).
        assert image.factors == {(1, -2): 1, (0, 1): 2}
        assert image.numerator == LaurentPoly(2, {(0, -1): Fraction(-1, 6), (1, -1): Fraction(3, 4)})

    def test_composition(self):
        rng = random.Random(79)
        for case in range(30):
            rank = 1 + case % 3
            f = _random_fr(rng, rank)
            first, second = _unimodular(rng, rank), _unimodular(rng, rank)
            twice = f.mapped(first).mapped(second)
            once = f.mapped(_matmul(second, first))
            assert twice == once
            assert twice.to_json() == once.to_json()

    def test_matrix_of_the_wrong_shape_or_singular_is_rejected(self):
        f = FactoredRational(LaurentPoly(2, {(1, 0): 1, (0, 1): 2}), [((1, 1), 1)])
        with pytest.raises(ValueError, match="matrix"):
            f.mapped(((1, 0),))
        with pytest.raises(ValueError, match="singular"):
            f.mapped(((1, 1), (1, 1)))
        # One numerator term, and a factor that the matrix sends to 0.
        g = FactoredRational(LaurentPoly.monomial((1, 0)), [((1, -1), 1)])
        with pytest.raises(ValueError, match="singular"):
            g.mapped(((1, 1), (1, 1)))


class TestShiftedSum:
    """FactoredRational.shifted_sum against FactoredRational.sum of the c * q^beta * f."""

    def test_equals_the_sum_of_the_shifted_parts(self):
        rng = random.Random(97)
        mixed = 0
        for case in range(40):
            rank = 1 + case % 3
            den = dict(_random_fr(rng, rank).factors) or {(1,) * rank: 1}
            parts = [(FactoredRational(_random_poly(rng, rank, ensure_nonzero=True), den),
                      rng.randint(-4, 4), tuple(rng.randint(-3, 3) for _ in range(rank)))
                     for _ in range(rng.randint(1, 4))]
            expected = FactoredRational.sum(
                [f * LaurentPoly.monomial(beta, c) for f, c, beta in parts], rank)
            got = FactoredRational.shifted_sum(parts, rank)
            assert got == expected
            assert got.to_json() == expected.to_json()
            assert got.factors == (den if not got.is_zero else {})
            assert got._scale == lcm(*(f._scale for f, _, _ in parts))
            mixed += len({f._scale for f, _, _ in parts}) > 1
        assert mixed

    def test_a_cancelling_pair_over_different_scales_sums_to_zero(self):
        f = FactoredRational(LaurentPoly(2, {(1, 0): Fraction(1, 3), (0, -1): 2}), {(1, 1): 2})
        half = FactoredRational(f.numerator * Fraction(1, 2), f.factors)
        assert (f._scale, half._scale) == (3, 6)
        got = FactoredRational.shifted_sum([(f, 2, (1, -1)), (half, -4, (1, -1))], 2)
        assert got.is_zero and not got.factors
        assert got == FactoredRational.sum([f * 2, half * -4], 2)


class TestResidue:
    """Each value keeps its numerator and denominator at kronecker_sum's seeded point."""

    PRIME = (1 << 61) - 1

    @staticmethod
    def splitmix64(state):
        """The first output of SplitMix64 seeded with state, as in its reference code."""
        mask = (1 << 64) - 1
        z = (state + 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    def fresh(self, f):
        seeds = [self.splitmix64(i) % self.PRIME for i in range(f.rank)]

        def at(e):
            return prod(pow(x, k, self.PRIME) for x, k in zip(seeds, e))

        below = f._scale
        for alpha, power in f.factors.items():
            below = below * pow(1 - at(alpha), power, self.PRIME) % self.PRIME
        return sum(c * at(e) for e, c in f._terms.items()) % self.PRIME, below

    def test_the_kept_residue_is_a_fresh_evaluation(self):
        rng = random.Random(89)
        for case in range(60):
            f = _random_fr(rng, 1 + case % 4)
            assert f._residue is None
            residue = f._residue_pair()
            assert residue == self.fresh(f)
            assert f._residue_pair() is residue

    def test_derived_values_get_their_own_residue(self):
        f = FactoredRational(q(3) - 2, [((2,), 1)])
        f._residue_pair()
        for g in (f * 2, -f, f + f, f.mapped(((-1,),))):
            assert g._residue is None
            assert g._residue_pair() == self.fresh(g)

    def test_the_seeds_are_splitmix64_outputs(self):
        assert self.splitmix64(0) == 0xE220A8397B1DCDAF  # the generator's published first output
        assert list(polyring._seeds(9)) == [self.splitmix64(i) % self.PRIME for i in range(9)]

    # Each module had a pole-data factor (1 - q^alpha) that vanished at the
    # multiples x_i = (i + 1) c, where x_0 x_3 = x_1^2; none vanishes at the seeds.
    @pytest.mark.parametrize("label,highest", [
        ("B5", (0, 0, 0, 0, 1)), ("B6", (0, 0, 0, 0, 0, 1)), ("B7", (0, 0, 0, 0, 0, 0, 1)),
        ("D8", (0, 0, 0, 0, 0, 0, 0, 1)), ("D8", (0, 0, 0, 0, 0, 0, 1, 0)),
        ("E7", (0, 0, 0, 0, 0, 0, 1)),
        *(("A8", tuple(int(i == j) for i in range(8))) for j in range(2, 6)),
    ])
    def test_no_pole_data_factor_vanishes_at_the_seeds(self, label, highest):
        closed = pfd_decompose(weight_system(from_label(label), highest))
        alphas = {alpha for term in closed.terms for alpha in term.coeff.factors}

        def vanishing(seeds):
            return [alpha for alpha in alphas if not (1 - prod(
                pow(x, a, self.PRIME) for x, a in zip(seeds, alpha))) % self.PRIME]

        multiples = [(i + 1) * 0x9E3779B97F4A7C15 % self.PRIME for i in range(len(highest))]
        assert vanishing(multiples)
        assert vanishing(polyring._seeds(len(highest))) == []

    def test_a_factor_that_vanishes_at_the_point_is_named(self, monkeypatch):
        multiples = [(i + 1) * 0x9E3779B97F4A7C15 % self.PRIME for i in range(4)]
        monkeypatch.setattr(polyring, "_seeds", lambda rank: multiples[:rank])
        f = FactoredRational(LaurentPoly.one(4), [((1, -2, 0, 1), 1)])
        with pytest.raises(ExactDivisionError, match=r"^\(1 - q\^\(1, -2, 0, 1\)\) "
                                                     r"vanishes at the seeded point$"):
            f._residue_pair()
        assert f._residue is None


# Every count argument goes through polyring.check_count: (call on a table, least value).
COUNT_ARGUMENTS = {
    "LaurentPoly rank": (lambda t, x: LaurentPoly(x), 1),
    "LaurentPoly power": (lambda t, x: q(1) ** x, 0),
    "binomial_poly k": (lambda t, x: binomial_poly(x, 2), 1),
    "binomial_poly n": (lambda t, x: binomial_poly(2, x), 0),
    "sl2_coefficient": (lambda t, x: sl2_coefficient(x, 0), 0),
    "fundamental_coefficient": (lambda t, x: fundamental_coefficient(x, 0), 1),
    "character_at": (lambda t, x: character_at(pfd_decompose(t), x), 0),
    "orbit_split": (lambda t, x: orbit_split(pfd_decompose(t), t.root_system, x), 0),
    "cyclotomic": (lambda t, x: cyclotomic(x), 1),
    "truncated_molien": (lambda t, x: truncated_molien(t, x), 0),
    "adams_series": (lambda t, x: adams_series(t.character_poly(), x), 0),
    "hsym_character": (lambda t, x: hsym_character(t.support(), x), 0),
    "check_partition_equivalence": (lambda t, x: check_partition_equivalence(t, x), 0),
}


@pytest.mark.parametrize("value", [-1, 1.5])
@pytest.mark.parametrize("name", COUNT_ARGUMENTS)
def test_count_arguments_are_checked(sl2_adjoint, name, value):
    call, least = COUNT_ARGUMENTS[name]
    call(sl2_adjoint, least)
    kind = "positive" if least else "non-negative"
    with pytest.raises(ValueError, match=r" must be a %s integer, got %r$" % (kind, value)):
        call(sl2_adjoint, value)


# A bool is an int in Python, but no count or coordinate: each of these
# returned a value when True passed for 1.
BOOL_ARGUMENTS = {
    "character_at": lambda t: character_at(pfd_decompose(t), True),
    "truncated_molien": lambda t: truncated_molien(t, True),
    "LaurentPoly rank": lambda t: LaurentPoly(True, {(1,): 2}),
    "cyclotomic": lambda t: cyclotomic(True),
    "build_root_system": lambda t: build_root_system("A", True),
    "GradedTruncation.coefficient": lambda t: truncated_molien(t, 2).coefficient(True),
    "sl2_coefficient": lambda t: sl2_coefficient(2, True),
    "table multiplicity": lambda t: MultiplicityTable((2,), {(2,): 1, (0,): True, (-2,): 1},
                                                      t.root_system),
    "count_solutions target": lambda t: count_solutions(build_partition_matrix(t), (0, True)),
}


@pytest.mark.parametrize("name", BOOL_ARGUMENTS)
def test_bool_is_not_a_count(sl2_adjoint, name):
    with pytest.raises(ValueError, match="True"):
        BOOL_ARGUMENTS[name](sl2_adjoint)
