import random
from fractions import Fraction

import pytest

from symchar.polyring import ExactDivisionError, FactoredRational, LaurentPoly, PoleError


def q(exponent, coeff=1):
    return LaurentPoly.monomial((exponent,), coeff)


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

    def test_negative_exponents(self):
        poly = q(-2, 3) + q(2)
        assert poly.coefficient((-2,)) == 3
        assert poly.evaluate((Fraction(2),)) == Fraction(3, 4) + 4

    def test_scale_exponents(self):
        char = q(1) + q(-1)
        assert char.scale_exponents(3) == q(3) + q(-3)

    def test_power(self):
        assert (q(1) + q(-1)) ** 2 == q(2) + 2 + q(-2)
        assert (q(1) + 1) ** 0 == LaurentPoly.one(1)


class TestExactDivision:
    def test_simple_quotient(self):
        assert (q(4) - 1).exact_div(q(2) - 1) == q(2) + 1

    def test_longer_quotient(self):
        assert (q(12) - 1).exact_div(q(4) - 1) == q(8) + q(4) + 1

    def test_remainder_carried_on_failure(self):
        with pytest.raises(ExactDivisionError) as info:
            (q(2) + 1).exact_div(q(1) - 1)
        assert info.value.remainder is not None
        assert not info.value.remainder.is_zero

    def test_laurent_shift_quotient(self):
        numerator = q(1) - q(-1)
        divisor = q(-1)
        assert numerator.exact_div(divisor) == q(2) - 1

    def test_binomial_roundtrip_random(self):
        # Divisors c*q^beta*(1 - r*q^alpha)^k in ranks 1-3, with r != 1 and
        # alpha of mixed sign allowed; the power is divided out one binomial
        # at a time.  Adding a monomial to a multiple makes it non-divisible.
        rng = random.Random(7)
        for _ in range(60):
            rank = rng.randint(1, 3)
            alpha = (0,) * rank
            while not any(alpha):
                alpha = tuple(rng.randint(-3, 3) for _ in range(rank))
            beta = tuple(rng.randint(-2, 2) for _ in range(rank))
            c = Fraction(rng.choice([1, -1, 2, -3]), rng.randint(1, 3))
            r = Fraction(rng.choice([1, -1, 2, -3]), rng.randint(1, 2))
            binomial = LaurentPoly(
                rank, {beta: c, tuple(b + a for b, a in zip(beta, alpha)): -c * r}
            )
            k = rng.randint(1, 3)
            quotient = _random_poly(rng, rank, ensure_nonzero=True)
            product = quotient * binomial**k
            for _ in range(k):
                product = product.exact_div(binomial)
            assert product == quotient

            inexact = quotient * binomial + LaurentPoly.monomial(
                tuple(rng.randint(-3, 3) for _ in range(rank))
            )
            with pytest.raises(ExactDivisionError) as info:
                inexact.exact_div(binomial)
            remainder = info.value.remainder
            assert not remainder.is_zero
            (inexact - remainder).exact_div(binomial)

    def test_three_term_divisor_rejected(self):
        with pytest.raises(ValueError):
            (q(3) - 1).exact_div(q(2) + q(1) + 1)

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

    def test_zero_exponent_factor_rejected(self):
        with pytest.raises(ValueError):
            FactoredRational(LaurentPoly.one(2), [((0, 0), 1)])

    def test_mixed_normalizations_compare_equal(self):
        # q^6/((q^4-1)(q^2-1)) written via negative exponents: -q^-2... the
        # constructor absorbs units, equality is semantic either way.
        plain = FactoredRational(q(6), [((2,), 1), ((4,), 1)])
        twisted = FactoredRational(q(0), [((-2,), 1), ((-4,), 1)])
        assert plain == twisted

    def test_reduction_cancels_shared_factor(self):
        f = FactoredRational((1 - q(2)) * (q(3) + 1), [((2,), 1), ((4,), 1)])
        reduced = f.reduced()
        assert reduced.factors == {(4,): 1}
        assert reduced == f

    def test_as_laurent_round_trip(self):
        poly = q(4) + 2 * q(2) + 1
        f = FactoredRational(poly * (1 - q(2)) ** 2, [((2,), 2)])
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
