from fractions import Fraction
from math import comb

import pytest

from symchar.charformula import character_at, multiplicity_at
from symchar.oracle import (
    adams_symmetric,
    hsym_character,
    quadrature_check,
    truncated_molien,
)
from symchar.pfdcore import pfd_decompose
from symchar.polyring import LaurentPoly
from symchar.rootsys import build_root_system
from symchar.weightsys import MultiplicityTable, weight_system


def q(exponent, coeff=1):
    return LaurentPoly.monomial((exponent,), coeff)


class TestTruncatedMolien:
    def test_first_rows(self, sl2_adjoint):
        truncation = truncated_molien(sl2_adjoint, 1)
        assert truncation.coefficient(0) == LaurentPoly.one(1)
        assert truncation.coefficient(1) == q(2) + 1 + q(-2)

    def test_degree_three_row(self, sl2_adjoint):
        truncation = truncated_molien(sl2_adjoint, 3)
        expected = q(6) + q(4) + 2 * q(2) + 2 + 2 * q(-2) + q(-4) + q(-6)
        assert truncation.coefficient(3) == expected

    def test_trivial_module(self, a1):
        truncation = truncated_molien(weight_system(a1, (0,)), 4)
        for n in range(5):
            assert truncation.coefficient(n) == LaurentPoly.one(1)

    def test_coefficient_sums(self, sl3_adjoint):
        truncation = truncated_molien(sl3_adjoint, 4)
        for n in range(5):
            assert truncation.coefficient(n).coefficient_sum() == comb(8 - 1 + n, n)


class TestAdamsSymmetric:
    def test_defining_module_powers(self, a1):
        char = weight_system(a1, (1,)).character_poly()
        for n in range(7):
            expected = LaurentPoly(1, {(n - 2 * i,): 1 for i in range(n + 1)})
            assert adams_symmetric(char, n) == expected

    def test_degree_zero(self, sl3_adjoint):
        assert adams_symmetric(sl3_adjoint.character_poly(), 0) == LaurentPoly.one(2)

    def test_adjoint_row_five(self, sl2_adjoint):
        expected = LaurentPoly(
            1,
            {
                (10,): 1, (8,): 1, (6,): 2, (4,): 2, (2,): 3, (0,): 3,
                (-2,): 3, (-4,): 2, (-6,): 2, (-8,): 1, (-10,): 1,
            },
        )
        assert adams_symmetric(sl2_adjoint.character_poly(), 5) == expected


class TestThreeWayEquivalence:
    CASES = [
        ("A", 1, (2,), 6),
        ("A", 1, (4,), 5),
        ("A", 2, (1, 0), 6),
        ("A", 2, (1, 1), 4),
        ("B", 2, (0, 1), 4),
    ]

    @pytest.mark.parametrize("series,rank,highest,n_max", CASES)
    def test_equivalence(self, series, rank, highest, n_max):
        rs = build_root_system(series, rank)
        table = weight_system(rs, highest)
        closed = pfd_decompose(table)
        truncation = truncated_molien(table, n_max)
        char = table.character_poly()
        for n in range(n_max + 1):
            from_pfd = character_at(closed, n).terms
            assert from_pfd == truncation.coefficient(n)
            assert from_pfd == adams_symmetric(char, n)


class TestHsymCharacter:
    def test_rank_one(self, a1):
        weights = weight_system(a1, (1,)).support()
        assert hsym_character(weights, 3) == q(3) + q(1) + q(-1) + q(-3)

    def test_single_zero_weight(self):
        for n in range(4):
            assert hsym_character([(0, 0)], n) == LaurentPoly.one(2)

    def test_fundamental_weights_degree_one(self, a2):
        weights = weight_system(a2, (1, 0)).support()
        expected = LaurentPoly(2, {(1, 0): 1, (-1, 1): 1, (0, -1): 1})
        assert hsym_character(weights, 1) == expected

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_agrees_with_adams(self, rank):
        rs = build_root_system("A", rank)
        table = weight_system(rs, (1,) + (0,) * (rank - 1))
        char = table.character_poly()
        for n in range(5):
            assert hsym_character(table.support(), n) == adams_symmetric(char, n)

    def test_repeated_weights_rejected(self):
        with pytest.raises(ValueError):
            hsym_character([(1,), (1,)], 2)


class TestQuadratureCheck:
    def test_gap_small_at_spec_parameters(self, sl2_adjoint):
        numeric, series, gap = quadrature_check(sl2_adjoint, (2,), Fraction(1, 2), 30, 512)
        assert gap < 1e-6
        # the exact series must agree with the pipeline multiplicities
        closed = pfd_decompose(sl2_adjoint)
        direct = sum(
            Fraction(1, 2) ** n * multiplicity_at(character_at(closed, n), (2,))
            for n in range(31)
        )
        assert series == direct

    def test_gap_shrinks_with_truncation_order(self, sl2_adjoint):
        gaps = [
            quadrature_check(sl2_adjoint, (0,), Fraction(1, 2), n_max, 256)[2]
            for n_max in (10, 20, 30)
        ]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_weight_outside_all_supports(self, sl2_adjoint):
        numeric, series, gap = quadrature_check(sl2_adjoint, (1,), Fraction(1, 2), 20, 256)
        assert series == 0
        assert abs(numeric) < 1e-9

    def test_z_zero(self, sl2_adjoint):
        numeric, series, gap = quadrature_check(sl2_adjoint, (0,), 0, 10, 128)
        assert series == 1
        assert abs(numeric - 1.0) < 1e-12
        numeric, series, gap = quadrature_check(sl2_adjoint, (1,), 0, 10, 128)
        assert series == 0

    def test_rank_and_radius_guards(self, sl3_adjoint, sl2_adjoint):
        with pytest.raises(ValueError):
            quadrature_check(sl3_adjoint, (0, 0), Fraction(1, 2), 5)
        with pytest.raises(ValueError):
            quadrature_check(sl2_adjoint, (0,), Fraction(3, 4), 5)


def test_graded_truncation_guard(sl2_adjoint):
    with pytest.raises(ValueError):
        truncated_molien(sl2_adjoint, -1)


def test_adams_rejects_non_integral_input(a1):
    bad = LaurentPoly(1, {(1,): Fraction(1, 2), (-1,): Fraction(1, 2)})
    with pytest.raises(ArithmeticError):
        adams_symmetric(bad, 2)
