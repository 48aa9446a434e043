from fractions import Fraction
from math import comb

import pytest

from symchar.rootsys import build_root_system
from symchar.vpart import (
    PartitionMatrix,
    build_partition_matrix,
    check_partition_equivalence,
    count_solutions,
)
from symchar.weightsys import weight_system


class TestBuildMatrix:
    def test_rank_one_adjoint(self, sl2_adjoint):
        matrix = build_partition_matrix(sl2_adjoint)
        assert matrix.to_json() == [[2, 0, -2], [1, 1, 1]]

    def test_trivial_module(self, a1):
        matrix = build_partition_matrix(weight_system(a1, (0,)))
        assert matrix.to_json() == [[0], [1]]

    def test_sl3_adjoint_shape(self, sl3_adjoint):
        matrix = build_partition_matrix(sl3_adjoint)
        assert matrix.rows == 3 and matrix.cols == 8
        assert matrix.entries[-1] == (1,) * 8
        zero_columns = [col for col in matrix.weight_columns() if col == (0, 0)]
        assert len(zero_columns) == 2

    def test_columns_match_table_multiplicities(self, sl3_adjoint):
        matrix = build_partition_matrix(sl3_adjoint)
        for mu in sl3_adjoint.support():
            count = sum(1 for col in matrix.weight_columns() if col == mu)
            assert count == sl3_adjoint.multiplicity(mu)

    def test_column_multiset_weyl_stable(self, b2):
        table = weight_system(b2, (1, 1))
        matrix = build_partition_matrix(table)
        columns = sorted(matrix.weight_columns())
        for i in range(1, 3):
            assert sorted(b2.reflect(i, col) for col in columns) == columns

    def test_deterministic(self, sl3_adjoint):
        first = build_partition_matrix(sl3_adjoint)
        second = build_partition_matrix(sl3_adjoint)
        assert first == second


@pytest.fixture(scope="module")
def adjoint_matrix():
    a1 = build_root_system("A", 1)
    return build_partition_matrix(weight_system(a1, (2,)))


class TestCountSolutions:
    def test_known_count(self, adjoint_matrix):
        # x1*(2) + x3*(-2) = 2 with x1+x2+x3 = 4: solutions (1,3,0), (2,1,1)
        assert count_solutions(adjoint_matrix, (2, 4)) == 2

    def test_empty_solution(self, adjoint_matrix):
        assert count_solutions(adjoint_matrix, (0, 0)) == 1

    def test_parity_obstruction(self, adjoint_matrix):
        assert count_solutions(adjoint_matrix, (3, 1)) == 0

    def test_negative_budget(self, adjoint_matrix):
        assert count_solutions(adjoint_matrix, (0, -1)) == 0

    def test_wrong_target_length(self, adjoint_matrix):
        with pytest.raises(ValueError):
            count_solutions(adjoint_matrix, (0, 0, 0))

    @pytest.mark.parametrize("target", [(1, 1.5), (Fraction(1), 2)], ids=["float", "fraction"])
    def test_non_integer_target_rejected(self, adjoint_matrix, target):
        with pytest.raises(ValueError, match="target entries must be integers"):
            count_solutions(adjoint_matrix, target)

    def test_column_order_irrelevant(self, adjoint_matrix):
        permuted = PartitionMatrix(entries=((-2, 2, 0), (1, 1, 1)))
        for target in [(2, 4), (0, 4), (-2, 3), (4, 6)]:
            assert count_solutions(permuted, target) == count_solutions(adjoint_matrix, target)

    def test_weyl_equivariance(self, a2, sl3_adjoint):
        matrix = build_partition_matrix(sl3_adjoint)
        for n in range(3):
            for mu in [(1, 1), (2, -1), (1, -2), (3, 0)]:
                base = count_solutions(matrix, (*mu, n))
                for i in (1, 2):
                    image = a2.reflect(i, mu)
                    assert count_solutions(matrix, (*image, n)) == base

    def test_total_count_is_composition_number(self, sl3_adjoint):
        matrix = build_partition_matrix(sl3_adjoint)
        d = matrix.cols
        for n in range(3):
            # every composition of n lands on exactly one target vector
            seen = {}
            total = 0
            for mu1 in range(-2 * n, 2 * n + 1):
                for mu2 in range(-2 * n, 2 * n + 1):
                    value = count_solutions(matrix, (mu1, mu2, n))
                    total += value
            assert total == comb(d - 1 + n, n)


class TestEquivalence:
    def test_rank_one_adjoint(self, sl2_adjoint):
        report = check_partition_equivalence(sl2_adjoint, 4)
        assert report["all_pass"]
        assert any(
            case["N"] == 4 and case["mu"] == [0] and case["count"] == 3
            for case in report["cases"]
        )

    def test_trivial_module(self, a2):
        report = check_partition_equivalence(weight_system(a2, (0, 0)), 3)
        assert report["all_pass"]
        assert all(case["count"] == 1 for case in report["cases"])

    def test_sl3_adjoint(self, sl3_adjoint):
        report = check_partition_equivalence(sl3_adjoint, 2)
        assert report["all_pass"]

    @pytest.mark.parametrize("n_max", [-1, 1.0, "2", None])
    def test_bound_must_be_a_non_negative_int(self, sl2_adjoint, n_max):
        # A report over no degrees would pass without checking anything.
        with pytest.raises(ValueError, match="non-negative integer"):
            check_partition_equivalence(sl2_adjoint, n_max)
