"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS line (visible
with pytest -s) after its assertions, including the measured runtime.
Everything asserted here is exact equality except the quadrature gap,
whose tolerance is 1e-6.
"""

import time
from fractions import Fraction
from math import comb

import pytest

from symchar.charformula import character_at, multiplicity_at, orbit_split
from symchar.cli import VERIFY_CASES
from symchar.oracle import adams_symmetric, hsym_character, quadrature_check, truncated_molien
from symchar.pfdcore import pfd_decompose, sl2_coefficient
from symchar.polyring import FactoredRational, LaurentPoly
from symchar.rootsys import build_root_system, from_label
from symchar.univariate import univariate_pfd
from symchar.vpart import build_partition_matrix, check_partition_equivalence
from symchar.weightsys import dim_irrep, weight_system

# the cases exercised by criteria 4 and 7: the trivial A1 module plus the
# `verify` subcommand's table, so the two cannot drift apart
EQUIVALENCE_CASES = (("A1", (0,), 10),) + VERIFY_CASES


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _report(number, name, timer, budget):
    print("[criterion %d] %s: PASS (%.3fs, budget %gs)" % (number, name, timer.elapsed, budget))
    assert timer.elapsed < budget, "criterion %d exceeded its %gs budget" % (number, budget)


@pytest.fixture(scope="module")
def equivalence_data():
    """Characters of every criterion-4 case along all three routes, computed once."""
    with _Timer() as timer:
        records = []
        for label, highest, n_max in EQUIVALENCE_CASES:
            rs = from_label(label)
            table = weight_system(rs, highest)
            closed = pfd_decompose(table)
            truncation = truncated_molien(table, n_max)
            char = table.character_poly()
            rows = []
            for n in range(n_max + 1):
                rows.append(
                    {
                        "n": n,
                        "pfd": character_at(closed, n),
                        "molien": truncation.coefficient(n),
                        "adams": adams_symmetric(char, n),
                    }
                )
            records.append(
                {
                    "label": "%s lambda=%s" % (label, ",".join(map(str, highest))),
                    "rs": rs,
                    "table": table,
                    "closed": closed,
                    "rows": rows,
                }
            )
    return {"records": records, "elapsed": timer.elapsed}


def test_criterion_1_golden_table(sl2_adjoint):
    expected_rows = {
        1: {(2,): 1, (0,): 1, (-2,): 1},
        2: {(4,): 1, (2,): 1, (0,): 2, (-2,): 1, (-4,): 1},
        3: {(6,): 1, (4,): 1, (2,): 2, (0,): 2, (-2,): 2, (-4,): 1, (-6,): 1},
        4: {(8,): 1, (6,): 1, (4,): 2, (2,): 2, (0,): 3,
            (-2,): 2, (-4,): 2, (-6,): 1, (-8,): 1},
        5: {(10,): 1, (8,): 1, (6,): 2, (4,): 2, (2,): 3, (0,): 3,
            (-2,): 3, (-4,): 2, (-6,): 2, (-8,): 1, (-10,): 1},
    }
    with _Timer() as timer:
        closed = pfd_decompose(sl2_adjoint)
        for n, coeffs in expected_rows.items():
            assert character_at(closed, n).terms == LaurentPoly(1, coeffs)
    _report(1, "golden character table, degrees 1..5", timer, 1.0)


def test_criterion_2_rank_one_closed_forms(a1):
    with _Timer() as timer:
        for m in range(7):
            closed = pfd_decompose(weight_system(a1, (m,)))
            by_weight = {term.weight: term.coeff for term in closed.terms}
            assert len(by_weight) == m + 1
            for i in range(m + 1):
                assert by_weight[(m - 2 * i,)] == sl2_coefficient(m, i)
    _report(2, "rank-1 closed-form coefficients, m <= 6", timer, 1.0)


def test_criterion_3_rank_two_adjoint_coefficients(sl3_adjoint):
    with _Timer() as timer:
        closed = pfd_decompose(sl3_adjoint)
        got = {(term.weight, term.order): term.coeff for term in closed.terms}
        # -3 a^4 b^4 / ((ab-1)^2 (a-b^2)^2 (a^2-b)^2) over binomial factors
        expected = FactoredRational(
            LaurentPoly.monomial((-2, 4), -3),
            [((1, 1), 2), ((-1, 2), 2), ((-2, 1), 2)],
        )
        assert expected.evaluate((Fraction(2), Fraction(3))) == Fraction(-3888, 1225)
        assert got[((0, 0), 1)] == expected
        assert ((0, 0), 2) in got
    _report(3, "rank-2 adjoint zero-weight coefficients", timer, 5.0)


def test_criterion_4_three_way_equivalence(equivalence_data):
    with _Timer() as timer:
        for record in equivalence_data["records"]:
            for row in record["rows"]:
                assert row["pfd"].terms == row["molien"], (record["label"], row["n"])
                assert row["pfd"].terms == row["adams"], (record["label"], row["n"])
    total = equivalence_data["elapsed"] + timer.elapsed
    timer.elapsed = total
    _report(4, "three-way oracle equivalence (incl. pipeline build)", timer, 120.0)


def test_criterion_5_multiplicity_extraction(sl2_adjoint):
    with _Timer() as timer:
        character = character_at(pfd_decompose(sl2_adjoint), 4)
        assert multiplicity_at(character, (2,)) == 2
        assert multiplicity_at(character, (0,)) == 3
        numeric, series, gap = quadrature_check(sl2_adjoint, (2,), Fraction(1, 2), 30)
        assert gap < 1e-6
    _report(5, "multiplicity extraction and quadrature gap < 1e-6", timer, 10.0)


def test_criterion_6_orbit_split_and_cancellation(a1):
    with _Timer() as timer:
        closed = pfd_decompose(weight_system(a1, (3,)))
        summands = {s.dominant_weight: s.value for s in orbit_split(closed, a1, 4)}

        pfd1 = univariate_pfd(summands[(1,)])
        pfd3 = univariate_pfd(summands[(3,)])
        three_quarters = Fraction(3, 4)
        assert pfd1.laurent_part == LaurentPoly(1, {(2,): -1, (0,): -2, (-2,): -1})
        assert [(p.index, p.power, p.numerator) for p in pfd1.pole_terms] == [
            (1, 1, (-three_quarters,)),
            (1, 2, (-three_quarters,)),
            (2, 1, (three_quarters,)),
            (2, 2, (-three_quarters,)),
        ]
        assert pfd3.laurent_part == LaurentPoly(
            1,
            {(12,): 1, (10,): 1, (8,): 2, (6,): 3, (4,): 4, (2,): 5, (0,): 7,
             (-2,): 5, (-4,): 4, (-6,): 3, (-8,): 2, (-10,): 1, (-12,): 1},
        )
        assert [(p.index, p.power, p.numerator) for p in pfd3.pole_terms] == [
            (1, 1, (three_quarters,)),
            (1, 2, (three_quarters,)),
            (2, 1, (-three_quarters,)),
            (2, 2, (three_quarters,)),
        ]
        # pole terms cancel pairwise across the two orbit summands
        for pole1, pole3 in zip(pfd1.pole_terms, pfd3.pole_terms):
            assert (pole1.index, pole1.power) == (pole3.index, pole3.power)
            assert tuple(-c for c in pole1.numerator) == pole3.numerator
        # and the summands add up to the degree-4 character
        total = summands[(1,)] + summands[(3,)]
        assert total == FactoredRational(character_at(closed, 4).terms)
    _report(6, "orbit split, cyclotomic decomposition, cancellation", timer, 1.0)


def test_criterion_7_normalization_properties(equivalence_data):
    with _Timer() as timer:
        for record in equivalence_data["records"]:
            rs = record["rs"]
            dim = dim_irrep(rs, record["table"].highest_weight)
            assert character_at(record["closed"], 0).terms == 1
            for row in record["rows"]:
                character = row["pfd"]
                assert character.coefficient_sum() == comb(dim - 1 + row["n"], row["n"])
                for mu in character.support():
                    count = character.multiplicity(mu)
                    assert count > 0
                    for i in range(1, rs.rank + 1):
                        assert character.multiplicity(rs.reflect(i, mu)) == count
    _report(7, "dimension sums, Weyl invariance, unit coefficient sum", timer, 60.0)


def test_criterion_8_vector_partition_equivalence(a1, a2, sl2_adjoint, sl3_adjoint):
    with _Timer() as timer:
        for rs, table, n_max in ((a1, sl2_adjoint, 6), (a2, sl3_adjoint, 3)):
            matrix = build_partition_matrix(table)
            # grading, symmetry, multiplicity
            assert matrix.entries[-1] == (1,) * matrix.cols
            columns = sorted(matrix.weight_columns())
            for i in range(1, rs.rank + 1):
                assert sorted(rs.reflect(i, col) for col in columns) == columns
            for mu in table.support():
                assert columns.count(mu) == table.multiplicity(mu)
            report = check_partition_equivalence(table, n_max)
            assert report["all_pass"]
            assert any(case["N"] == n_max for case in report["cases"])
    _report(8, "vector-partition counts match the pipeline", timer, 120.0)


def test_criterion_9_multiplicity_free_identity():
    with _Timer() as timer:
        for rank in (1, 2, 3):
            rs = build_root_system("A", rank)
            highest = (1,) + (0,) * (rank - 1)
            table = weight_system(rs, highest)
            char = table.character_poly()
            closed = pfd_decompose(table)
            for n in range(7):
                identity = hsym_character(table.support(), n)
                assert identity == adams_symmetric(char, n)
                character = character_at(closed, n)
                assert identity == character.terms
                assert set(character.terms.terms.values()) <= {Fraction(1)}
                assert len(character.support()) == comb(n + rank, rank)
    _report(9, "multiplicity-free symmetric-function identity", timer, 30.0)


def test_criterion_10_rank_three_adjoint():
    # The sl4 adjoint at N=3: a common denominator of degree 45 over a summed
    # numerator of tens of thousands of monomials, for 147 output monomials.
    with _Timer() as timer:
        table = weight_system(build_root_system("A", 3), (1, 0, 1))
        character = character_at(pfd_decompose(table), 3)
        assert character.terms == truncated_molien(table, 3).coefficient(3)
        assert character.terms == adams_symmetric(table.character_poly(), 3)
        assert len(character.support()) == 147
        assert character.coefficient_sum() == comb(15 - 1 + 3, 3)
    _report(10, "rank-3 adjoint A3(1,0,1) at N=3 matches both oracles", timer, 60.0)


def test_criterion_11_d4_adjoint_pole_data():
    # D4(0,1,0,0), the 28-dimensional adjoint module with a zero weight of
    # multiplicity 4: its pole data, summed at N = 0, 1, 2 and evaluated at
    # a point whose coordinates are ratios of distinct primes (so no
    # denominator factor vanishes), equals the truncated Molien product there.
    point = (Fraction(2, 3), Fraction(5, 7), Fraction(11, 13), Fraction(17, 19))
    with _Timer() as timer:
        table = weight_system(from_label("D4"), (0, 1, 0, 0))
        closed = pfd_decompose(table)
        truncation = truncated_molien(table, 2)
        values = [(term, term.coeff.evaluate(point)) for term in closed.terms]
        for n in range(3):
            total = sum(
                value
                * comb(n + term.order - 1, n)
                * LaurentPoly.monomial(tuple(n * c for c in term.weight)).evaluate(point)
                for term, value in values
            )
            assert total == truncation.coefficient(n).evaluate(point)
    assert max(term.order for term in closed.terms) == 4
    _report(11, "D4 adjoint pole data matches the Molien product at N = 0, 1, 2", timer, 60.0)


def test_criterion_12_b2_pole_data():
    # B2(2,1), 40-dimensional, with weights of multiplicity up to 3: the
    # Leibniz products of its pole data are large enough that Fraction
    # numerator products used to take seconds.  Summed at N = 0, 1, 2 and
    # evaluated at a point of ratios of distinct primes, the pole data
    # equals the truncated Molien product there.
    point = (Fraction(2, 3), Fraction(5, 7))
    with _Timer() as timer:
        table = weight_system(from_label("B2"), (2, 1))
        closed = pfd_decompose(table)
        truncation = truncated_molien(table, 2)
        values = [(term, term.coeff.evaluate(point)) for term in closed.terms]
        for n in range(3):
            total = sum(
                value
                * comb(n + term.order - 1, n)
                * LaurentPoly.monomial(tuple(n * c for c in term.weight)).evaluate(point)
                for term, value in values
            )
            assert total == truncation.coefficient(n).evaluate(point)
    assert max(term.order for term in closed.terms) == max(table.entries.values())
    _report(12, "B2(2,1) pole data matches the Molien product at N = 0, 1, 2", timer, 60.0)
