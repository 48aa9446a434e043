import ast
import hashlib
import inspect
from fractions import Fraction
from math import comb
from operator import add

import pytest
from test_properties import MODULES

from symchar import oracle
from symchar.charformula import character_at, multiplicity_at
from symchar.oracle import (
    adams_series,
    adams_symmetric,
    hsym_character,
    quadrature_check,
    truncated_molien,
)
from symchar.pfdcore import pfd_decompose
from symchar.polyring import InconsistencyError, LaurentPoly
from symchar.rootsys import build_root_system, from_label
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
        with pytest.raises(ValueError, match="empty weight list"):
            hsym_character([], 2)


class TestQuadratureCheck:
    def test_gap_small_at_spec_parameters(self, sl2_adjoint):
        numeric, series, gap = quadrature_check(sl2_adjoint, (2,), Fraction(1, 2), 30)
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
            quadrature_check(sl2_adjoint, (0,), Fraction(1, 2), n_max)[2]
            for n_max in (10, 20, 30)
        ]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_weight_outside_all_supports(self, sl2_adjoint):
        numeric, series, gap = quadrature_check(sl2_adjoint, (1,), Fraction(1, 2), 20)
        assert series == 0
        assert abs(numeric) < 1e-9

    def test_z_zero(self, sl2_adjoint):
        numeric, series, gap = quadrature_check(sl2_adjoint, (0,), 0, 10)
        assert series == 1
        assert abs(numeric - 1.0) < 1e-12
        numeric, series, gap = quadrature_check(sl2_adjoint, (1,), 0, 10)
        assert series == 0

    def test_rank_and_radius_guards(self, sl3_adjoint, sl2_adjoint):
        with pytest.raises(ValueError):
            quadrature_check(sl3_adjoint, (0, 0), Fraction(1, 2), 5)
        with pytest.raises(ValueError):
            quadrature_check(sl2_adjoint, (0,), Fraction(3, 4), 5)


def test_graded_truncation_guard(sl2_adjoint):
    with pytest.raises(ValueError):
        truncated_molien(sl2_adjoint, -1)


@pytest.mark.parametrize("n", [-1, 4, 2.0])
def test_graded_truncation_rejects_degrees_outside_its_bound(sl2_adjoint, n):
    truncation = truncated_molien(sl2_adjoint, 3)
    with pytest.raises(ValueError, match=r"outside 0\.\.3"):
        truncation.coefficient(n)
    with pytest.raises(ValueError, match=r"outside 0\.\.3"):
        adams_series(sl2_adjoint.character_poly(), 3).coefficient(n)


def test_adams_rejects_non_integral_input(a1):
    bad = LaurentPoly(1, {(1,): Fraction(1, 2), (-1,): Fraction(1, 2)})
    with pytest.raises(ArithmeticError):
        adams_symmetric(bad, 2)
    with pytest.raises(InconsistencyError):
        adams_symmetric(bad, 1)
    assert adams_symmetric(bad, 0) == LaurentPoly.one(1)


def _rows_digest(rows):
    """sha256 of the sorted (N, exponent, coefficient) rows of a graded series."""
    digest = hashlib.sha256()
    for n, exponent, coeff in sorted(rows):
        digest.update(("%d %s %s\n" % (n, ",".join(map(str, exponent)), coeff)).encode())
    return digest.hexdigest()


# Recorded from the Fraction-coefficient oracles.  Both oracles give the same
# rows on every case, so one digest pins each of them.
PINNED_ROWS = [
    ("A2", (2, 1), 6, "daf8f8c85e414dc04f66897ad9546b00496739b24a50c39fcd77f96c66538c75"),
    ("B3", (1, 0, 0), 5, "e4aa31b16f6968b4c2579b0a017e0e1eb02b04f51abb8531299eae72c83c7567"),
    ("G2", (1, 0), 6, "522b1538b11709fa146f0cfed3d679e15aad0baeff57a3d192b96d4057a12646"),
    ("A1", (6,), 12, "2379fe9667dc1b8591f4352d085ae8496b600c0b0edaaee90e349f1fdf96070b"),
]


@pytest.mark.parametrize("label,highest,n_max,sha", PINNED_ROWS,
                         ids=["%s(%s)" % (row[0], ",".join(map(str, row[1]))) for row in PINNED_ROWS])
def test_oracle_rows_are_pinned(label, highest, n_max, sha):
    table = weight_system(from_label(label), highest)
    truncation = truncated_molien(table, n_max)
    char = table.character_poly()
    molien_rows = ((n, e, c) for n in range(n_max + 1)
                   for e, c in truncation.coefficient(n).terms.items())
    adams_rows = ((n, e, c) for n in range(n_max + 1)
                  for e, c in adams_symmetric(char, n).terms.items())
    series = adams_series(char, n_max)
    assert truncation.degree_bound == series.degree_bound == n_max
    series_rows = ((n, e, c) for n in range(n_max + 1)
                   for e, c in series.coefficient(n).terms.items())
    assert _rows_digest(molien_rows) == sha
    assert _rows_digest(adams_rows) == sha
    assert _rows_digest(series_rows) == sha


# The oracles pack exponent vectors into ints with one shared helper, so
# they could agree on a wrong row.  These are the tuple-key loops they
# replaced, kept as independent references.
def _reference_molien(table, n_max):
    rows = [{(0,) * table.rank: 1}] + [{} for _ in range(n_max)]
    for mu in table.support():
        for _ in range(table.multiplicity(mu)):
            for below, row in zip(rows, rows[1:]):
                for exponent, coeff in below.items():
                    key = tuple(map(add, exponent, mu))
                    row[key] = row.get(key, 0) + coeff
    return rows


def _reference_adams(char_v, n_max):
    hs = [{(0,) * char_v.rank: 1}]
    powers = [{tuple(k * c for c in e): int(coeff) for e, coeff in char_v.terms.items()}
              for k in range(1, n_max + 1)]
    for t in range(1, n_max + 1):
        acc = {}
        for power, lower in zip(powers, reversed(hs)):
            for ea, ca in power.items():
                for eb, cb in lower.items():
                    key = tuple(map(add, ea, eb))
                    acc[key] = acc.get(key, 0) + ca * cb
        assert all(total % t == 0 for total in acc.values())
        hs.append({e: total // t for e, total in acc.items() if total})
    return hs


REFERENCE_CASES = (
    [(label, highest, 6) for label, highest in MODULES]
    + [("F4", (0, 0, 0, 1), 3), ("E6", (1, 0, 0, 0, 0, 0), 3), ("A1", (12,), 30), ("A2", (1, 1), 0)]
)


@pytest.mark.parametrize("label,highest,n_max", REFERENCE_CASES,
                         ids=["%s(%s)N%d" % (c[0], ",".join(map(str, c[1])), c[2])
                              for c in REFERENCE_CASES])
def test_packed_oracles_equal_the_tuple_key_references(label, highest, n_max):
    table = weight_system(from_label(label), highest)
    char = table.character_poly()
    molien = truncated_molien(table, n_max)
    adams = adams_series(char, n_max)
    expected = _reference_molien(table, n_max)
    assert _reference_adams(char, n_max) == expected
    for n, row in enumerate(expected):
        assert dict(molien.coefficient(n).terms) == row
        assert dict(adams.coefficient(n).terms) == row


def test_molien_equals_adams_on_a2_adjoint_to_degree_ten(sl3_adjoint):
    truncation = truncated_molien(sl3_adjoint, 10)
    char = sl3_adjoint.character_poly()
    for n in range(11):
        assert truncation.coefficient(n) == adams_symmetric(char, n)


# The oracles must not share code with the pole-data pipeline they check.
PIPELINE_MODULES = {"pfdcore", "charformula", "vpart"}
PIPELINE_NAMES = {"FactoredRational", "_Packing", "_product", "_chain_div"}


def test_oracle_module_is_independent_of_the_pipeline():
    tree = ast.parse(inspect.getsource(oracle))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                imported.add(node.module.rsplit(".", 1)[-1])
            imported.update(alias.name for alias in node.names)
    assert not imported & PIPELINE_MODULES

    # Follow every module-level function or class that the oracle path
    # names, transitively, so that a helper cannot bring the pipeline in.
    definitions = {node.name: node for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    seen = set()
    pending = ["truncated_molien", "adams_series", "adams_symmetric"]
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        used = {n.id for n in ast.walk(definitions[name]) if isinstance(n, ast.Name)}
        used |= {n.attr for n in ast.walk(definitions[name]) if isinstance(n, ast.Attribute)}
        assert not used & PIPELINE_NAMES, name
        pending.extend(used & definitions.keys())
    assert {"_packing", "GradedTruncation"} <= seen
