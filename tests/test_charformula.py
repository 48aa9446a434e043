import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from symchar.charformula import (
    CharacterPoly,
    _parts,
    character_at,
    multiplicity_at,
    orbit_split,
)
from symchar.oracle import truncated_molien
from symchar.pfdcore import ClosedCharacter, PFDTerm, pfd_decompose
from symchar.polyring import (
    ExactDivisionError, FactoredRational, InconsistencyError, LaurentPoly, kronecker_sum,
)
from symchar.rootsys import build_root_system, from_label
from symchar.univariate import cyclotomic, univariate_pfd
from symchar.weightsys import dim_irrep, weight_system

from reference import reference_parts, reference_summands


def q(exponent, coeff=1):
    return LaurentPoly.monomial((exponent,), coeff)


# the hand-checkable characters of the symmetric powers of the rank-1 adjoint
SL2_ADJOINT_ROWS = {
    1: {2: 1, 0: 1, -2: 1},
    2: {4: 1, 2: 1, 0: 2, -2: 1, -4: 1},
    3: {6: 1, 4: 1, 2: 2, 0: 2, -2: 2, -4: 1, -6: 1},
    4: {8: 1, 6: 1, 4: 2, 2: 2, 0: 3, -2: 2, -4: 2, -6: 1, -8: 1},
    5: {10: 1, 8: 1, 6: 2, 4: 2, 2: 3, 0: 3, -2: 3, -4: 2, -6: 2, -8: 1, -10: 1},
}


class TestCharacterAt:
    def test_degree_zero_is_one(self, sl2_adjoint, sl3_adjoint):
        for table in (sl2_adjoint, sl3_adjoint):
            assert character_at(pfd_decompose(table), 0).terms == LaurentPoly.one(table.rank)

    @pytest.mark.parametrize("n", sorted(SL2_ADJOINT_ROWS))
    def test_sl2_adjoint_rows(self, sl2_adjoint, n):
        got = character_at(pfd_decompose(sl2_adjoint), n).terms
        assert got == LaurentPoly(1, {(e,): c for e, c in SL2_ADJOINT_ROWS[n].items()})

    def test_degree_one_recovers_module_character(self, sl3_adjoint):
        closed = pfd_decompose(sl3_adjoint)
        assert character_at(closed, 1).terms == sl3_adjoint.character_poly()

    @pytest.mark.parametrize(
        "series,rank,highest,n_max",
        [("A", 1, (3,), 6), ("A", 2, (1, 1), 4), ("B", 2, (0, 1), 4)],
    )
    def test_coefficient_sum_and_weyl_invariance(self, series, rank, highest, n_max):
        rs = build_root_system(series, rank)
        table = weight_system(rs, highest)
        closed = pfd_decompose(table)
        dim = dim_irrep(rs, highest)
        for n in range(n_max + 1):
            character = character_at(closed, n)
            assert character.coefficient_sum() == comb(dim - 1 + n, n)
            for mu in character.support():
                for i in range(1, rank + 1):
                    assert character.multiplicity(rs.reflect(i, mu)) == character.multiplicity(mu)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_fundamental_powers_are_multiplicity_free(self, rank):
        rs = build_root_system("A", rank)
        highest = (1,) + (0,) * (rank - 1)
        closed = pfd_decompose(weight_system(rs, highest))
        for n in range(5):
            character = character_at(closed, n)
            values = set(character.terms.terms.values())
            assert values == {Fraction(1)} or n == 0
            assert len(character.support()) == comb(n + rank, rank)

    def test_rejects_negative_degree(self, sl2_adjoint):
        with pytest.raises(ValueError):
            character_at(pfd_decompose(sl2_adjoint), -1)

    def test_corrupted_pole_data_raises_internal_error(self, sl2_adjoint):
        from symchar.polyring import ExactDivisionError

        closed = pfd_decompose(sl2_adjoint)
        broken = ClosedCharacter(
            source=closed.source,
            terms=(PFDTerm(closed.terms[0].weight, closed.terms[0].order, closed.terms[0].coeff * 2),)
            + closed.terms[1:],
        )
        with pytest.raises(ExactDivisionError):
            character_at(broken, 2)

    @pytest.mark.parametrize("factor", [Fraction(1, 2), -1])
    def test_scaled_pole_data_raises_inconsistency(self, sl2_adjoint, factor):
        # The division is exact, but the coefficients are not positive integers.
        from symchar.polyring import InconsistencyError

        closed = pfd_decompose(sl2_adjoint)
        scaled = ClosedCharacter(
            source=closed.source,
            terms=tuple(PFDTerm(term.weight, term.order, term.coeff * factor) for term in closed.terms),
        )
        with pytest.raises(InconsistencyError):
            character_at(scaled, 2)

    def test_a_dropped_pole_term_is_reported_with_the_module(self, a2):
        from symchar.polyring import ExactDivisionError

        closed = pfd_decompose(weight_system(a2, (1, 1)))
        broken = ClosedCharacter(source=closed.source, terms=closed.terms[:-1])
        message = (r"^A2\(1, 1\), N=2: point check failed: the polynomial read on the box "
                   r"\(-4, -4\)\.\.\(4, 4\) is not the sum of the parts$")
        with pytest.raises(ExactDivisionError, match=message):
            character_at(broken, 2)

    def test_halved_pole_data_is_reported_with_the_first_offending_weight(self, a2):
        from symchar.polyring import InconsistencyError

        closed = pfd_decompose(weight_system(a2, (1, 1)))
        halved = ClosedCharacter(
            source=closed.source,
            terms=tuple(PFDTerm(term.weight, term.order, term.coeff * Fraction(1, 2)) for term in closed.terms),
        )
        message = (r"^A2\(1, 1\), N=2: character coefficients must be positive integers, "
                   r"not 1/2 at \(-4, 2\)$")
        with pytest.raises(InconsistencyError, match=message):
            character_at(halved, 2)


def _closed(label, highest):
    return pfd_decompose(weight_system(from_label(label), highest))


def _kronecker_args(closed, n):
    """(parts, lows, highs, total): what character_at hands kronecker_sum for degree n."""
    columns = list(zip(*closed.source.support()))
    return (_parts(closed.terms, n), [n * min(c) for c in columns], [n * max(c) for c in columns],
            comb(closed.source.dimension() - 1 + n, n))


def _both_routes(closed, n):
    """(Kronecker, symbolic) characters of degree n; the symbolic parts do not use _parts."""
    return (kronecker_sum(*_kronecker_args(closed, n)), FactoredRational.sum(
        [part for _, part in reference_parts(closed, n)], closed.rank).as_laurent())


# The requests of perfbench's char_ladder and query_stream workloads.
CHAR_LADDER = [("A1", (6,), 20), ("A2", (1, 1), 12), ("G2", (1, 0), 6),
               ("B3", (1, 0, 0), 8), ("A2", (2, 1), 4), ("A2", (2, 1), 10)]
QUERY_STREAM = [(label, highest, n) for label, highest in (
    ("A1", (2,)), ("A1", (3,)), ("A1", (4,)), ("A1", (5,)), ("A1", (6,)), ("A2", (1, 0)),
    ("A2", (1, 1)), ("B2", (1, 0)), ("B2", (0, 1)), ("G2", (1, 0))) for n in range(1, 7)]


def _no_symbolic_sum(parts, rank):
    raise AssertionError("character_at ran the symbolic sum")


class TestKroneckerRoute:
    @pytest.mark.parametrize("label,highest,n", CHAR_LADDER + [
        ("A3", (1, 0, 1), 3), ("A3", (1, 0, 1), 6), ("B2", (2, 1), 4)])
    def test_both_routes_agree_term_for_term(self, label, highest, n):
        kronecker, symbolic = _both_routes(_closed(label, highest), n)
        assert kronecker.terms == symbolic.terms
        assert kronecker.to_json() == symbolic.to_json()

    # The one rule of character_at: the Kronecker route serves every degree,
    # and the symbolic sum never runs.  The last five rows are large boxes
    # and F4, E6 and C3 modules, on which the symbolic sum takes from tenths
    # of a second to many minutes.
    @pytest.mark.parametrize("label,highest,n", CHAR_LADDER + QUERY_STREAM + [
        ("A3", (1, 0, 1), 3), ("A3", (1, 0, 1), 6), ("A2", (2, 1), 30), ("A2", (1, 1), 40),
        ("F4", (0, 0, 0, 1), 4), ("E6", (1, 0, 0, 0, 0, 0), 3), ("C3", (0, 1, 0), 8)])
    def test_rule_picks_the_kronecker_route(self, label, highest, n, monkeypatch):
        table = weight_system(from_label(label), highest)
        closed, expected = pfd_decompose(table), truncated_molien(table, n).coefficient(n)
        with monkeypatch.context() as patch:
            patch.setattr(FactoredRational, "sum", _no_symbolic_sum)
            character = character_at(closed, n)
        assert character.terms == expected

    @pytest.mark.parametrize("label,highest,n", [
        ("A2", (2, 1), 4), ("G2", (1, 0), 6), ("B3", (1, 0, 0), 8)])
    def test_a_unit_change_in_any_numerator_coefficient_fails_a_check(self, label, highest, n):
        # Terms beyond the window never reach the digits; the point check sees them.
        # A fresh ClosedCharacter per mutation, so no memoized character is read.
        closed = _closed(label, highest)
        mutations = 0
        for index, term in enumerate(closed.terms):
            numerator = term.coeff.numerator.terms
            for exponent, step in product(sorted(numerator), (1, -1)):
                changed = LaurentPoly(closed.rank,
                                      {**numerator, exponent: numerator[exponent] + step})
                broken = ClosedCharacter(source=closed.source, terms=(
                    *closed.terms[:index],
                    PFDTerm(term.weight, term.order, FactoredRational(changed, term.coeff.factors)),
                    *closed.terms[index + 1:]))
                with pytest.raises((ExactDivisionError, InconsistencyError)):
                    character_at(broken, n)
                mutations += 1
        assert mutations == 2 * sum(len(t.coeff.numerator.terms) for t in closed.terms)

    def test_a_doubled_pole_term_fails_fast_with_the_module(self):
        # The Kronecker check fails at once; no slower sum runs after it.
        closed = _closed("F4", (0, 0, 0, 1))
        first = closed.terms[0]
        broken = ClosedCharacter(source=closed.source, terms=(
            PFDTerm(first.weight, first.order, first.coeff * 2), *closed.terms[1:]))
        with pytest.raises(ExactDivisionError) as caught:
            character_at(broken, 4)
        assert str(caught.value) == (
            "F4(0, 0, 0, 1), N=4: the sum has a term at (5, -4, -8, -8), "
            "outside the box (-4, -4, -8, -8)..(4, 4, 8, 8)")

    @pytest.mark.parametrize("label,highest", [
        ("A1", (4,)), ("A2", (1, 1)), ("B2", (1, 0)), ("G2", (1, 0)), ("A2", (2, 1))])
    def test_kept_residues_serve_every_later_degree(self, label, highest):
        # One pole data, N = 1..8 in turn: from N = 2 on, every part's residue is the kept one.
        table = weight_system(from_label(label), highest)
        closed = pfd_decompose(table)
        molien = truncated_molien(table, 8)
        for n in range(1, 9):
            assert character_at(closed, n).terms == molien.coefficient(n)
            assert all(term.coeff._residue is not None for term in closed.terms)

    def test_a_doubled_pole_term_fails_the_point_check_on_kept_residues(self, a2):
        # The repeated term is the same object, so its residue is the kept one too.
        closed = pfd_decompose(weight_system(a2, (1, 1)))
        character_at(closed, 2)
        (top,) = (term for term in closed.terms if term.weight == (1, 1))
        residue = top.coeff._residue
        broken = ClosedCharacter(source=closed.source, terms=closed.terms + (top,))
        message = (r"^A2\(1, 1\), N=3: point check failed: the polynomial read on the box "
                   r"\(-6, -6\)\.\.\(6, 6\) is not the sum of the parts$")
        with pytest.raises(ExactDivisionError, match=message):
            character_at(broken, 3)
        assert top.coeff._residue is residue

    @pytest.mark.parametrize("route", ["rule"])
    def test_the_coefficient_sum_is_checked_on_either_route(self, sl2_adjoint, route):
        # Doubled pole data gives positive integer coefficients that sum to 2 C(dim-1+N, N).
        closed = pfd_decompose(sl2_adjoint)
        doubled = ClosedCharacter(source=closed.source, terms=tuple(
            PFDTerm(t.weight, t.order, t.coeff * 2) for t in closed.terms))
        message = r"^A1\(2,\), N=2: coefficients sum to 12, not C\(dim-1\+N, N\) = 6$"
        with pytest.raises(InconsistencyError, match=message):
            character_at(doubled, 2)
        # Twice the character passes every check of the sum; the coefficient sum stops it.
        assert kronecker_sum(*_kronecker_args(doubled, 2)) == character_at(closed, 2).terms * 2


class TestMultiplicityAt:
    def test_known_multiplicities(self, sl2_adjoint):
        character = character_at(pfd_decompose(sl2_adjoint), 4)
        assert multiplicity_at(character, (2,)) == 2
        assert multiplicity_at(character, (0,)) == 3

    def test_outside_support(self, sl2_adjoint):
        character = character_at(pfd_decompose(sl2_adjoint), 4)
        assert multiplicity_at(character, (100,)) == 0

    def test_weight_of_the_wrong_length(self, sl3_adjoint):
        character = character_at(pfd_decompose(sl3_adjoint), 2)
        with pytest.raises(ValueError, match="exponent vector of length 1 in a rank-2 polynomial"):
            multiplicity_at(character, (1,))

    @pytest.mark.parametrize("mu", [(1.5, 0), (0.0, 0.0)])
    def test_non_integer_weight(self, sl3_adjoint, mu):
        # (0.0, 0.0) hashes and compares like (0, 0), so a plain lookup finds 6.
        character = character_at(pfd_decompose(sl3_adjoint), 2)
        with pytest.raises(ValueError, match=r"^non-integer exponent \(%s, %s\)$" % mu):
            multiplicity_at(character, mu)


class TestCharacterPoly:
    # The integer terms over their scale are checked, whatever the scale.
    @pytest.mark.parametrize("terms,scale,message", [
        ({(0,): 1, (4,): -2}, 2, r"1/2 at \(0,\)"),
        ({(0,): 1, (4,): -1}, 1, r"-1 at \(4,\)"),
        ({(0,): 3, (2,): 2}, 2, r"3/2 at \(0,\)"),
        ({(0,): 2, (2,): 12}, 2, None),
    ], ids=["half", "negative", "three-halves-over-scale-2", "integers-over-scale-2"])
    def test_coefficients_are_checked_when_made(self, terms, scale, message):
        terms = LaurentPoly._raw(1, terms, scale)
        if message is None:
            CharacterPoly(rank=1, terms=terms)
            return
        with pytest.raises(InconsistencyError,
                           match=r"^character coefficients must be positive integers, not "
                           + message + "$"):
            CharacterPoly(rank=1, terms=terms)

    def test_integers_over_a_scale_above_one_are_read_as_ints(self):
        # 2 * 1/2 makes 1 and keeps the scale 2 of the half it came from.
        terms = LaurentPoly(1, {(0,): Fraction(1, 2), (2,): 3}) * 2
        assert terms._scale == 2
        character = CharacterPoly(rank=1, terms=terms)
        assert character.multiplicity((0,)) == 1 and character.multiplicity([2]) == 6
        assert character.multiplicity((5,)) == 0
        assert character.coefficient_sum() == 7
        assert character.to_json() == [{"weight": [0], "mult": 1}, {"weight": [2], "mult": 6}]
        for mu, message in (((0, 0), "length 2 in a rank-1"), ((True,), "non-integer")):
            with pytest.raises(ValueError, match=message):
                character.multiplicity(mu)

    def test_rank_must_be_the_rank_of_the_terms(self):
        with pytest.raises(ValueError, match=r"^rank-3 character with rank-1 terms$"):
            CharacterPoly(rank=3, terms=LaurentPoly.one(1))


class TestOrbitSplit:
    def expected_summands(self, n):
        # hand-built orbit pieces for the rank-1 module with highest weight 3
        f1 = FactoredRational(
            LaurentPoly(1, {(6 + n,): 1, (2 - n,): -1}), [((4,), 1), ((2,), 2)]
        )
        f3 = FactoredRational(
            LaurentPoly(1, {(12 + 3 * n,): -1, (-3 * n,): 1}),
            [((2,), 1), ((4,), 1), ((6,), 1)],
        )
        return f1, f3

    @pytest.mark.parametrize("n", [0, 1, 4, 7])
    def test_rank_one_orbit_pieces(self, a1, n):
        closed = pfd_decompose(weight_system(a1, (3,)))
        summands = orbit_split(closed, a1, n)
        assert [s.dominant_weight for s in summands] == [(1,), (3,)]
        f1, f3 = self.expected_summands(n)
        assert summands[0].value == f1
        assert summands[1].value == f3

    @pytest.mark.parametrize(
        "series,rank,highest,n",
        [("A", 1, (3,), 4), ("A", 2, (1, 1), 3), ("B", 2, (0, 1), 2)],
    )
    def test_summands_add_to_character(self, series, rank, highest, n):
        rs = build_root_system(series, rank)
        closed = pfd_decompose(weight_system(rs, highest))
        summands = orbit_split(closed, rs, n)
        total = FactoredRational.zero(rank)
        for summand in summands:
            total = total + summand.value
        assert total == FactoredRational(character_at(closed, n).terms)

    def test_sl3_adjoint_has_two_summands(self, a2, sl3_adjoint):
        summands = orbit_split(pfd_decompose(sl3_adjoint), a2, 2)
        assert [s.dominant_weight for s in summands] == [(0, 0), (1, 1)]

    def test_rejects_a_root_system_of_another_rank(self, a1):
        closed = pfd_decompose(weight_system(build_root_system("A", 2), (1, 0)))
        with pytest.raises(ValueError, match="A1"):
            orbit_split(closed, a1, 2)

    @pytest.mark.parametrize("label,highest", [
        ("A1", (1,)), ("A2", (1, 0)), ("B2", (0, 1)), ("D4", (1, 0, 0, 0)), ("B4", (0, 0, 0, 1))])
    def test_one_orbit_has_the_character_as_its_summand(self, label, highest):
        rs = from_label(label)
        closed = pfd_decompose(weight_system(rs, highest))
        for n in range(5):
            (summand,) = orbit_split(closed, rs, n)
            assert summand.dominant_weight == highest
            character = character_at(closed, n).terms
            assert summand.value._terms is character._terms
            assert summand.value.to_json() == FactoredRational(character).to_json()
            assert not summand.value.factors
        assert closed._lifts == {highest: ()}

    @pytest.mark.parametrize("change", ["changed", "dropped", "repeated"])
    def test_pole_data_that_is_not_equivariant_splits_into_its_own_orbits(self, a1, change):
        # The A1(2) pole data with its (-2,) term changed, dropped or repeated:
        # each orbit's summand is still its own terms' parts, summed and reduced.
        closed = pfd_decompose(weight_system(a1, (2,)))

        def changed(term):
            if term.weight != (-2,):
                return [term]
            numerator = term.coeff.numerator + LaurentPoly.monomial((2,))
            return {"changed": [PFDTerm(term.weight, term.order,
                                        FactoredRational(numerator, term.coeff.factors))],
                    "dropped": [], "repeated": [term, term]}[change]

        broken = ClosedCharacter(source=closed.source, terms=tuple(
            new for term in closed.terms for new in changed(term)))
        for n in (0, 2):
            got = [summand.to_json() for summand in orbit_split(broken, a1, n)]
            assert json.dumps(got) == json.dumps(reference_summands(broken, n))

    def test_rejects_a_weyl_group_that_moves_the_weights(self, a2, b2):
        closed = pfd_decompose(weight_system(a2, (1, 0)))
        with pytest.raises(ValueError, match="B2"):
            orbit_split(closed, b2, 2)
        assert [s.dominant_weight for s in orbit_split(closed, a2, 2)] == [(1, 0)]


class TestCyclotomic:
    def test_small_values(self):
        assert cyclotomic(1) == (-1, 1)
        assert cyclotomic(2) == (1, 1)
        assert cyclotomic(4) == (1, 0, 1)
        assert cyclotomic(6) == (1, -1, 1)
        assert cyclotomic(12) == (1, 0, -1, 0, 1)

    def test_product_over_divisors(self):
        # q^6 - 1 = prod of the cyclotomics at divisors of 6
        product = LaurentPoly.one(1)
        for d in (1, 2, 3, 6):
            product = product * LaurentPoly(1, {(i,): c for i, c in enumerate(cyclotomic(d))})
        assert product == q(6) - 1


class TestUnivariatePFD:
    def test_worked_example_poles(self, a1):
        closed = pfd_decompose(weight_system(a1, (3,)))
        summands = {s.dominant_weight: s.value for s in orbit_split(closed, a1, 4)}

        pfd1 = univariate_pfd(summands[(1,)])
        assert pfd1.laurent_part == q(2, -1) - 2 + q(-2, -1)
        assert [(p.index, p.power, p.numerator) for p in pfd1.pole_terms] == [
            (1, 1, (Fraction(-3, 4),)),
            (1, 2, (Fraction(-3, 4),)),
            (2, 1, (Fraction(3, 4),)),
            (2, 2, (Fraction(-3, 4),)),
        ]

        pfd3 = univariate_pfd(summands[(3,)])
        expected_laurent = LaurentPoly(
            1,
            {
                (12,): 1, (10,): 1, (8,): 2, (6,): 3, (4,): 4, (2,): 5, (0,): 7,
                (-2,): 5, (-4,): 4, (-6,): 3, (-8,): 2, (-10,): 1, (-12,): 1,
            },
        )
        assert pfd3.laurent_part == expected_laurent
        assert [(p.index, p.power, p.numerator) for p in pfd3.pole_terms] == [
            (1, 1, (Fraction(3, 4),)),
            (1, 2, (Fraction(3, 4),)),
            (2, 1, (Fraction(-3, 4),)),
            (2, 2, (Fraction(3, 4),)),
        ]

    def test_pole_terms_cancel_across_orbits(self, a1):
        closed = pfd_decompose(weight_system(a1, (3,)))
        summands = {s.dominant_weight: s.value for s in orbit_split(closed, a1, 4)}
        poles1 = univariate_pfd(summands[(1,)]).pole_terms
        poles3 = univariate_pfd(summands[(3,)]).pole_terms
        paired = {(p.index, p.power): p.numerator for p in poles1}
        for pole in poles3:
            other = paired[(pole.index, pole.power)]
            assert tuple(-c for c in pole.numerator) == other

    @pytest.mark.parametrize("n", [0, 2, 4, 5])
    def test_reassembly_identity(self, a1, n):
        closed = pfd_decompose(weight_system(a1, (3,)))
        for summand in orbit_split(closed, a1, n):
            decomposition = univariate_pfd(summand.value)
            numerator, denominator = decomposition.as_fraction_pair()
            # Cross-multiply with the summand's denominator expanded by plain products.
            expanded = LaurentPoly.one(1)
            for (a,), k in summand.value.factors.items():
                expanded = expanded * (1 - q(a)) ** k
            assert numerator * expanded == summand.value.numerator * denominator
            for pole in decomposition.pole_terms:
                degree_phi = len(cyclotomic(pole.index)) - 1
                assert any(pole.numerator)
                assert len(pole.numerator) <= degree_phi

    def test_laurent_input_passes_through(self):
        poly = q(3) + 2 + q(-1)
        result = univariate_pfd(FactoredRational(poly))
        assert result.laurent_part == poly
        assert result.pole_terms == ()

    def test_numerator_degree_bound(self, a1):
        closed = pfd_decompose(weight_system(a1, (4,)))
        summands = orbit_split(closed, a1, 3)
        for summand in summands:
            for pole in univariate_pfd(summand.value).pole_terms:
                degree_phi = len(cyclotomic(pole.index)) - 1
                assert len(pole.numerator) <= degree_phi

    def test_rank_two_rejected(self, sl3_adjoint):
        closed = pfd_decompose(sl3_adjoint)
        with pytest.raises(ValueError):
            univariate_pfd(closed.terms[0].coeff)


def _random_rank_one(rng, max_alpha):
    """A rank-1 rational function from rng: up to 4 numerator terms over (1 - q^+-a)^k factors."""
    numerator = LaurentPoly(1, {
        (int(rng.random() * 21) - 10,):
            Fraction(int(rng.random() * 11) - 5, 1 + int(rng.random() * 3))
        for _ in range(1 + int(rng.random() * 4))
    })
    factors = [
        ((int(rng.random() * max_alpha + 1) * (1 if rng.random() < 0.5 else -1),),
         1 + int(rng.random() * 3))
        for _ in range(1 + int(rng.random() * 3))
    ]
    return FactoredRational(numerator, factors)


def _pfd_sweep() -> list:
    """cyclotomic(1..39) and the decompositions of: every pole coefficient of
    A1(m), m <= 7; every orbit summand of A1(m), m <= 5, at N <= 7; and 120
    seeded random rank-1 functions with factors (1 - q^+-a)^k, a <= 12."""
    a1 = build_root_system("A", 1)
    out: list = [list(cyclotomic(d)) for d in range(1, 40)]
    for m in range(1, 8):
        closed = pfd_decompose(weight_system(a1, (m,)))
        out += [univariate_pfd(term.coeff).to_json() for term in closed.terms]
        for n in range(8 if m <= 5 else 0):
            out += [univariate_pfd(s.value).to_json() for s in orbit_split(closed, a1, n)]
    rng = random.Random(2009)
    out += [univariate_pfd(_random_rank_one(rng, 12)).to_json() for _ in range(120)]
    return out


PFD_SWEEP_SHA = "97e4d9fbead039eb228e32d1650069a52323840a6f1f4ed933ce9cecb4b3adbc"


def test_pinned_pfd_sweep():
    # Recorded from an independent dense-list implementation of the same reduction.
    text = json.dumps(_pfd_sweep(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PFD_SWEEP_SHA
