"""The pipeline memos: shared results, checks before every lookup, bounded size.

conftest.py empties the memos before each test, so every test here starts cold.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from symchar import (
    ClosedCharacter,
    build_root_system,
    character_at,
    cyclotomic,
    from_label,
    orbit_split,
    pfd_decompose,
    pfdcore,
    univariate,
    weight_system,
    weightsys,
)
from symchar._memo import MEMO_SIZE
from symchar.weightsys import MultiplicityTable


def _dict_table(table):
    return MultiplicityTable(
        highest_weight=table.highest_weight, entries=dict(table.entries),
        root_system=table.root_system,
    )


class TestShared:
    def test_each_stage_returns_the_same_object(self):
        rs = from_label("A2")
        assert from_label("a2") is rs
        assert build_root_system("a", 2) is rs
        table = weight_system(rs, (1, 1))
        assert weight_system(rs, [1, 1]) is table
        closed = pfd_decompose(table)
        assert pfd_decompose(_dict_table(table)) is closed
        character = character_at(closed, 3)
        assert character_at(closed, 3) is character
        summands = orbit_split(closed, rs, 3)
        again = orbit_split(closed, rs, 3)
        assert len(again) == 2 and all(a is b for a, b in zip(again, summands))
        # Each call gets its own list, so a caller that changes it cannot
        # change what the next caller gets.
        assert again is not summands
        summands.clear()
        assert orbit_split(closed, rs, 3) == again

    def test_pole_data_is_keyed_on_content(self, a2):
        table = weight_system(a2, (1, 0))
        other = MultiplicityTable(highest_weight=(0, 1), entries=dict(table.entries),
                                  root_system=a2)
        assert pfd_decompose(other) is not pfd_decompose(table)
        assert pfd_decompose(other).source is other

    def test_pole_data_is_keyed_on_the_root_system(self):
        # The trivial module has the same highest weight and entries on every
        # rank-2 algebra; only the root system tells the tables apart.
        systems = [from_label(label) for label in ("A2", "B2", "G2")]
        closed = [pfd_decompose(weight_system(rs, (0, 0))) for rs in systems]
        assert len({id(cc) for cc in closed}) == 3
        for rs, cc in zip(systems, closed):
            assert cc.source.root_system == rs
            assert [s.dominant_weight for s in orbit_split(cc, rs, 2)] == [(0, 0)]

    def test_characters_live_on_their_pole_data(self, sl2_adjoint):
        closed = pfd_decompose(sl2_adjoint)
        copy = ClosedCharacter(source=closed.source, terms=closed.terms)
        assert copy == closed
        assert character_at(copy, 2) == character_at(closed, 2)
        assert character_at(copy, 2) is not character_at(closed, 2)
        rs = closed.source.root_system
        assert orbit_split(copy, rs, 2) == orbit_split(closed, rs, 2)
        assert orbit_split(copy, rs, 2)[0] is not orbit_split(closed, rs, 2)[0]
        assert copy._orbits.keys() == closed._orbits.keys() == {2}
        assert copy._orbits is not closed._orbits


class TestChecksBeforeLookup:
    """Every argument check fires after a valid or equal-hash twin is cached."""

    def test_float_coordinates(self, a2):
        weight_system(a2, (1, 0))
        for _ in range(2):
            with pytest.raises(ValueError, match="non-integer weight"):
                weight_system(a2, (1.0, 0))

    def test_non_dominant_weight(self, a2):
        weight_system(a2, (1, 0))
        weight_system(a2, (0, 1))
        for _ in range(2):
            with pytest.raises(ValueError, match="dominant"):
                weight_system(a2, (-1, 1))

    def test_wrong_length_weight(self, a2):
        weight_system(a2, (1, 0))
        for weight in ((1,), (1, 0, 0), (1, 0) * 2):
            with pytest.raises(ValueError, match="does not have the rank of A2"):
                weight_system(a2, weight)

    @pytest.mark.parametrize("degree", [2.0, -1, Fraction(2), "2", None])
    def test_bad_degree(self, sl2_adjoint, degree):
        closed = pfd_decompose(sl2_adjoint)
        rs = sl2_adjoint.root_system
        character_at(closed, 2)
        orbit_split(closed, rs, 2)
        for _ in range(2):
            with pytest.raises(ValueError, match="non-negative integer"):
                character_at(closed, degree)
            with pytest.raises(ValueError, match="non-negative integer"):
                orbit_split(closed, rs, degree)

    def test_orbits_on_another_root_system(self, a2, b2):
        # B2 has the rank of A2 and moves the same weights; the degree is cached.
        closed = pfd_decompose(weight_system(a2, (1, 0)))
        orbit_split(closed, a2, 2)
        for _ in range(2):
            with pytest.raises(ValueError, match="^root system B2 is not A2"):
                orbit_split(closed, b2, 2)

    @pytest.mark.parametrize("label", ["A2x", " A 2", "A0", "Z2", "B1", ""])
    def test_malformed_label(self, label):
        from_label("A2")
        from_label("B2")
        for _ in range(2):
            with pytest.raises(ValueError):
                from_label(label)

    def test_float_rank(self):
        build_root_system("A", 2)
        with pytest.raises(ValueError, match="rank"):
            build_root_system("A", 2.0)

    @pytest.mark.parametrize("change", ["float weight", "float count", "zero count",
                                        "non-dominant"])
    def test_malformed_table(self, sl3_adjoint, change):
        pfd_decompose(sl3_adjoint)
        highest, entries = sl3_adjoint.highest_weight, dict(sl3_adjoint.entries)
        if change == "float weight":
            entries = {tuple(float(c) for c in mu): m for mu, m in entries.items()}
        elif change == "float count":
            entries[(0, 0)] = 2.0
        elif change == "zero count":
            entries[(0, 0)] = 0
        else:
            highest = (-1, 2)
        message = "non-integer weight" if change == "float weight" else "multiplicity table"
        with pytest.raises(ValueError, match=message):
            pfd_decompose(MultiplicityTable(highest_weight=highest, entries=entries,
                                            root_system=sl3_adjoint.root_system))


class TestReadOnlyTables:
    def test_entries_cannot_be_changed(self, a2):
        table = weight_system(a2, (1, 1))
        with pytest.raises(TypeError):
            table.entries[(1, 1)] = 5
        with pytest.raises(TypeError):
            del table.entries[(1, 1)]
        assert weight_system(a2, (1, 1)).multiplicity((1, 1)) == 1

    def test_same_output_as_a_dict_table(self, a2):
        table = weight_system(a2, (2, 1))
        plain = _dict_table(table)
        assert table == plain and plain == table
        assert table.to_json() == plain.to_json()
        assert table.character_poly() == plain.character_poly()
        assert table.dimension() == plain.dimension() == 15


class TestReadOnlyResults:
    def test_a_shared_character_cannot_be_changed(self, a1):
        closed = pfd_decompose(weight_system(a1, (2,)))
        character = character_at(closed, 2)
        with pytest.raises(AttributeError):
            character.terms.terms.clear()
        with pytest.raises(TypeError):
            character.terms.terms[(0,)] = Fraction(7)
        with pytest.raises(TypeError):
            del character.terms.terms[(0,)]
        assert character_at(closed, 2) is character
        assert character.coefficient_sum() == 6
        assert character.to_json() == [
            {"weight": [e], "mult": m} for e, m in ((-4, 1), (-2, 1), (0, 2), (2, 1), (4, 1))
        ]

    def test_shared_pole_data_cannot_be_changed(self, a1):
        table = weight_system(a1, (2,))
        closed = pfd_decompose(table)
        before = closed.to_json()
        coeff = closed.terms[0].coeff
        with pytest.raises(TypeError):
            coeff.factors[(2,)] = 5
        with pytest.raises(AttributeError):
            coeff.factors.clear()
        with pytest.raises(TypeError):
            coeff.numerator.terms[(0,)] = Fraction(1)
        assert pfd_decompose(table) is closed
        assert closed.to_json() == before
        assert character_at(closed, 0).terms == 1


class TestBounded:
    def test_pole_data_memo_holds_at_most_the_bound(self, a1):
        tables = [weight_system(a1, (m,)) for m in range(1, MEMO_SIZE + 6)]
        closed = [pfd_decompose(table) for table in tables]
        assert len(pfdcore._POLE_DATA) <= MEMO_SIZE
        assert len(weightsys._TABLES) <= MEMO_SIZE
        # The newest entries are still shared; the oldest was dropped and is
        # computed again, equal to before.
        assert pfd_decompose(tables[-1]) is closed[-1]
        again = pfd_decompose(tables[0])
        assert again is not closed[0] and again == closed[0]
        assert len(pfdcore._POLE_DATA) <= MEMO_SIZE

    def test_characters_per_degree_hold_at_most_the_bound(self, a1):
        closed = pfd_decompose(weight_system(a1, (1,)))
        first, orbits = character_at(closed, 0), orbit_split(closed, a1, 0)
        for n in range(MEMO_SIZE + 6):
            assert character_at(closed, n).coefficient_sum() == n + 1
            assert [s.dominant_weight for s in orbit_split(closed, a1, n)] == [(1,)]
        assert len(closed._characters) <= MEMO_SIZE
        assert len(closed._orbits) <= MEMO_SIZE
        again = character_at(closed, 0)
        assert again is not first and again == first
        again = orbit_split(closed, a1, 0)
        assert again[0] is not orbits[0] and again == orbits

    def test_orbits_per_degree_hold_at_most_the_bound_and_lifts_one_per_orbit(self, a2):
        # A2(2,0) has two orbits, of (2, 0) and of (0, 1); the lift store is
        # filled at the first degree and kept, one entry per orbit.
        closed = pfd_decompose(weight_system(a2, (2, 0)))
        first = orbit_split(closed, a2, 0)
        lifts = dict(closed._lifts)
        assert sorted(lifts) == [(0, 1), (2, 0)]
        for n in range(MEMO_SIZE + 6):
            assert [s.dominant_weight for s in orbit_split(closed, a2, n)] == [(0, 1), (2, 0)]
            character_at(closed, n)
            assert len(closed._orbits) <= MEMO_SIZE and len(closed._characters) <= MEMO_SIZE
            assert closed._lifts.keys() == lifts.keys()
            assert all(closed._lifts[nu] is lifts[nu] for nu in lifts)
        assert 0 not in closed._orbits
        again = orbit_split(closed, a2, 0)
        assert again[0] is not first[0] and again == first
        assert closed._lifts.keys() == lifts.keys()

    def test_the_lift_store_holds_one_entry_per_orbit(self):
        for label, highest, count in (("A1", (4,), 3), ("A2", (1, 1), 2), ("B2", (1, 1), 2),
                                      ("G2", (1, 0), 2), ("A2", (1, 0), 1)):
            rs = from_label(label)
            closed = pfd_decompose(weight_system(rs, highest))
            assert not closed._lifts
            for n in (3, 1):
                assert len(orbit_split(closed, rs, n)) == count
                assert len(closed._lifts) == count
                assert sorted(closed._lifts) == [t.weight for t in closed.terms
                                                 if min(t.weight) >= 0 and t.order == 1]
            if count == 1:
                assert closed._lifts == {highest: ()}
                continue
            # Each orbit keeps one term per (orbit weight, order), equal to its
            # pole term, all over the orbit's common denominator.
            for nu, kept in closed._lifts.items():
                orbit = {(t.weight, t.order): t.coeff for t in closed.terms
                         if rs.to_dominant(t.weight)[0] == nu}
                assert sorted((t.weight, t.order) for t in kept) == sorted(orbit)
                common = {}
                for coeff in orbit.values():
                    for alpha, power in coeff.factors.items():
                        common[alpha] = max(common.get(alpha, 0), power)
                assert all(t.coeff.factors == common for t in kept)
                assert all(t.coeff == orbit[t.weight, t.order] for t in kept)

    def test_cyclotomic_memo_holds_at_most_the_bound(self):
        first = [cyclotomic(d) for d in range(1, MEMO_SIZE + 20)]
        assert len(univariate._CYCLOTOMICS) <= MEMO_SIZE
        assert [cyclotomic(d) for d in range(1, MEMO_SIZE + 20)] == first


def _module_memos():
    """(module, name) of each module-level dict in src/symchar that is a recall() memo."""
    found = set()
    for path in sorted(Path(pfdcore.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        module_dicts = {
            target.id
            for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name) and isinstance(node.value, ast.Dict)
        }
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and node.args
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "recall"
                    and isinstance(node.args[0], ast.Name) and node.args[0].id in module_dicts):
                found.add((path.stem, node.args[0].id))
    return found


def test_cold_memos_resets_every_memo():
    # A memo that the fixture leaves out would serve one test another's results.
    conftest = ast.parse((Path(__file__).parent / "conftest.py").read_text())
    (fixture,) = (node for node in conftest.body
                  if isinstance(node, ast.FunctionDef) and node.name == "cold_memos")
    reset = {
        (call.args[0].id, call.args[1].value)
        for call in ast.walk(fixture)
        if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "setattr"
    }
    memos = _module_memos()
    assert {"_ROOT_SYSTEMS", "_TABLES", "_POLE_DATA", "_CYCLOTOMICS"} <= {name for _, name in memos}
    assert memos <= reset
