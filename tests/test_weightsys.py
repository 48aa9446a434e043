import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from symchar.rootsys import (
    build_root_system,
    from_label,
    is_dominant,
    weight_diff,
    weight_scale,
    weight_sum,
)
from symchar import weightsys
from symchar.polyring import InconsistencyError
from symchar.weightsys import MultiplicityTable, _support_closure, dim_irrep, weight_system


class TestRankOne:
    @pytest.mark.parametrize("m", range(6))
    def test_weight_chain(self, a1, m):
        table = weight_system(a1, (m,))
        assert table.support() == [(m - 2 * i,) for i in range(m, -1, -1)]
        assert all(count == 1 for count in table.entries.values())

    def test_dimension(self, a1):
        assert dim_irrep(a1, (2,)) == 3
        assert dim_irrep(a1, (7,)) == 8


class TestSl3:
    def test_adjoint_table(self, sl3_adjoint):
        assert sl3_adjoint.dimension() == 8
        assert sl3_adjoint.multiplicity((0, 0)) == 2
        outer = {(1, 1), (2, -1), (-1, 2), (-1, -1), (-2, 1), (1, -2)}
        for mu in outer:
            assert sl3_adjoint.multiplicity(mu) == 1
        assert set(sl3_adjoint.support()) == outer | {(0, 0)}

    def test_fundamental_weights(self, a2):
        table = weight_system(a2, (1, 0))
        assert set(table.support()) == {(1, 0), (-1, 1), (0, -1)}
        assert all(count == 1 for count in table.entries.values())

    @pytest.mark.parametrize("n", range(1, 6))
    def test_symmetric_power_dimension_row(self, a2, n):
        assert dim_irrep(a2, (n, 0)) == (n + 1) * (n + 2) // 2


def test_a3_fundamental_chain():
    a3 = build_root_system("A", 3)
    table = weight_system(a3, (1, 0, 0))
    assert set(table.support()) == {(1, 0, 0), (-1, 1, 0), (0, -1, 1), (0, 0, -1)}


def test_b2_fundamentals(b2):
    vector = weight_system(b2, (1, 0))
    spinor = weight_system(b2, (0, 1))
    assert vector.dimension() == 5
    assert spinor.dimension() == 4
    assert set(spinor.support()) == {(0, 1), (1, -1), (-1, 1), (0, -1)}
    assert all(count == 1 for count in spinor.entries.values())


def test_g2_smallest_fundamental():
    g2 = build_root_system("G", 2)
    table = weight_system(g2, (1, 0))
    assert table.dimension() == 7
    assert table.multiplicity((0, 0)) == 1


def test_c3_defining_module():
    c3 = build_root_system("C", 3)
    table = weight_system(c3, (1, 0, 0))
    assert table.dimension() == 6
    assert all(count == 1 for count in table.entries.values())


class TestInvariants:
    CASES = [("A", 1, (4,)), ("A", 2, (1, 1)), ("A", 2, (2, 1)), ("B", 2, (1, 1)), ("G", 2, (0, 1))]

    @pytest.mark.parametrize("series,rank,highest", CASES)
    def test_table_invariants(self, series, rank, highest):
        rs = build_root_system(series, rank)
        table = weight_system(rs, highest)
        assert table.multiplicity(highest) == 1
        assert table.dimension() == dim_irrep(rs, highest)
        for mu, count in table.entries.items():
            # Weyl invariance of multiplicities
            for i in range(1, rank + 1):
                assert table.multiplicity(rs.reflect(i, mu)) == count
            # dominant projection stays below the highest weight
            gap = rs.root_coordinates(weight_diff(highest, rs.to_dominant(mu)[0]))
            assert all(c.denominator == 1 and c >= 0 for c in gap)

    def test_highest_weight_entry(self, sl3_adjoint):
        assert sl3_adjoint.entries[(1, 1)] == 1


def test_non_dominant_rejected(a2):
    with pytest.raises(ValueError):
        weight_system(a2, (-1, 2))
    with pytest.raises(ValueError):
        dim_irrep(a2, (-1, 2))


@pytest.mark.parametrize("highest", [(1.5, 0), (1.0, 0)])
def test_non_integer_highest_weight_rejected(a2, highest):
    for build in (weight_system, dim_irrep):
        with pytest.raises(ValueError, match=r"^non-integer weight \(1\.\d, 0\)$"):
            build(a2, highest)


def test_wrong_rank_rejected(a2):
    with pytest.raises(ValueError):
        weight_system(a2, (1,))


ENTRY = r"^multiplicity table entry \(0, 0\) must be a positive integer, got "


class TestConstruction:
    """A table checks its entries once, when it is built, and each lookup's weight."""

    def test_weight_of_the_wrong_length(self, a2):
        entries = dict(weight_system(a2, (1, 0)).entries)
        with pytest.raises(ValueError, match=r"\(0, -1, 0\) does not have the rank of A2"):
            MultiplicityTable((1, 0), {**entries, (0, -1, 0): 1}, a2)
        with pytest.raises(ValueError, match=r"\(1,\) does not have the rank of A2"):
            MultiplicityTable((1,), entries, a2)

    @pytest.mark.parametrize("highest,changes,message", [
        ((1, 1), {(0.0, 0): 2}, r"^non-integer weight \(0\.0, 0\)$"),
        ((1.0, 1), {}, r"^non-integer weight \(1\.0, 1\)$"),
        ((1, 1), {(0, 0): 2.0}, ENTRY + r"2\.0$"),
        ((1, 1), {(0, 0): 0}, ENTRY + r"0$"),
        ((1, 1), {(0, 0): -2}, ENTRY + r"-2$"),
        ((1, 1), None, r"^empty multiplicity table$"),
    ], ids=["float coordinate", "float highest weight", "float multiplicity", "zero multiplicity",
            "negative multiplicity", "no entries"])
    def test_malformed_entries(self, a2, highest, changes, message):
        entries = dict(weight_system(a2, (1, 1)).entries) if changes is not None else {}
        for mu, count in (changes or {}).items():
            del entries[mu]  # an equal key with int coordinates goes too
            entries[mu] = count
        with pytest.raises(ValueError, match=message):
            MultiplicityTable(highest, entries, a2)

    @pytest.mark.parametrize("mu", [(1.5, 0), (0.0, 0.0)])
    def test_lookup_by_a_non_integer_weight(self, sl3_adjoint, mu):
        # (0.0, 0.0) hashes and compares like (0, 0), so a plain lookup finds 2.
        with pytest.raises(ValueError, match=r"^non-integer weight"):
            sl3_adjoint.multiplicity(mu)

    def test_lookup_by_a_weight_of_the_wrong_length(self, sl3_adjoint):
        with pytest.raises(ValueError, match=r"^weight \(0,\) does not have the rank of A2$"):
            sl3_adjoint.multiplicity((0,))

    def test_entries_a_reflection_moves(self, a2, b2):
        entries = dict(weight_system(a2, (1, 1)).entries)
        with pytest.raises(ValueError,
                           match=r"^A2: multiplicity of \(1, 1\) differs from its reflection 1$"):
            MultiplicityTable((1, 1), {**entries, (-1, 2): 2}, a2)
        # The A2 fundamental weights are not stable under the B2 reflections.
        with pytest.raises(ValueError, match=r"^B2: multiplicity of \(1, 0\) differs"):
            MultiplicityTable((1, 0), dict(weight_system(a2, (1, 0)).entries), b2)

    def test_entries_are_a_read_only_copy(self, a2):
        entries = dict(weight_system(a2, (1, 1)).entries)
        table = MultiplicityTable((1, 1), entries, a2)
        entries[(0, 0)] = 7
        del entries[(1, 1)]
        assert table.multiplicity((0, 0)) == 2 and table.multiplicity((1, 1)) == 1
        assert table.dimension() == 8
        with pytest.raises(TypeError):
            table.entries[(0, 0)] = 7

    def test_freudenthal_table_that_a_reflection_moves_is_internal(self, a2, monkeypatch):
        real = weightsys._support_closure
        monkeypatch.setattr(weightsys, "_support_closure",
                            lambda rs, highest: real(rs, highest) - {(-1, -1)})
        with pytest.raises(InconsistencyError, match="^Freudenthal table: A2: multiplicity of"):
            weight_system(a2, (1, 1))


def test_checks_run_under_optimization():
    # The checks are raises, not asserts, so python -O keeps them.
    script = "\n".join([
        "from symchar import MultiplicityTable, character_at, from_label, pfd_decompose",
        "a1 = from_label('A1')",
        "for build in (lambda: MultiplicityTable((2,), {(2,): 1, (0,): 0, (-2,): 1}, a1),",
        "              lambda: character_at(pfd_decompose(MultiplicityTable(",
        "                  (1,), {(1,): 1, (-1,): 1}, a1)), -1)):",
        "    try:",
        "        build()",
        "    except ValueError as error:",
        "        print(error)",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(weightsys.__file__).parent.parent), env.get("PYTHONPATH")])
    )
    result = subprocess.run([sys.executable, "-O", "-c", script],
                            capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout.splitlines()) == (0, [
        "multiplicity table entry (0,) must be a positive integer, got 0",
        "symmetric-power degree must be a non-negative integer, got -1",
    ])


def test_character_poly(sl2_adjoint):
    char = sl2_adjoint.character_poly()
    assert char.coefficient((2,)) == 1
    assert char.coefficient_sum() == 3


def test_json_round_shape(sl3_adjoint):
    blob = sl3_adjoint.to_json()
    assert blob[0]["weight"] == [-2, 1]
    assert {"weight": [0, 0], "mult": 2} in blob


# -- reference: the Freudenthal recursion in exact rationals ------------------


def _fraction_inner(rs, mu, nu):
    # (mu, nu) = sum_i mu_i d_i (C^-1 nu)_i, from the rational inverse Cartan
    # matrix, independently of RootSystem.integral_form.
    coords = rs.root_coordinates(nu)
    return sum((a * d * c for a, d, c in zip(mu, rs.symmetrizer, coords)), Fraction(0))


def _fraction_freudenthal(rs, highest):
    support = _support_closure(rs, highest)
    heights = {mu: sum(rs.root_coordinates(weight_diff(highest, mu))) for mu in support}
    order = sorted(support, key=lambda mu: (heights[mu], mu))
    top = weight_sum(highest, rs.rho)
    top_norm = _fraction_inner(rs, top, top)
    mult = {highest: 1}
    for mu in order:
        if mu == highest:
            continue
        acc = Fraction(0)
        for alpha in rs.positive_roots:
            t = 1
            nu = weight_sum(mu, alpha)
            while nu in support:
                count = mult.get(nu)
                if count:
                    acc += count * _fraction_inner(rs, nu, alpha)
                t += 1
                nu = weight_sum(mu, weight_scale(t, alpha))
        shifted = weight_sum(mu, rs.rho)
        value = 2 * acc / (top_norm - _fraction_inner(rs, shifted, shifted))
        assert value.denominator == 1 and value >= 1
        mult[mu] = int(value)
    return mult


# The pole_data and query_stream benchmark modules, plus D4(0,1,0,0).
REFERENCE_MODULES = [
    ("A2", (2, 1)), ("B2", (1, 1)), ("B2", (2, 0)), ("G2", (0, 1)), ("C3", (0, 1, 0)),
    ("A3", (1, 0, 1)), ("F4", (0, 0, 0, 1)), ("A2", (2, 2)), ("B3", (0, 1, 0)),
    ("A1", (2,)), ("A1", (3,)), ("A1", (4,)), ("A1", (5,)), ("A1", (6,)),
    ("A2", (1, 0)), ("A2", (1, 1)), ("B2", (1, 0)), ("B2", (0, 1)), ("G2", (1, 0)),
    ("D4", (0, 1, 0, 0)),
]


@pytest.mark.parametrize("label,highest", REFERENCE_MODULES,
                         ids=["%s%s" % (label, highest) for label, highest in REFERENCE_MODULES])
def test_integral_freudenthal_matches_fraction_reference(label, highest):
    rs = from_label(label)
    table = weight_system(rs, highest)
    reference = _fraction_freudenthal(rs, highest)
    assert table.entries == reference
    assert list(table.entries) == list(reference)


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "F4", "G2"])
def test_integral_form_matches_fraction_reference(label):
    rs = from_label(label)
    rng = random.Random(label)
    for _ in range(20):
        mu, nu = (tuple(rng.randint(-3, 3) for _ in range(rs.rank)) for _ in range(2))
        assert rs.inner(mu, nu) == _fraction_inner(rs, mu, nu)
        assert rs.height(mu) == sum(rs.root_coordinates(mu))
