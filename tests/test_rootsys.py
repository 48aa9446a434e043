import hashlib
import operator
import random
from fractions import Fraction
from math import lcm

import pytest

from symchar import rootsys
from symchar.polyring import InconsistencyError
from symchar.rootsys import (
    RootSystem,
    build_root_system,
    from_label,
    is_dominant,
    positive_root_count,
)

ALL_SMALL_TYPES = [
    ("A", 1),
    ("A", 2),
    ("A", 3),
    ("B", 2),
    ("B", 3),
    ("C", 3),
    ("C", 4),
    ("D", 4),
    ("D", 5),
    ("E", 6),
    ("E", 7),
    ("E", 8),
    ("F", 4),
    ("G", 2),
]

# Weyl group orders of the types whose orbits are checked below.
WEYL_GROUP_ORDERS = {("A", 2): 6, ("B", 2): 8, ("G", 2): 12, ("A", 3): 24, ("C", 3): 48}


@pytest.mark.parametrize("series,rank", ALL_SMALL_TYPES)
def test_construction(series, rank):
    rs = build_root_system(series, rank)
    assert len(rs.positive_roots) == positive_root_count(series, rank)
    assert rs.rho == (1,) * rank
    for i in range(rank):
        assert rs.cartan_matrix[i][i] == 2
        for j in range(rank):
            if i != j:
                assert rs.cartan_matrix[i][j] <= 0
            # D * C symmetric
            assert (
                rs.symmetrizer[i] * rs.cartan_matrix[i][j]
                == rs.symmetrizer[j] * rs.cartan_matrix[j][i]
            )
    for beta in rs.positive_roots:
        assert all(c >= 0 for c in rs.root_coordinates(beta))
    assert list(rs.positive_roots) == sorted(
        rs.positive_roots, key=lambda beta: (rs.height(beta), beta)
    )


# Every derived field of 31 types, A1-A8, B2-B8, C3-C8, D4-D8, E6-E8, F4, G2.
PINNED_TYPES = [
    *(("A", r) for r in range(1, 9)),
    *(("B", r) for r in range(2, 9)),
    *(("C", r) for r in range(3, 9)),
    *(("D", r) for r in range(4, 9)),
    ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
]
ROOT_SYSTEMS_SHA = "9a1edc668b54f2db891496c191d10c1e5a93114d13754a726c92ae4e32944b6b"


@pytest.mark.parametrize("series,rank", PINNED_TYPES)
def test_to_dominant_descends_by_a_weyl_group_element(series, rank):
    rs = build_root_system(series, rank)
    gram, _, _ = rs.integral_form
    rng = random.Random(17)
    # -rho descends the whole longest element, one step per positive root.
    weights = [tuple(-c for c in rs.rho)]
    weights += [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(8)]
    for mu in weights:
        nu, matrix = rs.to_dominant(mu)
        assert is_dominant(nu)
        assert _apply(matrix, nu) == mu
        # matrix^T gram matrix == gram: the integral form is kept.
        columns = list(zip(*matrix))
        assert all(sum(map(operator.mul, _apply(gram, a), b)) == gram[i][j]
                   for i, a in enumerate(columns) for j, b in enumerate(columns))
    assert rs.to_dominant(weights[0])[0] == rs.rho


@pytest.mark.parametrize("series,rank", ALL_SMALL_TYPES[:9] + [("F", 4), ("G", 2)])
def test_every_orbit_weight_maps_back_to_its_start(series, rank):
    rs = build_root_system(series, rank)
    starts = [rs.rho] + [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
    for start in starts:
        for weight in _orbit(rs, start):
            nu, matrix = rs.to_dominant(weight)
            assert nu == start and _apply(matrix, start) == weight


def test_root_system_values_are_pinned():
    lines = []
    for series, rank in PINNED_TYPES:
        rs = build_root_system(series, rank)
        lines.append(repr((rs.series, rs.rank, rs.cartan_matrix, rs.symmetrizer,
                           rs.positive_roots, rs.rho, rs.integral_form)))
    assert len(lines) == 31
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ROOT_SYSTEMS_SHA


def test_root_system_is_its_type():
    assert RootSystem._fields == ("series", "rank")
    assert RootSystem("G", 2) == build_root_system("G", 2)
    with pytest.raises(ValueError, match="^series must be upper case, not 'g'$"):
        RootSystem("g", 2)


def test_wrong_root_count_raises_when_built(monkeypatch):
    valid, _ = rootsys._SERIES["G"]
    monkeypatch.setitem(rootsys._SERIES, "G", (valid, lambda r: 7))
    with pytest.raises(InconsistencyError,
                       match=r"^root closure for G2 gave 6 positive of 12 roots, expected 7"):
        build_root_system("G", 2)
    assert rootsys._ROOT_SYSTEMS == {}


@pytest.mark.parametrize(
    "series,rank",
    [("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 2)],
)
def test_invalid_types_rejected(series, rank):
    with pytest.raises(ValueError):
        build_root_system(series, rank)
    with pytest.raises(ValueError):
        RootSystem(series, rank)


def test_a1_data(a1):
    assert a1.cartan_matrix == ((2,),)
    assert a1.positive_roots == ((2,),)


def test_a2_positive_roots(a2):
    assert set(a2.positive_roots) == {(2, -1), (-1, 2), (1, 1)}


def test_g2_positive_root_count():
    assert len(build_root_system("G", 2).positive_roots) == 6


@pytest.mark.parametrize("series,rank", [("E", 5), ("F", 3), ("G", 3), ("B", 1), ("X", 2), (1, 2)])
def test_counts_of_an_invalid_type_raise_value_error(series, rank):
    with pytest.raises(ValueError):
        positive_root_count(series, rank)


def test_labels():
    assert from_label("a2").label == "A2"
    assert from_label("B2").rank == 2
    with pytest.raises(ValueError):
        from_label("X1")
    with pytest.raises(ValueError):
        from_label("A")


class TestReflect:
    def test_rank_one_negates(self, a1):
        assert a1.reflect(1, (5,)) == (-5,)

    def test_a2_examples(self, a2):
        assert a2.reflect(1, (1, 1)) == (-1, 2)
        assert a2.reflect(2, (2, -1)) == (1, 1)

    def test_index_out_of_range(self, a2):
        with pytest.raises(IndexError):
            a2.reflect(3, (1, 0))
        with pytest.raises(IndexError):
            a2.reflect(0, (1, 0))

    @pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2), ("C", 3), ("D", 4)])
    def test_involution(self, series, rank):
        rs = build_root_system(series, rank)
        rng = random.Random(5)
        for _ in range(20):
            mu = tuple(rng.randint(-4, 4) for _ in range(rank))
            for i in range(1, rank + 1):
                assert rs.reflect(i, rs.reflect(i, mu)) == mu


def _orbit(rs, mu):
    """The Weyl orbit of mu, found by a breadth-first walk of simple reflections."""
    orbit, frontier = {mu}, [mu]
    while frontier:
        images = {rs.reflect(i, weight) for weight in frontier for i in range(1, rs.rank + 1)}
        frontier = list(images - orbit)
        orbit |= images
    return orbit


def _apply(matrix, e):
    return tuple(sum(x * y for x, y in zip(row, e)) for row in matrix)


def _identity(rank):
    return tuple(tuple(int(r == c) for c in range(rank)) for r in range(rank))


class TestOrbit:
    """Each weight of a walked orbit descends to the orbit's one dominant weight."""

    def test_rank_one(self, a1):
        assert _orbit(a1, (2,)) == {(-2,), (2,)}
        assert a1.to_dominant((-2,)) == ((2,), ((-1,),))
        assert a1.to_dominant((2,)) == ((2,), ((1,),))

    def test_origin_fixed(self, a2):
        assert _orbit(a2, (0, 0)) == {(0, 0)}
        assert a2.to_dominant((0, 0)) == ((0, 0), _identity(2))

    def test_a2_adjoint_orbit(self, a2):
        orbit = _orbit(a2, (1, 1))
        assert orbit == {(1, 1), (2, -1), (-1, 2), (-1, -1), (-2, 1), (1, -2)}
        for weight in orbit:
            nu, matrix = a2.to_dominant(weight)
            assert nu == (1, 1) and _apply(matrix, nu) == weight

    def test_b2_spinor_orbit(self, b2):
        orbit = _orbit(b2, (0, 1))
        assert len(orbit) == 4
        assert {b2.to_dominant(weight)[0] for weight in orbit} == {(0, 1)}

    @pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("C", 3)])
    def test_orbit_properties(self, series, rank):
        rs = build_root_system(series, rank)
        rng = random.Random(13)
        group_order = WEYL_GROUP_ORDERS[series, rank]
        # rho is regular, so its orbit is a free orbit of the Weyl group.
        assert len(_orbit(rs, rs.rho)) == group_order
        for _ in range(10):
            mu = tuple(rng.randint(-3, 3) for _ in range(rank))
            orbit = _orbit(rs, mu)
            dominants = [nu for nu in orbit if is_dominant(nu)]
            assert dominants == [rs.to_dominant(mu)[0]]
            assert group_order % len(orbit) == 0

    @pytest.mark.parametrize("series,rank,mu", [("A", 2, (2, 1)), ("B", 2, (1, 3)),
                                                ("G", 2, (1, 1)), ("C", 3, (1, 0, 1))])
    def test_orbit_walk_matrices_are_weyl_group_elements(self, series, rank, mu):
        rs = build_root_system(series, rank)
        roots = set(rs.positive_roots) | {tuple(-x for x in beta) for beta in rs.positive_roots}
        assert rs.to_dominant(mu) == (mu, _identity(rank))
        for weight in _orbit(rs, mu):
            nu, matrix = rs.to_dominant(weight)
            assert nu == mu and _apply(matrix, mu) == weight
            # A Weyl group element permutes the roots and keeps the form.
            assert {_apply(matrix, beta) for beta in roots} == roots
            for beta in rs.positive_roots:
                assert rs.inner(_apply(matrix, beta), weight) == rs.inner(beta, mu)


class TestDominantRepresentative:
    def test_rank_one(self, a1):
        assert a1.to_dominant((-4,))[0] == (4,)

    def test_a2_examples(self, a2):
        assert a2.to_dominant((-1, 2))[0] == (1, 1)
        assert a2.to_dominant((0, 0))[0] == (0, 0)


@pytest.mark.parametrize("series,rank", ALL_SMALL_TYPES)
def test_positive_roots_have_positive_height(series, rank):
    rs = build_root_system(series, rank)
    for alpha in rs.positive_roots:
        assert rs.inner(alpha, rs.rho) > 0


def test_inner_product_symmetric_and_exact(a2):
    assert a2.inner((1, 0), (0, 1)) == Fraction(1, 3)
    assert a2.inner((1, 0), (1, 0)) == Fraction(2, 3)
    assert a2.inner((2, -1), (2, -1)) == 2


def test_root_coordinates(a2):
    assert a2.root_coordinates((1, 1)) == (Fraction(1), Fraction(1))
    assert a2.root_coordinates((2, -1)) == (Fraction(1), Fraction(0))


# -- reference: the inverse Cartan matrix by Gauss-Jordan elimination in Fractions --


def _fraction_inverse(matrix):
    n = len(matrix)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col])
        work[col], work[pivot] = work[pivot], work[col]
        scale = work[col][col]
        work[col] = [x / scale for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                shift = work[r][col]
                work[r] = [x - shift * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


@pytest.mark.parametrize("series,rank", ALL_SMALL_TYPES + [("A", 20), ("D", 12)])
def test_integer_inverse_matches_fraction_reference(series, rank):
    rs = build_root_system(series, rank)
    inv = _fraction_inverse(rs.cartan_matrix)
    # root_coordinates of the i-th fundamental weight is the i-th column of C^-1.
    for j in range(rank):
        unit = tuple(int(i == j) for i in range(rank))
        assert rs.root_coordinates(unit) == tuple(inv[i][j] for i in range(rank))
    # The integral form as it was built from the Fraction inverse.
    gram = [[rs.symmetrizer[i] * inv[i][j] for j in range(rank)] for i in range(rank)]
    heights = [sum(inv[i][j] for i in range(rank)) for j in range(rank)]
    scale = lcm(*(x.denominator for x in heights + [x for row in gram for x in row]))
    assert rs.integral_form == (
        tuple(tuple(int(x * scale) for x in row) for row in gram),
        tuple(int(h * scale) for h in heights),
        scale,
    )


# Every weight method but reflect checks its weights: rs.rank int coordinates.
WEIGHT_METHODS = {
    "to_dominant": lambda rs, mu: rs.to_dominant(mu),
    "inner, left": lambda rs, mu: rs.inner(mu, rs.rho),
    "inner, right": lambda rs, mu: rs.inner(rs.rho, mu),
    "height": lambda rs, mu: rs.height(mu),
    "root_coordinates": lambda rs, mu: rs.root_coordinates(mu),
}


@pytest.mark.parametrize("mu,message", [
    ((1,), r"^weight \(1,\) does not have the rank of A2$"),
    ((1, 0, 5), r"^weight \(1, 0, 5\) does not have the rank of A2$"),
    ((1.0, 0), r"^non-integer weight \(1\.0, 0\)$"),
    ((True, 0), r"^non-integer weight \(True, 0\)$"),
], ids=["short", "long", "float", "bool"])
@pytest.mark.parametrize("name", WEIGHT_METHODS)
def test_weight_methods_check_their_weights(a2, name, mu, message):
    with pytest.raises(ValueError, match=message):
        WEIGHT_METHODS[name](a2, mu)
