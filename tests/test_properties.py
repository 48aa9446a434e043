"""Property tests.

The three routes agree on randomly drawn small modules, and the orbit
split of the same draws adds up to the character, whose multiplicities are
constant on each Weyl orbit.  The pole data is Weyl equivariant:
A(w.nu, k) = w.A(nu, k), on the same draws and on larger modules, and
each dominant term A(mu, k) is fixed by the stabilizer of mu.  The
rank-1 cyclotomic decomposition of random rational functions reassembles
its input.  On the same draws, the Kronecker and symbolic routes of
character_at give the same character, and the JSON of orbit_split is, byte
for byte, that of each orbit's parts summed over their common denominator
and reduced once, also on larger modules and on modules of one orbit.
"""

import json
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symchar.charformula import character_at, multiplicity_at, orbit_split
from symchar.oracle import adams_symmetric, truncated_molien
from symchar.pfdcore import pfd_decompose
from symchar.polyring import FactoredRational, LaurentPoly
from symchar.rootsys import from_label, is_dominant
from symchar.univariate import cyclotomic, univariate_pfd
from symchar.weightsys import dim_irrep, weight_system

from reference import reference_parts, reference_summands

ALGEBRAS = ("A1", "A2", "A3", "B2", "B3", "C3", "G2")
MAX_DIM = 10
MAX_N = 6


def _small_highest_weights(label):
    """Every dominant weight of the algebra whose module has dimension <= MAX_DIM."""
    rs = from_label(label)
    # The Weyl dimension grows with every coordinate, so these weights are
    # all reached by raising coordinates one at a time from 0.
    found = {(0,) * rs.rank}
    frontier = list(found)
    while frontier:
        highest = frontier.pop()
        for i in range(rs.rank):
            up = highest[:i] + (highest[i] + 1,) + highest[i + 1:]
            if up not in found and dim_irrep(rs, up) <= MAX_DIM:
                found.add(up)
                frontier.append(up)
    return sorted(found)


MODULES = [(label, highest) for label in ALGEBRAS for highest in _small_highest_weights(label)]


@settings(max_examples=25, derandomize=True, deadline=None)
@given(module=st.sampled_from(MODULES), n=st.integers(0, MAX_N))
def test_pole_data_agrees_with_both_oracles(module, n):
    label, highest = module
    rs = from_label(label)
    table = weight_system(rs, highest)
    closed = pfd_decompose(table)
    assert character_at(closed, 0).terms == 1

    character = character_at(closed, n).terms
    assert character == truncated_molien(table, n).coefficient(n)
    assert character == adams_symmetric(table.character_poly(), n)
    for i in range(1, rs.rank + 1):
        reflected = {rs.reflect(i, mu): coeff for mu, coeff in character.terms.items()}
        assert reflected == character.terms

    summands = orbit_split(closed, rs, n)
    assert FactoredRational.sum([s.value for s in summands], rs.rank).as_laurent() == character


def _assert_orbits_match_the_reference(label, highest, n):
    """orbit_split's JSON equals, byte for byte, each orbit's parts summed and reduced.

    Compared summand by summand, so that a mismatch fails at once naming the
    first differing orbit and the two JSON lengths, without a diff of the
    long strings.
    """
    rs = from_label(label)
    closed = pfd_decompose(weight_system(rs, highest))
    got = [summand.to_json() for summand in orbit_split(closed, rs, n)]
    for mine, theirs in zip_longest(got, reference_summands(closed, n), fillvalue={}):
        mine_json, theirs_json = json.dumps(mine), json.dumps(theirs)
        if mine_json != theirs_json:
            pytest.fail("%s%s N=%d: the summand of %s is not the reference's, %d JSON characters "
                        "against %d" % (label, highest, n, (mine or theirs)["dominant_weight"],
                                        len(mine_json), len(theirs_json)))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(module=st.sampled_from(MODULES), n=st.integers(0, MAX_N))
# A2(1,1) has the zero weight twice, so a pole term of order 2.
@example(module=("A2", (1, 1)), n=3)
@example(module=("A2", (1, 1)), n=6)
def test_orbit_split_matches_the_per_part_reference(module, n):
    _assert_orbits_match_the_reference(*module, n)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(module=st.sampled_from(MODULES), n=st.integers(0, MAX_N))
def test_character_is_constant_on_weyl_orbits(module, n):
    label, highest = module
    rs = from_label(label)
    character = character_at(pfd_decompose(weight_system(rs, highest)), n)
    # One value per orbit of the support, and the support closed under each s_i.
    values = {}
    for mu in character.terms.support():
        value = multiplicity_at(character, mu)
        assert value > 0
        assert values.setdefault(rs.to_dominant(mu)[0], value) == value
        for i in range(1, rs.rank + 1):
            assert multiplicity_at(character, rs.reflect(i, mu)) == value


def _reflect(rs, i, coeff):
    """s_i applied to every numerator exponent and every factor of coeff."""
    numerator = {rs.reflect(i, e): c for e, c in coeff.numerator.terms.items()}
    factors = [(rs.reflect(i, alpha), k) for alpha, k in coeff.factors.items()]
    return FactoredRational(LaurentPoly(coeff.rank, numerator), factors)


def _assert_weyl_equivariant(closed):
    """Every term equals the dominant term of its orbit, transported to it.

    pfd_decompose computes the dominant terms only and maps each by the
    matrix of a Weyl group element (FactoredRational.mapped).  This is an
    independent path to the same terms: one simple reflection at a time,
    normalized by the public FactoredRational constructor.
    """
    rs = closed.source.root_system
    coeffs = {(term.weight, term.order): term.coeff for term in closed.terms}
    for term in closed.terms:
        # s_(i_m)...s_(i_1) nu is dominant, so nu = s_(i_1)...s_(i_m) of it.
        word, nu = [], term.weight
        while (i := next((i for i, c in enumerate(nu, 1) if c < 0), None)) is not None:
            word.append(i)
            nu = rs.reflect(i, nu)
        coeff = coeffs[(nu, term.order)]
        for i in reversed(word):
            coeff = _reflect(rs, i, coeff)
        assert coeff == term.coeff
        assert coeff.to_json() == term.coeff.to_json()


@settings(max_examples=25, derandomize=True, deadline=None)
@given(module=st.sampled_from(MODULES))
def test_pole_data_is_weyl_equivariant(module):
    label, highest = module
    _assert_weyl_equivariant(pfd_decompose(weight_system(from_label(label), highest)))


LARGER_MODULES = [("A2", (2, 2)), ("B2", (2, 1)), ("G2", (0, 1)), ("A3", (1, 0, 1)),
                  ("B3", (0, 1, 0)), ("C3", (0, 1, 0)), ("D4", (0, 1, 0, 0))]


@pytest.mark.parametrize("label,highest", LARGER_MODULES,
                         ids=["%s(%s)" % (label, ",".join(map(str, h))) for label, h in LARGER_MODULES])
def test_larger_pole_data_is_weyl_equivariant(label, highest):
    _assert_weyl_equivariant(pfd_decompose(weight_system(from_label(label), highest)))


# D4(0,1,0,0) is left out: the common denominator of its orbit of roots has
# degree 120, and the per-part sum over it alone runs past 110 s and 1.9 GB.
LARGER_ORBIT_MODULES = [module for module in LARGER_MODULES if module != ("D4", (0, 1, 0, 0))]


@pytest.mark.parametrize("label,highest", LARGER_ORBIT_MODULES, ids=[
    "%s(%s)" % (label, ",".join(map(str, h))) for label, h in LARGER_ORBIT_MODULES])
def test_larger_orbit_split_matches_the_per_part_reference(label, highest):
    _assert_orbits_match_the_reference(label, highest, 2)


# Modules whose weights form one Weyl orbit: the character is the one summand.
ONE_ORBIT = [(label, highest, n) for label, highest in (
    ("A1", (1,)), ("A2", (1, 0)), ("B2", (0, 1)), ("D4", (1, 0, 0, 0))) for n in range(4)]


@pytest.mark.parametrize("label,highest,n", ONE_ORBIT + [("B4", (0, 0, 0, 1), 2)])
def test_one_orbit_split_matches_the_per_part_reference(label, highest, n):
    _assert_orbits_match_the_reference(label, highest, n)


def _assert_stabilizer_invariant(closed):
    """Each dominant term A(mu, k) is fixed by every simple reflection that fixes mu.

    s_i fixes mu when mu_i = 0; on exponents it is the matrix I - a_i e_i^T.
    The mapped term must equal the term as a value and term for term.
    """
    rs = closed.source.root_system
    for term in closed.terms:
        if not is_dominant(term.weight):
            continue
        for i in range(1, rs.rank + 1):
            if term.weight[i - 1]:
                continue
            alpha = rs.simple_roots[i - 1]
            matrix = [[int(r == c) - (alpha[r] if c == i - 1 else 0) for c in range(rs.rank)]
                      for r in range(rs.rank)]
            image = term.coeff.mapped(matrix)
            assert image == term.coeff
            assert image.factors == term.coeff.factors
            assert image.numerator == term.coeff.numerator


@settings(max_examples=25, derandomize=True, deadline=None)
@given(module=st.sampled_from(MODULES))
def test_dominant_pole_data_is_stabilizer_invariant(module):
    label, highest = module
    _assert_stabilizer_invariant(pfd_decompose(weight_system(from_label(label), highest)))


@pytest.mark.parametrize("label,highest", LARGER_MODULES,
                         ids=["%s(%s)" % (label, ",".join(map(str, h))) for label, h in LARGER_MODULES])
def test_larger_dominant_pole_data_is_stabilizer_invariant(label, highest):
    _assert_stabilizer_invariant(pfd_decompose(weight_system(from_label(label), highest)))


rank_one_numerators = st.dictionaries(
    st.tuples(st.integers(-10, 10)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
    min_size=1,
    max_size=4,
)
# (1 - q^+-a)^k with the first a >= 3, so that Phi_3..Phi_12 are reached.
rank_one_factors = st.lists(
    st.tuples(st.integers(1, 12), st.booleans(), st.integers(1, 3)), min_size=1, max_size=3
).filter(lambda factors: factors[0][0] >= 3)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(terms=rank_one_numerators, factors=rank_one_factors)
def test_univariate_pfd_reassembles_its_input(terms, factors):
    f = FactoredRational(
        LaurentPoly(1, terms), [((-a if flip else a,), k) for a, flip, k in factors]
    )
    decomposition = univariate_pfd(f)
    numerator, denominator = decomposition.as_fraction_pair()
    expanded = LaurentPoly.one(1)
    for alpha, k in f.factors.items():
        expanded = expanded * (1 - LaurentPoly.monomial(alpha)) ** k
    assert numerator * expanded == f.numerator * denominator
    for pole in decomposition.pole_terms:
        assert pole.numerator and pole.numerator[-1] != Fraction(0)
        assert len(pole.numerator) < len(cyclotomic(pole.index))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(module=st.sampled_from(MODULES), n=st.integers(0, MAX_N))
def test_both_character_routes_agree(module, n):
    # character_at returns the Kronecker route's character (a Kronecker failure
    # that the symbolic route passes is an error); it equals the symbolic
    # route's term for term.
    label, highest = module
    closed = pfd_decompose(weight_system(from_label(label), highest))
    symbolic = FactoredRational.sum([part for _, part in reference_parts(closed, n)],
                                    closed.rank).as_laurent()
    assert character_at(closed, n).terms.terms == symbolic.terms
