"""The frozen value classes: fields from annotations, read-only, compared by value.

Each class is checked on two different values that the pipeline builds.
"""

import pytest

from symchar import (
    ClosedCharacter,
    FactoredRational,
    LaurentPoly,
    RootSystem,
    build_partition_matrix,
    build_root_system,
    character_at,
    orbit_split,
    pfd_decompose,
    truncated_molien,
    univariate_pfd,
    weight_system,
)


def _pairs():
    """(value, a different value of the same class) for each of the ten classes."""
    rs, rs2 = build_root_system("A", 1), build_root_system("A", 2)
    table, table2 = weight_system(rs, (2,)), weight_system(rs, (1,))
    closed, closed2 = pfd_decompose(table), pfd_decompose(table2)
    orbits = orbit_split(closed, rs, 2)
    pfd = univariate_pfd(FactoredRational(LaurentPoly.one(1), [((1,), 2), ((2,), 1)]))
    pfd2 = univariate_pfd(FactoredRational(LaurentPoly.one(1), [((3,), 1)]))
    pairs = [
        (rs, rs2),
        (table, table2),
        (closed.terms[0], closed.terms[1]),
        (closed, closed2),
        (character_at(closed, 2), character_at(closed, 3)),
        (orbits[0], orbits[1]),
        (pfd.pole_terms[0], pfd.pole_terms[1]),
        (pfd, pfd2),
        (truncated_molien(table, 2), truncated_molien(table, 3)),
        (build_partition_matrix(table), build_partition_matrix(table2)),
    ]
    return {type(pair[0]).__name__: pair for pair in pairs}


CLASSES = ["RootSystem", "MultiplicityTable", "PFDTerm", "ClosedCharacter", "CharacterPoly",
           "OrbitSummand", "CyclotomicPole", "UnivariatePFD", "GradedTruncation",
           "PartitionMatrix"]


def _values(value):
    return [getattr(value, name) for name in value._fields]


def test_every_value_class_is_checked():
    assert list(_pairs()) == CLASSES


@pytest.fixture(params=CLASSES)
def pair(request):
    return _pairs()[request.param]


@pytest.fixture
def value(pair):
    return pair[0]


@pytest.fixture
def other(pair):
    return pair[1]


class TestValue:
    def test_equal_values_are_equal_and_hash_alike(self, value, other):
        cls = type(value)
        copy = cls(*_values(value))
        assert copy is not value
        assert copy == value and not copy != value
        assert cls(**dict(zip(cls._fields, _values(value)))) == value
        assert value != other
        # The hash is the field tuple's, so a value with an unhashable field has none.
        try:
            expected = hash(tuple(_values(value)))
        except TypeError:
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(copy) == expected

    def test_another_class_is_not_implemented(self, value, other):
        assert value.__eq__(tuple(_values(value))) is NotImplemented
        assert value.__eq__(object()) is NotImplemented
        assert value.__eq__(other) is not NotImplemented

    def test_repr_names_each_field(self, value, other):
        fields = ", ".join("%s=%r" % (name, getattr(value, name)) for name in value._fields)
        assert repr(value) == "%s(%s)" % (type(value).__name__, fields)

    def test_fields_are_read_only(self, value, other):
        name = value._fields[0]
        before = getattr(value, name)
        message = "cannot set or delete field %r" % name
        with pytest.raises(AttributeError, match=message):
            setattr(value, name, getattr(other, name))
        with pytest.raises(AttributeError, match=message):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, name) is before

    def test_missing_extra_and_unknown_fields_are_type_errors(self, value, other):
        cls, values = type(value), _values(value)
        with pytest.raises(TypeError, match="takes the fields"):
            cls(*values[:-1])
        with pytest.raises(TypeError, match="takes the fields"):
            cls(*values, None)
        with pytest.raises(TypeError, match="takes the fields"):
            cls(*values[:-1], unknown=values[-1])
        with pytest.raises(TypeError, match="takes the fields"):
            cls(*values, **{cls._fields[0]: values[0]})


def test_repr_of_a_small_value():
    assert repr(RootSystem("G", 2)) == "RootSystem(series='G', rank=2)"


def test_closed_character_equality_ignores_its_characters():
    closed = pfd_decompose(weight_system(build_root_system("A", 1), (2,)))
    character_at(closed, 2)
    fresh = ClosedCharacter(closed.source, closed.terms)
    assert closed._characters and not fresh._characters
    assert fresh == closed
    assert repr(fresh) == repr(closed)
    assert ClosedCharacter._fields == ("source", "terms")


def test_root_system_keeps_its_cached_properties():
    rs, built = RootSystem("G", 2), build_root_system("G", 2)
    assert rs == built and rs is not built
    assert "positive_roots" in vars(rs)  # run by the check on construction
    assert rs.cartan_matrix is rs.cartan_matrix
    assert (rs.cartan_matrix, rs.positive_roots, rs.integral_form) \
        == (built.cartan_matrix, built.positive_roots, built.integral_form)
    assert len(rs.positive_roots) == 6
