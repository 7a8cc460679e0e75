"""Minor enumeration on the reduced matrix against the frozen full one.

`ohcp.tu.is_tu_minor_enumeration` deletes rows and columns with at most
one nonzero before it enumerates; tests/minor_enumeration_reference.py is
the enumeration over the whole matrix that the package shipped with. Both
must give the same TUVerdict: status, method, witness rows, columns and
determinant.
"""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minor_enumeration_reference as ref
from ohcp import fixtures
from ohcp.complexes import build_closure
from ohcp.tu import Undecided, is_tu_minor_enumeration

FIXTURES = ("triangle", "hollow_triangle", "tetrahedron_surface", "disk_fan",
            "cylinder", "mobius_strip", "projective_plane", "torus",
            "hourglass", "seven_tetrahedra", "two_tetrahedra",
            "solid_octahedron")


def outcome(enumerate_minors, cols, col_cap=16):
    try:
        return enumerate_minors(cols, col_cap=col_cap)
    except Undecided as exc:
        return f"undecided: {exc}"


def assert_same(cols, col_cap=16):
    want = outcome(ref.is_tu_minor_enumeration, cols, col_cap)
    assert outcome(is_tu_minor_enumeration, cols, col_cap) == want


# sparse columns of an m x n matrix over {0, +-1}, m <= 9, n <= 8
unit_columns = st.tuples(st.integers(1, 9), st.integers(1, 8)).flatmap(
    lambda mn: st.lists(
        st.lists(st.sampled_from([0, 0, 1, -1]), min_size=mn[0],
                 max_size=mn[0]).map(
            lambda col: {i: v for i, v in enumerate(col) if v}),
        min_size=mn[1], max_size=mn[1]))

# up to 8 tetrahedra on 7 vertices, the size of the benchmark's 3-complexes
tetrahedra = st.lists(
    st.sampled_from(list(itertools.combinations(range(7), 4))),
    min_size=1, max_size=8, unique=True)


@settings(max_examples=300, deadline=None)
@given(unit_columns)
def test_random_matrices(cols):
    assert_same(cols)


@settings(max_examples=60, deadline=None)
@given(tetrahedra)
def test_random_3_complexes(tets):
    assert_same(build_closure(tets).boundary_columns(3))


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_at_every_dimension(name):
    K = getattr(fixtures, name)()
    if name == "hourglass":
        K = K[0]
    for q in range(1, K.dim + 1):
        assert_same(K.boundary_columns(q), col_cap=10)

