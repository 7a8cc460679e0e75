"""The closure, the boundary columns and the coordinate weights against the
frozen front end (tests/front_end_reference.py).

The package sorts each simplex once and reads each face's row straight off
the index of the level below; the reference canonicalises with a
permutation sign, sorts each column and scales every coordinate of every
simplex anew. Both must give the same levels, the same columns with their
rows in the same dict order, and the same weights.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

import front_end_reference as ref
from helpers import klein_grid, write_complex
from ohcp import fileio, fixtures
from ohcp.complexes import build_closure
from ohcp.geometry import weights_from_coordinates

# complexes up to dimension 3, vertices in any order
simplex_lists = st.lists(
    st.lists(st.integers(0, 11), min_size=1, max_size=4, unique=True),
    min_size=1, max_size=8)

# many distinct prime denominators, so a simplex's lattice is the lcm of
# several of its vertices' lattices
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
          61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113)
decimals = st.builds(
    lambda n, k: f"{'-' if n < 0 else ''}{abs(n) // 10 ** k}"
                 + (f".{abs(n) % 10 ** k:0{k}d}" if k else ""),
    st.integers(-10 ** 6, 10 ** 6), st.integers(0, 6))
quotients = st.builds(lambda n, q: f"{n}/{q}", st.integers(-300, 300),
                      st.sampled_from(PRIMES))
tokens = st.one_of(decimals, quotients)


def assert_same(K, levels):
    assert K.dim == len(levels) - 1
    assert K.simplices_by_dim == levels
    for q in range(1, K.dim + 1):
        got = [list(col.items()) for col in K.boundary_columns(q)]
        want = [list(col.items()) for col in ref.boundary_columns(levels, q)]
        assert got == want


@settings(max_examples=150, deadline=None)
@given(simplex_lists)
def test_levels_and_columns(maximal):
    assert_same(build_closure(maximal), ref.build_closure(maximal))


def test_levels_and_columns_of_fixtures():
    for K in (fixtures.torus(), fixtures.mobius_strip(), klein_grid(5, 4),
              fixtures.projective_plane()):
        maximal = [list(reversed(s)) for q in range(K.dim + 1)
                   for s in K.simplices(q)]
        assert_same(build_closure(maximal), ref.build_closure(maximal))


@settings(max_examples=100, deadline=None)
@given(simplex_lists.flatmap(lambda maximal: st.tuples(
    st.just(maximal),
    st.lists(st.lists(tokens, min_size=3, max_size=3),
             min_size=12, max_size=12))))
def test_weights(case):
    maximal, rows = case
    text = "".join(f"{v} {' '.join(row)}\n" for v, row in enumerate(rows))
    coords = fileio.parse_coordinates(text)
    K = fileio.parse_complex(write_complex(build_closure(maximal)))
    levels = ref.build_closure(maximal)
    for p in range(K.dim + 1):
        assert (weights_from_coordinates(K, coords, p)
                == ref.weights_from_coordinates(levels, coords, p))
