"""The sparse unit-pivot kernel against the frozen dense elimination.

`ohcp.matrices` eliminates +-1 pivots sparsely and hands only the core to
dense code; tests/dense_elimination_reference.py is the dense code the
package shipped with. Both must give the same Smith normal form diagonal,
rank and determinant on dense, sparse +-1, unit-free and boundary
matrices.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_elimination_reference as ref
from helpers import IntMatrix, det, matmul, snf
from ohcp.complexes import boundary_matrix, build_closure
from ohcp.matrices import _eliminate_units


def matrices(entries, max_dim=7):
    return st.tuples(st.integers(1, max_dim), st.integers(1, max_dim)).flatmap(
        lambda mn: st.lists(
            st.lists(entries, min_size=mn[1], max_size=mn[1]),
            min_size=mn[0], max_size=mn[0],
        ).map(IntMatrix))


small_int = matrices(st.integers(-5, 5))
# mostly zeros, the rest +-1: the shape of boundary matrices
sparse_unit = matrices(st.sampled_from([0, 0, 0, 0, 1, -1]), max_dim=9)
# no +-1 entry, so the unit kernel leaves the whole matrix to the dense
# Smith loop, and pairs such as 2 and 3 need its divisibility step
no_unit = matrices(st.sampled_from([0, 0, 2, -2, 3, -3, 4, -6, 9]),
                   max_dim=8)


def assert_same(M):
    want = ref.smith_normal_form(M)
    got = snf(M)
    assert got == want.diagonal
    assert len(got) == want.rank
    assert ref.rank_int(M) == want.rank
    if M.m == M.n:
        assert det(M) == ref.det_int(M)


@st.composite
def boundary_submatrices(draw):
    """A square or rectangular submatrix of the top boundary of a random
    2- or 3-complex, rows and columns in a drawn order."""
    top = draw(st.sampled_from([2, 3]))
    nv = draw(st.integers(top + 1, 7))
    simplex = st.lists(st.integers(0, nv - 1), min_size=top + 1,
                       max_size=top + 1, unique=True)
    K = build_closure(draw(st.lists(simplex, min_size=1, max_size=10)))
    B = IntMatrix(boundary_matrix(K, K.dim))
    cols = draw(st.permutations(range(B.n)))
    cols = cols[:draw(st.integers(1, len(cols)))]
    rows = draw(st.permutations(range(B.m)))
    square = draw(st.booleans()) and len(cols) <= B.m
    rows = rows[:len(cols)] if square else rows[:draw(st.integers(1, B.m))]
    return B.submatrix(rows, cols)


class TestAgainstDenseReference:
    @settings(max_examples=200, deadline=None)
    @given(small_int)
    def test_small_integer_matrices(self, M):
        assert_same(M)

    @settings(max_examples=200, deadline=None)
    @given(sparse_unit)
    def test_sparse_unit_matrices(self, M):
        assert_same(M)

    @settings(max_examples=150, deadline=None)
    @given(boundary_submatrices())
    def test_boundary_submatrices(self, M):
        assert_same(M)

    @settings(max_examples=300, deadline=None)
    @given(no_unit)
    def test_matrices_without_unit_entries(self, M):
        assert_same(M)

    def test_square_determinants_with_pivot_permutations(self):
        # pivots that land off the diagonal, in both orders, and a core
        M = IntMatrix([[0, 1, 0, 0], [0, 0, 0, 1], [1, 0, 3, 0],
                       [0, 0, 2, 5]])
        assert det(M) == ref.det_int(M) == -2
        M = IntMatrix([[2, 1], [1, -1]])
        assert det(M) == ref.det_int(M) == -3


def assert_units_exhausted(M):
    pivots, rows = _eliminate_units(M.sparse_rows())
    pivot_rows = [r for r, _, _ in pivots]
    pivot_cols = {c for _, c, _ in pivots}
    assert len(set(pivot_rows)) == len(pivot_cols) == len(pivots)
    assert all(v in (1, -1) for _, _, v in pivots)
    assert set(pivot_rows) == {i for i, row in enumerate(rows) if row is None}
    for row in rows:
        if row is not None:
            assert not pivot_cols & set(row)
            assert all(x not in (0, 1, -1) for x in row.values())


class TestUnitKernel:
    @settings(max_examples=200, deadline=None)
    @given(sparse_unit)
    def test_sparse_unit_matrices(self, M):
        assert_units_exhausted(M)

    @settings(max_examples=150, deadline=None)
    @given(boundary_submatrices())
    def test_boundary_submatrices(self, M):
        assert_units_exhausted(M)


class TestDenseReference:
    @settings(max_examples=80, deadline=None)
    @given(matrices(st.integers(-6, 6), max_dim=6))
    def test_transforms_reproduce_snf(self, M):
        r = ref.smith_normal_form(M, want_transforms=True)
        assert abs(ref.det_int(r.U)) == 1
        assert abs(ref.det_int(r.V)) == 1
        P = matmul(matmul(r.U, M), r.V)
        for i in range(P.m):
            for j in range(P.n):
                want = r.diagonal[i] if i == j and i < len(r.diagonal) else 0
                assert P[i, j] == want
