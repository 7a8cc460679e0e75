"""Exact integer linear algebra: determinants, ranks, square solves."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import identity, matmul
from ohcp.homology import smith_normal_form
from ohcp.matrices import IntMatrix, det_int
from square_solve import solve_square


def square(k, lo=-4, hi=4):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=k, max_size=k),
        min_size=k, max_size=k,
    ).map(IntMatrix)


def cofactor_det(M):
    """Independent oracle: Laplace expansion along the first row."""
    k = M.m
    if k == 0:
        return 1
    if k == 1:
        return M[0, 0]
    total = 0
    for j in range(k):
        if M[0, j] == 0:
            continue
        minor = M.submatrix(range(1, k), [c for c in range(k) if c != j])
        total += (-1) ** j * M[0, j] * cofactor_det(minor)
    return total


class TestDet:
    def test_empty_matrix_has_det_one(self):
        assert det_int(IntMatrix([])) == 1

    def test_identity(self):
        assert det_int(identity(4)) == 1

    def test_singular(self):
        assert det_int(IntMatrix([[1, 2], [2, 4]])) == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det_int(IntMatrix([[1, 2, 3], [4, 5, 6]]))

    @settings(max_examples=150)
    @given(st.integers(1, 5).flatmap(square))
    def test_matches_cofactor_expansion(self, M):
        assert det_int(M) == cofactor_det(M)

    @settings(max_examples=100)
    @given(st.integers(1, 4).flatmap(square), st.integers(1, 4).flatmap(square))
    def test_multiplicative_on_same_size(self, A, B):
        if A.m != B.m:
            return
        assert det_int(matmul(A, B)) == det_int(A) * det_int(B)


class TestRank:
    def test_zero_matrix(self):
        assert smith_normal_form(IntMatrix([[0] * 5] * 3)).rank == 0

    def test_full_rank(self):
        assert smith_normal_form(identity(3)).rank == 3

    @settings(max_examples=100)
    @given(st.integers(1, 5).flatmap(square))
    def test_nonsingular_iff_full_rank(self, M):
        assert (det_int(M) != 0) == (smith_normal_form(M).rank == M.m)

    def test_rank_of_outer_product_is_one(self):
        u, v = [1, 2, 3], [4, 5]
        M = IntMatrix([[a * b for b in v] for a in u])
        assert smith_normal_form(M).rank == 1


class TestSolve:
    def test_identity_solve(self):
        assert solve_square(identity(3), [1, 2, 3]) == [1, 2, 3]

    def test_singular_returns_none(self):
        assert solve_square(IntMatrix([[1, 1], [1, 1]]), [1, 2]) is None

    @settings(max_examples=100)
    @given(st.integers(1, 4).flatmap(square),
           st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    def test_residual_is_zero(self, A, b):
        if len(b) != A.m:
            return
        x = solve_square(A, b)
        if x is None:
            assert det_int(A) == 0
            return
        for i in range(A.m):
            assert sum(Fraction(A[i, j]) * x[j] for j in range(A.n)) == b[i]


class TestSubmatrixAndScaling:
    def test_submatrix_respects_order(self):
        M = IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        S = M.submatrix([2, 0], [1, 0])
        assert S.data == [[8, 7], [2, 1]]

    def test_sign_scaling_preserves_abs_det(self):
        M = IntMatrix([[1, 1], [-1, 1]])
        assert abs(det_int(M.scaled([1, -1], [-1, 1]))) == abs(det_int(M))

    def test_text_round_trip(self):
        M = IntMatrix([[1, -2], [0, 3]])
        assert M.to_text() == "2 2\n1 -2\n0 3\n"
