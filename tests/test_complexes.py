"""Complex construction, boundary matrices, orientation."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import IntMatrix, chain_boundary, matmul, write_complex
from ohcp import fixtures
from ohcp.complexes import (InputError, boundary_matrix, build_closure,
                            canonical, coface_map, orient_consistently,
                            relative_boundary_matrix)
from ohcp.matrices import det_int


simplex_lists = st.lists(
    st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True),
    min_size=1, max_size=6,
)


class TestSimplex:
    def test_canonicalization_sign(self):
        assert canonical([2, 0, 1])[0] == (0, 1, 2)
        assert canonical([2, 0, 1])[1] == 1
        assert canonical([1, 0, 2])[1] == -1

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(InputError):
            canonical([0, 1, 0])

    def test_faces_alternate_signs(self):
        K = fixtures.triangle()
        col = K.boundary_columns(2)[0]
        faces = {K.simplices(1)[i]: s for i, s in col.items()}
        assert faces == {(1, 2): 1, (0, 2): -1, (0, 1): 1}


class TestClosure:
    def test_triangle_closure(self):
        K = build_closure([[0, 1, 2]])
        assert [K.count(q) for q in range(3)] == [3, 3, 1]

    def test_empty(self):
        K = build_closure([])
        assert K.dim == -1

    def test_hollow_triangle(self):
        K = fixtures.hollow_triangle()
        assert [K.count(q) for q in range(2)] == [3, 3]
        assert K.dim == 1

    @settings(max_examples=80)
    @given(simplex_lists)
    def test_face_closed_and_sorted(self, maximal):
        K = build_closure(maximal)
        for q in range(1, K.dim + 1):
            level = K.simplices(q)
            assert level == sorted(level)
            for verts in level:
                for i in range(len(verts)):
                    assert verts[:i] + verts[i + 1:] in K.index[q - 1]

    @settings(max_examples=50)
    @given(simplex_lists, st.integers(-2, 4))
    def test_top_builds_the_lowest_levels(self, maximal, top):
        K = build_closure(maximal)
        cut = build_closure(maximal, top)
        assert cut.dim == K.dim
        assert cut.simplices_by_dim == K.simplices_by_dim[:max(top + 1, 0)]
        for q in range(max(top + 1, 0), K.dim + 1):
            with pytest.raises(IndexError):
                cut.simplices(q)
        if 0 <= top < K.dim:
            with pytest.raises(IndexError):
                cut.boundary_columns(top + 1)

    @settings(max_examples=50)
    @given(simplex_lists, st.randoms(use_true_random=False))
    def test_basis_independent_of_input_order(self, maximal, rnd):
        K1 = build_closure(maximal)
        shuffled = list(maximal)
        rnd.shuffle(shuffled)
        K2 = build_closure(shuffled)
        assert K1.simplices_by_dim == K2.simplices_by_dim

    def test_written_complex_lists_maximal_simplices_top_first(self):
        K = build_closure([[4, 5], [2, 1, 0], [1, 2], [9], [5, 6, 7, 8]])
        assert write_complex(K) == "5 6 7 8\n0 1 2\n4 5\n9\n"

    @settings(max_examples=50)
    @given(simplex_lists)
    def test_written_complex_is_its_maximal_simplices(self, maximal):
        K = build_closure(maximal)
        written = [tuple(map(int, line.split()))
                   for line in write_complex(K).splitlines()]
        assert build_closure(written).simplices_by_dim == K.simplices_by_dim
        assert not any(set(a) < set(b) for a in written for b in written)


class TestBoundaryMatrix:
    def test_triangle_column(self):
        K = fixtures.triangle()
        B = boundary_matrix(K, 2)
        # rows are edges (0,1),(0,2),(1,2) lexicographically
        assert [row[0] for row in B] == [1, -1, 1]

    def test_edge_column(self):
        K = build_closure([[0, 1]])
        assert [row[0] for row in boundary_matrix(K, 1)] == [-1, 1]

    def test_shared_edge_signs(self):
        # with canonical (ascending) orientations the shared edge appears
        # with sign +1 in both triangle boundaries
        K = build_closure([[0, 1, 2], [1, 2, 3]])
        B = IntMatrix(boundary_matrix(K, 2))
        i = K.index_of(1, (1, 2))
        assert [B[i, 0], B[i, 1]] == [1, 1]
        assert matmul(IntMatrix(boundary_matrix(K, 1)), B).data == [[0, 0]] * 4

    @settings(max_examples=60)
    @given(simplex_lists)
    def test_boundary_squares_to_zero(self, maximal):
        K = build_closure(maximal)
        for q in range(2, K.dim + 1):
            P = matmul(IntMatrix(boundary_matrix(K, q - 1)),
                       IntMatrix(boundary_matrix(K, q)))
            assert all(v == 0 for row in P.data for v in row)

    @settings(max_examples=60)
    @given(simplex_lists)
    def test_columns_have_q_plus_one_nonzeros(self, maximal):
        K = build_closure(maximal)
        for q in range(1, K.dim + 1):
            B = IntMatrix(boundary_matrix(K, q))
            for j in range(B.n):
                col = [row[j] for row in B.data]
                assert sum(1 for e in col if e != 0) == q + 1
                assert all(e in (-1, 0, 1) for e in col)

    def test_out_of_range_dim(self):
        with pytest.raises(InputError):
            boundary_matrix(fixtures.triangle(), 3)


class TestChainBoundary:
    def test_triangle_chain(self):
        K = fixtures.triangle()
        assert chain_boundary(K, 2, [1]) == [1, -1, 1]

    def test_zero_chain(self):
        K = fixtures.triangle()
        assert chain_boundary(K, 2, [0]) == [0, 0, 0]

    def test_closed_surface_has_zero_boundary(self):
        K = fixtures.tetrahedron_surface()
        signs = orient_consistently(coface_map(K, 2), K.count(2))
        assert signs is not None
        assert chain_boundary(K, 2, signs) == [0] * K.count(1)


class TestRelativeBoundary:
    def test_full_matrix_when_nothing_excluded(self):
        K = fixtures.triangle()
        rel, kept, cols = relative_boundary_matrix(K, 1, [0], [])
        assert rel == IntMatrix(boundary_matrix(K, 2)).sparse_rows()
        assert kept == [0, 1, 2] and cols == [0]

    def test_all_rows_excluded(self):
        K = fixtures.triangle()
        rel, kept, _ = relative_boundary_matrix(K, 1, [0], [0, 1, 2])
        assert len(rel) == 0 and kept == []

    def test_moebius_relative_matrix_is_6x6_det_pm2(self):
        K = fixtures.mobius_strip()
        B = boundary_matrix(K, 2)
        cof = coface_map(K, 2)
        boundary_edges = [i for i, js in enumerate(cof) if len(js) == 1]
        assert len(boundary_edges) == 6
        rel, kept, cols = relative_boundary_matrix(
            K, 1, range(K.count(2)), boundary_edges)
        assert (len(rel), len(cols)) == (6, 6)
        assert abs(det_int(rel, len(cols))) == 2


class TestOrientation:
    @pytest.mark.parametrize("name", ("triangle", "mobius_strip", "torus",
                                      "seven_tetrahedra"))
    def test_coface_rows_are_boundary_rows(self, name):
        K = getattr(fixtures, name)()
        for q in range(1, K.dim + 1):
            assert coface_map(K, q) == \
                IntMatrix(boundary_matrix(K, q)).sparse_rows()

    def test_sphere_orientable(self):
        K = fixtures.tetrahedron_surface()
        signs = orient_consistently(coface_map(K, 2), K.count(2))
        assert signs is not None
        B = IntMatrix(boundary_matrix(K, 2)).scaled(col_signs=signs)
        cof = coface_map(K, 2)
        for i, js in enumerate(cof):
            if len(js) == 2:
                assert sorted(B[i, j] for j in js) == [-1, 1]

    def test_orientation_is_heller_tompkins_partition(self):
        # the sign classes of an orientation split the rows of the
        # transposed boundary as Heller-Tompkins requires
        K = fixtures.cylinder()
        signs = orient_consistently(coface_map(K, 2), K.count(2))
        M = IntMatrix(boundary_matrix(K, 2)).transpose()
        part = [0 if s == 1 else 1 for s in signs]
        for j in range(M.n):
            nz = [(i, M[i, j]) for i in range(M.m) if M[i, j] != 0]
            if len(nz) == 2:
                (r, vr), (s, vs) = nz
                if part[r] == part[s]:
                    assert vr == -vs
                else:
                    assert vr == vs

    def test_moebius_not_orientable(self):
        K = fixtures.mobius_strip()
        assert orient_consistently(coface_map(K, 2), K.count(2)) is None

    def test_three_cofaces_rejected(self):
        K = build_closure([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
        assert orient_consistently(coface_map(K, 2), K.count(2)) is None

    def test_torus_orientable(self):
        K = fixtures.torus()
        assert orient_consistently(coface_map(K, 2), K.count(2)) is not None
