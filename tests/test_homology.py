"""Smith normal form and torsion witnesses."""
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import IntMatrix, det, snf
from ohcp import fixtures
from ohcp.homology import (homology_summary, torsion_coefficients,
                           torsion_witness_from_submatrix)


def matrices(max_dim=8, lo=-6, hi=6):
    return st.tuples(st.integers(1, max_dim), st.integers(1, max_dim)).flatmap(
        lambda mn: st.lists(
            st.lists(st.integers(lo, hi), min_size=mn[1], max_size=mn[1]),
            min_size=mn[0], max_size=mn[0],
        ).map(IntMatrix)
    )


class TestSNFBasics:
    def test_two_by_one_entry(self):
        assert snf(IntMatrix([[2]])).diagonal == [2]

    def test_zero_matrix_empty_diagonal(self):
        r = snf(IntMatrix([[0] * 2] * 3))
        assert r.diagonal == [] and r.rank == 0

    def test_classic_example(self):
        # diag(2,4,4) is equivalent to diag(2,4,4) already; a denser case:
        M = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert snf(M).diagonal == [2, 2, 156]

    def test_moebius_fixture_is_torsion_free(self):
        r = snf(IntMatrix(fixtures.MOEBIUS_B2))
        assert r.diagonal == [1, 1, 1, 1, 1, 1]
        assert torsion_coefficients(r) == []

    def test_moebius_submatrix_has_torsion_two(self):
        M = IntMatrix(fixtures.MOEBIUS_B2)
        S = M.submatrix([0, 3, 8, 9, 10, 2], [5, 4, 3, 2, 1, 0])
        r = snf(S)
        assert r.diagonal == [1, 1, 1, 1, 1, 2]
        assert torsion_coefficients(r) == [2]


class TestSNFProperties:
    @settings(max_examples=120, deadline=None)
    @given(matrices())
    def test_divisibility_chain(self, M):
        d = snf(M).diagonal
        assert all(x >= 1 for x in d)
        assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))

    @settings(max_examples=80, deadline=None)
    @given(matrices(max_dim=5))
    def test_square_nonsingular_product_is_abs_det(self, M):
        if M.m != M.n:
            return
        det_M = det(M)
        if det_M == 0:
            return
        d = snf(M).diagonal
        assert math.prod(d) == abs(det_M)

    @settings(max_examples=40, deadline=None)
    @given(matrices(max_dim=6, lo=-3, hi=3))
    def test_gcd_of_kxk_minors(self, M):
        d = snf(M).diagonal
        for k in range(1, min(M.m, M.n, len(d) + 1) + 1):
            g = 0
            for rows in itertools.combinations(range(M.m), k):
                for cols in itertools.combinations(range(M.n), k):
                    g = math.gcd(g, det(M.submatrix(rows, cols)))
            if k <= len(d):
                assert g == math.prod(d[:k])
            else:
                assert g == 0


class TestHomologySummary:
    def test_hollow_triangle(self):
        assert homology_summary(fixtures.hollow_triangle(), 1) == (1, [])

    def test_moebius_h1_is_z(self):
        assert homology_summary(fixtures.mobius_strip(), 1) == (1, [])

    def test_projective_plane_h1_is_z2(self):
        assert homology_summary(fixtures.projective_plane(), 1) == (0, [2])

    def test_torus_h1_is_z2_free(self):
        assert homology_summary(fixtures.torus(), 1) == (2, [])

    def test_sphere(self):
        K = fixtures.tetrahedron_surface()
        assert homology_summary(K, 0) == (1, [])
        assert homology_summary(K, 1) == (0, [])
        assert homology_summary(K, 2) == (1, [])


class TestTorsionWitness:
    def test_moebius_witness(self):
        K = fixtures.mobius_strip()
        B_rows = self._rows_for(K)
        w = torsion_witness_from_submatrix(K, 1, B_rows["moebius"], range(6))
        assert w.torsion_coefficient == 2
        assert sorted(w.L_cols) == list(range(6))

    @staticmethod
    def _rows_for(K):
        from ohcp.complexes import coface_map
        cof = coface_map(K, 2)
        interior = [i for i, js in enumerate(cof) if len(js) == 2]
        return {"moebius": interior}

    def test_tu_submatrix_rejected(self):
        K = fixtures.triangle()
        with pytest.raises(ValueError):
            torsion_witness_from_submatrix(K, 1, [0], [0])
