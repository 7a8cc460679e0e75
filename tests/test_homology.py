"""Smith normal form and torsion witnesses."""
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (MOEBIUS_B2, IntMatrix, det, klein_grid, kuhn_torus3,
                     mobius_grid, snf, suspension, torus_grid)
from ohcp import fixtures, homology
from ohcp.complexes import boundary_matrix, build_closure, coface_map
from ohcp.fileio import parse_complex
from ohcp.homology import (_signed_graph_diagonal, _smith_diagonal,
                           homology_summary, torsion_witness_from_submatrix)
from ohcp.matrices import smith_normal_form
from ohcp.tu import tu_verdict


@st.composite
def scx_texts(draw):
    """.scx text of a complex of dimension <= 3 with several components:
    two to four blocks of up to four simplices on disjoint vertex ranges (a
    block may itself fall apart), then up to three isolated vertices, one
    per line."""
    blocks = draw(st.lists(st.lists(
        st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True),
        min_size=1, max_size=4), min_size=2, max_size=4))
    lines = [" ".join(str(10 * b + v) for v in simplex)
             for b, block in enumerate(blocks) for simplex in block]
    lines += [str(100 + v) for v in range(draw(st.integers(0, 3)))]
    return "\n".join(lines) + "\n"


def matrices(max_dim=8, lo=-6, hi=6):
    return st.tuples(st.integers(1, max_dim), st.integers(1, max_dim)).flatmap(
        lambda mn: st.lists(
            st.lists(st.integers(lo, hi), min_size=mn[1], max_size=mn[1]),
            min_size=mn[0], max_size=mn[0],
        ).map(IntMatrix)
    )


class TestSNFBasics:
    def test_two_by_one_entry(self):
        assert snf(IntMatrix([[2]])) == [2]

    def test_zero_matrix_empty_diagonal(self):
        r = snf(IntMatrix([[0] * 2] * 3))
        assert r == [] and len(r) == 0

    def test_classic_example(self):
        # diag(2,4,4) is equivalent to diag(2,4,4) already; a denser case:
        M = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert snf(M) == [2, 2, 156]

    def test_moebius_fixture_is_torsion_free(self):
        r = snf(IntMatrix(MOEBIUS_B2))
        assert r == [1, 1, 1, 1, 1, 1]
        assert [d for d in r if d > 1] == []

    def test_moebius_submatrix_has_torsion_two(self):
        M = IntMatrix(MOEBIUS_B2)
        S = M.submatrix([0, 3, 8, 9, 10, 2], [5, 4, 3, 2, 1, 0])
        r = snf(S)
        assert r == [1, 1, 1, 1, 1, 2]
        assert [d for d in r if d > 1] == [2]


class TestSNFProperties:
    @settings(max_examples=120, deadline=None)
    @given(matrices())
    def test_divisibility_chain(self, M):
        d = snf(M)
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
        d = snf(M)
        assert math.prod(d) == abs(det_M)

    @settings(max_examples=40, deadline=None)
    @given(matrices(max_dim=6, lo=-3, hi=3))
    def test_gcd_of_kxk_minors(self, M):
        d = snf(M)
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

    @pytest.mark.parametrize("grid, want", [(klein_grid, (1, [2])),
                                            (torus_grid, (2, []))],
                             ids=["klein", "torus"])
    def test_40_by_40_grids(self, grid, want):
        assert homology_summary(grid(40, 40), 1) == want

    @settings(max_examples=150, deadline=None)
    @given(scx_texts())
    def test_matches_the_smith_forms_of_the_boundaries(self, text):
        """Every H_p of a complex with several components, isolated vertices
        among them, is what the Smith forms of its dense boundaries say."""
        K = parse_complex(text)
        diagonal = [[]] + [snf(IntMatrix(boundary_matrix(K, q)))
                           for q in range(1, K.dim + 1)] + [[]]
        for p in range(K.dim + 1):
            betti = K.count(p) - len(diagonal[p]) - len(diagonal[p + 1])
            torsion = [d for d in diagonal[p + 1] if d > 1]
            assert homology_summary(K, p) == (betti, torsion)


# Pseudomanifolds whose top boundary is a signed graph's incidence matrix
# transposed, with the Smith diagonal's tail each must end in: closed and
# unbalanced (a 2), closed and balanced or open (all ones).
PSEUDOMANIFOLDS = {
    "klein": (lambda: klein_grid(3, 4), [1, 2]),
    "torus": (lambda: torus_grid(3, 4), [1]),
    "moebius": (lambda: mobius_grid(2, 3), [1]),
    "moebius-zigzag": (lambda: build_closure(
        [i, (i + 1) % 7, (i + 2) % 7] for i in range(7)), [1]),
    "suspended-rp2": (lambda: suspension(fixtures.projective_plane()),
                      [1, 2]),
    "kuhn-3-torus": (lambda: kuhn_torus3(3), [1]),
}


def kernel_diagonal(K, q):
    return smith_normal_form([dict(c) for c in K.boundary_columns(q)])


@st.composite
def pseudomanifold_edits(draw):
    """A complex of PSEUDOMANIFOLDS, or a random 2- or 3-complex on seven
    vertices, with up to three top simplices deleted and up to three fins:
    top simplices on a face of another and a new or an old vertex. A fin
    on an interior face gives it three cofaces; deletions open components
    and may split them. Half of them get a projective plane (its
    suspension in dimension 3) on new vertices, which stays closed."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(PSEUDOMANIFOLDS)))
        K = PSEUDOMANIFOLDS[name][0]()
    else:
        d = draw(st.integers(2, 3))
        K = build_closure(draw(st.lists(
            st.lists(st.integers(0, 6), min_size=d + 1, max_size=d + 1,
                     unique=True), min_size=1, max_size=12)))
    tops = K.simplices(K.dim)
    gone = draw(st.sets(st.integers(0, len(tops) - 1),
                        max_size=min(3, len(tops) - 1)))
    kept = [s for i, s in enumerate(tops) if i not in gone]
    for _ in range(draw(st.integers(0, 3))):
        s = kept[draw(st.integers(0, len(kept) - 1))]
        i = draw(st.integers(0, K.dim))
        face = s[:i] + s[i + 1:]
        v = draw(st.integers(0, K.count(0)))
        if v not in face:
            kept.append(face + (v,))
    if draw(st.booleans()):     # and a closed unbalanced component beside
        P = fixtures.projective_plane()
        P = P if K.dim == 2 else suspension(P)
        kept += [[v + K.count(0) + 1 for v in s] for s in P.simplices(K.dim)]
    return build_closure(kept)


class TestSignedGraphDiagonal:
    @pytest.mark.parametrize("name", sorted(PSEUDOMANIFOLDS))
    def test_pseudomanifolds_skip_the_kernel(self, name):
        make, tail = PSEUDOMANIFOLDS[name]
        K = make()
        q = K.dim
        d = _signed_graph_diagonal(K.boundary_columns(q), K.count(q - 1))
        assert d is not None and d[-len(tail):] == tail
        assert d == _smith_diagonal(K, q) == kernel_diagonal(K, q)

    def test_a_face_with_three_cofaces_goes_to_the_kernel(self):
        T = torus_grid(3, 3)
        a, b = T.simplices(1)[0]
        K = build_closure(T.simplices(2) + [(a, b, T.count(0))])
        assert _signed_graph_diagonal(K.boundary_columns(2), K.count(1)) \
            is None
        assert _smith_diagonal(K, 2) == kernel_diagonal(K, 2)

    def test_disjoint_components_add_up(self):
        # a Klein bottle, a torus and a Moebius strip on disjoint vertices
        parts = [klein_grid(3, 3), torus_grid(3, 3), mobius_grid(1, 3)]
        tris, base = [], 0
        for P in parts:
            tris += [[v + base for v in t] for t in P.simplices(2)]
            base += P.count(0)
        K = build_closure(tris)
        n = K.count(2)
        assert _smith_diagonal(K, 2) == [1] * (n - 2) + [2]
        assert kernel_diagonal(K, 2) == [1] * (n - 2) + [2]

    @settings(max_examples=150, deadline=None)
    @given(pseudomanifold_edits())
    def test_equals_the_smith_normal_form(self, K):
        for q in range(2, K.dim + 1):
            assert _smith_diagonal(K, q) == kernel_diagonal(K, q)


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

    @staticmethod
    def _mobius_witness(K):
        v = tu_verdict(K, 1)
        assert v.status == "NotTU" and abs(v.witness_det) == 2
        return v

    def test_squarefree_det_needs_no_smith_form(self, monkeypatch):
        K = fixtures.mobius_strip()
        v = self._mobius_witness(K)
        calls = []

        def counted(rows):
            calls.append(len(rows))
            return smith_normal_form(rows)
        monkeypatch.setattr(homology, "smith_normal_form", counted)
        args = (K, 1, v.witness_rows, v.witness_cols)
        with_det = torsion_witness_from_submatrix(*args, v.witness_det)
        assert calls == []
        assert torsion_witness_from_submatrix(*args) == with_det
        assert calls == [len(v.witness_rows)]
        assert with_det.torsion_coefficient == 2

    def test_two_moebius_bands_have_torsion_two_not_four(self):
        # |det| = 4 is not squarefree: the diagonal is [..., 2, 2], not
        # [..., 1, 4], and only the Smith form tells them apart
        M = fixtures.mobius_strip()
        K = build_closure([[v + shift for v in t] for t in M.simplices(2)
                           for shift in (0, M.count(0))])
        rows, cols = [], []
        for shift in (0, M.count(0)):
            half = build_closure([[v + shift for v in t]
                                  for t in M.simplices(2)])
            v = self._mobius_witness(half)
            rows += [K.index_of(1, half.simplices(1)[i])
                     for i in v.witness_rows]
            cols += [K.index_of(2, half.simplices(2)[j])
                     for j in v.witness_cols]
        rows.sort()
        cols.sort()
        sub = IntMatrix(boundary_matrix(K, 2)).submatrix(rows, cols)
        d = det(sub)
        assert abs(d) == 4
        assert snf(sub)[-2:] == [2, 2]
        w = torsion_witness_from_submatrix(K, 1, rows, cols, d)
        assert w.torsion_coefficient == 2
