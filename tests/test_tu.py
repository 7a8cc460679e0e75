"""Total-unimodularity certification: minors and cycles. The routes read
the boundary's cached sparse columns and its signed rows (coface_map), which
tu_verdict builds once per verdict; the Heller-Tompkins route is tested
through the CLI and through orient_consistently over those rows."""
import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mobius_search_reference
import ohcp
from cycle_matrices import (classify_cycle_matrix, cycle_matrix_det,
                            cycle_matrix_normal_form)
from helpers import (MOEBIUS_B2, PROJECTIVE_PLANE_B2, IntMatrix, det, identity,
                     klein_grid)
from ohcp import complexes, fixtures, tu
from ohcp.complexes import boundary_matrix, build_closure, coface_map
from ohcp.tu import (Undecided, find_mobius_subcomplex,
                     is_tu_minor_enumeration, mobius_verdict, tu_verdict)


def exhaustive_tu(M):
    """Oracle: check every square minor by brute force."""
    for k in range(1, min(M.m, M.n) + 1):
        for rows in itertools.combinations(range(M.m), k):
            for cols in itertools.combinations(range(M.n), k):
                if abs(det(M.submatrix(rows, cols))) > 1:
                    return False
    return True


small_matrices = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda mn: st.lists(
        st.lists(st.integers(-1, 1), min_size=mn[1], max_size=mn[1]),
        min_size=mn[0], max_size=mn[0],
    ).map(IntMatrix)
)


class TestMinorEnumeration:
    def test_trivial_not_tu(self):
        v = is_tu_minor_enumeration(
            IntMatrix([[1, 1], [-1, 1]]).transpose().sparse_rows())
        assert v.status == "NotTU" and abs(v.witness_det) == 2

    def test_identity_tu(self):
        assert is_tu_minor_enumeration(
            identity(4).transpose().sparse_rows()).status == "TU"

    def test_moebius_fixture_not_tu(self):
        v = is_tu_minor_enumeration(
            IntMatrix(MOEBIUS_B2).transpose().sparse_rows())
        assert v.status == "NotTU"
        assert abs(v.witness_det) == 2

    def test_tetrahedron_surface_tu(self):
        B = IntMatrix(boundary_matrix(fixtures.tetrahedron_surface(), 2))
        assert is_tu_minor_enumeration(B.transpose().sparse_rows()).status == "TU"

    def test_cap_exceeded_raises(self):
        # I + P (P the cyclic shift): two nonzeros in every row and column,
        # so no line is deleted before the cap
        circulant = IntMatrix([[1 if j in (i, (i + 1) % 5) else 0
                                for j in range(5)] for i in range(5)])
        with pytest.raises(Undecided):
            is_tu_minor_enumeration(
                circulant.transpose().sparse_rows(), col_cap=4)

    @pytest.mark.parametrize("M, rows, cols", [
        (IntMatrix(MOEBIUS_B2), [0, 2, 3, 8, 9, 10], list(range(6))),
        (IntMatrix(PROJECTIVE_PLANE_B2), [1, 2, 6, 7, 10],
         [0, 1, 2, 4, 8]),
        (IntMatrix(boundary_matrix(fixtures.seven_tetrahedra(), 3)),
         [0, 1, 2, 5, 7, 11, 14], list(range(7))),
    ], ids=("moebius", "projective-plane", "seven-tetrahedra"))
    def test_pinned_witnesses(self, M, rows, cols):
        # the first |det| >= 2 minor in enumeration order
        v = is_tu_minor_enumeration(M.transpose().sparse_rows())
        assert (v.witness_rows, v.witness_cols, v.witness_det) == (rows, cols, 2)

    @settings(max_examples=80, deadline=None)
    @given(small_matrices)
    def test_agrees_with_exhaustive_oracle(self, M):
        v = is_tu_minor_enumeration(M.transpose().sparse_rows())
        assert (v.status == "TU") == exhaustive_tu(M)

    @settings(max_examples=60, deadline=None)
    @given(small_matrices, st.randoms(use_true_random=False))
    def test_sign_scaling_never_changes_verdict(self, M, rnd):
        rs = [rnd.choice((1, -1)) for _ in range(M.m)]
        cs = [rnd.choice((1, -1)) for _ in range(M.n)]
        a = is_tu_minor_enumeration(M.transpose().sparse_rows()).status
        b = is_tu_minor_enumeration(
            M.scaled(rs, cs).transpose().sparse_rows()).status
        assert a == b

    @settings(max_examples=60, deadline=None)
    @given(small_matrices)
    def test_witness_reverifies(self, M):
        v = is_tu_minor_enumeration(M.transpose().sparse_rows())
        if v.status == "NotTU":
            d = det(M.submatrix(v.witness_rows, v.witness_cols))
            assert d == v.witness_det and abs(d) >= 2


class TestCycleMatrices:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_det_law(self, k):
        mcm_beta = (-1) ** (k + 1)
        assert abs(cycle_matrix_det(k, mcm_beta)) == 2
        assert cycle_matrix_det(k, -mcm_beta) == 0
        assert det(cycle_matrix_normal_form(k, mcm_beta)) == \
            cycle_matrix_det(k, mcm_beta)
        assert det(cycle_matrix_normal_form(k, -mcm_beta)) == 0

    @pytest.mark.parametrize("k", range(2, 9))
    @pytest.mark.parametrize("beta", (1, -1))
    def test_normal_form_round_trip(self, k, beta):
        form = classify_cycle_matrix(cycle_matrix_normal_form(k, beta))
        assert form is not None
        assert (form.k, form.beta) == (k, beta)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 7), st.sampled_from((1, -1)),
           st.randoms(use_true_random=False))
    def test_recognized_after_scrambling(self, k, beta, rnd):
        C = cycle_matrix_normal_form(k, beta)
        rp = list(range(k))
        cp = list(range(k))
        rnd.shuffle(rp)
        rnd.shuffle(cp)
        rs = [rnd.choice((1, -1)) for _ in range(k)]
        cs = [rnd.choice((1, -1)) for _ in range(k)]
        scrambled = C.submatrix(rp, cp).scaled(rs, cs)
        form = classify_cycle_matrix(scrambled)
        assert form is not None
        assert (form.k, form.beta) == (k, beta)
        assert form.kind == ("CCM" if beta == (-1) ** k else "MCM")

    def test_identity_is_not_a_cycle_matrix(self):
        assert classify_cycle_matrix(identity(3)) is None


class TestMobiusSearch:
    def test_moebius_strip_found(self):
        K = fixtures.mobius_strip()
        w = find_mobius_subcomplex(K.boundary_columns(2), coface_map(K, 2), 2)
        assert w is not None
        assert len(w.simplices) == 6

    def test_cylinder_has_only_orientable_cycles(self):
        # only the frozen reference search still looks for orientable ones
        K = fixtures.cylinder()
        assert find_mobius_subcomplex(K.boundary_columns(2), coface_map(K, 2),
                                      2) is None
        w = mobius_search_reference.find_mobius_subcomplex(
            K, 2, want_orientable=True)
        B = IntMatrix(boundary_matrix(K, 2))
        S = B.submatrix(sorted(w.shared_faces), sorted(w.simplices))
        assert classify_cycle_matrix(S).kind == "CCM"

    def test_seven_tetrahedra_has_no_3d_moebius(self):
        K = fixtures.seven_tetrahedra()
        assert find_mobius_subcomplex(K.boundary_columns(3), coface_map(K, 3),
                                      3) is None

    def test_mcm_witness_has_det_two(self):
        K = fixtures.mobius_strip()
        v = mobius_verdict(K.boundary_columns(2), coface_map(K, 2), 2, 10 ** 6)
        assert abs(v.witness_det) == 2

    def test_witness_check_survives_optimised_mode(self):
        # python -O strips assert statements; with det_int faked to 1 the
        # Moebius route and the minors route must still refuse their
        # witness, which both check in one place
        src = os.path.dirname(os.path.dirname(ohcp.__file__))
        for route in ("tu.mobius_verdict(K.boundary_columns(2), "
                      "tu.coface_map(K, 2), 2, 10**6)",
                      "tu.is_tu_minor_enumeration(K.boundary_columns(2))"):
            check = ("from ohcp import fixtures, tu; "
                     "K = fixtures.mobius_strip(); "
                     f"tu.det_int = lambda rows, n: 1; print({route})")
            proc = subprocess.run([sys.executable, "-O", "-c", check],
                                  env=dict(os.environ, PYTHONPATH=src),
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode != 0 and proc.stdout == "", route
            assert "AssertionError" in proc.stderr, route

    def test_found_cycle_submatrix_is_an_mcm(self):
        K = fixtures.projective_plane()
        w = find_mobius_subcomplex(K.boundary_columns(2), coface_map(K, 2), 2)
        assert w is not None
        B = IntMatrix(boundary_matrix(K, 2))
        S = B.submatrix(sorted(w.shared_faces), sorted(w.simplices))
        form = classify_cycle_matrix(S)
        assert form is not None and form.kind == "MCM"


class TestVerdictCascade:
    def test_sphere_shortcut(self):
        v = tu_verdict(fixtures.tetrahedron_surface(), 1)
        assert v.status == "TU"
        assert v.method == "orientable-manifold-shortcut"

    def test_moebius_not_tu(self):
        v = tu_verdict(fixtures.mobius_strip(), 1)
        assert v.status == "NotTU"
        assert abs(v.witness_det) == 2

    def test_seven_tetrahedra_needs_minors(self):
        v = tu_verdict(fixtures.seven_tetrahedra(), 2)
        assert v.status == "NotTU"
        assert v.method == "minor-enumeration"
        assert len(v.witness_rows) == 7 and len(v.witness_cols) == 7

    def test_methods_agree_on_2_complexes(self):
        for K in (fixtures.mobius_strip(), fixtures.cylinder(),
                  fixtures.projective_plane(), fixtures.disk_fan(5),
                  fixtures.tetrahedron_surface()):
            by_cascade = tu_verdict(K, 1).status
            by_minors = is_tu_minor_enumeration(
                IntMatrix(boundary_matrix(K, 2)).transpose().sparse_rows(),
                col_cap=16).status
            assert by_cascade == by_minors

    def test_graph_needs_no_cycle_search(self):
        # K9's cycles would overrun the budget, but none of them can be a
        # Moebius complex: every cycle of edges is orientable
        K = build_closure(itertools.combinations(range(9), 2))
        assert find_mobius_subcomplex(K.boundary_columns(1), coface_map(K, 1),
                                      1, budget=0) is None
        v = tu_verdict(K, 0, budget=0)
        assert (v.status, v.method) == ("TU", "mobius-search")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 6), min_size=2, max_size=2,
                             unique=True), min_size=1, max_size=16))
    def test_graph_cascade_agrees_with_minors(self, edges):
        K = build_closure(edges)
        by_minors = is_tu_minor_enumeration(K.boundary_columns(1))
        assert tu_verdict(K, 0).status == by_minors.status == "TU"

    @settings(max_examples=100, deadline=None)
    @given(st.integers(4, 7).flatmap(lambda n: st.lists(
        st.sampled_from(list(itertools.combinations(range(n), 3))),
        min_size=1, max_size=12, unique=True)))
    def test_cascade_agrees_with_minors_on_2_complexes(self, triangles):
        K = build_closure(triangles)
        by_cascade = tu_verdict(K, 1)
        by_minors = is_tu_minor_enumeration(K.boundary_columns(2))
        assert by_cascade.status == by_minors.status
        B = IntMatrix(boundary_matrix(K, 2))
        for v in (by_cascade, by_minors):
            if v.status == "NotTU":
                d = det(B.submatrix(v.witness_rows, v.witness_cols))
                assert abs(d) >= 2 and d == v.witness_det

    @pytest.mark.parametrize("name", ("klein", "torus-fin"))
    def test_one_row_build_per_verdict(self, monkeypatch, name):
        # the Moebius route reads the rows the orientable shortcut read;
        # the fin's edge has three cofaces, so the torus is no pseudomanifold
        if name == "klein":
            K = klein_grid(3, 3)
        else:
            T = fixtures.torus()
            a, b = T.simplices(1)[0]
            K = build_closure(T.simplices(2) + [(a, b, T.count(0))])
        calls = []

        def counted(K, q):
            calls.append(q)
            return coface_map(K, q)
        for module in (complexes, tu):
            monkeypatch.setattr(module, "coface_map", counted)
        v = tu_verdict(K, 1)
        assert v.method == "mobius-search"
        assert v.status == ("NotTU" if name == "klein" else "TU")
        assert calls == [2]

    def test_one_coloring_per_verdict(self, monkeypatch):
        # the shortcut's failed coloring is the Moebius search's balance
        # test; a direct call of the search still runs its own
        K = klein_grid(3, 3)
        calls = []

        def counted(rows, n):
            calls.append(n)
            return complexes.orient_consistently(rows, n)
        monkeypatch.setattr(tu, "orient_consistently", counted)
        v = tu_verdict(K, 1)
        assert (v.status, v.method) == ("NotTU", "mobius-search")
        assert calls == [K.count(2)]
        assert find_mobius_subcomplex(K.boundary_columns(2), coface_map(K, 2),
                                      2) is not None
        assert calls == [K.count(2)] * 2

    def test_dimension_out_of_range(self):
        with pytest.raises(ValueError):
            tu_verdict(fixtures.triangle(), 2)

    def test_long_moebius_strip(self):
        # zigzag strip of triangles {i, i+1, i+2} mod n (n odd): the only
        # cycle complex is the whole strip, so the search path and the
        # witness are 1601 simplices long
        n = 1601
        K = build_closure([[i, (i + 1) % n, (i + 2) % n] for i in range(n)])
        v = tu_verdict(K, 1)
        assert v.status == "NotTU" and v.method == "mobius-search"
        assert abs(v.witness_det) == 2
        assert len(v.witness_cols) == n
