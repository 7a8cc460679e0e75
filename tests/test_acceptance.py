"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS line when its
assertions hold. Everything here is exact integer/rational arithmetic, so
all tolerances are zero.
"""
import random
from fractions import Fraction

from brute_force_oracle import brute_force_oracle
from cycle_matrices import (classify_cycle_matrix, cycle_matrix_det,
                            cycle_matrix_normal_form)
from helpers import (MOEBIUS_B2, PROJECTIVE_PLANE_B2, IntMatrix, det,
                     matvec, snf)
from ohcp import fixtures
from ohcp.complexes import (boundary_matrix, orient_consistently,
                            parity_coloring)
from ohcp.homology import torsion_witness_from_submatrix
from ohcp.matrices import smith_normal_form
from ohcp.solver import OHCPInstance, solve
from ohcp.tu import (find_mobius_subcomplex, is_tu_minor_enumeration,
                     tu_verdict)


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_acceptance_1_appendix_fixtures():
    """Determinants, SNF, and TU verdicts of the two shipped matrices."""
    mo = IntMatrix(MOEBIUS_B2)
    pp = IntMatrix(PROJECTIVE_PLANE_B2)
    assert (mo.m, mo.n) == (12, 6) and (pp.m, pp.n) == (15, 10)
    S = mo.submatrix([0, 3, 8, 9, 10, 2], [5, 4, 3, 2, 1, 0])
    assert det(S) == -2
    T = pp.submatrix([5, 11, 13, 12, 7], [6, 9, 3, 8, 4])
    assert det(T) == -2
    assert snf(mo) == [1] * 6
    assert snf(S) == [1, 1, 1, 1, 1, 2]
    for M in (mo, pp):
        v = is_tu_minor_enumeration(M.transpose().sparse_rows())
        assert v.status == "NotTU"
        d = det(M.submatrix(v.witness_rows, v.witness_cols))
        assert d == v.witness_det and abs(d) >= 2
    report(1, "appendix matrices: dets -2, SNF (1,...,1,2), both NotTU "
              "with re-verified witnesses")


def test_acceptance_2_cycle_matrix_law():
    """|det| of normal-form k-MCM is 2 and of k-CCM is 0 for k in [2,8]."""
    for k in range(2, 9):
        beta_mcm = (-1) ** (k + 1)
        for beta in (1, -1):
            C = cycle_matrix_normal_form(k, beta)
            d = det(C)
            assert d == cycle_matrix_det(k, beta)
            form = classify_cycle_matrix(C)
            assert form is not None and (form.k, form.beta) == (k, beta)
            if beta == beta_mcm:
                assert abs(d) == 2 and form.kind == "MCM"
            else:
                assert d == 0 and form.kind == "CCM"
    report(2, "cycle-matrix determinant law holds exactly for k = 2..8")


def test_acceptance_3_seven_tetrahedra():
    """Non-TU boundary matrix without any 3-dimensional Moebius subcomplex."""
    K = fixtures.seven_tetrahedra()
    B = IntMatrix(boundary_matrix(K, 3))
    assert (B.m, B.n) == (19, 7)
    v = is_tu_minor_enumeration(B.transpose().sparse_rows(), col_cap=16)
    assert v.status == "NotTU"
    assert len(v.witness_rows) == 7 and len(v.witness_cols) == 7
    assert abs(v.witness_det) == 2
    assert find_mobius_subcomplex(K, 3) is None
    report(3, "seven-tetrahedra complex: 19x7 boundary matrix, 7x7 minor "
              "of |det| 2, no 3-dimensional Moebius subcomplex")


def test_acceptance_4_orientable_manifolds_tu():
    """Orientable fixtures are TU under any reorientation of simplices."""
    rng = random.Random(42)
    cases = [
        ("tetrahedron surface", fixtures.tetrahedron_surface(), True),
        ("cylinder", fixtures.cylinder(), True),
        ("torus", fixtures.torus(), False),  # 14 cols: skip minor check
    ]
    for name, K, check_minors in cases:
        assert tu_verdict(K, 1).status == "TU"
        B = IntMatrix(boundary_matrix(K, 2))
        if check_minors:
            assert is_tu_minor_enumeration(
                B.transpose().sparse_rows()).status == "TU"
        signs = orient_consistently(K, 2)
        assert signs is not None
        for _ in range(10):
            flips = [rng.choice((1, -1)) for _ in range(B.n)]
            flipped = B.scaled(col_signs=flips)
            if check_minors:
                assert is_tu_minor_enumeration(
                    flipped.transpose().sparse_rows()).status == "TU"
            else:
                # consistently reorient, then Heller-Tompkins certifies:
                # at most two nonzeros per row, and a parity partition
                total = [f * s for f, s in zip(flips, signs)]
                M = flipped.scaled(col_signs=total)
                rows = M.sparse_rows()
                assert all(len(row) <= 2 for row in rows)
                assert parity_coloring(rows, M.n) is not None
    report(4, "sphere/cylinder/torus are TU and stay TU under 10 random "
              "reorientations each")


def test_acceptance_5_ohcp_integrality_and_optimality():
    """Randomized instances: exact agreement with the brute-force oracle."""
    rng = random.Random(20260823)
    pool = [fixtures.disk_fan(3), fixtures.disk_fan(4), fixtures.disk_fan(5),
            fixtures.disk_fan(6), fixtures.tetrahedron_surface(),
            fixtures.cylinder()]
    checked = 0
    while checked < 20:
        K = rng.choice(pool)
        m, n = K.count(1), K.count(2)
        assert m <= 20 and n <= 8
        c = [rng.randint(-3, 3) for _ in range(m)]
        w = [Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(m)]
        inst = OHCPInstance(K=K, p=1, c=c, weights=w, variant="L1")
        sol = solve(inst)
        assert sol.integral
        by = matvec(IntMatrix(boundary_matrix(K, 2)), sol.y_witness)
        assert sol.x_star == [ci + bi for ci, bi in zip(c, by)]
        bound = max([abs(v) for v in sol.y_witness] + [1]) + 1
        if (2 * bound + 1) ** n > 10 ** 7:
            continue
        oracle = brute_force_oracle(inst, y_bound=bound)
        assert sol.objective == oracle.objective
        checked += 1
    report(5, f"{checked} randomized instances: integral optima, exact "
              "oracle agreement, x* = c + By verified")


def test_acceptance_6_hourglass_phenomenon():
    """L1 doubles the cheap middle ring; L0Box stays within unit entries."""
    K, w, c = fixtures.hourglass()
    inst1 = OHCPInstance(K=K, p=1, c=c, weights=w, variant="L1")
    sol1 = solve(inst1)
    assert sol1.integral
    assert 2 in {abs(v) for v in sol1.x_star}
    assert sol1.objective == brute_force_oracle(inst1, y_bound=1).objective
    inst0 = OHCPInstance(K=K, p=1, c=c, weights=[1] * K.count(1),
                         variant="L0Box")
    sol0 = solve(inst0)
    assert sol0.integral
    assert all(v in (-1, 0, 1) for v in sol0.x_star)
    assert sol0.objective == brute_force_oracle(inst0, y_bound=1).objective
    report(6, "hourglass: L1 optimum has a +-2 coefficient, L0Box optimum "
              "is a {-1,0,1} chain, both match oracles")


def test_acceptance_7_torsion_witness_extraction():
    """NotTU complexes yield (L, L0) pairs with relative torsion 2; TU
    complexes certify none."""
    for K in (fixtures.mobius_strip(), fixtures.projective_plane()):
        v = tu_verdict(K, 1)
        assert v.status == "NotTU"
        w = torsion_witness_from_submatrix(K, 1, v.witness_rows,
                                           v.witness_cols)
        assert w.torsion_coefficient == 2
        from ohcp.complexes import relative_boundary_matrix
        rel, _, cols = relative_boundary_matrix(K, 1, w.L_cols, w.L0_rows)
        assert 2 in smith_normal_form(rel, len(cols))
    for K in (fixtures.disk_fan(5), fixtures.tetrahedron_surface()):
        assert tu_verdict(K, 1).status == "TU"
    report(7, "Moebius strip and projective plane give relative-torsion-2 "
              "witnesses; disk and sphere certify TU")


def test_acceptance_8_embedded_complexes_tu():
    """3-complexes embedded in R^3 have TU top boundary matrices."""
    for K in (fixtures.two_tetrahedra(), fixtures.solid_octahedron()):
        B = IntMatrix(boundary_matrix(K, 3))
        assert is_tu_minor_enumeration(
            B.transpose().sparse_rows()).status == "TU"
    report(8, "two glued tetrahedra and the solid octahedron have TU "
              "3-boundary matrices by full minor enumeration")


def test_acceptance_9_lp_soundness():
    """Simplex vs vertex enumeration on random OHCP LPs; Bland terminates."""
    from test_lp import best_vertex_objective, random_lp
    from ohcp.lp import simplex_solve
    rng = random.Random(7)
    degenerate = 0
    for _ in range(50):
        lp = random_lp(rng)
        assert simplex_solve(lp).objective == best_vertex_objective(lp)
        degenerate += lp.box and 0 in lp.b
    assert degenerate
    report(9, "50 random OHCP LPs, TU or not, match brute-force vertex "
              "enumeration exactly; Bland's rule terminates on them, "
              "degenerate boxed rows with c_i = 0 included")