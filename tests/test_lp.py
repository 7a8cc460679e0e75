"""Exact simplex solver versus a brute-force vertex enumerator."""
import copy
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_simplex_reference import simplex_solve as dense_simplex_solve
from helpers import IntMatrix, snf
from ohcp.lp import LinearProgram, simplex_solve
from square_solve import solve_square


def dense(lp):
    """The constraint matrix of `lp` as dense rows."""
    return [[row.get(j, 0) for j in range(lp.num_vars)] for row in lp.A]


def reference_solve(lp):
    """The frozen dense simplex on a copy of `lp` whose A is dense rows, the
    form that reference reads."""
    view = copy.copy(lp)
    view.A = dense(lp)
    return dense_simplex_solve(view)


def enumerate_vertices(lp):
    """All basic feasible points: pick M basic columns, pin every nonbasic
    variable to one of its finite bounds, solve, filter by feasibility.

    Valid whenever A has full row rank and every variable has a finite lower
    bound; with finite boxes this hits an optimum of any bounded LP.
    """
    m, n = lp.num_constraints, lp.num_vars
    A = dense(lp)
    points = []
    for basic in itertools.combinations(range(n), m):
        sub = [[A[i][j] for j in basic] for i in range(m)]
        nonbasic = [j for j in range(n) if j not in basic]
        choices = []
        for j in nonbasic:
            opts = [lp.lower[j]]
            if lp.upper[j] is not None and lp.upper[j] != lp.lower[j]:
                opts.append(lp.upper[j])
            choices.append(opts)
        for assign in itertools.product(*choices):
            rhs = [lp.b[i] - sum(A[i][j] * v
                                 for j, v in zip(nonbasic, assign))
                   for i in range(m)]
            den = math.lcm(*[e.denominator for row in sub for e in row])
            scaled = IntMatrix([[int(e * den) for e in row] for row in sub])
            sol = solve_square(scaled, [r * den for r in rhs])
            if sol is None:
                continue
            x = [Fraction(0)] * n
            for j, v in zip(nonbasic, assign):
                x[j] = v
            ok = True
            for j, v in zip(basic, sol):
                if v < lp.lower[j] or (lp.upper[j] is not None and v > lp.upper[j]):
                    ok = False
                    break
                x[j] = v
            if ok:
                points.append(x)
    return points


def best_vertex_objective(lp):
    pts = enumerate_vertices(lp)
    if not pts:
        return None
    return min(sum(c * v for c, v in zip(lp.objective, x)) for x in pts)


def random_lp(rng):
    """Random full-row-rank system with finite boxes (always bounded)."""
    while True:
        n = rng.randint(2, 6)
        m = rng.randint(1, min(4, n - 1))
        A = [{j: a for j in range(n) if (a := rng.randint(-3, 3))}
             for _ in range(m)]
        if snf(IntMatrix([[row.get(j, 0) for j in range(n)]
                          for row in A])).rank < m:
            continue
        lower = [Fraction(rng.randint(-2, 0)) for _ in range(n)]
        upper = [lo + rng.randint(1, 4) for lo in lower]
        # right-hand side from a random feasible interior-ish point
        x0 = [lo + Fraction(rng.randint(0, int(up - lo)))
              for lo, up in zip(lower, upper)]
        b = [sum(a * x0[j] for j, a in row.items()) for row in A]
        f = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        return LinearProgram(objective=f, A=A, b=b, lower=lower, upper=upper)


class TestBasics:
    def test_pinned_variable(self):
        lp = LinearProgram(objective=[1], A=[{0: 1}], b=[5])
        sol = simplex_solve(lp)
        assert sol.status == "Optimal"
        assert sol.x == [5] and sol.objective == 5

    def test_infeasible(self):
        lp = LinearProgram(objective=[0], A=[{0: 1}], b=[-1])
        assert simplex_solve(lp).status == "Infeasible"

    def test_unbounded(self):
        lp = LinearProgram(objective=[-1], A=[{}], b=[0])
        assert simplex_solve(lp).status == "Unbounded"

    def test_box_vertex(self):
        lp = LinearProgram(objective=[1, 1], A=[{0: 1, 1: -1}], b=[1],
                           upper=[3, 3])
        sol = simplex_solve(lp)
        assert sol.status == "Optimal"
        assert sol.x == [1, 0] and sol.objective == 1

    def test_exact_rationals(self):
        lp = LinearProgram(objective=[1], A=[{0: 3}], b=[1])
        sol = simplex_solve(lp)
        assert sol.x == [Fraction(1, 3)]

    def test_column_index_out_of_range(self):
        for j in (-1, 2):
            with pytest.raises(ValueError):
                LinearProgram(objective=[1, 1], A=[{j: 1}], b=[1])


class TestAgainstVertexEnumeration:
    def test_fifty_random_lps(self):
        rng = random.Random(20260823)
        solved = 0
        for _ in range(60):
            lp = random_lp(rng)
            sol = simplex_solve(lp)
            oracle = best_vertex_objective(lp)
            assert oracle is not None  # built around a feasible point
            assert sol.status == "Optimal"
            assert sol.objective == oracle
            for row, rhs in zip(lp.A, lp.b):
                assert sum(a * sol.x[j] for j, a in row.items()) == rhs
            solved += 1
        assert solved >= 50

    def test_infeasible_random_systems_detected(self):
        rng = random.Random(99)
        for _ in range(20):
            lp = random_lp(rng)
            # push b out of reach of the box
            reach = sum(abs(a) * max(abs(lp.lower[j]), abs(lp.upper[j]))
                        for j, a in lp.A[0].items())
            bad = LinearProgram(objective=lp.objective, A=lp.A,
                                b=[reach + 1] + lp.b[1:],
                                lower=lp.lower, upper=lp.upper)
            assert simplex_solve(bad).status == "Infeasible"


def beale_lp():
    """Beale's classic cycling LP in standard form with slacks."""
    A = [
        {0: Fraction(1, 4), 1: -60, 2: Fraction(-1, 25), 3: 9, 4: 1},
        {0: Fraction(1, 2), 1: -90, 2: Fraction(-1, 50), 3: 3, 5: 1},
        {2: 1, 6: 1},
    ]
    f = [Fraction(-3, 4), 150, Fraction(-1, 50), 6, 0, 0, 0]
    return LinearProgram(objective=f, A=A, b=[0, 0, 1])


class TestBlandTermination:
    def test_beale_cycling_example(self):
        sol = simplex_solve(beale_lp())
        assert sol.status == "Optimal"
        assert sol.objective == Fraction(-1, 20)


class TestIntegrality:
    def test_tu_system_gives_integral_vertex(self):
        from ohcp.complexes import boundary_matrix
        from ohcp import fixtures
        B = IntMatrix(boundary_matrix(fixtures.tetrahedron_surface(), 2))
        n = B.n
        lp = LinearProgram(objective=[1] * n, A=B.sparse_rows(), b=[0] * B.m,
                           lower=[-2] * n, upper=[2] * n)
        sol = simplex_solve(lp)
        assert sol.status == "Optimal"
        assert all(v.denominator == 1 for v in sol.x)

    def test_non_tu_fractional_vertex(self):
        lp = LinearProgram(objective=[1], A=[{0: 2}], b=[1])
        sol = simplex_solve(lp)
        assert not all(v.denominator == 1 for v in sol.x)

    def test_zero_solution_is_integral(self):
        lp = LinearProgram(objective=[1, 1], A=[{0: 1, 1: 1}], b=[0])
        assert all(v.denominator == 1 for v in simplex_solve(lp).x)


# Pivot counts (phase 1 including the clean-up of leftover artificials,
# phase 2, bound flips) that the dense Fraction simplex took on the LP of
# each bundled fixture; the sparse solver must take the same path. No
# fixture LP takes a bound flip; test_bound_flip_counted covers that count.
FIXTURE_PIVOTS = {
    "triangle-L1": (3, 1, 0),
    "triangle-L0Box": (3, 2, 0),
    "triangle-TotalWeight": (3, 1, 0),
    "hollow_triangle-L1": (3, 3, 0),
    "hollow_triangle-L0Box": (3, 2, 0),
    "hollow_triangle-TotalWeight": (3, 3, 0),
    "tetrahedron_surface-L1": (6, 4, 0),
    "tetrahedron_surface-L0Box": (6, 5, 0),
    "tetrahedron_surface-TotalWeight": (6, 5, 0),
    "disk_fan-L1": (13, 6, 0),
    "disk_fan-L0Box": (13, 4, 0),
    "disk_fan-TotalWeight": (13, 2, 0),
    "cylinder-L1": (12, 12, 0),
    "cylinder-L0Box": (12, 7, 0),
    "cylinder-TotalWeight": (12, 5, 0),
    "mobius_strip-L1": (12, 5, 0),
    "mobius_strip-L0Box": (12, 6, 0),
    "mobius_strip-TotalWeight": (12, 3, 0),
    "projective_plane-L1": (15, 12, 0),
    "projective_plane-L0Box": (15, 19, 0),
    "projective_plane-TotalWeight": (15, 12, 0),
    "torus-L1": (21, 30, 0),
    "torus-L0Box": (21, 26, 0),
    "torus-TotalWeight": (21, 17, 0),
    "seven_tetrahedra-L1": (19, 10, 0),
    "seven_tetrahedra-L0Box": (19, 8, 0),
    "seven_tetrahedra-TotalWeight": (19, 4, 0),
    "two_tetrahedra-L1": (7, 2, 0),
    "two_tetrahedra-L0Box": (7, 2, 0),
    "two_tetrahedra-TotalWeight": (7, 2, 0),
    "solid_octahedron-L1": (12, 7, 0),
    "solid_octahedron-L0Box": (12, 6, 0),
    "solid_octahedron-TotalWeight": (12, 5, 0),
    "hourglass-L1": (21, 27, 0),
    "hourglass-L0Box": (21, 12, 0),
    "hourglass-TotalWeight": (21, 17, 0),
}


def fixture_lps():
    """(name, OHCP LP) for each bundled fixture complex in each variant:
    p one below the top dimension, chain entries cycling 1, -1, 0 and
    weights cycling 1, 2, 3 (the hourglass keeps its own chain and
    weights), y-weights cycling 1, 2."""
    from ohcp import fixtures
    from ohcp.solver import OHCPInstance, assemble
    for name in sorted({key.rsplit("-", 1)[0] for key in FIXTURE_PIVOTS}):
        if name == "hourglass":
            K, weights, c = fixtures.hourglass()
        else:
            K = getattr(fixtures, name)()
            m = K.count(K.dim - 1)
            c = [(1, -1, 0)[i % 3] for i in range(m)]
            weights = [i % 3 + 1 for i in range(m)]
        p = K.dim - 1
        n = K.count(p + 1)
        for variant in ("L1", "L0Box", "TotalWeight"):
            inst = OHCPInstance(
                K=K, p=p, c=c,
                weights=[1] * len(c) if variant == "L0Box" else weights,
                variant=variant,
                y_weights=[j % 2 + 1 for j in range(n)]
                if variant == "TotalWeight" else None)
            yield f"{name}-{variant}", assemble(inst)


def pivot_counts(sol):
    s = sol.stats
    return s["phase1_pivots"], s["phase2_pivots"], s["bound_flips"]


class TestPivotPath:
    def test_fixture_pivot_counts_pinned(self):
        got = {name: pivot_counts(simplex_solve(lp))
               for name, lp in fixture_lps()}
        assert got == FIXTURE_PIVOTS

    def test_bound_flip_counted(self):
        # x0 <= 1 flips to its upper bound before the artificial (value 5)
        # can leave; x1 then enters and drives the artificial out
        lp = LinearProgram(objective=[-1, 0], A=[{0: 1, 1: 1}], b=[5],
                           upper=[1, None])
        sol = simplex_solve(lp)
        assert sol.x == [1, 4]
        assert pivot_counts(sol) == (1, 0, 1)

    def test_stats_on_infeasible_and_unbounded(self):
        infeasible = simplex_solve(LinearProgram(objective=[0], A=[{0: 1}],
                                                 b=[-1]))
        assert pivot_counts(infeasible) == (0, 0, 0)
        unbounded = simplex_solve(LinearProgram(objective=[-1], A=[{}],
                                                b=[0]))
        assert pivot_counts(unbounded) == (0, 0, 0)

    def test_fixture_lps_match_dense_reference(self):
        for name, lp in fixture_lps():
            assert same_outcome(simplex_solve(lp), reference_solve(lp)), name


def same_outcome(a, b):
    return (a.status, a.x, a.basis, a.objective) == \
        (b.status, b.x, b.basis, b.objective)


# costs come from a small pool so that reduced-cost ties are common
_COSTS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1),
                          Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)])


@st.composite
def bounded_lps(draw):
    """Small LPs: integer entries in [-2, 2], rational costs, lower bounds
    in [-2, 0] (some halves), an upper bound on some variables (some of
    them fixed), and a right-hand side that is either A x0 for a point x0
    in the box or drawn freely (often infeasible)."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    A = [{j: a for j in range(n) if (a := draw(st.integers(-2, 2)))}
         for _ in range(m)]
    f = [draw(_COSTS) for _ in range(n)]
    lower = [Fraction(draw(st.integers(-4, 0)), draw(st.sampled_from([1, 2])))
             for _ in range(n)]
    upper = [lo + draw(st.integers(0, 3)) if draw(st.booleans()) else None
             for lo in lower]
    if draw(st.booleans()):
        x0 = [lo + draw(st.integers(0, 2 if up is None else int(up - lo)))
              for lo, up in zip(lower, upper)]
        b = [sum(a * x0[j] for j, a in row.items()) for row in A]
    else:
        b = [Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 3])))
             for _ in range(m)]
    return LinearProgram(objective=f, A=A, b=b, lower=lower, upper=upper)


class TestAgainstDenseReference:
    @settings(max_examples=300, deadline=None)
    @given(bounded_lps())
    def test_same_status_point_basis_objective(self, lp):
        assert same_outcome(simplex_solve(lp), reference_solve(lp))

    def test_beale_matches(self):
        lp = beale_lp()
        assert same_outcome(simplex_solve(lp), reference_solve(lp))
