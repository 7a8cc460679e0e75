"""The one-phase OHCP simplex versus the frozen two-phase reference and a
brute-force vertex enumerator."""
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dense_simplex_reference as dense_reference
from helpers import IntMatrix, klein_grid
from ohcp import lp as lp_module
from ohcp.lp import LinearProgram, simplex_solve
from square_solve import solve_square


def ohcp_lp(B, c, cost, box=False):
    """The OHCP LP x = c + B y of the int rows B (one per entry of c, all of
    one length n), with `cost` one per x_i then one per y_j; boxed,
    |x_i| <= 1."""
    m, n = len(B), len(B[0])
    cols = [{i: B[i][j] for i in range(m) if B[i][j]} for j in range(n)]
    return LinearProgram(B=cols, c=c, x_cost=cost[:m], y_cost=cost[m:],
                         box=box)


def general(lp):
    """`lp` as the general LP that the frozen reference reads: dense rows
    of A = [I -I -B B] over the columns x^+, x^-, y^+, y^-, each at its
    simplex's cost, with x^+, x^- <= 1 when boxed."""
    m, n = lp.num_constraints, len(lp.B)
    A = []
    for i in range(m):
        unit = [int(k == i) for k in range(m)]
        Bi = [col.get(i, 0) for col in lp.B]
        A.append(unit + [-v for v in unit] + [-e for e in Bi] + Bi)
    return dense_reference.LinearProgram(
        objective=lp.x_cost * 2 + lp.y_cost * 2, A=A, b=list(lp.c),
        lower=[0] * lp.num_vars,
        upper=[1 if lp.box else None] * (2 * m) + [None] * (2 * n))


def reference_solve(lp):
    """The frozen two-phase dense simplex on `lp`, in the general form that
    reference reads."""
    return dense_reference.simplex_solve(general(lp))


def signed(lp, point):
    """(x, y) = (x^+ - x^-, y^+ - y^-) of a point of `general(lp)`."""
    m, n = lp.num_constraints, len(lp.B)
    return ([point[i] - point[m + i] for i in range(m)],
            [point[2 * m + j] - point[2 * m + n + j] for j in range(n)])


def is_homologous(lp, x, y):
    """x = c + B y."""
    want = list(lp.c)
    for yj, col in zip(y, lp.B):
        for i, e in col.items():
            want[i] += e * yj
    return list(x) == want


def enumerate_vertices(lp):
    """All basic feasible points: pick m basic columns, pin every nonbasic
    variable to 0 or, under the box, 1, solve, filter by feasibility.

    The first m columns of A are I, so A has full row rank; every variable
    is >= 0 and every cost too, so the LP is bounded and an optimum is among
    these points.
    """
    m, N = lp.num_constraints, lp.num_vars
    full = general(lp)
    A, upper = full.A, full.upper
    points = []
    for basic in itertools.combinations(range(N), m):
        sub = IntMatrix([[A[i][j] for j in basic] for i in range(m)])
        nonbasic = [j for j in range(N) if j not in basic]
        for assign in itertools.product(*([0] if upper[j] is None else [0, 1]
                                          for j in nonbasic)):
            rhs = [lp.c[i] - sum(A[i][j] * v for j, v in zip(nonbasic, assign))
                   for i in range(m)]
            sol = solve_square(sub, rhs)
            if sol is None:
                continue
            x = [0] * N
            for j, v in zip(nonbasic, assign):
                x[j] = v
            for j, v in zip(basic, sol):
                x[j] = v
            if all(v >= 0 and (up is None or v <= up)
                   for v, up in zip(x, upper)):
                points.append(x)
    return points


def best_vertex_objective(lp):
    cost = general(lp).objective
    return min(sum(c * v for c, v in zip(cost, x))
               for x in enumerate_vertices(lp))


def random_lp(rng):
    """A random OHCP LP: B with entries in [-2, 2], so often not TU, costs
    k / 2 for k in 0..4, and either the box with |c_i| <= 1 or no box with
    |c_i| <= 2."""
    m, n = rng.randint(1, 3), rng.randint(1, 2)
    B = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
    box = rng.random() < 0.5
    top = 1 if box else 2
    c = [rng.randint(-top, top) for _ in range(m)]
    cost = [Fraction(rng.randint(0, 4), 2) for _ in range(m + n)]
    return ohcp_lp(B, c, cost, box)


class TestBasics:
    def test_pinned_variable(self):
        # the crash basis is the optimum: x^+ for c >= 0, x^- for c < 0
        for c, basic, cost in ((5, 0, 15), (-2, 1, 6)):
            sol = simplex_solve(ohcp_lp([[]], [c], [3]))
            assert (sol.x, sol.y, sol.objective) == ([c], [], cost)
            assert sol.basis == [basic]
            assert sol.stats["pivots"] == 0

    def test_box_vertex(self):
        # x = c + y (1, 1, 1): unboxed, y = -1 gives x = (0, 0, -2), cost 2;
        # boxed, |x_i| <= 1 forces y = 0 and x = c, cost 3
        B, c, cost = [[1], [1], [1]], [1, 1, -1], [1, 1, 1, 0]
        assert simplex_solve(ohcp_lp(B, c, cost)).objective == 2
        sol = simplex_solve(ohcp_lp(B, c, cost, box=True))
        assert sol.objective == 3 and (sol.x, sol.y) == (c, [0])

    def test_exact_rationals(self):
        # x = 1 + 3 y is 0 at y = -1/3
        sol = simplex_solve(ohcp_lp([[3]], [1], [1, 0]))
        assert (sol.x, sol.y) == ([0], [Fraction(-1, 3)])
        assert sol.objective == 0

    def test_unbounded(self):
        # a negative cost breaks the contract: y^+ improves without limit,
        # and a ratio test with no limit is a bug
        lp = ohcp_lp([[1]], [0], [0, -1])
        with pytest.raises(AssertionError, match="improving ray"):
            simplex_solve(lp)

    def test_infeasible(self):
        # a boxed chain entry 2 breaks the contract: the crash basis starts
        # outside the box, and the bounds check refuses the point
        with pytest.raises(AssertionError, match="outside its bounds"):
            simplex_solve(ohcp_lp([[]], [2], [1], box=True))

    def test_point_off_the_homology_identity_is_rejected(self, monkeypatch):
        # the final point with y^- moved by one, so that x != c + B y: the
        # only check of that identity on the solve path refuses it
        scaled_point = lp_module._Tableau.scaled_point

        def shifted(tab):
            point = scaled_point(tab)
            point[-1] += 1
            return point
        monkeypatch.setattr(lp_module._Tableau, "scaled_point", shifted)
        with pytest.raises(AssertionError, match="A x != c"):
            simplex_solve(ohcp_lp([[1], [1], [1]], [1, 1, -1], [1, 1, 1, 0]))


class TestAgainstVertexEnumeration:
    def test_fifty_random_lps(self):
        rng = random.Random(20260823)
        for _ in range(50):
            lp = random_lp(rng)
            sol = simplex_solve(lp)
            assert sol.objective == best_vertex_objective(lp)
            assert is_homologous(lp, sol.x, sol.y)


class TestIntegrality:
    def test_tu_system_gives_integral_vertex(self):
        from ohcp.complexes import boundary_matrix
        from ohcp import fixtures
        B = boundary_matrix(fixtures.tetrahedron_surface(), 2)
        m, n = len(B), len(B[0])
        c = [(1, -1, 0)[i % 3] for i in range(m)]
        sol = simplex_solve(ohcp_lp(B, c, [1] * m + [0] * n))
        assert all(v.denominator == 1 for v in sol.x + sol.y)

    def test_non_tu_fractional_vertex(self):
        sol = simplex_solve(ohcp_lp([[2]], [1], [1, 0]))
        assert not all(v.denominator == 1 for v in sol.x + sol.y)

    def test_zero_solution_is_integral(self):
        sol = simplex_solve(ohcp_lp([[1, 2]], [0], [1, 1, 1]))
        assert (sol.x, sol.y) == ([0], [0, 0])

    def test_result_types(self):
        # x and y hold the tableau's exact values, ints where integral and
        # Fractions where not; the objective and the duals are Fractions
        from ohcp.complexes import boundary_matrix
        from ohcp import fixtures
        B = boundary_matrix(fixtures.tetrahedron_surface(), 2)
        m, n = len(B), len(B[0])
        c = [(1, -1, 0)[i % 3] for i in range(m)]
        cost = [Fraction(1 + i % 3, 3) for i in range(m)] + [0] * n
        for lp, integral in ((ohcp_lp(B, c, cost), True),
                             (ohcp_lp([[2]], [1], [1, 0]), False)):
            sol = simplex_solve(lp)
            xy = sol.x + sol.y
            assert all(type(v) is int or v.denominator != 1 for v in xy)
            assert all(type(v) is int for v in xy) == integral
            assert type(sol.objective) is Fraction
            assert sol.objective == sum(
                Fraction(f) * abs(Fraction(v))
                for f, v in zip(lp.x_cost + lp.y_cost, xy))
            assert all(type(z) is Fraction for z in sol.duals)


# (pivots, bound flips) that the dense Fraction simplex took in phase 2 on
# the LP of each bundled fixture; its phase 1 took m pivots and ended on the
# crash basis, and the sparse solver must take the same path from there. No
# fixture LP takes a bound flip; test_bound_flip_counted covers that count.
FIXTURE_PIVOTS = {
    "triangle-L1": (1, 0),
    "triangle-L0Box": (2, 0),
    "triangle-TotalWeight": (1, 0),
    "hollow_triangle-L1": (3, 0),
    "hollow_triangle-L0Box": (2, 0),
    "hollow_triangle-TotalWeight": (3, 0),
    "tetrahedron_surface-L1": (4, 0),
    "tetrahedron_surface-L0Box": (5, 0),
    "tetrahedron_surface-TotalWeight": (5, 0),
    "disk_fan-L1": (6, 0),
    "disk_fan-L0Box": (4, 0),
    "disk_fan-TotalWeight": (2, 0),
    "cylinder-L1": (12, 0),
    "cylinder-L0Box": (7, 0),
    "cylinder-TotalWeight": (5, 0),
    "mobius_strip-L1": (5, 0),
    "mobius_strip-L0Box": (6, 0),
    "mobius_strip-TotalWeight": (3, 0),
    "projective_plane-L1": (12, 0),
    "projective_plane-L0Box": (19, 0),
    "projective_plane-TotalWeight": (12, 0),
    "torus-L1": (30, 0),
    "torus-L0Box": (26, 0),
    "torus-TotalWeight": (17, 0),
    "seven_tetrahedra-L1": (10, 0),
    "seven_tetrahedra-L0Box": (8, 0),
    "seven_tetrahedra-TotalWeight": (4, 0),
    "two_tetrahedra-L1": (2, 0),
    "two_tetrahedra-L0Box": (2, 0),
    "two_tetrahedra-TotalWeight": (2, 0),
    "solid_octahedron-L1": (7, 0),
    "solid_octahedron-L0Box": (6, 0),
    "solid_octahedron-TotalWeight": (5, 0),
    "hourglass-L1": (27, 0),
    "hourglass-L0Box": (12, 0),
    "hourglass-TotalWeight": (17, 0),
}


def fixture_instances():
    """(name, OHCP instance) for each bundled fixture complex in each
    variant: p one below the top dimension, chain entries cycling 1, -1, 0
    and weights cycling 1, 2, 3 (the hourglass keeps its own chain and
    weights), y-weights cycling 1, 2."""
    from ohcp import fixtures
    from ohcp.solver import OHCPInstance
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
            yield f"{name}-{variant}", inst


def fixture_lps():
    """(name, OHCP LP) of each of `fixture_instances()`."""
    from ohcp.solver import assemble
    for name, inst in fixture_instances():
        yield name, assemble(inst)


def pivot_counts(sol):
    return sol.stats["pivots"], sol.stats["bound_flips"]


def same_outcome(lp, a, ref):
    return ref.status == "Optimal" and \
        ((a.x, a.y), a.basis, a.objective) == \
        (signed(lp, ref.x), ref.basis, ref.objective)


class _CountingStatus(dict):
    """The dense reference's map of nonbasic statuses, counting what it is
    told: the reference deletes a variable's entry exactly when a pivot
    makes it basic, and overwrites an entry only in a bound flip."""

    def __init__(self, *args):
        super().__init__(*args)
        self.pivots = self.bound_flips = 0

    def __delitem__(self, j):
        self.pivots += 1
        super().__delitem__(j)

    def __setitem__(self, j, bound):
        self.bound_flips += j in self
        super().__setitem__(j, bound)


def reference_path(lp, monkeypatch):
    """`reference_solve(lp)` and the pivots it took: (phase 1 pivots, those
    made before the second minimize starts; phase 2 pivots; bound flips)."""
    tabs, phase1 = [], []
    init = dense_reference._Tableau.__init__
    minimize = dense_reference._Tableau.minimize

    def counting_init(tab, A, lower, upper, basis, T, beta, status):
        init(tab, A, lower, upper, basis, T, beta, _CountingStatus(status))
        tabs.append(tab)

    def marking_minimize(tab, cost):
        phase1.append(tab.status.pivots)
        return minimize(tab, cost)

    with monkeypatch.context() as patch:
        patch.setattr(dense_reference._Tableau, "__init__", counting_init)
        patch.setattr(dense_reference._Tableau, "minimize", marking_minimize)
        sol = reference_solve(lp)
    status = tabs[0].status
    first = phase1[1] if len(phase1) > 1 else status.pivots
    return sol, (first, status.pivots - first, status.bound_flips)


def assert_same_path(lp, monkeypatch):
    """The reference's phase 1 ends after m pivots, on the crash basis, and
    from there both solvers take the same pivots to the same vertex."""
    sol = simplex_solve(lp)
    ref, (phase1, phase2, flips) = reference_path(lp, monkeypatch)
    assert phase1 == lp.num_constraints
    assert same_outcome(lp, sol, ref)
    assert pivot_counts(sol) == (phase2, flips)
    return sol


class TestPivotPath:
    def test_fixture_pivot_counts_pinned(self):
        got = {name: pivot_counts(simplex_solve(lp))
               for name, lp in fixture_lps()}
        assert got == FIXTURE_PIVOTS

    def test_bound_flip_counted(self, monkeypatch):
        # the two-phase reference takes 3 + 4 pivots and one bound flip
        B = [[-2, -1, -1], [2, 1, 2], [-1, -1, -1]]
        lp = ohcp_lp(B, [1, 1, -1], [1] * 3 + [0] * 3, box=True)
        assert pivot_counts(assert_same_path(lp, monkeypatch)) == (4, 1)

    def test_fixture_lps_match_dense_reference(self, monkeypatch):
        for name, lp in fixture_lps():
            assert_same_path(lp, monkeypatch)


# costs come from a small pool so that reduced-cost ties are common
_COSTS = st.sampled_from([Fraction(0), Fraction(1), Fraction(2),
                          Fraction(1, 2), Fraction(3, 2), Fraction(2, 3)])


@st.composite
def ohcp_lps(draw):
    """Small OHCP LPs: B with entries in [-2, 2], so often not TU,
    nonnegative rational costs, and either the box with |c_i| <= 1 or no box
    with |c_i| <= 2; boxed rows with c_i = 0 start degenerate."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(0, 4))
    B = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(m)]
    box = draw(st.booleans())
    top = 1 if box else 2
    c = [draw(st.integers(-top, top)) for _ in range(m)]
    cost = [draw(_COSTS) for _ in range(m + n)]
    return ohcp_lp(B, c, cost, box)


class TestAgainstDenseReference:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lp=ohcp_lps())
    def test_same_status_point_basis_objective(self, lp, monkeypatch):
        # the reference comes back Optimal after m phase-1 pivots, and from
        # the crash basis both take the same pivots to the same vertex
        assert_same_path(lp, monkeypatch)


class TestDualCertificate:
    def test_early_stop_fails_the_certificate(self, monkeypatch):
        # the crash basis x = c = 1 is feasible but not optimal (y = -1
        # gives x = 0); a pricing that finds no entering column stops there
        lp = ohcp_lp([[1]], [1], [1, 0])
        assert simplex_solve(lp).objective == 0
        monkeypatch.setattr(lp_module, "_bland", lambda *args: None)
        with pytest.raises(AssertionError, match="dual certificate"):
            simplex_solve(lp)

    @settings(max_examples=300, deadline=None)
    @given(ohcp_lps())
    def test_duals_bound_every_feasible_point(self, lp):
        # weak duality, recomputed here: with r = f - A'y, every feasible x'
        # has f x' = y c + r x' >= y c + sum_j min(0, r_j upper_j), a finite
        # bound only when r_j < 0 has an upper bound to meet
        sol = simplex_solve(lp)
        y = sol.duals
        assert len(y) == lp.num_constraints
        full = general(lp)
        r = list(full.objective)
        for row, yi in zip(full.A, y):
            for j, a in enumerate(row):
                r[j] -= a * yi
        bound = sum(yi * ci for yi, ci in zip(y, lp.c))
        for rj, up in zip(r, full.upper):
            if rj < 0:
                assert up is not None
                bound += rj * up
        assert bound == sol.objective


def spy_on_tableau(monkeypatch):
    """Check, before every pivot and after every minimize, that the tableau
    rows, the D d row, the basic values b = D x_B and the point D x hold
    ints only; returns the (|p|, D) of each pivot."""
    seen = []
    pivot, minimize = lp_module._Tableau.pivot, lp_module._Tableau.minimize

    def all_int(tab):
        return (all(type(v) is int for row in tab.rows for v in row.values())
                and (tab.d is None or all(type(v) is int for v in tab.d))
                and all(type(v) is int for v in tab.b)
                and all(type(v) is int for v in tab.scaled_point())
                and type(tab.det) is int and tab.det > 0)

    def checked_pivot(tab, r, j, col):
        assert all_int(tab)
        seen.append((abs(tab.entry(r, j)), tab.det))
        return pivot(tab, r, j, col)

    def checked_minimize(tab, cost):
        outcome = minimize(tab, cost)
        assert all_int(tab)
        return outcome

    monkeypatch.setattr(lp_module._Tableau, "pivot", checked_pivot)
    monkeypatch.setattr(lp_module._Tableau, "minimize", checked_minimize)
    return seen


def random_non_tu_lps(rng, count):
    """`count` random OHCP LPs per non-orientable surface and variant at
    p = 1: random chains, weights and y-weights."""
    from ohcp import fixtures
    from ohcp.solver import OHCPInstance, assemble
    weights = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
               Fraction(5, 3)]
    for K in (fixtures.mobius_strip(), fixtures.projective_plane()):
        m, n = K.count(1), K.count(2)
        for variant in ("L1", "L0Box", "TotalWeight"):
            for _ in range(count):
                top = 1 if variant == "L0Box" else 2
                inst = OHCPInstance(
                    K=K, p=1, c=[rng.randint(-top, top) for _ in range(m)],
                    weights=[1] * m if variant == "L0Box"
                    else [rng.choice(weights) for _ in range(m)],
                    variant=variant,
                    y_weights=[rng.choice(weights) for _ in range(n)]
                    if variant == "TotalWeight" else None)
                yield assemble(inst)


class TestIntegerTableau:
    def test_non_tu_ohcp_lps_match_dense_reference(self, monkeypatch):
        seen = spy_on_tableau(monkeypatch)
        fractional = 0
        for lp in random_non_tu_lps(random.Random(20261018), 8):
            sol = assert_same_path(lp, monkeypatch)
            fractional += any(v.denominator != 1 for v in sol.x + sol.y)
        assert fractional
        # D reaches 2; some pivots rescale the rows outside column j, and
        # some have |p| = D >= 2, which changes row r's support only
        assert max(det for _, det in seen) >= 2
        assert any(p != det for p, det in seen)
        assert any(p == det >= 2 for p, det in seen)


def fixture_is_tu(name):
    from ohcp import fixtures
    from ohcp.tu import tu_verdict
    K = getattr(fixtures, name)()
    if name == "hourglass":
        K = K[0]
    return tu_verdict(K, K.dim - 1).status == "TU"


class TestBasisDeterminant:
    """`stats["basis_det"]` is D = |det B| of the final basis."""

    def test_one_on_every_tu_fixture(self):
        tu = {name: fixture_is_tu(name)
              for name in {key.rsplit("-", 1)[0] for key in FIXTURE_PIVOTS}}
        assert sum(tu.values()) >= 8
        for name, lp in fixture_lps():
            if tu[name.rsplit("-", 1)[0]]:
                assert simplex_solve(lp).stats["basis_det"] == 1, name

    def test_denominators_divide_it(self):
        fractional = []
        for name, lp in fixture_lps():
            sol = simplex_solve(lp)
            det = sol.stats["basis_det"]
            assert all(det % v.denominator == 0 for v in sol.x + sol.y), name
            if any(v.denominator != 1 for v in sol.x + sol.y):
                fractional.append(name)
                assert det >= 2, name
        assert fractional

    def test_six_by_six_klein_grid_pinned(self):
        # L0Box on the loop around i at j = 0, a torsion class of order 2:
        # y = 1/2 on every triangle bounds it, so the optimum is x = 0 with
        # D = 2
        from ohcp.solver import OHCPInstance, assemble, solve
        K = klein_grid(6, 6)
        c = [0] * K.count(1)
        for i in range(6):
            u, v = i, (i + 1) % 6
            c[K.index_of(1, (min(u, v), max(u, v)))] = 1 if u < v else -1
        inst = OHCPInstance(K=K, p=1, c=c, weights=[1] * len(c),
                            variant="L0Box")
        assert simplex_solve(assemble(inst)).stats == {
            "pivots": 161, "bound_flips": 0, "basis_det": 2}
        sol = solve(inst)
        assert sol.objective == 0 and not sol.integral
        assert [j for j, v in enumerate(sol.y_witness) if v] == \
            list(range(K.count(2))) == list(range(72))

    def test_small_cases(self):
        # no pivot leaves the crash basis's D = 1; x - 2 y = 1 ends on the
        # basis (2) of y^- = 1/2
        for lp, det in ((ohcp_lp([[]], [5], [1]), 1),
                        (ohcp_lp([[2]], [1], [1, 0]), 2)):
            assert simplex_solve(lp).stats["basis_det"] == det
