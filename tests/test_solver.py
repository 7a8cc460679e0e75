"""OHCP assembly, exact solve, its dual certificate, and oracle agreement."""
import copy
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute_force_oracle import brute_force_oracle
from helpers import IntMatrix, matvec
from ohcp import fixtures
from ohcp.complexes import InputError, boundary_matrix, build_closure
from ohcp.solver import OHCPInstance, assemble, solve
from ohcp.tu import BudgetExceeded


def l1_instance(K, c, weights=None, **kw):
    m = K.count(1)
    if weights is None:
        weights = [1] * m
    return OHCPInstance(K=K, p=1, c=c, weights=weights, **kw)


class TestAssembly:
    def test_variable_and_constraint_counts(self):
        K = fixtures.triangle()
        inst = l1_instance(K, [1, -1, 1])
        lp = assemble(inst)
        assert lp.num_vars == 2 * 3 + 2 * 1
        assert lp.num_constraints == 3

    def test_moebius_counts(self):
        K = fixtures.mobius_strip()
        inst = l1_instance(K, [0] * 12)
        lp = assemble(inst)
        assert lp.num_vars == 2 * 12 + 2 * 6
        assert lp.num_constraints == 12

    def test_lp_is_the_cached_boundary_and_the_weights(self):
        # B is the complex's cached sparse boundary itself, not a copy; the
        # costs are one |weight| per simplex, and y is free unless paid for
        K = fixtures.mobius_strip()
        m, n = K.count(1), K.count(2)
        c = [(1, -1, 0)[i % 3] for i in range(m)]
        w = [Fraction((-1) ** i * (i % 4 + 1), 3) for i in range(m)]
        lp = assemble(l1_instance(K, c, weights=w))
        assert lp.B is K.boundary_columns(2)
        assert lp.c == c
        assert lp.x_cost == [abs(wi) for wi in w]
        assert lp.y_cost == [0] * n
        v = [Fraction(-j - 1, 2) for j in range(n)]
        lp = assemble(l1_instance(K, c, weights=w, variant="TotalWeight",
                                  y_weights=v))
        assert lp.B is K.boundary_columns(2)
        assert lp.y_cost == [abs(vj) for vj in v]

    def test_zero_chain_gives_zero_rhs(self):
        K = fixtures.triangle()
        lp = assemble(l1_instance(K, [0, 0, 0]))
        assert all(v == 0 for v in lp.c)

    def test_l0_box_adds_bounds(self):
        K = fixtures.triangle()
        inst = l1_instance(K, [1, -1, 0], variant="L0Box")
        assert assemble(inst).box
        assert not assemble(l1_instance(K, [1, -1, 0])).box

    def test_l0_rejects_large_coefficients(self):
        K = fixtures.triangle()
        with pytest.raises(ValueError):
            l1_instance(K, [2, 0, 0], variant="L0Box")

    def test_invalid_instance_is_an_input_error(self):
        # the CLI prints the message of an InputError as it stands
        K = fixtures.triangle()
        with pytest.raises(InputError, match=r"^L0Box requires chain "):
            l1_instance(K, [2, 0, 0], variant="L0Box")
        with pytest.raises(InputError, match=r"^chain length 2 != 3 "):
            l1_instance(K, [1, 0])

    def test_total_weight_prices_y(self):
        K = fixtures.triangle()
        inst = l1_instance(K, [1, -1, 1], variant="TotalWeight",
                           y_weights=[Fraction(7)])
        lp = assemble(inst)
        assert lp.y_cost == [7]

    def test_total_weight_zero_y_cost_matches_l1(self):
        K = fixtures.triangle()
        a = assemble(l1_instance(K, [1, 0, 0], variant="TotalWeight",
                                 y_weights=[0]))
        b = assemble(l1_instance(K, [1, 0, 0]))
        assert (a.B, a.c, a.x_cost, a.y_cost) == (b.B, b.c, b.x_cost, b.y_cost)


class TestSolve:
    def test_zero_chain(self):
        K = fixtures.triangle()
        sol = solve(l1_instance(K, [0, 0, 0]))
        assert sol.objective == 0 and sol.x_star == [0, 0, 0]
        assert sol.integral

    def test_boundary_chain_is_killed(self):
        K = fixtures.triangle()
        sol = solve(l1_instance(K, [1, -1, 1]))
        assert sol.objective == 0
        assert sol.y_witness in ([1], [-1])

    def test_homology_identity_holds(self):
        K = fixtures.cylinder()
        c = fixtures.ring_cycle(K, (0, 1, 2))
        inst = l1_instance(K, c)
        sol = solve(inst)
        by = matvec(IntMatrix(boundary_matrix(K, 2)), sol.y_witness)
        assert sol.x_star == [ci + bi for ci, bi in zip(c, by)]

    def test_objective_bounded_by_input_chain(self):
        rng = random.Random(5)
        K = fixtures.disk_fan(4)
        for _ in range(10):
            c = [rng.randint(-3, 3) for _ in range(K.count(1))]
            w = [Fraction(rng.randint(1, 9), rng.randint(1, 4))
                 for _ in range(K.count(1))]
            inst = l1_instance(K, c, weights=w)
            sol = solve(inst)
            assert sol.objective <= sum(abs(wi) * abs(ci)
                                        for wi, ci in zip(w, c))

    def test_weight_scaling_scales_objective(self):
        K = fixtures.cylinder()
        c = fixtures.ring_cycle(K, (0, 1, 2))
        w = [Fraction(i % 3 + 1) for i in range(K.count(1))]
        base = solve(l1_instance(K, c, weights=w)).objective
        scaled = solve(l1_instance(K, c,
                                   weights=[Fraction(5, 3) * wi for wi in w]))
        assert scaled.objective == Fraction(5, 3) * base

    def test_top_dimension_chain_is_its_own_optimum(self):
        K = fixtures.triangle()
        inst = OHCPInstance(K=K, p=2, c=[-2], weights=[3])
        sol = solve(inst)
        assert sol.x_star == [-2] and sol.y_witness == []
        assert sol.objective == 6


class TestSharedBoundary:
    def test_solve_leaves_the_cached_boundary_alone(self):
        # the LP reads the complex's cached columns of B themselves, which
        # no caller may modify; x_star and y_witness are ints exactly when
        # the optimum is integral
        from test_lp import fixture_instances
        integral = set()
        for name, inst in fixture_instances():
            K = inst.K
            before = {q: copy.deepcopy(K.boundary_columns(q))
                      for q in range(1, K.dim + 1)}
            sol = solve(inst)
            assert {q: K.boundary_columns(q) for q in before} == before, name
            xy = sol.x_star + sol.y_witness
            assert all(type(v) is int for v in xy) == sol.integral, name
            integral.add(sol.integral)
        assert integral == {True, False}


class TestOracle:
    def test_triangle_boundary(self):
        K = fixtures.triangle()
        inst = l1_instance(K, [1, -1, 1])
        sol = brute_force_oracle(inst, y_bound=1)
        assert sol.objective == 0
        assert sol.y_witness in ([1], [-1])

    def test_zero_chain(self):
        K = fixtures.triangle()
        assert brute_force_oracle(l1_instance(K, [0] * 3), 1).objective == 0

    def test_budget_guard(self):
        K = fixtures.mobius_strip()
        with pytest.raises(BudgetExceeded):
            brute_force_oracle(l1_instance(K, [0] * 12), 20, budget=100)

    def test_agrees_with_solver_on_random_instances(self):
        rng = random.Random(11)
        complexes = [fixtures.disk_fan(3), fixtures.disk_fan(5),
                     fixtures.tetrahedron_surface(), fixtures.cylinder()]
        for _ in range(12):
            K = rng.choice(complexes)
            m = K.count(1)
            c = [rng.randint(-2, 2) for _ in range(m)]
            w = [Fraction(rng.randint(1, 6), rng.randint(1, 3))
                 for _ in range(m)]
            inst = l1_instance(K, c, weights=w)
            sol = solve(inst)
            assert sol.integral
            bound = max([abs(v) for v in sol.y_witness] + [1]) + 1
            oracle = brute_force_oracle(inst, y_bound=bound)
            assert sol.objective == oracle.objective

    def test_l0_restricted_oracle(self):
        K = fixtures.cylinder()
        c = fixtures.ring_cycle(K, (0, 1, 2))
        inst = l1_instance(K, c, variant="L0Box")
        sol = solve(inst)
        oracle = brute_force_oracle(inst, y_bound=2)
        assert sol.integral
        assert all(v in (-1, 0, 1) for v in sol.x_star)
        assert sol.objective == oracle.objective

    def test_memory_does_not_grow_with_candidates(self):
        # 7**6 = 117649 candidates, which took 34.8 MB when held at once
        K = fixtures.mobius_strip()
        c = [1, -1, 0, 1, 0, 0, 0, 1, 0, -1, 0, 1]
        inst = l1_instance(K, c, weights=[Fraction(k % 4 + 1, 2)
                                          for k in range(12)])
        tracemalloc.start()
        try:
            oracle = brute_force_oracle(inst, y_bound=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20
        assert oracle.objective == solve(inst).objective

    @pytest.mark.parametrize("block", (1, 5, 64))
    def test_blocks_keep_the_lexicographic_tie_break(self, monkeypatch,
                                                     block):
        # ties across block boundaries go to the lexicographically
        # smallest y, as when all candidates are compared at once
        rng = random.Random(3)
        K = fixtures.disk_fan(4)
        cases = []
        for variant in ("L1", "L0Box", "TotalWeight"):
            for _ in range(4):
                c = [rng.randint(-1, 1) for _ in range(K.count(1))]
                w = [1] * len(c) if variant == "L0Box" else \
                    [rng.randint(1, 2) for _ in c]
                yw = [rng.randint(1, 2) for _ in range(K.count(2))] \
                    if variant == "TotalWeight" else None
                cases.append(l1_instance(K, c, weights=w, variant=variant,
                                         y_weights=yw))
        whole = [brute_force_oracle(inst, y_bound=1) for inst in cases]
        monkeypatch.setattr("brute_force_oracle.ORACLE_BLOCK", block)
        for inst, want in zip(cases, whole):
            got = brute_force_oracle(inst, y_bound=1)
            assert (got.x_star, got.y_witness, got.objective) \
                == (want.x_star, want.y_witness, want.objective)

    def test_huge_weights_do_not_wrap_around(self):
        # 3 * 2**62 exceeds int64; the oracle must match the exact solve
        K = build_closure([(0, 1, 2)])
        inst = l1_instance(K, [3, 0, 0], weights=[2 ** 62] * 3)
        sol = solve(inst)
        oracle = brute_force_oracle(inst, y_bound=3)
        assert sol.objective == oracle.objective == 3 * 2 ** 62
        assert oracle.x_star == sol.x_star == [3, 0, 0]

    def test_huge_y_weights_do_not_overflow(self):
        K = build_closure([(0, 1, 2)])
        total = l1_instance(K, [1, -1, 1], weights=[2 ** 62] * 3,
                            variant="TotalWeight", y_weights=[2 ** 63])
        # killing c with y = 1 (cost 2**63) beats keeping it (3 * 2**62)
        assert brute_force_oracle(total, y_bound=3).objective \
            == solve(total).objective == 2 ** 63


class TestHourglass:
    def test_l1_doubles_the_middle_ring(self):
        K, w, c = fixtures.hourglass()
        sol = solve(l1_instance(K, c, weights=w))
        assert sol.integral
        assert 2 in {abs(v) for v in sol.x_star}
        oracle = brute_force_oracle(l1_instance(K, c, weights=w), y_bound=1)
        assert sol.objective == oracle.objective

    def test_l0_box_stays_unit(self):
        K, _, c = fixtures.hourglass()
        inst = l1_instance(K, c, variant="L0Box")
        sol = solve(inst)
        assert sol.integral
        assert all(v in (-1, 0, 1) for v in sol.x_star)
        oracle = brute_force_oracle(inst, y_bound=1)
        assert sol.objective == oracle.objective


FIXTURES = {name: getattr(fixtures, name)() for name in (
    "triangle", "hollow_triangle", "tetrahedron_surface", "disk_fan",
    "cylinder", "mobius_strip", "projective_plane", "torus",
    "seven_tetrahedra", "two_tetrahedra", "solid_octahedron")}
_WEIGHTS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-2),
                            Fraction(3, 2), Fraction(-1, 3), Fraction(5)])


@st.composite
def instances(draw):
    """A fixture complex, any p below its top dimension, any variant, a
    random chain and weights, negative and zero weights included."""
    K = FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))]
    p = draw(st.integers(0, K.dim - 1))
    variant = draw(st.sampled_from(("L1", "L0Box", "TotalWeight")))
    m, n = K.count(p), K.count(p + 1)
    top = 1 if variant == "L0Box" else 2
    c = draw(st.lists(st.integers(-top, top), min_size=m, max_size=m))
    if variant == "L0Box":
        w = draw(st.lists(st.sampled_from([1, -1]), min_size=m, max_size=m))
    else:
        w = draw(st.lists(_WEIGHTS, min_size=m, max_size=m))
    v = draw(st.lists(_WEIGHTS, min_size=n, max_size=n)) \
        if variant == "TotalWeight" else None
    return OHCPInstance(K=K, p=p, c=c, weights=w, variant=variant,
                        y_weights=v)


def fractional_instance():
    """The projective plane at p = 1 under L0Box, whose optimum is 3 at a
    fractional vertex."""
    K = FIXTURES["projective_plane"]
    c = [(1, -1, 0)[i % 3] for i in range(K.count(1))]
    return l1_instance(K, c, variant="L0Box")


class TestDualCertificate:
    """`sol.dual` is a feasible point z of the dual LP of its variant whose
    dual objective is the optimum:
      L1           max c z          s.t. |z_i| <= |w_i|, B'z = 0
      L0Box        max c z - sum max(0, |z_i| - 1)  s.t. B'z = 0
      TotalWeight  max c z          s.t. |z_i| <= |w_i|, |(B'z)_j| <= |v_j|
    Weak duality makes that value a lower bound on every homologous chain,
    integral or not."""

    @settings(max_examples=150, deadline=None)
    @given(instances())
    @example(fractional_instance())
    def test_dual_proves_the_optimum(self, inst):
        sol = solve(inst)
        z = sol.dual
        assert len(z) == inst.m
        if inst.variant != "L0Box":
            assert all(abs(zi) <= abs(wi) for zi, wi in zip(z, inst.weights))
        Btz = (matvec(IntMatrix(boundary_matrix(inst.K, inst.p + 1))
                      .transpose(), z) if inst.n else [])
        if inst.variant == "TotalWeight":
            assert all(abs(t) <= abs(v) for t, v in zip(Btz, inst.y_weights))
        else:
            assert all(t == 0 for t in Btz)
        value = sum(ci * zi for ci, zi in zip(inst.c, z))
        if inst.variant == "L0Box":
            value -= sum(max(0, abs(zi) - 1) for zi in z)
        assert value == sol.objective
        # the oracle searches a box of integer bounding chains; it holds the
        # optimum when that is integral and is bounded below by it always
        bound = max([abs(v) for v in sol.y_witness] + [0]) \
            if sol.integral else 1
        if (2 * bound + 1) ** inst.n <= 10 ** 5:
            oracle = brute_force_oracle(inst, y_bound=bound)
            if sol.integral:
                assert oracle.objective == value
            else:
                assert oracle.objective >= value
