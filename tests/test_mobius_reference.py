"""The pruned Moebius-complex search against the frozen recursive one.

The search skips only subtrees that hold no witness and otherwise visits in
the reference's order. So on every input, at the reference's smallest
budget that does not raise BudgetExceeded, it returns the reference's
witness (or None): its own smallest budget is no larger. The orientable
cycle complexes the reference finds with want_orientable carve out
cylinder cycle matrices.
"""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mobius_search_reference as ref
from cycle_matrices import classify_cycle_matrix
from helpers import IntMatrix, klein_grid
from ohcp import fixtures
from ohcp.complexes import boundary_matrix, build_closure, coface_map
from ohcp.tu import BudgetExceeded, CycleComplexWitness, find_mobius_subcomplex


def pruned(K, q, budget=10 ** 6):
    """The package's pruned search, called as the reference is: on K's cached
    q-boundary columns and their signed rows."""
    return find_mobius_subcomplex(K.boundary_columns(q), coface_map(K, q), q,
                                  budget=budget)


def run(search, K, q, budget):
    try:
        return search(K, q, budget=budget)
    except BudgetExceeded:
        return BudgetExceeded


def smallest_budget(search, K, q, hi=1 << 20):
    lo = 0      # the smallest budget that does not raise, by bisection
    while lo < hi:
        mid = (lo + hi) // 2
        if run(search, K, q, mid) is BudgetExceeded:
            lo = mid + 1
        else:
            hi = mid
    return lo


def assert_same_witness(K, q):
    """At the reference's smallest budget the search does not raise, and it
    returns the reference's witness."""
    n = smallest_budget(ref.find_mobius_subcomplex, K, q)
    assert run(pruned, K, q, n) == \
        ref.find_mobius_subcomplex(K, q, budget=n)


def kind(K, w):
    """CCM or MCM: the cycle matrix that witness w carves out of K."""
    B = IntMatrix(boundary_matrix(K, w.q))
    form = classify_cycle_matrix(
        B.submatrix(sorted(w.shared_faces), sorted(w.simplices)))
    return form.kind


def assert_cycle_kinds(K, q):
    """The search's witness is a Moebius cycle matrix, and the reference's
    orientable one a cylinder cycle matrix."""
    w = pruned(K, q)
    assert w is None or kind(K, w) == "MCM"
    w = ref.find_mobius_subcomplex(K, q, want_orientable=True)
    assert w is None or kind(K, w) == "CCM"


FIXTURES = {
    "triangle": fixtures.triangle, "hollow_triangle": fixtures.hollow_triangle,
    "tetrahedron_surface": fixtures.tetrahedron_surface,
    "disk_fan": fixtures.disk_fan, "cylinder": fixtures.cylinder,
    "mobius_strip": fixtures.mobius_strip,
    "projective_plane": fixtures.projective_plane, "torus": fixtures.torus,
    "seven_tetrahedra": fixtures.seven_tetrahedra,
    "two_tetrahedra": fixtures.two_tetrahedra,
    "solid_octahedron": fixtures.solid_octahedron,
}

# The reference's witness on the 7 x 7 Klein grid, first found at a budget
# between 4000 and 10**6 (the reference takes about 20 s to reach it).
KLEIN_7X7_WITNESS = CycleComplexWitness(
    q=2,
    simplices=[0, 1, 5, 3, 2, 26, 22, 23, 25, 19, 18, 20, 14, 15, 17, 11, 13,
               94, 91, 78, 75, 62, 59, 46, 42, 30, 28, 32, 31, 8],
    shared_faces=[7, 0, 5, 4, 1, 31, 32, 26, 29, 30, 21, 23, 22, 16, 19, 20,
                  14, 145, 133, 129, 109, 105, 85, 81, 61, 56, 38, 40, 41,
                  39])


class TestAgainstRecursiveReference:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixtures(self, name):
        K = FIXTURES[name]()
        for q in range(1, K.dim + 1):
            assert_same_witness(K, q)
            assert_cycle_kinds(K, q)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_klein_grids(self, k):
        K = klein_grid(k, k)
        assert_same_witness(K, 2)
        assert_cycle_kinds(K, 2)

    def test_budget_exhaustion_on_a_large_klein_grid(self):
        K = klein_grid(7, 7)
        assert run(pruned, K, 2, 1) is \
            run(ref.find_mobius_subcomplex, K, 2, 1) is BudgetExceeded
        # the pruning decides where the reference still exhausts its budget
        assert run(ref.find_mobius_subcomplex, K, 2, 4000) is BudgetExceeded
        assert pruned(K, 2, budget=4000) == KLEIN_7X7_WITNESS

    def test_pruning_counts_each_cycle_in_one_direction(self):
        # a walk that closes at a simplex below path[1] is a cycle the DFS
        # meets in the other direction, so it does not keep the path alive;
        # counting it as well, the search would need 38 nodes here
        K = build_closure([[5, 3, 2], [5, 1, 4], [3, 5, 1], [1, 0, 3],
                           [4, 1, 2], [2, 0, 3], [3, 4, 1], [2, 5, 0],
                           [5, 1, 3], [3, 2, 4]])
        assert smallest_budget(ref.find_mobius_subcomplex, K, 2) == 67
        assert run(pruned, K, 2, 35) == \
            ref.find_mobius_subcomplex(K, 2, budget=67)

    def test_pruning_walks_never_turn_back_through_a_face(self):
        # a fin on the torus makes the signed graph unbalanced, but only
        # through walks that leave the fin by the edge they entered it by;
        # allowing those, the search would need 102 nodes here
        K = build_closure([list(t) for t in fixtures.torus().simplices(2)]
                          + [[0, 6, 7]])
        assert smallest_budget(ref.find_mobius_subcomplex, K, 2) == 439
        assert run(pruned, K, 2, 58) is None

    @pytest.mark.parametrize("make", [fixtures.torus, fixtures.cylinder])
    def test_balanced_input_visits_no_node(self, make):
        # an orientable surface's signed dual graph is balanced
        assert pruned(make(), 2, budget=0) is None

    @settings(max_examples=30, deadline=None)
    @given(st.tuples(st.integers(3, 5), st.integers(3, 5)).flatmap(
        lambda ab: st.tuples(
            st.just(ab),
            st.sets(st.tuples(st.integers(0, ab[0] - 1),
                              st.integers(0, ab[1] - 1))),
            st.permutations(range(ab[0] * ab[1])))))
    def test_random_klein_grids(self, case):
        (a, b), flip, label = case
        K = klein_grid(a, b, flip, label)
        assert pruned(K, 2, budget=math.inf) == \
            ref.find_mobius_subcomplex(K, 2, budget=math.inf)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 7).flatmap(lambda nv: st.lists(
        st.lists(st.integers(0, nv - 1), min_size=3, max_size=3, unique=True),
        min_size=1, max_size=12)))
    def test_random_2_complexes(self, tris):
        K = build_closure(tris)
        for q in (2, 1):
            assert_same_witness(K, q)
            assert_cycle_kinds(K, q)
