"""The iterative Moebius-complex search against the frozen recursive one.

On every input both searches must return the same witness (or None) and
visit the same nodes: the smallest budget that does not raise
BudgetExceeded is the same for both, and a smaller one raises in both.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mobius_search_reference as ref
from ohcp import fixtures
from ohcp.complexes import build_closure
from ohcp.tu import BudgetExceeded, find_mobius_subcomplex


def klein_grid(a, b):
    """a x b grid Klein bottle: the seam j = b is glued to j = 0 with the
    reflection i -> -i."""
    def vid(i, j):
        if j >= b:
            i, j = -i, j - b
        return (i % a) + a * j
    tris = []
    for i in range(a):
        for j in range(b):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris += [[v00, v10, v11], [v00, v11, v01]]
    return build_closure(tris)


def run(search, K, q, budget, want_orientable=False):
    try:
        return search(K, q, budget=budget, want_orientable=want_orientable)
    except BudgetExceeded:
        return BudgetExceeded


def smallest_budget(K, q, want_orientable=False, hi=1 << 20):
    lo = 0      # the smallest budget that does not raise, by bisection
    while lo < hi:
        mid = (lo + hi) // 2
        if run(find_mobius_subcomplex, K, q, mid, want_orientable) \
                is BudgetExceeded:
            lo = mid + 1
        else:
            hi = mid
    return lo


def assert_same_search(K, q, want_orientable=False):
    n = smallest_budget(K, q, want_orientable)
    got = find_mobius_subcomplex(K, q, budget=n,
                                 want_orientable=want_orientable)
    assert got == ref.find_mobius_subcomplex(K, q, budget=n,
                                             want_orientable=want_orientable)
    if n:
        assert run(ref.find_mobius_subcomplex, K, q, n - 1,
                   want_orientable) is BudgetExceeded


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


class TestAgainstRecursiveReference:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixtures(self, name):
        K = FIXTURES[name]()
        for q in range(1, K.dim + 1):
            for want_orientable in (False, True):
                assert_same_search(K, q, want_orientable)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_klein_grids(self, k):
        K = klein_grid(k, k)
        assert_same_search(K, 2)
        assert_same_search(K, 2, want_orientable=True)

    def test_budget_exhaustion_on_a_large_klein_grid(self):
        K = klein_grid(7, 7)
        for budget in (1, 500, 4000):
            assert run(find_mobius_subcomplex, K, 2, budget) is \
                run(ref.find_mobius_subcomplex, K, 2, budget) is \
                BudgetExceeded

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 7).flatmap(lambda nv: st.lists(
        st.lists(st.integers(0, nv - 1), min_size=3, max_size=3, unique=True),
        min_size=1, max_size=12)), st.booleans())
    def test_random_2_complexes(self, tris, want_orientable):
        K = build_closure(tris)
        assert_same_search(K, 2, want_orientable)
        assert_same_search(K, 1, want_orientable)
