"""Gram-determinant volumes and the single rounding step."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohcp import fixtures
from ohcp.complexes import InputError
from ohcp.geometry import (lattice_point, rational_sqrt, squared_volume,
                           weights_from_coordinates)


def volume2(points):
    """The squared volume of the simplex on the rational `points`."""
    return Fraction(*squared_volume([lattice_point(q) for q in points]))


class TestSquaredVolume:
    def test_unit_segment(self):
        assert volume2([(0, 0), (1, 0)]) == 1

    def test_3_4_5_segment(self):
        assert volume2([(0, 0), (3, 4)]) == 25

    def test_right_triangle(self):
        assert volume2([(0, 0), (1, 0), (0, 1)]) == Fraction(1, 4)

    def test_unit_tetrahedron(self):
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert volume2(pts) == Fraction(1, 36)

    def test_degenerate_simplex(self):
        assert volume2([(0, 0), (1, 1), (2, 2)]) == 0

    def test_point(self):
        assert volume2([(5, 5)]) == 1

    def test_rational_coordinates(self):
        assert volume2([(Fraction(1, 2), 0), (Fraction(3, 2), 0)]) == 1

    def test_translation_invariance(self):
        a = volume2([(0, 0), (1, 0), (0, 1)])
        b = volume2([(7, -3), (8, -3), (7, -2)])
        assert a == b


def cayley_menger_squared_volume(points):
    """Reference: vol^2 = (-1)^(p+1) / (2^p (p!)^2) det CM, with CM the
    squared pairwise distances bordered by a row and a column of ones."""
    p = len(points) - 1
    cm = [[Fraction(0)] + [Fraction(1)] * (p + 1)]
    for a in points:
        cm.append([Fraction(1)] + [sum((Fraction(x) - y) ** 2
                                       for x, y in zip(a, b))
                                   for b in points])
    det = Fraction(1)
    for t in range(p + 2):     # Gaussian elimination over the rationals
        r = next((r for r in range(t, p + 2) if cm[r][t]), None)
        if r is None:
            return Fraction(0)
        if r != t:
            cm[t], cm[r] = cm[r], cm[t]
            det = -det
        det *= cm[t][t]
        for i in range(t + 1, p + 2):
            f = cm[i][t] / cm[t][t]
            cm[i] = [x - f * y for x, y in zip(cm[i], cm[t])]
    return det * (-1) ** (p + 1) / (2 ** p * math.factorial(p) ** 2)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


class TestGramAgainstCayleyMenger:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 3).flatmap(lambda p: st.integers(1, 4).flatmap(
        lambda d: st.lists(st.lists(rationals, min_size=d, max_size=d),
                           min_size=p + 1, max_size=p + 1))))
    def test_equal_rationals(self, points):
        assert volume2(points) == cayley_menger_squared_volume(points)


class TestRationalSqrt:
    def test_exact_when_square(self):
        assert rational_sqrt(25, 1) == 5
        assert rational_sqrt(1, 4) == Fraction(1, 2)

    def test_zero(self):
        assert rational_sqrt(0, 1) == 0

    def test_rounded_value_is_close(self):
        v = Fraction(2)
        s = rational_sqrt(2, 1)
        assert abs(s * s - v) < Fraction(3, 10 ** 9)

    def test_round_to_nearest(self):
        # sqrt(2) = 1.4142135623..., sqrt(3) = 1.7320508075...: at the 10^-9
        # resolution the first rounds down and the second up
        assert rational_sqrt(2, 1) == Fraction(1414213562, 10 ** 9)
        assert rational_sqrt(3, 1) == Fraction(1732050808, 10 ** 9)

    @settings(max_examples=100)
    @given(st.integers(0, 10 ** 30), st.integers(1, 10 ** 30),
           st.integers(1, 10 ** 12))
    def test_common_factor_changes_nothing(self, a, b, g):
        # squared_volume hands over a / b unreduced
        assert rational_sqrt(a * g, b * g) == rational_sqrt(a, b)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative squared volume"):
            rational_sqrt(-1, 1)


class TestWeightsFromCoordinates:
    def test_edge_lengths(self):
        K = fixtures.hollow_triangle()
        coords = {0: (0, 0), 1: (3, 0), 2: (3, 4)}
        w = dict(zip(K.simplices(1), weights_from_coordinates(K, coords, 1)))
        assert w[(0, 1)] == 3
        assert w[(1, 2)] == 4
        assert w[(0, 2)] == 5

    def test_triangle_area(self):
        K = fixtures.triangle()
        coords = {0: (0, 0), 1: (1, 0), 2: (0, 1)}
        assert weights_from_coordinates(K, coords, 2) == [Fraction(1, 2)]

    def test_missing_vertex(self):
        K = fixtures.triangle()
        with pytest.raises(InputError):
            weights_from_coordinates(K, {0: (0, 0), 1: (1, 0)}, 1)

    def test_ambient_dimension_too_small(self):
        K = fixtures.triangle()
        with pytest.raises(InputError):
            weights_from_coordinates(K, {0: (0,), 1: (1,), 2: (2,)}, 2)
