"""Simplex volumes from vertex coordinates, for Euclidean weight vectors.

Squared p-volumes come out of the Cayley-Menger determinant over exact
rational squared distances; the only rounding in the whole pipeline is the
final square root, taken to a configurable denominator.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .complexes import InputError, SimplicialComplex
from .matrices import det_bareiss

DEFAULT_DENOMINATOR = 10 ** 9


def squared_volume(points) -> Fraction:
    """Squared p-volume of the simplex on `points` (exact rational).

    vol^2 = (-1)^(p+1) / (2^p (p!)^2) * det CM, with CM the bordered matrix
    of squared pairwise distances.
    """
    pts = [[Fraction(c) for c in q] for q in points]
    p = len(pts) - 1
    if p < 0:
        raise InputError("empty vertex list")
    d = len(pts[0])
    if any(len(q) != d for q in pts):
        raise InputError("inconsistent ambient dimensions")
    if p == 0:
        return Fraction(1)
    size = p + 2
    cm = [[Fraction(0)] * size for _ in range(size)]
    for i in range(1, size):
        cm[0][i] = cm[i][0] = Fraction(1)
    for i in range(p + 1):
        for j in range(p + 1):
            cm[i + 1][j + 1] = sum((a - b) ** 2 for a, b in zip(pts[i], pts[j]))
    # fraction-free determinant after clearing denominators
    den = math.lcm(*[e.denominator for row in cm for e in row])
    det = Fraction(det_bareiss([[int(e * den) for e in row] for row in cm]),
                   den ** size)
    return det * (-1) ** (p + 1) / (2 ** p * math.factorial(p) ** 2)


def rational_sqrt(v: Fraction, denominator_cap: int = DEFAULT_DENOMINATOR) -> Fraction:
    """Square root of a nonnegative rational; exact when possible, otherwise
    rounded to the nearest multiple of 1/denominator_cap."""
    if v < 0:
        raise ValueError("negative squared volume")
    a, b = v.numerator, v.denominator
    s = math.isqrt(a * b)
    if s * s == a * b:
        return Fraction(s, b)
    D = denominator_cap
    n = math.isqrt(a * D * D // b)
    # round to nearest: compare v against ((n + 1/2)/D)^2
    if 4 * a * D * D > b * (2 * n + 1) ** 2:
        n += 1
    return Fraction(n, D)


def weights_from_coordinates(K: SimplicialComplex, coords: dict, p: int,
                             denominator_cap: int = DEFAULT_DENOMINATOR):
    """Euclidean p-volume of every p-simplex, in basis order."""
    out = []
    for verts in K.simplices(p):
        try:
            pts = [coords[v] for v in verts]
        except KeyError as exc:
            raise InputError(f"missing coordinates for vertex {exc.args[0]}") from None
        if len(pts[0]) < p:
            raise InputError(f"ambient dimension {len(pts[0])} below simplex "
                             f"dimension {p}")
        out.append(rational_sqrt(squared_volume(pts), denominator_cap))
    return out
