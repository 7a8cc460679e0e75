"""Simplex volumes from vertex coordinates, for Euclidean weight vectors.

Squared p-volumes come out of the Gram determinant of the edge vectors,
exact in integers once a simplex's rational coordinates are scaled onto one
integer lattice; the only rounding in the whole pipeline is the final square
root, taken to the nearest multiple of 1/DEFAULT_DENOMINATOR.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .complexes import InputError, SimplicialComplex
from .matrices import det_bareiss

DEFAULT_DENOMINATOR = 10 ** 9


def squared_volume(points) -> Fraction:
    """Squared p-volume of the simplex on `points`, whose coordinates are
    ints and Fractions (exact rational).

    vol^2 = det G / (p!)^2, with G the Gram matrix of the edge vectors
    from the first point (for p = 1 the squared length).
    """
    p = len(points) - 1
    if p < 0:
        raise InputError("empty vertex list")
    d = len(points[0])
    if any(len(q) != d for q in points):
        raise InputError("inconsistent ambient dimensions")
    # every coordinate times den is an integer; det G grows by den^(2p)
    den = math.lcm(*[c.denominator for q in points for c in q])
    ints = [[c.numerator * (den // c.denominator) for c in q] for q in points]
    edges = [[a - b for a, b in zip(q, ints[0])] for q in ints[1:]]
    gram = [[sum(a * b for a, b in zip(u, v)) for v in edges] for u in edges]
    det = gram[0][0] if p == 1 else det_bareiss(gram)
    return Fraction(det, (den ** p * math.factorial(p)) ** 2)


def rational_sqrt(v: Fraction) -> Fraction:
    """Square root of a nonnegative rational; exact when possible, otherwise
    rounded to the nearest multiple of 1/DEFAULT_DENOMINATOR."""
    a, b = v.numerator, v.denominator
    if a < 0:
        raise ValueError("negative squared volume")
    s = math.isqrt(a * b)
    if s * s == a * b:
        return Fraction(s, b)
    D = DEFAULT_DENOMINATOR
    n = math.isqrt(a * D * D // b)
    # round to nearest: compare v against ((n + 1/2)/D)^2
    if 4 * a * D * D > b * (2 * n + 1) ** 2:
        n += 1
    return Fraction(n, D)


def weights_from_coordinates(K: SimplicialComplex, coords: dict, p: int):
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
        out.append(rational_sqrt(squared_volume(pts)))
    return out
