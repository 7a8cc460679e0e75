"""Simplex volumes from vertex coordinates, for Euclidean weight vectors.

Squared p-volumes come out of the Gram determinant of the edge vectors,
exact in integers once a simplex's rational coordinates are scaled onto one
integer lattice; the only rounding in the whole pipeline is the final square
root, taken to the nearest multiple of 1/DEFAULT_DENOMINATOR.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import mul, sub

from .complexes import InputError, SimplicialComplex
from .matrices import det_bareiss

DEFAULT_DENOMINATOR = 10 ** 9


def lattice_point(point):
    """(den, ints): the lcm of the denominators of the ints and Fractions in
    `point`, and the integer point den * point."""
    den = math.lcm(*[c.denominator for c in point])
    return den, [c.numerator * (den // c.denominator) for c in point]


def squared_volume(points):
    """Squared p-volume of the simplex on `points`, given as lattice_point
    pairs, as ints (a, b) with the exact value a / b.

    vol^2 = det G / (p!)^2, with G the Gram matrix of the edge vectors
    from the first point (for p = 1 the squared length).
    """
    p = len(points) - 1
    if p < 0:
        raise InputError("empty vertex list")
    d = len(points[0][1])
    if any(len(q) != d for _, q in points):
        raise InputError("inconsistent ambient dimensions")
    # every point on the lcm of their lattices; det G grows by den^(2p)
    den = math.lcm(*[e for e, _ in points])
    ints = [[c * (den // e) for c in q] for e, q in points]
    edges = [list(map(sub, q, ints[0])) for q in ints[1:]]
    gram = [[sum(map(mul, u, v)) for v in edges] for u in edges]
    det = gram[0][0] if p == 1 else det_bareiss(gram)
    return det, (den ** p * math.factorial(p)) ** 2


def rational_sqrt(a: int, b: int) -> Fraction:
    """Square root of the nonnegative rational a / b, b > 0; exact when
    possible, otherwise rounded to the nearest multiple of
    1/DEFAULT_DENOMINATOR."""
    if a < 0:
        raise ValueError("negative squared volume")
    s = math.isqrt(a * b)
    if s * s == a * b:
        return Fraction(s, b)
    D = DEFAULT_DENOMINATOR
    n = math.isqrt(a * D * D // b)
    # round to nearest: compare a / b against ((n + 1/2)/D)^2
    if 4 * a * D * D > b * (2 * n + 1) ** 2:
        n += 1
    return Fraction(n, D)


def weights_from_coordinates(K: SimplicialComplex, coords: dict, p: int):
    """Euclidean p-volume of every p-simplex, in basis order: each vertex is
    put on its own integer lattice once, each simplex on the lcm of its
    vertices' lattices."""
    lattice = {v: lattice_point(pt) for v, pt in coords.items()}
    out = []
    for verts in K.simplices(p):
        try:
            pts = [lattice[v] for v in verts]
        except KeyError as exc:
            raise InputError(f"missing coordinates for vertex {exc.args[0]}") from None
        if len(pts[0][1]) < p:
            raise InputError(f"ambient dimension {len(pts[0][1])} below "
                             f"simplex dimension {p}")
        out.append(rational_sqrt(*squared_volume(pts)))
    return out
