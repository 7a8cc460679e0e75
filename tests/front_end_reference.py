"""Frozen copy of the front end the package shipped before its closure,
boundary columns and coordinate weights did one sort per simplex.

`build_closure`, `boundary_columns` and `weights_from_coordinates` are kept
verbatim, with `canonical`, `squared_volume` and `rational_sqrt` as they
were, bar two things: a complex is its list of levels (a `SimplicialComplex`
would bring the package's own boundary columns), and `boundary_columns`
takes that list and q. tests/test_front_end_reference.py checks the package
against them: equal levels, equal columns in equal dict order, equal
weights. Do not optimise or "fix" this file.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

from ohcp.complexes import InputError
from ohcp.matrices import det_bareiss, permutation_sign

DEFAULT_DENOMINATOR = 10 ** 9


def canonical(vertices):
    """(ascending vertex tuple, sign of the permutation sorting `vertices`):
    the canonical simplex and the input ordering's orientation relative to
    it."""
    verts = tuple(int(v) for v in vertices)
    if any(v < 0 for v in verts):
        raise InputError(f"negative vertex id in {verts}")
    if len(set(verts)) != len(verts):
        raise InputError(f"duplicate vertices in simplex {verts}")
    order = sorted(range(len(verts)), key=verts.__getitem__)
    return tuple(verts[i] for i in order), permutation_sign(order)


def build_closure(maximal):
    """Close a set of simplices under taking faces: the sorted levels."""
    levels = []
    for verts in maximal:
        verts = canonical(verts)[0]
        while len(levels) < len(verts):
            levels.append(set())
        for q in range(len(verts)):
            levels[q].update(itertools.combinations(verts, q + 1))
    return [sorted(level) for level in levels]


def boundary_columns(levels, q):
    """Column j is {row: +-1} for the j-th q-simplex, rows ascending."""
    index = {s: i for i, s in enumerate(levels[q - 1])}
    # face i of a simplex drops vertex i and has sign (-1)**i
    return [dict(sorted((index[verts[:i] + verts[i + 1:]], (-1) ** i)
                        for i in range(len(verts))))
            for verts in levels[q]]


def squared_volume(points) -> Fraction:
    """Squared p-volume of the simplex on `points`, whose coordinates are
    ints and Fractions (exact rational)."""
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


def weights_from_coordinates(levels, coords: dict, p: int):
    """Euclidean p-volume of every p-simplex, in basis order."""
    out = []
    for verts in (levels[p] if 0 <= p < len(levels) else []):
        try:
            pts = [coords[v] for v in verts]
        except KeyError as exc:
            raise InputError(f"missing coordinates for vertex {exc.args[0]}") from None
        if len(pts[0]) < p:
            raise InputError(f"ambient dimension {len(pts[0])} below simplex "
                             f"dimension {p}")
        out.append(rational_sqrt(squared_volume(pts)))
    return out
