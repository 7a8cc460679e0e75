"""Named desk-scale complexes used by the tests, the scripts, and the docs."""
from __future__ import annotations

from .complexes import SimplicialComplex, build_closure


def triangle() -> SimplicialComplex:
    return build_closure([[0, 1, 2]])


def hollow_triangle() -> SimplicialComplex:
    return build_closure([[0, 1], [1, 2], [0, 2]])


def tetrahedron_surface() -> SimplicialComplex:
    """Boundary of a tetrahedron: the minimal triangulated sphere."""
    return build_closure([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])


def disk_fan(k: int = 6) -> SimplicialComplex:
    """k triangles sharing a hub vertex; a triangulated disk."""
    if k < 1:
        raise ValueError("need at least one triangle")
    hub = 0
    rim = list(range(1, k + 2))
    tris = [[hub, rim[i], rim[i + 1]] for i in range(k)]
    return build_closure(tris)


def cylinder(rings=((0, 1, 2), (3, 4, 5))) -> SimplicialComplex:
    """Band of 6 triangles between two 3-vertex rings (an annulus)."""
    return build_closure(_band(*rings))


def _band(a, b):
    k = len(a)
    tris = []
    for i in range(k):
        j = (i + 1) % k
        tris.append([a[i], a[j], b[i]])
        tris.append([a[j], b[j], b[i]])
    return tris


def mobius_strip() -> SimplicialComplex:
    """Moebius strip with 6 triangles and 12 edges: a strip of three squares
    whose last column is glued back with a flip."""
    return build_closure([[0, 1, 3], [1, 4, 3], [1, 2, 4],
                          [2, 5, 4], [2, 3, 5], [3, 0, 5]])


def projective_plane() -> SimplicialComplex:
    """Minimal 6-vertex triangulation of the projective plane
    (10 triangles, 15 edges)."""
    return build_closure([[0, 1, 3], [0, 1, 4], [0, 2, 3], [0, 2, 5],
                          [0, 4, 5], [1, 2, 4], [1, 2, 5], [1, 3, 5],
                          [2, 3, 4], [3, 4, 5]])


def torus() -> SimplicialComplex:
    """Csaszar-style 7-vertex torus: 14 triangles, 21 edges."""
    tris = []
    for i in range(7):
        tris.append([i, (i + 1) % 7, (i + 3) % 7])
        tris.append([i, (i + 2) % 7, (i + 3) % 7])
    return build_closure(tris)


def hourglass():
    """Weighted cylinder pinched in the middle.

    Two stacked bands over rings A=(0,1,2), M=(3,4,5), B=(6,7,8). Middle
    ring edges have weight 1, everything else weight 10, so the cheapest
    cycle homologous to either boundary ring is the middle ring.

    Returns (complex, weights, c) where c is the sum of both boundary rings
    oriented so that c is homologous to twice the middle ring.
    """
    K = build_closure(_band((0, 1, 2), (3, 4, 5)) + _band((3, 4, 5), (6, 7, 8)))
    edges = K.simplices(1)
    middle = {(3, 4), (4, 5), (3, 5)}
    weights = [1 if e in middle else 10 for e in edges]
    c = ring_cycle(K, (0, 1, 2))
    c2 = ring_cycle(K, (6, 7, 8))
    vec = [a + b for a, b in zip(c, c2)]
    return K, weights, vec


def ring_cycle(K: SimplicialComplex, ring):
    """Coefficient vector of the cycle running around `ring` in order."""
    vec = [0] * K.count(1)
    k = len(ring)
    for i in range(k):
        a, b = ring[i], ring[(i + 1) % k]
        sign = 1 if a < b else -1
        vec[K.index_of(1, tuple(sorted((a, b))))] += sign
    return vec


def seven_tetrahedra() -> SimplicialComplex:
    """Seven tetrahedra on seven vertices whose 3-boundary matrix is not TU
    even though there is no 3-dimensional Moebius subcomplex."""
    return build_closure([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5],
                          [0, 1, 2, 6], [0, 1, 3, 4], [0, 2, 3, 5],
                          [1, 2, 3, 6]])


def two_tetrahedra() -> SimplicialComplex:
    """Two tetrahedra glued along a face; embeds in R^3."""
    return build_closure([[0, 1, 2, 3], [1, 2, 3, 4]])


def solid_octahedron() -> SimplicialComplex:
    """Octahedron split into four tetrahedra around its axis; embeds in R^3."""
    return build_closure([[0, 1, 2, 5], [0, 2, 3, 5], [0, 3, 4, 5],
                          [0, 1, 4, 5]])


# Reference boundary matrices of a Moebius strip and a projective plane
# triangulation, in a fixed edge/triangle numbering that differs from the
# lexicographic basis above. Determinant, SNF, and TU tests pin their values
# against these; in a .mat file each is an "m n" header line, then its rows.

MOEBIUS_B2 = [
    [1, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, -1, 0],
    [-1, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, -1],
    [0, -1, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1],
    [0, 0, -1, 0, 0, 0],
    [0, 0, 0, 1, -1, 0],
    [0, 0, 1, -1, 0, 0],
    [0, 1, -1, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
]

PROJECTIVE_PLANE_B2 = [
    [-1, 0, 0, 0, 0, -1, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, 0, 0, 0, 0, 0],
    [1, -1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, -1, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, -1, 0, 0],
    [0, 0, 0, 0, -1, 0, -1, 0, 0, 0],
    [-1, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, -1, 0],
    [0, 0, 0, 0, 0, -1, 1, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0, 0, -1],
    [0, 0, 1, 0, -1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, -1, 0, 0, 1],
    [0, 0, 0, -1, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 0, -1],
    [0, 0, 0, -1, 0, 0, 0, 1, 0, 0],
]
