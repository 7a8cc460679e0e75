"""Test-only helpers: a dense integer matrix to build cases with, its
products, determinant and Smith normal form, the boundary of a chain, grid
Klein bottles, tori and Moebius strips, the Kuhn 3-torus, suspensions, a
complex written as .scx text for the command-line tests, and two reference
boundary matrices."""
import itertools

from ohcp.complexes import SimplicialComplex, build_closure
from ohcp.matrices import det_int, smith_normal_form


class IntMatrix:
    """An m x n matrix of Python ints, immutable by convention."""

    __slots__ = ("m", "n", "data")

    def __init__(self, data):
        self.data = [list(map(int, row)) for row in data]
        self.m = len(self.data)
        self.n = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.n:
                raise ValueError("ragged rows")

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.data == other.data

    def __repr__(self):
        return f"IntMatrix({self.m}x{self.n})"

    def transpose(self):
        return IntMatrix([[self.data[i][j] for i in range(self.m)]
                          for j in range(self.n)])

    def submatrix(self, rows, cols):
        return IntMatrix([[self.data[i][j] for j in cols] for i in rows])

    def scaled(self, row_signs=None, col_signs=None):
        """Copy with rows/columns multiplied by +-1 (reorientation)."""
        rs = row_signs if row_signs is not None else [1] * self.m
        cs = col_signs if col_signs is not None else [1] * self.n
        return IntMatrix([[rs[i] * cs[j] * self.data[i][j]
                           for j in range(self.n)] for i in range(self.m)])

    def sparse_rows(self):
        """Each row as {column: nonzero entry}."""
        return [{j: v for j, v in enumerate(row) if v} for row in self.data]

    def to_text(self):
        lines = [f"{self.m} {self.n}"]
        for row in self.data:
            lines.append(" ".join(str(e) for e in row))
        return "\n".join(lines) + "\n"


def det(M: IntMatrix) -> int:
    return det_int(M.sparse_rows(), M.n)


def snf(M: IntMatrix):
    return smith_normal_form(M.sparse_rows())


def identity(k):
    return IntMatrix([[1 if i == j else 0 for j in range(k)] for i in range(k)])


def matmul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    return IntMatrix([[sum(a * B.data[t][j] for t, a in enumerate(row))
                       for j in range(B.n)] for row in A.data])


def matvec(A: IntMatrix, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A.data]


def chain_boundary(K: SimplicialComplex, q, x):
    """Coefficient vector of the boundary of the q-chain vector x, summed
    from the sparse columns K.boundary_columns(q)."""
    out = [0] * K.count(q - 1)
    for coeff, col in zip(x, K.boundary_columns(q)):
        for i, sign in col.items():
            out[i] += coeff * sign
    return out


def klein_grid(a, b, flip=frozenset(), label=None):
    """a x b grid Klein bottle: the seam j = b is glued to j = 0 with the
    reflection i -> -i. Square (i, j) is cut along its other diagonal when
    it is in `flip`, and vertex v is named label[v] when `label` is given."""
    def vid(i, j):
        if j >= b:
            i, j = -i, j - b
        v = (i % a) + a * j
        return v if label is None else label[v]
    tris = []
    for i in range(a):
        for j in range(b):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            if (i, j) in flip:
                tris += [[v00, v10, v01], [v10, v11, v01]]
            else:
                tris += [[v00, v10, v11], [v00, v11, v01]]
    return build_closure(tris)


def torus_grid(a, b):
    """a x b grid torus: both seams glued straight, each square cut along
    its (i, j)-(i+1, j+1) diagonal."""
    def vid(i, j):
        return i % a + a * (j % b)
    return build_closure(
        tri for i in range(a) for j in range(b)
        for tri in ([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)],
                    [vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)]))


def mobius_grid(a, b):
    """a x b grid Moebius strip: rows i = 0..a, and the seam j = b glued to
    j = 0 with the reflection i -> a - i; each square is cut along its
    (i, j)-(i+1, j+1) diagonal. It needs b >= 3."""
    def vid(i, j):
        if j >= b:
            i, j = a - i, j - b
        return i + (a + 1) * j
    return build_closure(
        tri for i in range(a) for j in range(b)
        for tri in ([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)],
                    [vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)]))


def kuhn_torus3(k):
    """The k^3 Kuhn (Freudenthal) triangulation of the 3-torus, k >= 3:
    each unit cube is cut into 6 tetrahedra along its main diagonal, one
    per order of the three unit steps from its corner to the opposite one,
    and the grid is glued periodically. It has 6k^3 tetrahedra and 12k^3
    triangles."""
    steps = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def vid(x, y, z):
        return x % k + k * (y % k) + k * k * (z % k)
    tets = []
    for corner in itertools.product(range(k), repeat=3):
        for order in itertools.permutations(steps):
            v = list(corner)
            tet = [vid(*v)]
            for step in order:
                v = [a + b for a, b in zip(v, step)]
                tet.append(vid(*v))
            tets.append(tet)
    return build_closure(tets)


def suspension(K: SimplicialComplex):
    """The suspension of K: each top simplex coned from two new vertices."""
    apex = K.count(0)
    return build_closure(s + (v,) for s in K.simplices(K.dim)
                         for v in (apex, apex + 1))


def write_complex(K: SimplicialComplex) -> str:
    """The maximal simplices of K as .scx text, top dimension first: a
    q-simplex is maximal iff it is no face of a (q+1)-simplex."""
    lines = []
    faces = set()           # the codimension-1 faces of the level above
    for q in range(K.dim, -1, -1):
        level = K.simplices(q)
        lines += [" ".join(map(str, v)) for v in level if v not in faces]
        faces = {v[:i] + v[i + 1:] for v in level for i in range(len(v))}
    return "\n".join(lines) + "\n"


# Reference boundary matrices of a Moebius strip and a projective plane
# triangulation, in a fixed edge/triangle numbering that differs from the
# lexicographic basis of ohcp.complexes. Determinant, SNF, and TU tests pin their values
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
