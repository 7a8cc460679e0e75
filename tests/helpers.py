"""Test-only helpers: a dense integer matrix to build cases with, its
products, determinant and Smith normal form, the boundary of a chain, and a
complex written as .scx text for the command-line tests."""
from ohcp.complexes import Chain, SimplicialComplex
from ohcp.homology import smith_normal_form
from ohcp.matrices import det_int


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
    return smith_normal_form(M.sparse_rows(), M.n)


def identity(k):
    return IntMatrix([[1 if i == j else 0 for j in range(k)] for i in range(k)])


def matmul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    return IntMatrix([[sum(a * B.data[t][j] for t, a in enumerate(row))
                       for j in range(B.n)] for row in A.data])


def matvec(A: IntMatrix, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A.data]


def chain_boundary(K: SimplicialComplex, c: Chain):
    """Dense coefficient vector of the boundary of the q-chain c, summed
    from the sparse columns K.boundary_columns(q)."""
    out = [0] * K.count(c.dim - 1)
    cols = K.boundary_columns(c.dim)
    for j, coeff in c.coeffs.items():
        for i, sign in cols[j].items():
            out[i] += coeff * sign
    return out


def write_complex(K: SimplicialComplex) -> str:
    # every simplex of top dimension plus lower-dimensional maximal ones
    lines = []
    for q in range(K.dim, -1, -1):
        for verts in K.simplices(q):
            if q == K.dim or not any(set(verts) < set(s)
                                     for qq in range(q + 1, K.dim + 1)
                                     for s in K.simplices(qq)):
                lines.append(" ".join(map(str, verts)))
    return "\n".join(lines) + "\n"
