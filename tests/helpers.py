"""Test-only helpers: dense integer matrix products, the boundary of a
chain, and a complex written as .scx text for the command-line tests."""
from ohcp.complexes import Chain, SimplicialComplex
from ohcp.matrices import IntMatrix


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
