"""Finite simplicial complexes and their boundary matrices.

Conventions that keep everything reproducible:
  * the canonical orientation of a simplex is the ascending vertex order;
    any other input ordering only contributes the sign of the permutation;
  * for each dimension q, the elementary chain basis is the list of
    canonical q-simplices sorted lexicographically on their vertex tuple,
    and a q-chain is its integer coefficient vector over that basis.
"""
from __future__ import annotations

import itertools

from .matrices import permutation_sign


class InputError(ValueError):
    """Invalid user-supplied data (bad simplex, bad file, bad chain)."""


def ascending(vertices):
    """The ascending tuple of the vertex ids `vertices`, which must be
    non-negative and distinct; an error names them in input order."""
    verts = tuple(map(int, vertices))
    ordered = tuple(sorted(verts))
    if ordered and ordered[0] < 0:
        raise InputError(f"negative vertex id in {verts}")
    if len(set(verts)) != len(verts):
        raise InputError(f"duplicate vertices in simplex {verts}")
    return ordered


def canonical(vertices):
    """(ascending vertex tuple, sign of the permutation sorting `vertices`):
    the canonical simplex and the input ordering's orientation relative to
    it."""
    verts = tuple(map(int, vertices))
    order = sorted(range(len(verts)), key=verts.__getitem__)
    return ascending(verts), permutation_sign(order)


class SimplicialComplex:
    """Face-closed complex with deterministic per-dimension bases."""

    def __init__(self, simplices_by_dim, dim=None):
        # simplices_by_dim: list over q of sorted lists of vertex tuples, the
        # levels 0..top built; dim, the true dimension, may exceed top, and
        # reading a level above top raises IndexError
        self.simplices_by_dim = [list(level) for level in simplices_by_dim]
        self.dim = len(self.simplices_by_dim) - 1 if dim is None else dim
        self.index = [
            {s: i for i, s in enumerate(level)} for level in self.simplices_by_dim
        ]
        self._boundary = {}     # q -> boundary_columns(q)

    def simplices(self, q):
        if q < 0 or q > self.dim:
            return []
        return self.simplices_by_dim[q]

    def count(self, q) -> int:
        return len(self.simplices(q))

    def index_of(self, q, vertices) -> int:
        try:
            return self.index[q][tuple(vertices)]
        except (KeyError, IndexError):
            raise InputError(f"simplex {tuple(vertices)} not in complex") from None

    def boundary_columns(self, q):
        """The boundary from q-chains to (q-1)-chains as sparse columns,
        built once per q and shared: column j is {row: +-1} for the j-th
        q-simplex, rows ascending. Callers must not modify it."""
        if not 1 <= q <= self.dim:
            if self.dim < 1:
                raise InputError("complex has no 1-simplices")
            raise InputError(f"dimension {q} out of range 1..{self.dim}")
        cols = self._boundary.get(q)
        if cols is None:
            # face i of a simplex drops vertex i and has sign (-1)**i; the
            # faces for i = q, ..., 0 ascend, and so do their rows
            rows = self.index[q - 1]
            signs = [(i, (-1) ** i) for i in range(q, -1, -1)]
            cols = [{rows[verts[:i] + verts[i + 1:]]: s for i, s in signs}
                    for verts in self.simplices_by_dim[q]]
            self._boundary[q] = cols
        return cols

    def __repr__(self):
        counts = ", ".join(str(len(s)) for s in self.simplices_by_dim)
        return f"SimplicialComplex(dim={self.dim}, counts=[{counts}])"


def build_closure(maximal, top=None) -> SimplicialComplex:
    """Close a set of simplices under taking faces.

    `maximal` is an iterable of vertex sequences; each adds every one of
    its faces. Only the levels up to `top` (all when None) are built, and
    `dim` stays the true dimension. The empty input yields the empty
    complex of dimension -1.
    """
    simplices = [ascending(verts) for verts in maximal]
    dim = max(map(len, simplices), default=0) - 1
    top = dim if top is None else min(top, dim)
    return SimplicialComplex([
        sorted(set(itertools.chain.from_iterable(
            itertools.combinations(s, q + 1) for s in simplices)))
        for q in range(top + 1)], dim)


def boundary_matrix(K: SimplicialComplex, q: int):
    """Dense rows of the boundary operator from q-chains to (q-1)-chains.

    Column j holds the coefficients of the boundary of the j-th canonical
    q-simplex in the (q-1) basis: a dense copy of K.boundary_columns(q),
    for `ohcp boundary`.
    """
    cols = K.boundary_columns(q)
    data = [[0] * len(cols) for _ in range(K.count(q - 1))]
    for j, col in enumerate(cols):
        for i, sign in col.items():
            data[i][j] = sign
    return data


def boundary_submatrix(B, rows, cols):
    """Sparse rows of the matrix with the sparse columns `B` cut to `rows` x
    `cols`, in that order; column b of the result is column cols[b]."""
    at = {i: a for a, i in enumerate(rows)}
    out = [{} for _ in at]
    for b, j in enumerate(cols):
        for i, sign in B[j].items():
            if i in at:
                out[at[i]][b] = sign
    return out


def relative_boundary_matrix(K: SimplicialComplex, p: int, L_cols, L0_rows):
    """Relative boundary matrix of the pair (L, L0) inside K.

    L is given by (p+1)-simplex column indices, L0 by p-simplex row indices.
    Rows in L0 and rows that are zero on the chosen columns are dropped.
    Returns (sparse rows, kept_row_indices, col_indices); the rows are over
    columns 0..len(col_indices)-1.
    """
    B = K.boundary_columns(p + 1)
    cols = sorted(set(L_cols))
    rows0 = set(L0_rows)
    for j in cols:
        if not 0 <= j < len(B):
            raise InputError(f"column index {j} out of range")
    for i in rows0:
        if not 0 <= i < K.count(p):
            raise InputError(f"row index {i} out of range")
    kept = sorted({i for j in cols for i in B[j]} - rows0)
    return boundary_submatrix(B, kept, cols), kept, cols


def coface_map(K: SimplicialComplex, q: int):
    """The signed rows of the q-boundary: for each (q-1)-simplex index, the
    dict {q-simplex index: +-1} of its cofaces, ascending. These are the
    columns of the transposed boundary matrix."""
    rows = [{} for _ in range(K.count(q - 1))]
    for j, col in enumerate(K.boundary_columns(q)):
        for i, sign in col.items():
            rows[i][j] = sign
    return rows


def orient_consistently(rows, n):
    """Signs s of the columns 0..n-1 such that s_j a + s_k b = 0 for every
    sparse row {j: a, k: b} with two +-1 entries, or None if none exist or
    a row has more than two nonzeros. On the rows of coface_map(K, q) they
    orient the q-simplices so that every interior (q-1)-face cancels, which
    is possible exactly on an orientable pseudomanifold.

    Each row forces s_k = -a b s_j, a parity constraint; the smallest column
    of each connected component is anchored at +1. Rows with one nonzero
    constrain nothing.
    """
    adj = [[] for _ in range(n)]
    for row in rows:
        if len(row) > 2:
            return None
        if len(row) == 2:
            (j, a), (k, b) = row.items()
            adj[j].append((k, -a * b))
            adj[k].append((j, -a * b))
    signs = [0] * n
    for start in range(n):
        if signs[start]:
            continue
        signs[start] = 1
        stack = [start]
        while stack:
            j = stack.pop()
            for k, rel in adj[j]:
                want = rel * signs[j]
                if not signs[k]:
                    signs[k] = want
                    stack.append(k)
                elif signs[k] != want:
                    return None
    return signs
