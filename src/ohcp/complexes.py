"""Finite simplicial complexes, chains, and boundary matrices.

Conventions that keep everything reproducible:
  * the canonical orientation of a simplex is the ascending vertex order;
    any other input ordering only contributes the sign of the permutation;
  * for each dimension q, the elementary chain basis is the list of
    canonical q-simplices sorted lexicographically on their vertex tuple.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .matrices import permutation_sign


class InputError(ValueError):
    """Invalid user-supplied data (bad simplex, bad file, bad chain)."""


class NotPseudomanifold(ValueError):
    """Some (q-1)-simplex is a face of three or more q-simplices."""


@dataclass(frozen=True)
class Simplex:
    """An oriented simplex; stored canonically with the orientation sign."""

    vertices: tuple  # ascending
    sign: int = 1    # orientation relative to the canonical (ascending) order

    @classmethod
    def from_vertices(cls, vertices) -> "Simplex":
        verts = tuple(int(v) for v in vertices)
        if any(v < 0 for v in verts):
            raise InputError(f"negative vertex id in {verts}")
        if len(set(verts)) != len(verts):
            raise InputError(f"duplicate vertices in simplex {verts}")
        order = sorted(range(len(verts)), key=verts.__getitem__)
        return cls(tuple(verts[i] for i in order), permutation_sign(order))

    def faces(self):
        """The (dim-1)-faces with the signs from the boundary formula."""
        out = []
        for i in range(len(self.vertices)):
            face = self.vertices[:i] + self.vertices[i + 1:]
            out.append((face, (-1) ** i))
        return out


class SimplicialComplex:
    """Face-closed complex with deterministic per-dimension bases."""

    def __init__(self, simplices_by_dim):
        # simplices_by_dim: list over q of sorted lists of vertex tuples
        self.simplices_by_dim = [list(level) for level in simplices_by_dim]
        self.index = [
            {s: i for i, s in enumerate(level)} for level in self.simplices_by_dim
        ]
        self._boundary = {}     # q -> boundary_columns(q)

    @property
    def dim(self) -> int:
        return len(self.simplices_by_dim) - 1

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
            raise InputError(f"dimension {q} out of range 1..{self.dim}")
        cols = self._boundary.get(q)
        if cols is None:
            cols = [dict(sorted((self.index_of(q - 1, face), sign)
                                for face, sign in Simplex(verts).faces()))
                    for verts in self.simplices_by_dim[q]]
            self._boundary[q] = cols
        return cols

    def __repr__(self):
        counts = ", ".join(str(len(s)) for s in self.simplices_by_dim)
        return f"SimplicialComplex(dim={self.dim}, counts=[{counts}])"


def build_closure(maximal) -> SimplicialComplex:
    """Close a set of simplices under taking faces.

    `maximal` is an iterable of vertex sequences. The empty input yields
    the empty complex of dimension -1.
    """
    levels: dict[int, set] = {}
    stack = []
    for verts in maximal:
        s = Simplex.from_vertices(verts)
        stack.append(s.vertices)
    seen = set()
    while stack:
        verts = stack.pop()
        if verts in seen:
            continue
        seen.add(verts)
        q = len(verts) - 1
        levels.setdefault(q, set()).add(verts)
        if q > 0:
            for i in range(len(verts)):
                stack.append(verts[:i] + verts[i + 1:])
    if not levels:
        return SimplicialComplex([])
    top = max(levels)
    return SimplicialComplex([sorted(levels.get(q, set())) for q in range(top + 1)])


@dataclass
class Chain:
    """Sparse integer p-chain over the elementary chain basis."""

    dim: int
    coeffs: dict = field(default_factory=dict)  # basis index -> nonzero int

    def __post_init__(self):
        self.coeffs = {i: int(c) for i, c in self.coeffs.items() if c != 0}

    @classmethod
    def from_vector(cls, dim, vec) -> "Chain":
        return cls(dim, {i: c for i, c in enumerate(vec) if c != 0})

    def to_vector(self, length):
        v = [0] * length
        for i, c in self.coeffs.items():
            if not 0 <= i < length:
                raise InputError(f"chain index {i} out of range 0..{length - 1}")
            v[i] = c
        return v


def boundary_matrix(K: SimplicialComplex, q: int):
    """Dense rows of the boundary operator from q-chains to (q-1)-chains.

    Column j holds the coefficients of the boundary of the j-th canonical
    q-simplex in the (q-1) basis: a dense copy of K.boundary_columns(q),
    for `ohcp boundary` and the brute-force oracle.
    """
    cols = K.boundary_columns(q)
    data = [[0] * len(cols) for _ in range(K.count(q - 1))]
    for j, col in enumerate(cols):
        for i, sign in col.items():
            data[i][j] = sign
    return data


def boundary_submatrix(K: SimplicialComplex, q: int, rows, cols):
    """Sparse rows of the q-boundary cut to `rows` x `cols`, in that order;
    column b of the result is the simplex cols[b]."""
    B = K.boundary_columns(q)
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
    return boundary_submatrix(K, p + 1, kept, cols), kept, cols


def coface_map(K: SimplicialComplex, q: int):
    """The signed rows of the q-boundary: for each (q-1)-simplex index, the
    dict {q-simplex index: +-1} of its cofaces, ascending. These are the
    columns of the transposed boundary matrix."""
    rows = [{} for _ in range(K.count(q - 1))]
    for j, col in enumerate(K.boundary_columns(q)):
        for i, sign in col.items():
            rows[i][j] = sign
    return rows


def parity_coloring(rows, n):
    """Signs s of the columns 0..n-1 such that s_j a + s_k b = 0 for every
    sparse row {j: a, k: b} with two +-1 entries, or None if none exist.

    Each row forces s_k = -a b s_j, a parity constraint; the smallest column
    of each connected component is anchored at +1. Rows with one nonzero
    constrain nothing; rows with more than two must not occur.
    """
    adj = [[] for _ in range(n)]
    for row in rows:
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


def orient_consistently(K: SimplicialComplex, q: int):
    """Signs making every interior (q-1)-face cancel, or None if non-orientable.

    Requires every (q-1)-simplex to be a face of at most two q-simplices;
    otherwise NotPseudomanifold is raised.
    """
    rows = coface_map(K, q)
    for i, row in enumerate(rows):
        if len(row) > 2:
            raise NotPseudomanifold(
                f"{q - 1}-simplex {K.simplices(q - 1)[i]} has {len(row)} cofaces")
    return parity_coloring(rows, K.count(q))
