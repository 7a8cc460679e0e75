"""Integral homology and torsion witnesses, read off the Smith normal form
diagonal (ohcp.matrices.smith_normal_form) of boundary matrices. Two kinds
of boundary skip the elimination: the 1-boundary's diagonal is read off its
graph's components, and a pseudomanifold's top boundary, where no face has
three cofaces, off the components of its signed dual graph. A witness whose
determinant is known and squarefree needs no elimination either."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .complexes import InputError, SimplicialComplex, relative_boundary_matrix
from .matrices import smith_normal_form


@dataclass
class TorsionWitness:
    """A pair (L, L0) whose relative homology has torsion.

    L_cols are (p+1)-simplex indices, L0_rows are p-simplex indices of the
    ambient complex; the relative boundary matrix of the pair has the stated
    coefficient in its Smith normal form.
    """
    p: int
    L_cols: list
    L0_rows: list
    torsion_coefficient: int


def _signed_graph_diagonal(B, faces):
    """The Smith diagonal of the boundary with the sparse columns `B` over
    `faces` rows, when no row has three nonzeros; None when one has.

    Then the transpose is the incidence matrix of a signed graph on the
    columns (Harary 1953; Zaslavsky 1982): a row {j: s, k: t} is an edge
    forcing o_j s + o_k t = 0 on orientations o, and a row with one nonzero
    is a half-edge. A component C of n columns contributes
      * [1] * n if it holds a half-edge: a spanning tree and the half-edge
        form an n x n minor of determinant +-1;
      * [1] * (n - 1) if it is closed and balanced: switching it makes its
        rows those of a directed graph, which is TU of rank n - 1;
      * [1] * (n - 1) + [2] if it is closed and unbalanced: a spanning tree
        is a minor of determinant +-1 once one column is left out, and each
        n x n minor that is not 0 has a negative cycle in every component,
        so it is +-2 to a power of at least 1.
    One union-find reads the components. It keeps each column's
    orientation parity to its parent and links the smaller tree under the
    larger root, so a path to a root has O(log n) links; a row joining two
    columns of one component whose parities disagree unbalances it.
    """
    n = len(B)
    parent = list(range(n))
    size = [1] * n
    flip = [0] * n              # 1: oriented against the parent
    unbalanced = [False] * n    # read at roots
    first = [None] * faces      # (column, sign) of a row's first nonzero
    shared = [False] * faces    # the row has a second nonzero
    for j, col in enumerate(B):
        for f, s in col.items():
            g = first[f]
            if g is None:
                first[f] = j, s
                continue
            if shared[f]:
                return None
            shared[f] = True
            a, t = g
            b = j
            odd = s == t            # o_j = -s t o_a
            while parent[a] != a:   # odd becomes the parity of root to root
                odd ^= flip[a]
                a = parent[a]
            while parent[b] != b:
                odd ^= flip[b]
                b = parent[b]
            if a == b:
                unbalanced[a] |= odd
                continue
            if size[a] > size[b]:
                a, b = b, a
            parent[a] = b
            size[b] += size[a]
            flip[a] = odd
            unbalanced[b] |= unbalanced[a]
    closed = [True] * n
    for f in range(faces):
        if first[f] is not None and not shared[f]:
            j = first[f][0]
            while parent[j] != j:
                j = parent[j]
            closed[j] = False
    roots = [j for j in range(n) if parent[j] == j and closed[j]]
    return [1] * (n - len(roots)) + [2] * sum(unbalanced[j] for j in roots)


def _smith_diagonal(K: SimplicialComplex, q: int):
    """The Smith diagonal of the q-boundary of K.

    The 1-boundary is the incidence matrix of a directed graph, which is
    totally unimodular, so its diagonal is all ones and its rank is
    #vertices - #components: the number of edges that join two components,
    counted by union-find over the edges' vertex rows. For q >= 2, when no
    (q-1)-face has three q-cofaces, the diagonal is read off the components
    of the signed dual graph (_signed_graph_diagonal). Every other
    q-boundary goes to the elimination kernel. The cached columns of the
    q-boundary are the rows of its transpose, which has the same invariant
    factors; the kernel consumes copies of them.
    """
    B = K.boundary_columns(q)
    if q != 1:
        diagonal = _signed_graph_diagonal(B, K.count(q - 1))
        if diagonal is None:
            return smith_normal_form([dict(c) for c in B])
        return diagonal
    parent = list(range(K.count(0)))
    rank = 0
    for a, b in B:
        while parent[a] != a:   # path halving
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            rank += 1
    return [1] * rank


def homology_summary(K: SimplicialComplex, p: int):
    """(betti_p, torsion coefficients of H_p(K)), read off the Smith
    diagonals of the p- and (p+1)-boundaries."""
    if not 0 <= p <= K.dim:
        if K.dim < 0:
            raise InputError(f"complex has no {p}-simplices")
        raise InputError(f"dimension {p} out of range 0..{K.dim}")
    rank_dp = len(_smith_diagonal(K, p)) if p >= 1 else 0
    up = _smith_diagonal(K, p + 1) if p < K.dim else []
    torsion = [d for d in up if d > 1]
    return K.count(p) - rank_dp - len(up), torsion


def torsion_witness_from_submatrix(K: SimplicialComplex, p: int, rows, cols,
                                   det=None) -> TorsionWitness:
    """Turn a submatrix of the (p+1)-boundary matrix with |det| > 1 into an
    (L, L0) pair whose relative homology has torsion.

    L is spanned by the (p+1)-simplices of `cols`; L0 consists of the
    p-faces of L that are not in `rows`. The relative boundary matrix of
    the pair is then the submatrix itself, and |det| is the product of its
    invariant factors d_1 | ... | d_k, so one Smith normal form checks both.
    A caller that has computed the submatrix's determinant passes it as
    `det`. When |det| > 1 is squarefree the diagonal needs no elimination:
    d_(k-1)^2 divides d_(k-1) d_k, which divides det, so the diagonal is
    [1] * (k - 1) + [|det|]. Every Moebius witness has |det| = 2, and so
    has every witness minor enumeration finds in a boundary matrix: its
    proper submatrices are TU (Camion 1965). Squarefreeness is tested by
    trial division below 2^32 only (at most 2^16 divisors); a larger |det|
    is eliminated.
    """
    B = K.boundary_columns(p + 1)
    L0 = sorted({i for j in cols for i in B[j]}.difference(rows))
    S, kept, cols = relative_boundary_matrix(K, p, cols, L0)
    if kept != sorted(rows) or len(kept) != len(cols):
        raise ValueError("witness submatrix must be square, with no zero row")
    n = abs(det or 0)
    if 1 < n < 1 << 32 and all(n % (f * f)
                               for f in range(2, math.isqrt(n) + 1)):
        diagonal = [1] * (len(cols) - 1) + [n]
    else:
        diagonal = smith_normal_form(S)
    tors = [d for d in diagonal if d > 1]
    if len(diagonal) != len(cols) or not tors:
        raise ValueError(f"witness submatrix with invariant factors "
                         f"{diagonal} certifies nothing")
    return TorsionWitness(p=p, L_cols=cols, L0_rows=L0,
                          torsion_coefficient=max(tors))
