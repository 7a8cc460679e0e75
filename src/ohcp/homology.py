"""Integral homology and torsion witnesses, read off the Smith normal form
diagonal (ohcp.matrices.smith_normal_form) of boundary matrices; the
1-boundary's diagonal is read off its graph's components instead."""
from __future__ import annotations

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


def _smith_diagonal(K: SimplicialComplex, q: int):
    """The Smith diagonal of the q-boundary of K.

    The 1-boundary is the incidence matrix of a directed graph, which is
    totally unimodular, so its diagonal is all ones and its rank is
    #vertices - #components: the number of edges that join two components,
    counted by union-find over the edges' vertex rows. Every other q goes
    to the elimination kernel. The cached columns of the q-boundary are the
    rows of its transpose, which has the same invariant factors; the kernel
    consumes copies of them.
    """
    if q != 1:
        return smith_normal_form([dict(c) for c in K.boundary_columns(q)])
    parent = list(range(K.count(0)))
    rank = 0
    for a, b in K.boundary_columns(1):
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


def torsion_witness_from_submatrix(K: SimplicialComplex, p: int, rows, cols) -> TorsionWitness:
    """Turn a submatrix of the (p+1)-boundary matrix with |det| > 1 into an
    (L, L0) pair whose relative homology has torsion.

    L is spanned by the (p+1)-simplices of `cols`; L0 consists of the
    p-faces of L that are not in `rows`. The relative boundary matrix of
    the pair is then the submatrix itself, and |det| is the product of its
    invariant factors, so one Smith normal form checks both.
    """
    B = K.boundary_columns(p + 1)
    L0 = sorted({i for j in cols for i in B[j]}.difference(rows))
    S, kept, cols = relative_boundary_matrix(K, p, cols, L0)
    if kept != sorted(rows) or len(kept) != len(cols):
        raise ValueError("witness submatrix must be square, with no zero row")
    diagonal = smith_normal_form(S)
    tors = [d for d in diagonal if d > 1]
    if len(diagonal) != len(cols) or not tors:
        raise ValueError(f"witness submatrix with invariant factors "
                         f"{diagonal} certifies nothing")
    return TorsionWitness(p=p, L_cols=cols, L0_rows=L0,
                          torsion_coefficient=max(tors))
