"""Smith normal form over Z, torsion detection, and torsion witnesses, on
matrices given as sparse rows over columns 0..n-1 (see ohcp.matrices)."""
from __future__ import annotations

from dataclasses import dataclass

from .complexes import (InputError, SimplicialComplex, boundary_submatrix,
                        relative_boundary_matrix)
from .matrices import det_int, smith_diagonal


@dataclass
class SNFResult:
    diagonal: list          # d_1..d_l, each >= 1, d_i | d_{i+1}
    rank: int


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


def smith_normal_form(rows, n) -> SNFResult:
    """Smith normal form diagonal and rank of the matrix with the sparse rows
    `rows` (consumed) over columns 0..n-1 (see matrices.smith_diagonal)."""
    diagonal = smith_diagonal(rows, n)
    return SNFResult(diagonal=diagonal, rank=len(diagonal))


def torsion_coefficients(r: SNFResult):
    return [d for d in r.diagonal if d > 1]


def homology_summary(K: SimplicialComplex, p: int):
    """(betti_p, torsion coefficients of H_p(K)). The cached columns of the
    q-boundary are the rows of its transpose, which has the same invariant
    factors; their Smith normal form consumes copies of them."""
    if not 0 <= p <= K.dim:
        raise InputError(f"dimension {p} out of range 0..{K.dim}")
    rank_dp, up = 0, []
    if p >= 1:
        rank_dp = smith_normal_form([dict(c) for c in K.boundary_columns(p)],
                                    K.count(p - 1)).rank
    if p < K.dim:
        up = smith_normal_form([dict(c) for c in K.boundary_columns(p + 1)],
                               K.count(p)).diagonal
    torsion = [d for d in up if d > 1]
    return K.count(p) - rank_dp - len(up), torsion


def torsion_witness_from_submatrix(K: SimplicialComplex, p: int, rows, cols) -> TorsionWitness:
    """Turn a submatrix of the (p+1)-boundary matrix with |det| > 1 into an
    (L, L0) pair whose relative homology has torsion.

    L is spanned by the (p+1)-simplices of `cols`; L0 consists of the
    p-faces of L that are not in `rows`.
    """
    rows, cols = sorted(rows), sorted(cols)
    S = boundary_submatrix(K, p + 1, rows, cols)
    if len(S) != len(cols):
        raise ValueError("witness submatrix must be square")
    d = det_int(S, len(cols))
    if abs(d) <= 1:
        raise ValueError(f"submatrix determinant {d} certifies nothing")
    # rows of the column-restricted matrix that are nonzero but excluded
    B = K.boundary_columns(p + 1)
    L0 = sorted({i for j in cols for i in B[j]}.difference(rows))
    rel, _, _ = relative_boundary_matrix(K, p, cols, L0)
    tors = torsion_coefficients(smith_normal_form(rel, len(cols)))
    if not tors:
        raise AssertionError("relative boundary matrix unexpectedly torsion-free")
    return TorsionWitness(p=p, L_cols=cols, L0_rows=L0,
                          torsion_coefficient=max(tors))
