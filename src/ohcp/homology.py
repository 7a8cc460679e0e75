"""Smith normal form over Z, torsion detection, and torsion witnesses."""
from __future__ import annotations

from dataclasses import dataclass

from .complexes import (SimplicialComplex, boundary_matrix, boundary_submatrix,
                        relative_boundary_matrix)
from .matrices import IntMatrix, det_int, rank_int, smith_diagonal


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


def smith_normal_form(M: IntMatrix) -> SNFResult:
    """Smith normal form diagonal and rank of M (see matrices.smith_diagonal)."""
    diagonal = smith_diagonal(M)
    return SNFResult(diagonal=diagonal, rank=len(diagonal))


def has_torsion(r: SNFResult) -> bool:
    return any(d > 1 for d in r.diagonal)


def torsion_coefficients(r: SNFResult):
    return [d for d in r.diagonal if d > 1]


def homology_summary(K: SimplicialComplex, p: int):
    """(betti_p, torsion coefficients of H_p(K))."""
    if not 0 <= p <= K.dim:
        raise ValueError(f"dimension {p} out of range 0..{K.dim}")
    m = K.count(p)
    rank_dp = rank_int(boundary_matrix(K, p)) if p >= 1 else 0
    if p + 1 <= K.dim:
        snf_up = smith_normal_form(boundary_matrix(K, p + 1))
        rank_up = snf_up.rank
        torsion = torsion_coefficients(snf_up)
    else:
        rank_up = 0
        torsion = []
    return m - rank_dp - rank_up, torsion


def torsion_witness_from_submatrix(K: SimplicialComplex, p: int, rows, cols) -> TorsionWitness:
    """Turn a submatrix of the (p+1)-boundary matrix with |det| > 1 into an
    (L, L0) pair whose relative homology has torsion.

    L is spanned by the (p+1)-simplices of `cols`; L0 consists of the
    p-faces of L that are not in `rows`.
    """
    rows, cols = sorted(rows), sorted(cols)
    S = boundary_submatrix(K, p + 1, rows, cols)
    if S.m != S.n:
        raise ValueError("witness submatrix must be square")
    d = det_int(S)
    if abs(d) <= 1:
        raise ValueError(f"submatrix determinant {d} certifies nothing")
    # rows of the column-restricted matrix that are nonzero but excluded
    B = K.boundary_columns(p + 1)
    L0 = sorted({i for j in cols for i in B[j]}.difference(rows))
    rel, kept, _ = relative_boundary_matrix(K, p, cols, L0)
    snf = smith_normal_form(rel)
    tors = torsion_coefficients(snf)
    if not tors:
        raise AssertionError("relative boundary matrix unexpectedly torsion-free")
    return TorsionWitness(p=p, L_cols=cols, L0_rows=L0,
                          torsion_coefficient=max(tors))
