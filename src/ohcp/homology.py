"""Smith normal form over Z, torsion detection, and torsion witnesses."""
from __future__ import annotations

from dataclasses import dataclass

from .complexes import (InputError, SimplicialComplex, boundary_submatrix,
                        relative_boundary_matrix)
from .matrices import IntMatrix, det_int, smith_diagonal


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
    diagonal = smith_diagonal(M.sparse_rows(), M.n)
    return SNFResult(diagonal=diagonal, rank=len(diagonal))


def torsion_coefficients(r: SNFResult):
    return [d for d in r.diagonal if d > 1]


def _boundary_diagonal(K: SimplicialComplex, q: int) -> list:
    """Invariant factors of the q-boundary. Its cached columns are the rows
    of its transpose, which has the same invariant factors."""
    return smith_diagonal([dict(col) for col in K.boundary_columns(q)],
                          K.count(q - 1))


def homology_summary(K: SimplicialComplex, p: int):
    """(betti_p, torsion coefficients of H_p(K))."""
    if not 0 <= p <= K.dim:
        raise InputError(f"dimension {p} out of range 0..{K.dim}")
    rank_dp = len(_boundary_diagonal(K, p)) if p >= 1 else 0
    up = _boundary_diagonal(K, p + 1) if p < K.dim else []
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
