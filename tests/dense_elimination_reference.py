"""Frozen copy of the dense exact elimination the package shipped with.

`smith_normal_form` (with its unimodular transforms), `det_int` and
`rank_int` are kept verbatim as the reference the sparse unit-pivot kernel
in `ohcp.matrices` is tested against (tests/test_elimination_reference.py).
Do not optimise or "fix" this file: its value is that it does not change.
"""
from __future__ import annotations

from dataclasses import dataclass

from ohcp.matrices import IntMatrix


@dataclass
class SNFResult:
    diagonal: list          # d_1..d_l, each >= 1, d_i | d_{i+1}
    rank: int
    U: IntMatrix | None = None  # unimodular, U M V = diag
    V: IntMatrix | None = None


def _pivot(a, t, m, n):
    """Position of a nonzero entry of smallest magnitude in a[t:, t:]."""
    best = None
    for i in range(t, m):
        for j in range(t, n):
            v = abs(a[i][j])
            if v and (best is None or v < best[0]):
                best = (v, i, j)
                if v == 1:
                    return i, j
    return None if best is None else (best[1], best[2])


def smith_normal_form(M: IntMatrix, want_transforms: bool = False) -> SNFResult:
    """Diagonalize M by unimodular row/column operations.

    Pivots are chosen with smallest magnitude first to limit coefficient
    growth; Python ints make any pivot order correct.
    """
    m, n = M.m, M.n
    a = [row[:] for row in M.data]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if want_transforms else None
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if want_transforms else None

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if U is not None:
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        if V is not None:
            for row in V:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, f):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        if U is not None:
            U[dst] = [x + f * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, f):
        for row in a:
            row[dst] += f * row[src]
        if V is not None:
            for row in V:
                row[dst] += f * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if U is not None:
            U[i] = [-x for x in U[i]]

    t = 0
    while t < min(m, n):
        pos = _pivot(a, t, m, n)
        if pos is None:
            break
        pi, pj = pos
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        d = a[t][t]
        # if the pivot does not divide its row/column, reduce one offender
        # and restart; the remainder left behind is a strictly smaller
        # candidate pivot, so these restarts terminate
        restart = False
        for i in range(t + 1, m):
            if a[i][t] % d != 0:
                add_row(i, t, -(a[i][t] // d))
                restart = True
                break
        if restart:
            continue
        for j in range(t + 1, n):
            if a[t][j] % d != 0:
                add_col(j, t, -(a[t][j] // d))
                restart = True
                break
        if restart:
            continue
        # exact clearing (all quotients divide evenly now)
        for i in range(t + 1, m):
            if a[i][t] != 0:
                add_row(i, t, -(a[i][t] // d))
        for j in range(t + 1, n):
            if a[t][j] != 0:
                add_col(j, t, -(a[t][j] // d))
        # divisibility: pull any non-divisible trailing entry into row t,
        # which the restart branch then shrinks the pivot against
        fixed = False
        for i in range(t + 1, m):
            if fixed:
                break
            for j in range(t + 1, n):
                if a[i][j] % d != 0:
                    add_row(t, i, 1)
                    fixed = True
                    break
        if fixed:
            continue
        if d < 0:
            negate_row(t)
        t += 1

    diagonal = [a[i][i] for i in range(t)]
    res = SNFResult(diagonal=diagonal, rank=t)
    if want_transforms:
        res.U = IntMatrix(U)
        res.V = IntMatrix(V)
    return res


def det_int(M: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    if M.m != M.n:
        raise ValueError("determinant of non-square matrix")
    k = M.m
    if k == 0:
        return 1
    a = [row[:] for row in M.data]
    sign = 1
    prev = 1
    for t in range(k - 1):
        if a[t][t] == 0:
            for r in range(t + 1, k):
                if a[r][t] != 0:
                    a[t], a[r] = a[r], a[t]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(t + 1, k):
            for j in range(t + 1, k):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return sign * a[k - 1][k - 1]


def rank_int(M: IntMatrix) -> int:
    """Rank over the rationals via fraction-free elimination."""
    a = [row[:] for row in M.data]
    m, n = M.m, M.n
    rank = 0
    row = 0
    for col in range(n):
        piv = None
        for r in range(row, m):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        for r in range(row + 1, m):
            if a[r][col] != 0:
                f = a[r][col]
                g = a[row][col]
                a[r] = [g * a[r][j] - f * a[row][j] for j in range(n)]
        row += 1
        rank += 1
        if row == m:
            break
    return rank
