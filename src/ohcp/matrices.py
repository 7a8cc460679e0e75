"""Exact integer matrices and elimination.

Python ints are unbounded, so every determinant, rank and Smith normal form
here is exact. A matrix is passed between layers in one form: its sparse
rows, a list with one dict {column: nonzero int} per row, together with
the column count n (columns 0..n-1). The elimination kernel works on these
rows and first eliminates every +-1 pivot it can, least Markowitz cost
first; only the core left without unit entries goes to dense code (Bareiss
for the determinant, a Smith normal form loop for rank and SNF). Boundary
matrices are almost all unit pivots, so that core is small or empty (Dumas,
Saunders & Villard, "On efficient sparse integer matrix Smith normal form
computations", JSC 2001).
"""
from __future__ import annotations

import heapq
import math


def _eliminate_units(rows, n):
    """Eliminate the +-1 pivots of the sparse rows `rows` ({column: entry},
    columns 0..n-1; rows are modified in place) exactly, least Markowitz
    cost first.

    A pivot v = +-1 at (r, c) subtracts (a_ic * v) * row r from every other
    row i with a_ic != 0; row r and column c then leave the matrix, and the
    rest is the Schur complement. Markowitz cost is (row nonzeros - 1) *
    (column nonzeros - 1), ties broken by the smaller (row, column).

    Returns (pivots, rows): the (row, column, v) pivots in elimination
    order, and rows[i] the sparse Schur complement row {col: entry} of each
    row never pivoted on (None for pivot rows). The rest has no +-1 entry.
    """
    cols = [set() for _ in range(n)]        # rows holding each column
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)

    def push(i, j):
        heapq.heappush(heap, ((len(rows[i]) - 1) * (len(cols[j]) - 1), i, j))

    # A lazy heap: every live unit entry has an item with its current cost
    # (items are pushed again whenever a row or column count changes), and
    # an item whose entry is gone or whose cost is stale is skipped.
    heap = []
    for i, row in enumerate(rows):
        for j, x in row.items():
            if x == 1 or x == -1:
                push(i, j)
    pivots = []
    while heap:
        cost, r, c = heapq.heappop(heap)
        row = rows[r]
        if row is None:
            continue
        v = row.get(c)
        if (v != 1 and v != -1) or \
                cost != (len(row) - 1) * (len(cols[c]) - 1):
            continue
        pivots.append((r, c, v))
        rows[r] = None
        below, cols[c] = cols[c], set()
        below.discard(r)
        for j in row:
            cols[j].discard(r)
        for i in below:
            other = rows[i]
            f = other.pop(c) * v
            for j, x in row.items():
                if j == c:
                    continue
                y = other.get(j, 0) - f * x
                if y:
                    if j not in other:
                        cols[j].add(i)
                    other[j] = y
                else:
                    del other[j]
                    cols[j].discard(i)
        for i in below:
            for j, x in rows[i].items():
                if x == 1 or x == -1:
                    push(i, j)
        for j in row:
            for i in cols[j]:
                if i not in below and rows[i][j] in (1, -1):
                    push(i, j)
    return pivots, rows


def permutation_sign(perm) -> int:
    """Sign of a permutation of range(len(perm)), from its cycles."""
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def det_bareiss(a) -> int:
    """Determinant of the square list-of-rows matrix `a` (overwritten) by
    fraction-free Bareiss elimination: the dense determinant, for the core
    and for matrices with few zeros such as Cayley-Menger matrices."""
    k = len(a)
    if k == 0:
        return 1
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


def det_int(rows, n) -> int:
    """Exact determinant of the n x n matrix with the sparse rows `rows`
    (consumed): unit pivots, then Bareiss on the core.

    Moving the pivot rows and columns to the front, in elimination order,
    permutes rows and columns; then det M = sign(row permutation) *
    sign(column permutation) * product of the pivots * det(core).
    """
    if len(rows) != n:
        raise ValueError("determinant of non-square matrix")
    pivots, rows = _eliminate_units(rows, n)
    core_rows = [i for i, row in enumerate(rows) if row is not None]
    pivot_cols = {c for _, c, _ in pivots}
    core_cols = [j for j in range(n) if j not in pivot_cols]
    sign = (permutation_sign([r for r, _, _ in pivots] + core_rows)
            * permutation_sign([c for _, c, _ in pivots] + core_cols)
            * math.prod(v for _, _, v in pivots))
    return sign * det_bareiss([[rows[i].get(j, 0) for j in core_cols]
                               for i in core_rows])


def _snf_pivot(a, t, m, n):
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


def _smith_dense(a):
    """Smith normal form diagonal of the list-of-rows matrix `a`
    (overwritten) by unimodular row and column operations.

    Pivots are chosen with smallest magnitude first to limit coefficient
    growth; Python ints make any pivot order correct.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    t = 0
    while t < min(m, n):
        pos = _snf_pivot(a, t, m, n)
        if pos is None:
            break
        pi, pj = pos
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        d = a[t][t]
        # if the pivot does not divide its row/column, reduce one offender
        # and restart; the remainder left behind is a strictly smaller
        # candidate pivot, so these restarts terminate
        restart = False
        for i in range(t + 1, m):
            if a[i][t] % d != 0:
                f = -(a[i][t] // d)
                a[i] = [x + f * y for x, y in zip(a[i], a[t])]
                restart = True
                break
        if restart:
            continue
        for j in range(t + 1, n):
            if a[t][j] % d != 0:
                f = -(a[t][j] // d)
                for row in a:
                    row[j] += f * row[t]
                restart = True
                break
        if restart:
            continue
        # exact clearing (all quotients divide evenly now)
        for i in range(t + 1, m):
            if a[i][t] != 0:
                f = -(a[i][t] // d)
                a[i] = [x + f * y for x, y in zip(a[i], a[t])]
        for j in range(t + 1, n):
            if a[t][j] != 0:
                f = -(a[t][j] // d)
                for row in a:
                    row[j] += f * row[t]
        # divisibility: pull any non-divisible trailing entry into row t,
        # which the restart branch then shrinks the pivot against
        fixed = False
        for i in range(t + 1, m):
            if fixed:
                break
            for j in range(t + 1, n):
                if a[i][j] % d != 0:
                    a[t] = [x + y for x, y in zip(a[t], a[i])]
                    fixed = True
                    break
        if fixed:
            continue
        if d < 0:
            a[t] = [-x for x in a[t]]
        t += 1
    return [a[i][i] for i in range(t)]


def smith_diagonal(rows, n) -> list:
    """Invariant factors d_1 | d_2 | ..., each >= 1, of the matrix with the
    sparse rows `rows` (consumed) over columns 0..n-1: a 1 for every unit
    pivot, then the Smith normal form of the core's nonzero rows and
    columns."""
    pivots, rows = _eliminate_units(rows, n)
    live = [row for row in rows if row]
    cols = sorted(set().union(*live))
    core = [[row.get(j, 0) for j in cols] for row in live]
    return [1] * len(pivots) + _smith_dense(core)

