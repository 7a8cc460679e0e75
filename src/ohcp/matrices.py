"""Exact integer matrices and elimination.

Python ints are unbounded, so every determinant, rank and Smith normal form
here is exact. A matrix is passed between layers in one form: its sparse
rows, a list with one dict {column: nonzero int} per row. A column that
holds no nonzero changes no rank or Smith diagonal, so the column count is
passed only where it is checked: det_int's square test. The elimination
kernel works on these rows and first eliminates every +-1 pivot it can,
shortest row first; only the core left without unit entries goes to dense
code (Bareiss for the determinant, a Smith normal form loop for rank and
SNF). Boundary matrices are almost all unit pivots, so that core is small
or empty (Dumas, Saunders & Villard, "On efficient sparse integer matrix
Smith normal form computations", JSC 2001). The pivot order cannot change
a result: each unit pivot adds a 1 to the Smith diagonal, whose list of
invariant factors is unique, and the determinant's sign is read off the
pivots in the order they came.
"""
from __future__ import annotations

import heapq
import math


def _eliminate_units(rows):
    """Eliminate the +-1 pivots of the sparse rows `rows` ({column: entry};
    rows are modified in place) exactly, shortest row first.

    A pivot v = +-1 at (r, c) subtracts (a_ic * v) * row r from every other
    row i with a_ic != 0; row r and column c then leave the matrix, and the
    rest is the Schur complement. The pivot row is the shortest live row
    that holds a +-1 entry (ties to the smaller row), and in it the pivot
    is the +-1 entry whose column has the fewest rows (ties to the smaller
    column): the row-first Markowitz search of sparse LU codes (Duff,
    Erisman & Reid, Direct Methods for Sparse Matrices, ch. 7). The pivot
    order sets only fill-in and time. The Smith diagonal [1] * pivots +
    SNF(core) is the matrix's unique list of invariant factors whatever
    the order, and det_int takes the pivots' permutation signs in the
    order they come.

    Returns (pivots, rows): the (row, column, v) pivots in elimination
    order, and rows[i] the sparse Schur complement row {col: entry} of each
    row never pivoted on (None for pivot rows). The rest has no +-1 entry.
    """
    cols = {}       # rows holding each column that holds a nonzero
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)
    # A lazy heap of (row length, row) items: a row is pushed at the start
    # and again whenever an elimination changes it, and an item of a pivot
    # row or with a stale length is skipped. So every row is looked at
    # after its last change, and one without a +-1 entry is dropped until
    # a change pushes it again.
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    pivots = []
    while heap:
        length, r = heapq.heappop(heap)
        row = rows[r]
        if row is None or length != len(row):
            continue
        units = [j for j, x in row.items() if x == 1 or x == -1]
        if not units:
            continue
        c = min(units, key=lambda j: (len(cols[j]), j))
        v = row[c]
        pivots.append((r, c, v))
        rows[r] = None
        for j in row:
            cols[j].discard(r)
        below = cols.pop(c)
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
            heapq.heappush(heap, (len(other), i))
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
    pivots, rows = _eliminate_units(rows)
    core_rows = [i for i, row in enumerate(rows) if row is not None]
    pivot_cols = {c for _, c, _ in pivots}
    core_cols = [j for j in range(n) if j not in pivot_cols]
    sign = (permutation_sign([r for r, _, _ in pivots] + core_rows)
            * permutation_sign([c for _, c, _ in pivots] + core_cols)
            * math.prod(v for _, _, v in pivots))
    return sign * det_bareiss([[rows[i].get(j, 0) for j in core_cols]
                               for i in core_rows])


def _smith_dense(a):
    """Smith normal form diagonal of the list-of-rows matrix `a`
    (overwritten) by unimodular row and column operations.

    A round moves an entry d of least magnitude to the corner and reduces
    the corner's whole column and whole row by x // d. A remainder left
    behind is a smaller entry, so the round repeats. With the row and
    column clear, a row holding an entry that d does not divide is added to
    the corner's row and the round repeats: the corner's row wins ties for
    the least magnitude, so that entry leaves a remainder. Otherwise |d|
    joins the diagonal and its row and column leave. The least magnitude
    only falls while d stays, so the loop ends.
    """
    diagonal = []
    while True:
        least = min(((abs(x), i, j) for i, row in enumerate(a)
                     for j, x in enumerate(row) if x), default=None)
        if least is None:
            return diagonal
        _, i, j = least
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        top = a[0]
        d = top[0]
        for k in range(1, len(a)):
            f = a[k][0] // d
            if f:
                a[k] = [x - f * y for x, y in zip(a[k], top)]
        for k in range(1, len(top)):
            f = top[k] // d
            if f:
                for row in a:
                    row[k] -= f * row[0]
        if any(top[1:]) or any(row[0] for row in a[1:]):
            continue
        bad = next((row for row in a[1:] if any(x % d for x in row)), None)
        if bad is not None:
            a[0] = [x + y for x, y in zip(top, bad)]
            continue
        diagonal.append(abs(d))
        del a[0]
        for row in a:
            del row[0]


def smith_normal_form(rows) -> list:
    """The Smith normal form diagonal d_1 | d_2 | ..., each >= 1 (its
    length is the rank), of the matrix with the sparse rows `rows`
    (consumed): a 1 for every unit pivot, then the Smith normal form of the
    core's nonzero rows and columns. Columns that hold no nonzero add
    nothing, so the column count is not needed."""
    pivots, rows = _eliminate_units(rows)
    live = [row for row in rows if row]
    cols = sorted(set().union(*live))
    core = [[row.get(j, 0) for j in cols] for row in live]
    return [1] * len(pivots) + _smith_dense(core)

