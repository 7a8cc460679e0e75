"""Total-unimodularity certification for boundary matrices.

Three routes are implemented and cross-checked by the test suite:

  * exhaustive minor enumeration with a column cap, done level-by-level over
    column subsets so each k x k minor is a Laplace expansion of already
    known (k-1) x (k-1) minors, after deleting every row and column with at
    most one nonzero (free-face collapses, which keep TU and the witness);
  * the Heller-Tompkins two-partition condition on the transposed boundary,
    whose columns have at most two nonzeros exactly on a pseudomanifold:
    its partition is a consistent orientation (complexes.orient_consistently);
  * a search for non-orientable cycle complexes, whose relative boundary
    matrices are Moebius cycle matrices of determinant +-2.
"""
from __future__ import annotations

from dataclasses import dataclass

from .complexes import (InputError, NotPseudomanifold, SimplicialComplex,
                        boundary_submatrix, orient_consistently,
                        parity_coloring)
from .matrices import det_int


class Undecided(Exception):
    """The requested method cannot decide within its configured cap/budget."""


class BudgetExceeded(Undecided):
    """A search exceeded its node budget."""


@dataclass
class TUVerdict:
    status: str                 # "TU" or "NotTU"
    method: str                 # which route produced the verdict
    witness_rows: list | None = None
    witness_cols: list | None = None
    witness_det: int | None = None


@dataclass
class CycleComplexWitness:
    q: int
    simplices: list             # ordered q-simplex indices around the cycle
    shared_faces: list          # shared_faces[i] between simplices i-1 and i


def _verify_witness(cols, rows_w, cols_w):
    d = det_int([{b: cols[j][i] for b, j in enumerate(cols_w) if i in cols[j]}
                 for i in rows_w], len(cols_w))
    if abs(d) < 2:
        raise AssertionError(f"witness re-verification failed: det={d}")
    return d


# Nonzero minors one level may hold. The hourglass fixture at dim 1 (21 x 12,
# reduced to 15 x 12) decides with at most 175,761 at order 8; the torus,
# which has no line to delete, outgrows 1 GB at order 7 without the cap.
MINOR_CAP = 2_000_000


def _reduce(cols):
    """Delete every row and column with at most one nonzero among the lines
    still present, until none is left. Returns the surviving column indices
    and those columns cut to the surviving rows. Each deletion touches at
    most one other line, so this costs O(nnz)."""
    col_rows = [set(col) for col in cols]
    row_cols = {}
    for j, col in enumerate(cols):
        for i in col:
            row_cols.setdefault(i, set()).add(j)
    todo = [(True, j) for j in range(len(cols))] + \
        [(False, i) for i in row_cols]
    while todo:
        is_col, k = todo.pop()
        lines, others = ((col_rows, row_cols) if is_col
                         else (row_cols, col_rows))
        line = lines[k]
        if line is None or len(line) > 1:
            continue
        lines[k] = None
        for o in line:
            others[o].discard(k)
            todo.append((not is_col, o))
    keep = [j for j, rows in enumerate(col_rows) if rows is not None]
    return keep, [{i: cols[j][i] for i in col_rows[j]} for j in keep]


def is_tu_minor_enumeration(cols, col_cap: int = 16) -> TUVerdict:
    """Decide TU of the matrix with sparse columns `cols` ({row: nonzero})
    by checking every square minor, smallest order first.

    An entry with |value| >= 2 is the witness when there is one (the first
    in row-major order). Otherwise every row and column with at most one
    nonzero among the lines still present is deleted, to a fixed point, and
    the minors of what is left are enumerated under the original row and
    column indices, in the same order as on the whole matrix.

    The reductions keep the verdict and the witness. Call a witness (a
    square submatrix with |det| >= 2) minimal when no witness of smaller
    order exists; the enumeration returns the first minimal witness in its
    order. By induction over the deletions, no line of a minimal witness W
    of order k >= 2 is deleted: while all of W's lines are present, a
    deleted line of W has at most one nonzero inside W. With none, det W
    = 0; with one, it is +-1 (every entry is in {0, +-1}), and the Laplace
    expansion along the line makes its (k-1) x (k-1) cofactor a witness,
    against minimality. So the reduced matrix, a submatrix, has the same
    minimal witnesses and no smaller ones, and the first of them in the
    enumeration order is the same. A TU matrix has TU submatrices only.

    Minors of a fixed column subset are expanded along the subset's last
    column from the stored nonzero minors of the prefix subset, so the work
    per minor is O(k) instead of O(k^3). Only nonzero minors are kept; a
    column subset with no nonzero minors is dropped together with its whole
    superset subtree (all those minors are singular). The witness is
    re-verified as a determinant of the original columns.

    Raises Undecided when more than `col_cap` columns survive the
    reductions, or when the level being built holds more than MINOR_CAP
    nonzero minors (after each column subset has been searched for a
    witness).
    """
    big = [(i, j) for j, col in enumerate(cols)
           for i, v in col.items() if abs(v) > 1]
    if big:
        i, j = min(big)     # the first in row-major order
        return TUVerdict("NotTU", "minor-enumeration", [i], [j], cols[j][i])
    keep, cols_r = _reduce(cols)
    n = len(keep)
    if n > col_cap:
        raise Undecided(f"{n} columns exceed the cap {col_cap}")
    # level[C] maps a row tuple R (|R| = |C|) to the nonzero minor det(R, C)
    level = {(): {(): 1}}
    for k in range(1, n + 1):
        nxt = {}
        stored = 0
        for parent in sorted(level):
            pminors = level[parent]
            lo = parent[-1] + 1 if parent else 0
            for c in range(lo, n):
                col = cols_r[c]
                cand = set()
                for rp in pminors:
                    for r in col:
                        if r not in rp:
                            cand.add(tuple(sorted(rp + (r,))))
                if not cand:
                    continue
                subset = parent + (c,)
                minors = {}
                witness = None
                for R in sorted(cand):
                    det = 0
                    for i, r in enumerate(R):
                        e = col.get(r)
                        if e:
                            pm = pminors.get(R[:i] + R[i + 1:])
                            if pm:
                                det += (-1) ** (k - 1 + i) * e * pm
                    if det:
                        minors[R] = det
                        if abs(det) > 1 and witness is None:
                            witness = (list(R), [keep[c] for c in subset],
                                       det)
                if witness is not None:
                    rows_w, cols_w, det_w = witness
                    if _verify_witness(cols, rows_w, cols_w) != det_w:
                        raise AssertionError("witness determinant mismatch")
                    return TUVerdict("NotTU", "minor-enumeration",
                                     rows_w, cols_w, det_w)
                if minors:
                    nxt[subset] = minors
                    stored += len(minors)
                    if stored > MINOR_CAP:
                        raise Undecided(f"more than {MINOR_CAP} nonzero "
                                        f"{k} x {k} minors to store")
        if not nxt:
            break
        level = nxt
    return TUVerdict("TU", "minor-enumeration")


def find_mobius_subcomplex(K: SimplicialComplex, q: int,
                           budget: int = 10 ** 6):
    """Search for a non-orientable cycle complex of q-simplices.

    Cycle complexes are cyclic sequences where consecutive simplices share
    exactly one (q-1)-face, non-consecutive ones share no (q-1)-face, and
    the k shared faces are pairwise distinct (each interior face of the
    subcomplex has exactly two cofaces, as a manifold requires).
    Enumeration is an exhaustive DFS over simple paths, canonicalized so
    each cycle is visited once; `budget` caps the number of extended path
    nodes and overrunning it raises BudgetExceeded.

    The DFS keeps its own stack, so path length is not bounded by the
    recursion limit, and it counts for each (q-1)-face the inner path
    members (all but the first and the last) having it, so testing a
    candidate touches only its q+1 faces.
    """
    B = K.boundary_columns(q)     # InputError unless 1 <= q <= K.dim
    n = len(B)
    # adjacency: simplices sharing a (q-1)-face, paired through its cofaces
    shared = {}
    adj = [[] for _ in range(n)]
    cofaces = [[] for _ in range(K.count(q - 1))]
    for b, col in enumerate(B):
        for f in col:
            for a in cofaces[f]:
                shared[a, b] = f
                adj[a].append(b)
                adj[b].append(a)
            cofaces[f].append(b)
    for nbrs in adj:
        nbrs.sort()

    on_path = [False] * n
    inner = [0] * len(cofaces)  # path members, bar first and last, per face
    nodes = 0

    def face_of(a, b):
        return shared[(a, b) if a < b else (b, a)]

    for head in range(n):
        at_head = B[head]
        on_path[head] = True
        path = [head]
        todo = [0]      # todo[d]: position in adj[path[d]] of the next try
        while todo:
            tail = path[-1]
            k = todo[-1]
            if k == len(adj[tail]):
                todo.pop()
                on_path[path.pop()] = False
                if len(path) > 1:       # the new tail is no longer inner
                    for f in B[path[-1]]:
                        inner[f] -= 1
                continue
            todo[-1] = k + 1
            nxt = adj[tail][k]
            if nxt <= head:
                continue  # canonical start: smallest index first
            if on_path[nxt]:
                continue
            # no shared (q-1)-face with any non-consecutive path member
            blocked = closes = False
            for f in B[nxt]:
                if inner[f]:
                    blocked = True
                    break
                if f in at_head:
                    closes = True
            if blocked:
                continue
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"cycle search exceeded budget {budget}")
            # canonical direction: second element smaller than last
            if closes and len(path) > 1 and path[1] < nxt:
                cycle = path + [nxt]
                faces = [face_of(cycle[i - 1], cycle[i])
                         for i in range(len(cycle))]
                if len(set(faces)) == len(faces):
                    # face i is shared by cycle members i-1 and i
                    k = len(cycle)
                    rows = [{(i - 1) % k: B[cycle[i - 1]][f],
                             i: B[cycle[i]][f]} for i, f in enumerate(faces)]
                    if parity_coloring(rows, k) is None:
                        return CycleComplexWitness(q=q, simplices=cycle,
                                                   shared_faces=faces)
            if not closes or len(path) == 1:
                if len(path) > 1:       # the old tail becomes inner
                    for f in B[tail]:
                        inner[f] += 1
                on_path[nxt] = True
                path.append(nxt)
                todo.append(0)
    return None


def mcm_witness_from_cycle(K: SimplicialComplex, w: CycleComplexWitness):
    """Rows/cols of the boundary matrix carved out by a Moebius complex."""
    rows = sorted(w.shared_faces)
    cols = sorted(w.simplices)
    d = det_int(boundary_submatrix(K, w.q, rows, cols), len(cols))
    return rows, cols, d


def mobius_verdict(K: SimplicialComplex, q: int, budget: int) -> TUVerdict:
    """The Moebius route: NotTU with the minor carved out by the first
    Moebius complex of q-simplices, else TU, which is conclusive only for
    q <= 2 (raises Undecided above)."""
    w = find_mobius_subcomplex(K, q, budget=budget)
    if w is None:
        if q > 2:
            raise Undecided("no Moebius subcomplex found, but absence is "
                            f"not conclusive for p = {q - 1} > 1")
        return TUVerdict("TU", "mobius-search")
    rows, cols, d = mcm_witness_from_cycle(K, w)
    if abs(d) < 2:
        raise AssertionError(f"Moebius witness re-verification: det={d}")
    return TUVerdict("NotTU", "mobius-search", rows, cols, d)


def tu_verdict(K: SimplicialComplex, p: int, col_cap: int = 16,
               budget: int = 10 ** 6) -> TUVerdict:
    """Decision cascade for total unimodularity of the (p+1)-boundary matrix.

    (a) orientable-pseudomanifold shortcut, (b) Moebius-complex search for
    p <= 1 (a full characterization there), (c) capped minor enumeration.
    For p = 0 the search is skipped: every cycle of edges is orientable, so
    it could only come back empty (a graph's incidence matrix is TU).
    """
    q = p + 1
    if q > K.dim:
        raise InputError(f"complex has no {q}-simplices")
    try:
        if orient_consistently(K, q) is not None:
            return TUVerdict("TU", "orientable-manifold-shortcut")
    except NotPseudomanifold:
        pass
    if p == 0:
        return TUVerdict("TU", "mobius-search")
    if p == 1:
        return mobius_verdict(K, q, budget)
    return is_tu_minor_enumeration(K.boundary_columns(q), col_cap=col_cap)
