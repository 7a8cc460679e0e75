"""Total-unimodularity certification for boundary matrices.

Three routes are implemented and cross-checked by the test suite. Each
reads the q-boundary's sparse columns B = K.boundary_columns(q), the last
two also its signed rows coface_map(K, q); tu_verdict builds both once:

  * exhaustive minor enumeration with a column cap, done level-by-level over
    column subsets so each k x k minor is a Laplace expansion of already
    known (k-1) x (k-1) minors, after deleting every row and column with at
    most one nonzero (free-face collapses, which keep TU and the witness);
  * the Heller-Tompkins two-partition condition on the transposed boundary,
    whose columns have at most two nonzeros exactly on a pseudomanifold:
    its partition is a consistent orientation, orient_consistently(rows);
  * a search for non-orientable cycle complexes, whose relative boundary
    matrices are Moebius cycle matrices of determinant +-2.

Both routes that answer NotTU name a minor of the boundary matrix, and
_verify_witness recomputes its determinant from the sparse columns before
the verdict is returned.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import (InputError, SimplicialComplex, boundary_submatrix,
                        coface_map, orient_consistently)
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
    """det of the minor `rows_w` x `cols_w` of the sparse columns `cols`;
    AssertionError, under python -O too, unless |det| >= 2."""
    d = det_int(boundary_submatrix(cols, rows_w, cols_w), len(cols_w))
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


def find_mobius_subcomplex(B, rows, q: int, budget: int = 10 ** 6,
                           unbalanced: bool = False):
    """Search for a non-orientable cycle complex of q-simplices, given the
    q-boundary's sparse columns `B` (K.boundary_columns(q)) and its signed
    rows `rows` (coface_map(K, q)).

    Cycle complexes are cyclic sequences where consecutive simplices share
    exactly one (q-1)-face, non-consecutive ones share no (q-1)-face, and
    the k shared faces are pairwise distinct (each interior face of the
    subcomplex has exactly two cofaces, as a manifold requires).
    Enumeration is an exhaustive DFS over simple paths, canonicalized so
    each cycle is visited once; `budget` caps the number of extended path
    nodes and overrunning it raises BudgetExceeded.

    The search runs in the signed dual graph: q-simplices a and b sharing
    the face f are joined with the sign -B[a][f] B[b][f], and a cycle
    complex is non-orientable exactly when the product of its signs is -1.
    It returns None before visiting any node in two cases. For q = 1 a
    cycle complex is a graph cycle, which is always orientable. And when
    the signed graph is balanced (Harary 1953), no cycle has product -1.
    Three cofaces of one face close a triangle of product -1, so the graph
    is balanced exactly when orient_consistently(rows, len(B)) succeeds,
    which needs no face with three cofaces: when the complex is an
    orientable pseudomanifold. A caller that has seen that call fail passes
    unbalanced=True, and the test is not run again. The signed graph is
    read off the same rows.

    Otherwise the DFS carries the sign product of its path and prunes it.
    It tests a path of three members when it first reaches it, and a path
    of three or more each time it backtracks to it. The test searches the
    (simplex, entry face, sign) states of the walks the DFS could still
    append: from an untried neighbour of the tail, through simplices of
    index above the head, off the path and sharing no face with an inner
    member, never leaving a simplex through the face it entered by, and
    touching the head only at the last step. Unless such a walk closes on
    the head with product -1 at a simplex of index above path[1], the path
    is popped. Every completion of the path to a witness is such a walk, so
    a pruned subtree holds no witness, and otherwise the visit order is
    unchanged. The witness (or None) is therefore the one the unpruned DFS
    finds, and the smallest budget that does not raise is no larger.
    Testing every longer path on arrival would cost one walk search per
    node on the way to a witness; a dive into a dead subtree is cut back by
    the tests on the way up instead.

    The DFS keeps its own stack, so path length is not bounded by the
    recursion limit, and it counts for each (q-1)-face the inner path
    members (all but the first and the last) having it, so testing a
    candidate touches only its q+1 faces.
    """
    if q == 1:
        return None
    n = len(B)
    if not unbalanced and orient_consistently(rows, n) is not None:
        return None
    # adj[a]: (b, sign, face) for each simplex b sharing a (q-1)-face with a
    adj = [[] for _ in range(n)]
    for f, c in enumerate(rows):
        for a, b in itertools.combinations(c, 2):
            adj[a].append((b, -c[a] * c[b], f))
            adj[b].append((a, -c[a] * c[b], f))
    for nbrs in adj:
        nbrs.sort()

    on_path = [False] * n
    inner = [0] * len(rows)     # path members, bar first and last, per face
    nodes = 0

    def probe(v):
        """None if v shares a face with an inner path member, else the face
        v shares with the head, or -1 if there is none."""
        h = -1
        for f in B[v]:
            if inner[f]:
                return None
            if f in at_head:
                h = f
        return h

    def hopeless():
        """No walk from an untried neighbour of the tail closes a witness."""
        head, second = path[0], path[1]
        stack = [(v, f, signs[-1] * s)
                 for v, s, f in adj[path[-1]][todo[-1]:]]
        seen = set()
        while stack:
            state = v, f, s = stack.pop()
            if v <= head or on_path[v] or state in seen:
                continue
            seen.add(state)
            h = probe(v)
            if h is None:
                continue
            if h < 0:
                stack += [(w, g, s * t) for w, t, g in adj[v] if g != f]
            elif v > second and s * B[v][h] * at_head[h] == 1:
                return False
        return True

    for head in range(n):
        at_head = B[head]
        on_path[head] = True
        path = [head]
        faces = [-1]    # faces[d]: the face path[d - 1] and path[d] share
        signs = [1]     # signs[d]: sign product of path[:d + 1]
        todo = [0]      # todo[d]: position in adj[path[d]] of the next try
        while todo:
            tail = path[-1]
            k = todo[-1]
            if k == len(adj[tail]):
                todo.pop()
                faces.pop()
                signs.pop()
                on_path[path.pop()] = False
                if len(path) > 1:       # the new tail is no longer inner
                    for f in B[path[-1]]:
                        inner[f] -= 1
                if len(path) >= 3 and hopeless():
                    todo[-1] = len(adj[path[-1]])
                continue
            todo[-1] = k + 1
            nxt, s, f = adj[tail][k]
            if nxt <= head:
                continue  # canonical start: smallest index first
            if on_path[nxt]:
                continue
            # no shared (q-1)-face with any non-consecutive path member
            h = probe(nxt)
            if h is None:
                continue
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"cycle search exceeded budget {budget}")
            sign = signs[-1] * s
            # canonical direction: second element smaller than last; the
            # closing pair's sign is -B[nxt][h] B[head][h]
            if h >= 0 and len(path) > 1 and path[1] < nxt:
                cycle_faces = [h] + faces[1:] + [f]
                if (sign * B[nxt][h] * at_head[h] == 1
                        and len(set(cycle_faces)) == len(cycle_faces)):
                    return CycleComplexWitness(q=q, simplices=path + [nxt],
                                               shared_faces=cycle_faces)
            if h < 0 or len(path) == 1:
                if len(path) > 1:       # the old tail becomes inner
                    for g in B[tail]:
                        inner[g] += 1
                on_path[nxt] = True
                path.append(nxt)
                faces.append(f)
                signs.append(sign)
                todo.append(0)
                if len(path) == 3 and hopeless():
                    todo[-1] = len(adj[nxt])
    return None


def mobius_verdict(B, rows, q: int, budget: int,
                   unbalanced: bool = False) -> TUVerdict:
    """The Moebius route over the q-boundary's columns `B` and signed rows
    `rows`: NotTU with the minor carved out by the first Moebius complex of
    q-simplices, else TU, which is conclusive only for q <= 2 (raises
    Undecided above). `unbalanced` is find_mobius_subcomplex's."""
    w = find_mobius_subcomplex(B, rows, q, budget=budget,
                               unbalanced=unbalanced)
    if w is None:
        if q > 2:
            raise Undecided("no Moebius subcomplex found, but absence is "
                            f"not conclusive for p = {q - 1} > 1")
        return TUVerdict("TU", "mobius-search")
    rows_w = sorted(w.shared_faces)
    cols_w = sorted(w.simplices)
    d = _verify_witness(B, rows_w, cols_w)
    return TUVerdict("NotTU", "mobius-search", rows_w, cols_w, d)


def boundary_of(K: SimplicialComplex, p: int):
    """The sparse columns of the (p+1)-boundary of K, whose TU every route
    decides; an error names p and its range 0..K.dim - 1, not p + 1."""
    if not 0 <= p < K.dim:
        if p < 0 < K.dim:
            raise InputError(f"dimension {p} out of range 0..{K.dim - 1}")
        raise InputError(f"complex has no {max(p + 1, 1)}-simplices")
    return K.boundary_columns(p + 1)


def tu_verdict(K: SimplicialComplex, p: int, col_cap: int = 16,
               budget: int = 10 ** 6) -> TUVerdict:
    """Decision cascade for total unimodularity of the (p+1)-boundary matrix.

    (a) orientable-pseudomanifold shortcut, (b) Moebius-complex search for
    p <= 1 (a full characterization there), (c) capped minor enumeration.
    For p = 0 the search returns at once: every cycle of edges is
    orientable (a graph's incidence matrix is TU). The boundary's columns
    and signed rows are built once and read by every route, and the
    shortcut's parity coloring is the Moebius search's balance test, so it
    runs once.
    """
    q = p + 1
    B = boundary_of(K, p)
    rows = coface_map(K, q)
    if orient_consistently(rows, len(B)) is not None:
        return TUVerdict("TU", "orientable-manifold-shortcut")
    if p <= 1:
        return mobius_verdict(B, rows, q, budget, unbalanced=True)
    return is_tu_minor_enumeration(B, col_cap=col_cap)
