"""Frozen copy of the minor enumeration the package shipped with.

`is_tu_minor_enumeration` (with its witness check and stored-minor cap) is
kept verbatim as the reference the reduced enumeration in `ohcp.tu` is
tested against (tests/test_minor_reference.py): the same verdict, method,
witness rows, columns and determinant. It enumerates the whole matrix,
with no line deleted first. Do not optimise or "fix" this file.
"""
from __future__ import annotations

from ohcp.matrices import IntMatrix, det_int
from ohcp.tu import TUVerdict, Undecided


def _verify_witness(cols, rows_w, cols_w):
    d = det_int(IntMatrix([[cols[j].get(i, 0) for j in cols_w]
                           for i in rows_w]))
    if abs(d) < 2:
        raise AssertionError(f"witness re-verification failed: det={d}")
    return d


# Nonzero minors one level may hold: the hourglass fixture decides with
# 1.39 million at order 9; the torus's order-7 level outgrows 1 GB.
MINOR_CAP = 2_000_000


def is_tu_minor_enumeration(cols, col_cap: int = 16) -> TUVerdict:
    """Decide TU of the matrix with sparse columns `cols` ({row: nonzero})
    by checking every square minor, smallest order first.

    Minors of a fixed column subset are expanded along the subset's last
    column from the stored nonzero minors of the prefix subset, so the work
    per minor is O(k) instead of O(k^3). Only nonzero minors are kept; a
    column subset with no nonzero minors is dropped together with its whole
    superset subtree (all those minors are singular).

    Raises Undecided when there are more than `col_cap` columns, or when
    the level being built holds more than MINOR_CAP nonzero minors (after
    each column subset has been searched for a witness).
    """
    n = len(cols)
    if n > col_cap:
        raise Undecided(f"{n} columns exceed the cap {col_cap}")
    big = [(i, j) for j, col in enumerate(cols)
           for i, v in col.items() if abs(v) > 1]
    if big:
        i, j = min(big)     # the first in row-major order
        return TUVerdict("NotTU", "minor-enumeration", [i], [j], cols[j][i])
    # level[C] maps a row tuple R (|R| = |C|) to the nonzero minor det(R, C)
    level = {(): {(): 1}}
    for k in range(1, n + 1):
        nxt = {}
        stored = 0
        for parent in sorted(level):
            pminors = level[parent]
            lo = parent[-1] + 1 if parent else 0
            for c in range(lo, n):
                col = cols[c]
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
                            witness = (list(R), list(subset), det)
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
