"""Frozen copy of the recursive Moebius-complex search the package shipped with.

`find_mobius_subcomplex` is kept verbatim, bar the witness's `orientable`
field, which `ohcp.tu` dropped, as the reference the iterative search in
`ohcp.tu` is tested against (tests/test_mobius_reference.py): same witness
or None, and the same smallest budget that does not raise BudgetExceeded.
Only this copy keeps `want_orientable`, with which the tests find orientable
cycle complexes. Do not optimise or "fix" this file.
"""
from __future__ import annotations

import itertools

from helpers import IntMatrix
from ohcp.complexes import SimplicialComplex, boundary_matrix
from ohcp.tu import BudgetExceeded, CycleComplexWitness


def _cycle_orientable(K: SimplicialComplex, q, cycle, faces) -> bool:
    """Propagate orientation signs around a cycle complex."""
    B = IntMatrix(boundary_matrix(K, q))
    sign = 1
    k = len(cycle)
    for i in range(k):
        f = faces[(i + 1) % k]     # face shared by cycle[i] and cycle[i+1]
        nxt = cycle[(i + 1) % k]
        sign_next = -sign * B[f, cycle[i]] * B[f, nxt]
        if (i + 1) % k == 0:
            return sign_next == 1
        sign = sign_next
    raise AssertionError("unreachable")


def find_mobius_subcomplex(K: SimplicialComplex, q: int,
                           budget: int = 10 ** 6,
                           want_orientable: bool = False):
    """Search for a non-orientable cycle complex of q-simplices.

    Cycle complexes are cyclic sequences where consecutive simplices share
    exactly one (q-1)-face, non-consecutive ones share no (q-1)-face, and
    the k shared faces are pairwise distinct (each interior face of the
    subcomplex has exactly two cofaces, as a manifold requires).
    Enumeration is an exhaustive DFS over simple paths, canonicalized so
    each cycle is visited once; `budget` caps the number of extended path
    nodes and overrunning it raises BudgetExceeded.

    With want_orientable=True returns the first orientable cycle complex
    instead (used by tests to confirm cylinders are found).
    """
    if not 1 <= q <= K.dim:
        raise ValueError(f"dimension {q} out of range 1..{K.dim}")
    simps = [set(v) for v in K.simplices(q)]
    n = len(simps)
    # adjacency: intersection is exactly one (q-1)-face
    shared = {}
    for a, b in itertools.combinations(range(n), 2):
        inter = simps[a] & simps[b]
        if len(inter) == q:
            shared[(a, b)] = K.index_of(q - 1, sorted(inter))
    adj = [[] for _ in range(n)]
    for (a, b) in shared:
        adj[a].append(b)
        adj[b].append(a)
    for nbrs in adj:
        nbrs.sort()

    nodes = 0

    def face_of(a, b):
        return shared[(a, b) if a < b else (b, a)]

    def extend(path):
        nonlocal nodes
        head = path[0]
        tail = path[-1]
        for nxt in adj[tail]:
            if nxt <= head:
                continue  # canonical start: smallest index first
            if nxt in path:
                continue
            sv = simps[nxt]
            # no shared (q-1)-face with any non-consecutive path member
            if any(len(sv & simps[p]) == q for p in path[1:-1]):
                continue
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"cycle search exceeded budget {budget}")
            new_path = path + [nxt]
            closes = len(sv & simps[head]) == q
            if closes and len(new_path) >= 3:
                # canonical direction: second element smaller than last
                if new_path[1] < new_path[-1]:
                    cycle = new_path
                    faces = [face_of(cycle[i - 1], cycle[i])
                             for i in range(len(cycle))]
                    if len(set(faces)) == len(faces):
                        orientable = _cycle_orientable(K, q, cycle, faces)
                        if orientable == want_orientable:
                            return CycleComplexWitness(q=q, simplices=cycle,
                                                       shared_faces=faces)
            if not closes or len(path) == 1:
                found = extend(new_path)
                if found is not None:
                    return found
        return None

    for start in range(n):
        found = extend([start])
        if found is not None:
            return found
    return None
