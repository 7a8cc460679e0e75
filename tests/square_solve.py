"""Exact square solve over Q, the test suite's independent route to LP
vertices (tests/test_lp.py enumerates them with it)."""
from fractions import Fraction

from ohcp.matrices import IntMatrix


def solve_square(A: IntMatrix, b):
    """Solve A x = b exactly over Q; returns list of Fractions or None if singular."""
    k = A.m
    if A.n != k or len(b) != k:
        raise ValueError("solve_square: shape mismatch")
    a = [[Fraction(A.data[i][j]) for j in range(k)] + [Fraction(b[i])]
         for i in range(k)]
    for t in range(k):
        piv = None
        for r in range(t, k):
            if a[r][t] != 0:
                piv = r
                break
        if piv is None:
            return None
        a[t], a[piv] = a[piv], a[t]
        inv = a[t][t]
        a[t] = [e / inv for e in a[t]]
        for r in range(k):
            if r != t and a[r][t] != 0:
                f = a[r][t]
                a[r] = [a[r][j] - f * a[t][j] for j in range(k + 1)]
    return [a[i][k] for i in range(k)]
