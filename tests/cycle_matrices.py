"""The cycle-matrix lemma of the paper, as the tests' reference: a k x k
Moebius cycle matrix (MCM) has |det| = 2 and a cylinder cycle matrix (CCM)
has det 0. The solver never runs this; the tests check the determinant law
on normal forms and recognize the minor carved out by a Moebius complex."""
from dataclasses import dataclass

from helpers import IntMatrix


@dataclass
class CycleMatrixForm:
    k: int
    beta: int                   # +1 or -1
    row_perm: list              # row_perm[i] = original row placed at position i
    col_perm: list
    row_signs: list
    col_signs: list

    @property
    def kind(self) -> str:
        return "CCM" if self.beta == (-1) ** self.k else "MCM"


def cycle_matrix_det(k: int, beta: int) -> int:
    """Determinant of the normal-form k-cycle matrix: 1 + (-1)^(k+1) beta."""
    if k < 2:
        raise ValueError("cycle matrices have size k >= 2")
    if beta not in (1, -1):
        raise ValueError("beta must be +-1")
    return 1 + (-1) ** (k + 1) * beta


def cycle_matrix_normal_form(k: int, beta: int) -> IntMatrix:
    """The k x k normal-form cycle matrix with corner entry beta."""
    if k < 2:
        raise ValueError("cycle matrices have size k >= 2")
    data = [[0] * k for _ in range(k)]
    data[0][0] = 1
    data[0][k - 1] = beta
    for i in range(1, k):
        data[i][i - 1] = 1
        data[i][i] = 1
    return IntMatrix(data)


def classify_cycle_matrix(C: IntMatrix):
    """Recognize a cycle matrix up to row/column permutations and sign
    scalings; returns a CycleMatrixForm or None.

    A cycle matrix has exactly two nonzeros (each +-1) in every row and
    column, and its bipartite support graph is a single cycle. The corner
    entry beta equals the product of all nonzero entries, which both
    scalings and permutations preserve.
    """
    k = C.m
    if C.n != k or k < 2:
        return None
    row_nz = [[j for j in range(k) if C[i, j] != 0] for i in range(k)]
    col_nz = [[i for i in range(k) if C[i, j] != 0] for j in range(k)]
    if any(len(r) != 2 for r in row_nz) or any(len(c) != 2 for c in col_nz):
        return None
    if any(abs(C[i, j]) != 1 for i in range(k) for j in row_nz[i]):
        return None
    # walk the support cycle: col_0, row, col, row, ...
    col_order = [0]
    row_order = []
    r = col_nz[0][0]
    row_order.append(r)
    while True:
        c_prev = col_order[-1]
        c = row_nz[r][0] if row_nz[r][1] == c_prev else row_nz[r][1]
        if c == col_order[0]:
            break
        col_order.append(c)
        r = col_nz[c][0] if col_nz[c][0] != r else col_nz[c][1]
        row_order.append(r)
        if len(col_order) > k:
            return None
    if len(col_order) != k or len(row_order) != k:
        return None  # support splits into several cycles
    # normal form places row_order[i] at position i+1 (mod k) so that row i
    # covers columns i-1 and i; solve for signs making all entries 1 except
    # the corner
    row_order = row_order[-1:] + row_order[:-1]
    row_signs = [1] * k
    col_signs = [1] * k
    # want sign(row i) * sign(col i-1..i) * entry == 1 for the 2k-1 fixed slots
    col_signs[0] = 1
    row_signs[0] = C[row_order[0], col_order[0]]  # makes N[0][0] = 1
    for i in range(1, k):
        # N[i][i-1] = 1 fixes row sign from col i-1; N[i][i] = 1 fixes col i
        row_signs[i] = C[row_order[i], col_order[i - 1]] * col_signs[i - 1]
        col_signs[i] = C[row_order[i], col_order[i]] * row_signs[i]
    beta = row_signs[0] * col_signs[k - 1] * C[row_order[0], col_order[k - 1]]
    form = CycleMatrixForm(k=k, beta=beta, row_perm=row_order,
                           col_perm=col_order, row_signs=row_signs,
                           col_signs=col_signs)
    # paranoid check: applying the permutations/scalings gives the normal form
    N = cycle_matrix_normal_form(k, beta)
    for i in range(k):
        for j in range(k):
            v = row_signs[i] * col_signs[j] * C[row_order[i], col_order[j]]
            if v != N[i, j]:
                return None
    return form
