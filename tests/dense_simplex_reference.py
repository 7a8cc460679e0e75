"""Frozen reference: the dense Fraction simplex that `ohcp.lp` replaced.

`_Tableau` and `simplex_solve` below are kept verbatim from the dense
implementation (full-width Fraction rows, reduced costs recomputed on every
pricing pass), a general two-phase simplex with lower bounds, artificials
and Infeasible/Unbounded outcomes. On an OHCP LP its phase 1 ends on the
crash basis that `ohcp.lp` starts from, so the sparse solver must take the
same phase-2 pivots and return the same point, basis and objective;
tests/test_lp.py checks that on random OHCP LPs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class LinearProgram:
    """min f'x  s.t.  A x = b,  lower <= x <= upper, A as dense rows."""
    objective: list
    A: list
    b: list
    lower: list
    upper: list                      # Fraction or None (+inf)

    @property
    def num_vars(self):
        return len(self.objective)

    @property
    def num_constraints(self):
        return len(self.b)


@dataclass
class LPSolution:
    status: str                      # Optimal | Infeasible | Unbounded
    x: list = None
    objective: Fraction = None
    basis: list = field(default_factory=list)

_AT_LOWER = "L"
_AT_UPPER = "U"


class _Tableau:
    """Bounded-variable simplex state over Fractions."""

    def __init__(self, A, lower, upper, basis, T, beta, status):
        self.A = A
        self.lower = lower
        self.upper = upper
        self.basis = basis          # basis[r] = variable index of row r
        self.T = T                  # B^{-1} A, full width
        self.beta = beta            # values of basic variables
        self.status = status        # nonbasic j -> _AT_LOWER/_AT_UPPER

    def value(self, j):
        for r, bj in enumerate(self.basis):
            if bj == j:
                return self.beta[r]
        return self.lower[j] if self.status[j] == _AT_LOWER else self.upper[j]

    def point(self, n):
        in_basis = {bj: r for r, bj in enumerate(self.basis)}
        x = []
        for j in range(n):
            if j in in_basis:
                x.append(self.beta[in_basis[j]])
            else:
                x.append(self.lower[j] if self.status[j] == _AT_LOWER
                         else self.upper[j])
        return x

    def minimize(self, cost):
        """Run Bland-rule simplex on the current basis; returns 'Optimal' or
        'Unbounded'."""
        m = len(self.basis)
        width = len(cost)
        basic_set = set(self.basis)
        while True:
            cb = [cost[self.basis[r]] for r in range(m)]
            entering = None
            direction = None
            for j in range(width):
                if j in basic_set:
                    continue
                lo, up = self.lower[j], self.upper[j]
                if up is not None and lo == up:
                    continue  # fixed variable can never improve
                d = cost[j] - sum(cb[r] * self.T[r][j] for r in range(m))
                if self.status[j] == _AT_LOWER and d < 0:
                    entering, direction = j, 1
                    break
                if self.status[j] == _AT_UPPER and d > 0:
                    entering, direction = j, -1
                    break
            if entering is None:
                return "Optimal"
            j = entering
            # ratio test: how far can x_j move in `direction`
            best_t = None
            leave_row = None
            leave_bound = None
            for r in range(m):
                coef = self.T[r][j] * direction
                bv = self.basis[r]
                if coef > 0:
                    t = (self.beta[r] - self.lower[bv]) / coef
                    bound = _AT_LOWER
                elif coef < 0:
                    if self.upper[bv] is None:
                        continue
                    t = (self.upper[bv] - self.beta[r]) / (-coef)
                    bound = _AT_UPPER
                else:
                    continue
                if (best_t is None or t < best_t
                        or (t == best_t and bv < self.basis[leave_row])):
                    best_t, leave_row, leave_bound = t, r, bound
            flip_t = None
            if self.upper[j] is not None:
                flip_t = self.upper[j] - self.lower[j]
            if best_t is None and flip_t is None:
                return "Unbounded"
            if flip_t is not None and (best_t is None or flip_t < best_t):
                # bound flip, no basis change
                t = flip_t
                for r in range(m):
                    self.beta[r] -= t * self.T[r][j] * direction
                self.status[j] = _AT_UPPER if direction == 1 else _AT_LOWER
                continue
            t = best_t
            r = leave_row
            leaving = self.basis[r]
            # update basic values, then pivot
            for i in range(m):
                if i != r:
                    self.beta[i] -= t * self.T[i][j] * direction
            start = self.lower[j] if direction == 1 else self.upper[j]
            self.beta[r] = start + t * direction
            piv = self.T[r][j]
            self.T[r] = [e / piv for e in self.T[r]]
            for i in range(m):
                if i != r and self.T[i][j] != 0:
                    f = self.T[i][j]
                    row_r = self.T[r]
                    self.T[i] = [a - f * bb for a, bb in zip(self.T[i], row_r)]
            self.basis[r] = j
            basic_set.discard(leaving)
            basic_set.add(j)
            self.status[leaving] = leave_bound
            del self.status[j]


def simplex_solve(lp: LinearProgram) -> LPSolution:
    """Two-phase exact simplex; every Optimal result is a vertex with
    A x = b satisfied exactly."""
    m, n = lp.num_constraints, lp.num_vars
    lower = list(lp.lower) + [Fraction(0)] * m
    upper = list(lp.upper) + [None] * m
    # start nonbasic at lower bounds; artificials absorb the residual
    x0 = list(lp.lower)
    resid = [lp.b[i] - sum(lp.A[i][j] * x0[j] for j in range(n))
             for i in range(m)]
    T = []
    for i in range(m):
        s = 1 if resid[i] >= 0 else -1
        row = [s * lp.A[i][j] for j in range(n)]
        row += [s if k == i else Fraction(0) for k in range(m)]
        T.append([Fraction(e) for e in row])
    beta = [abs(r) for r in resid]
    basis = [n + i for i in range(m)]
    status = {j: _AT_LOWER for j in range(n)}
    tab = _Tableau(lp.A, lower, upper, basis, T, beta, status)

    phase1_cost = [Fraction(0)] * n + [Fraction(1)] * m
    tab.minimize(phase1_cost)
    infeas = sum(tab.beta[r] for r in range(m) if tab.basis[r] >= n)
    if infeas > 0:
        return LPSolution(status="Infeasible")
    # drive leftover artificials out of the basis where possible, then pin
    # them to zero so phase 2 cannot move them
    for r in range(m):
        if tab.basis[r] >= n:
            for j in range(n):
                if j not in set(tab.basis) and tab.T[r][j] != 0:
                    piv = tab.T[r][j]
                    leaving = tab.basis[r]
                    tab.T[r] = [e / piv for e in tab.T[r]]
                    for i in range(m):
                        if i != r and tab.T[i][j] != 0:
                            f = tab.T[i][j]
                            tab.T[i] = [a - f * bb
                                        for a, bb in zip(tab.T[i], tab.T[r])]
                    val = tab.lower[j] if tab.status[j] == _AT_LOWER else tab.upper[j]
                    tab.basis[r] = j
                    tab.beta[r] = val
                    tab.status[leaving] = _AT_LOWER
                    del tab.status[j]
                    break
    for k in range(n, n + m):
        tab.upper[k] = Fraction(0)

    phase2_cost = list(lp.objective) + [Fraction(0)] * m
    outcome = tab.minimize(phase2_cost)
    if outcome == "Unbounded":
        return LPSolution(status="Unbounded")
    x = tab.point(n)
    # exactness check, zero tolerance
    for i in range(m):
        lhs = sum(lp.A[i][j] * x[j] for j in range(n))
        if lhs != lp.b[i]:
            raise AssertionError("simplex returned a point with A x != b")
    obj = sum(lp.objective[j] * x[j] for j in range(n))
    return LPSolution(status="Optimal", x=x, objective=obj,
                      basis=sorted(bj for bj in tab.basis if bj < n))
