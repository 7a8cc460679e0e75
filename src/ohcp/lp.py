"""Exact simplex for the OHCP linear program.

min f'x  s.t.  A x = c,  x >= 0,  and x_k <= 1 for k < 2m when boxed

with A = [I  -I  -B  B] over the columns x^+, x^-, y^+, y^- (B the m x n
boundary matrix, N = 2m + 2n columns) as m sparse int rows {column: nonzero},
every cost f_k >= 0, the integer chain c, and L0Box's box x^+, x^- <= 1.

All arithmetic is exact, so optima are exact and A x = c holds with no
tolerance. The solver is a bounded-variable simplex with Bland's anti-cycling
rule, which always terminates and lands on a basic feasible point (a
vertex), so integrality over TU systems comes for free.

One phase suffices. The crash basis takes x_i^+ in row i where c_i >= 0 and
x_i^- where c_i < 0, that row negated, so B = diag(+-1), D = 1 and the basic
values are |c|: the point x = c, y = 0, inside the box too because L0Box
chains have |c_i| <= 1. It is the basis a phase 1 over artificials ends on,
so the pivots are those of the two-phase simplex. The LP is bounded: every
cost is >= 0, so no improving ray exists and every ratio test finds a limit.

The tableau is fraction-free (Edmonds 1967; Bareiss 1968): integer rows
N = D B^{-1} A ({column: entry}, zeros never stored) over one positive int
D = |det B|, so the rational tableau is N / D. A pivot on p = N[r][j] makes
row r sgn(p) N_r and every other row i (|p| N_i - sgn(p) N_ij N_r) / D, a
division that Sylvester's identity makes exact, and sets D = |p|; a row with
no entry in column j is only scaled by |p| / D. When |p| = D only row r's
support changes, by N_ij N_r / D, exact as well. Over a TU matrix every
basis has |det B| = 1, so D stays 1 and a pivot is a plain integer
elimination. The reduced costs are held as D d, one more row in the
elimination; a bound flip leaves them unchanged. The ratio test, the bound
flips and the basic values keep exact values, ints or Fractions, e.g.
t = beta_r D / |N_rj|.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

_AT_LOWER = "L"
_AT_UPPER = "U"


@dataclass
class LinearProgram:
    objective: list                  # rationals >= 0, length N = 2m + 2n
    A: list                          # m sparse int rows of [I -I -B B]
    b: list                          # the chain c, m ints
    box: bool = False                # x^+, x^- <= 1 (L0Box)

    @property
    def num_vars(self):
        return len(self.objective)

    @property
    def num_constraints(self):
        return len(self.b)


@dataclass
class LPSolution:
    x: list                          # ints, or Fractions if not integral; N
    objective: Fraction
    basis: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)  # counts and basis_det
    duals: list = None               # Fractions, length m


def _exact(v):
    """v as an int when it is integral, else as a Fraction."""
    if type(v) is int or v.denominator != 1:
        return v
    return v.numerator


def _div(a, b):
    """Exact a / b for positive b, normalised by `_exact`."""
    if b == 1:
        return a
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _exact(a / b)


def _bland(d, status):
    """Bland's rule: the lowest-index improving column and its direction (1
    up from 0, -1 down from its upper bound), or None if none."""
    for j, dj in enumerate(d):
        if dj:
            if dj < 0 and status[j] == _AT_LOWER:
                return j, 1
            if dj > 0 and status[j] == _AT_UPPER:
                return j, -1
    return None


class _Tableau:
    """Bounded-variable simplex state: the integer rows N = D B^{-1} A over
    one positive int D = |det B|, and the reduced costs as D d."""

    def __init__(self, upper, basis, rows, beta, status):
        self.upper = upper
        self.basis = basis          # basis[r] = variable index of row r
        self.rows = rows            # rows[r] = {column: nonzero int}
        self.det = 1                # D; the crash basis is diagonal, +-1
        self.beta = beta            # values of basic variables
        self.status = status        # _AT_LOWER/_AT_UPPER; None when basic
        self.pivots = 0
        self.bound_flips = 0
        self.d = None               # D d, ints, of the last minimize

    def point(self):
        x = [self.upper[j] if s == _AT_UPPER else 0
             for j, s in enumerate(self.status)]
        for r, bj in enumerate(self.basis):
            x[bj] = self.beta[r]
        return x

    def stats(self):
        return {"pivots": self.pivots, "bound_flips": self.bound_flips,
                "basis_det": self.det}

    def column(self, j):
        """Nonzeros of column j as (row, entry) pairs in row order."""
        return [(r, v) for r, row in enumerate(self.rows)
                if (v := row.get(j)) is not None]

    def pivot(self, r, j, col):
        """Make x_j basic in row r, given column j's nonzeros `col`, by one
        integer-preserving step: with p = N[r][j], row r becomes sgn(p) N_r,
        each other row i becomes (|p| N_i - sgn(p) N_ij N_r) / D, a division
        that is exact by Sylvester's identity, and D becomes |p|. Basic
        values are the caller's. Returns the leaving variable and the new
        row r."""
        rows = self.rows
        det = self.det
        prow = rows[r]
        p = prow[j]
        if p < 0:
            p = -p
            prow = rows[r] = {k: -v for k, v in prow.items()}
        for i, f in col:
            if i == r:
                continue
            row = rows[i]
            if p == det:
                # N_i - f N_r / D: only row r's support changes
                if det == 1:
                    _subtract(row, f, prow)
                else:
                    _subtract(row, 1, {k: f * v // det
                                       for k, v in prow.items()})
                continue
            for k, v in row.items():
                row[k] = p * v
            _subtract(row, f, prow)
            for k, v in row.items():
                row[k] = v // det
        if p != det:
            # the rows with no entry in column j are scaled by |p| / D
            in_col = {i for i, _ in col}
            for i, row in enumerate(rows):
                if i not in in_col:
                    for k, v in row.items():
                        row[k] = p * v // det
        self.det = p
        leaving = self.basis[r]
        self.basis[r] = j
        self.status[j] = None
        self.pivots += 1
        return leaving, prow

    def minimize(self, cost):
        """Run Bland-rule simplex from the crash basis, for int costs."""
        rows, basis, beta = self.rows, self.basis, self.beta
        upper, status = self.upper, self.status
        # D d = cost - c_B N with D = 1, kept current below
        self.d = d = list(cost)
        for r, row in enumerate(rows):
            cr = cost[basis[r]]
            if cr:
                for k, v in row.items():
                    d[k] -= cr * v
        while True:
            # D > 0, so D d has the signs of d
            entering = _bland(d, status)
            if entering is None:
                return
            j, direction = entering
            col = self.column(j)
            det = self.det
            # ratio test: how far can x_j move in `direction`, with the
            # tableau entry v / D; ties go to the lowest-index leaving
            # variable
            best_t = None
            leave_row = None
            leave_bound = None
            for r, v in col:
                bv = basis[r]
                if (v > 0) == (direction == 1):
                    t = _div(beta[r] * det, abs(v))
                    bound = _AT_LOWER
                elif upper[bv] is None:
                    continue
                else:
                    t = _div((upper[bv] - beta[r]) * det, abs(v))
                    bound = _AT_UPPER
                if (best_t is None or t < best_t
                        or (t == best_t and bv < basis[leave_row])):
                    best_t, leave_row, leave_bound = t, r, bound
            flip_t = upper[j]
            if best_t is None and flip_t is None:
                raise AssertionError("simplex found an improving ray on an "
                                     "LP whose costs are all >= 0")
            if flip_t is not None and (best_t is None or flip_t < best_t):
                # bound flip, no basis change, reduced costs unchanged
                step = flip_t * direction
                for r, v in col:
                    beta[r] = _exact(beta[r] - _div(step * v, det))
                status[j] = _AT_UPPER if direction == 1 else _AT_LOWER
                self.bound_flips += 1
                continue
            r = leave_row
            step = best_t * direction
            for i, v in col:
                if i != r:
                    beta[i] = _exact(beta[i] - _div(step * v, det))
            beta[r] = _exact(step if direction == 1 else upper[j] + step)
            leaving, prow = self.pivot(r, j, col)
            status[leaving] = leave_bound
            # the D d row is one more row in column j
            p, f = self.det, d[j]
            if p == det:
                for k, v in prow.items():
                    d[k] -= f * v // det
                continue
            d[:] = [p * v for v in d]
            for k, v in prow.items():
                d[k] -= f * v
            d[:] = [v // det for v in d]


def _subtract(row, f, prow):
    """row -= f prow over prow's support, dropping the zeros."""
    for k, v in prow.items():
        w = row.get(k, 0) - f * v
        if w:
            row[k] = w
        else:
            del row[k]


def simplex_solve(lp: LinearProgram) -> LPSolution:
    """One-phase exact simplex from the crash basis; the result is a vertex
    with A x = c satisfied exactly. `stats` counts the pivots and the bound
    flips, and gives basis_det, the final D.

    Every result proves itself by a dual certificate. The simplex prices
    with scale * f; column x_i^+ of A is the unit vector e_i, so its reduced
    cost is scale * f_i - pi_i, which gives pi. The check recomputes
    r = scale * f - A'pi from A's nonzeros and demands 0 <= x <= upper,
    x_j = 0 where r_j > 0 and x_j = upper_j where r_j < 0. Then for any
    feasible x', scale * f x' = pi c + r x' >= pi c + r x = scale * f x, so x
    is optimal. `duals` is pi / scale.
    """
    m, N = lp.num_constraints, lp.num_vars
    upper = [1 if lp.box else None] * (2 * m) + [None] * (N - 2 * m)
    # the crash basis: x_i^+ where c_i >= 0, else x_i^- with row i negated
    rows, basis = [], []
    for i, (row, ci) in enumerate(zip(lp.A, lp.b)):
        if ci >= 0:
            rows.append(dict(row))
            basis.append(i)
        else:
            rows.append({k: -a for k, a in row.items()})
            basis.append(m + i)
    status = [_AT_LOWER] * N
    for j in basis:
        status[j] = None
    tab = _Tableau(upper, basis, rows, [abs(ci) for ci in lp.b], status)

    # price with the objective times the lcm of its denominators: a positive
    # factor changes no sign, so no pivot changes, and D d stays in the
    # integers
    scale = math.lcm(*(v.denominator for v in lp.objective))
    cost = [v.numerator * (scale // v.denominator) for v in lp.objective]
    tab.minimize(cost)
    x = tab.point()
    # exactness check, zero tolerance
    for row, rhs in zip(lp.A, lp.b):
        if sum(a * x[j] for j, a in row.items()) != rhs:
            raise AssertionError("simplex returned a point with A x != b")
    # dual certificate, in the units of 1/scale
    pi = [cost[i] - _div(tab.d[i], tab.det) for i in range(m)]
    r = list(cost)
    for row, p in zip(lp.A, pi):
        if p:
            for j, a in row.items():
                r[j] -= a * p
    for v, up, rj in zip(x, upper, r):
        if v < 0 or (up is not None and v > up):
            raise AssertionError("simplex returned a point outside its bounds")
        if (rj > 0 and v != 0) or (rj < 0 and v != up):
            raise AssertionError("simplex optimum fails its dual certificate")
    obj = Fraction(sum(cost[j] * v for j, v in enumerate(x) if v), scale)
    return LPSolution(x=x, objective=obj,
                      basis=sorted(tab.basis), stats=tab.stats(),
                      duals=[Fraction(p, scale) for p in pi])
