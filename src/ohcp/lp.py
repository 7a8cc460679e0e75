"""Exact simplex for the OHCP linear program.

min sum f_i |x_i| + sum g_j |y_j|  s.t.  x = c + B y  (and |x_i| <= 1 boxed)

for the m x n boundary matrix B as n sparse int columns {row: nonzero}, the
integer chain c and costs f, g >= 0, one per simplex. Only the simplex
splits x = x^+ - x^- and y = y^+ - y^-: A x = c with A = [I -I -B B] over
the N = 2m + 2n columns x^+, x^-, y^+, y^-, each at its simplex's cost, and
x^+, x^- <= 1 under L0Box's box.

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
N = D B^{-1} A over one positive int D = |det B|, so the rational tableau is
N / D. Column x_i^- of A is minus column x_i^+, and y_j^- minus y_j^+, so
every N keeps each such pair exact negatives: a row stores only its x^+ and
y^+ entries ({column: entry}, zeros never stored), and a read of an x^- or
y^- column negates its twin. A pivot on p = N[r][j] makes row r sgn(p) N_r
and every other row i (|p| N_i - sgn(p) N_ij N_r) / D, a division that
Sylvester's identity makes exact, and sets D = |p|; a row with no entry in
column j is only scaled by |p| / D. When |p| = D only row r's support
changes, by N_ij N_r / D, exact as well. Over a TU matrix every basis has
|det B| = 1, so D stays 1 and a pivot is a plain integer elimination.

The basic values are held as the ints b = D x_B, a right-hand side that is
one more column of the elimination, and the reduced costs as D d, one more
row, kept on all N columns so that Bland's scan and its ties are those of
the full tableau; a bound flip subtracts u dir N_j from b and leaves D d
unchanged. The ratio test compares the steps b_r / |N_rj| by
cross-multiplication, so no Fraction enters the loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

_AT_LOWER = "L"
_AT_UPPER = "U"


@dataclass
class LinearProgram:
    B: list                          # n sparse int columns {row: nonzero}
    c: list                          # the chain, m ints
    x_cost: list                     # rationals >= 0, one per row
    y_cost: list                     # rationals >= 0, one per column of B
    box: bool = False                # |x_i| <= 1 (L0Box)

    @property
    def num_vars(self):
        return 2 * len(self.c) + 2 * len(self.B)

    @property
    def num_constraints(self):
        return len(self.c)


@dataclass
class LPSolution:
    x: list                          # (D x) / D: ints, else Fractions
    y: list                          # likewise, one per column of B
    objective: Fraction
    basis: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)  # counts and basis_det
    duals: list = None               # Fractions, length m


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
    one positive int D = |det B|, stored on the x^+ and y^+ columns, the
    basic values as b = D x_B and the reduced costs as D d."""

    def __init__(self, upper, twin, basis, rows, b, status):
        self.upper = upper
        self.twin = twin            # column twin[j] of A is minus column j
        self.basis = basis          # basis[r] = variable index of row r
        self.rows = rows            # rows[r] = {column j < twin[j]: nonzero}
        self.det = 1                # D; the crash basis is diagonal, +-1
        self.b = b                  # D x_B, ints
        self.status = status        # _AT_LOWER/_AT_UPPER; None when basic
        self.pivots = 0
        self.bound_flips = 0
        self.d = None               # D d, ints, of the last minimize

    def scaled_point(self):
        """D x, ints."""
        x = [self.det * self.upper[j] if s == _AT_UPPER else 0
             for j, s in enumerate(self.status)]
        for bj, v in zip(self.basis, self.b):
            x[bj] = v
        return x

    def stats(self):
        return {"pivots": self.pivots, "bound_flips": self.bound_flips,
                "basis_det": self.det}

    def entry(self, r, j):
        """N[r][j]."""
        k = self.twin[j]
        return self.rows[r].get(j, 0) if j < k else -self.rows[r].get(k, 0)

    def column(self, j):
        """Nonzeros of column j as (row, entry) pairs in row order."""
        k = self.twin[j]
        if j < k:
            return [(r, v) for r, row in enumerate(self.rows)
                    if (v := row.get(j)) is not None]
        return [(r, -v) for r, row in enumerate(self.rows)
                if (v := row.get(k)) is not None]

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
        p = self.entry(r, j)
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
        rows, basis, b, twin = self.rows, self.basis, self.b, self.twin
        upper, status = self.upper, self.status
        # D d = cost - c_B N with D = 1, kept current below
        self.d = d = list(cost)
        for r, row in enumerate(rows):
            _eliminate(d, cost[basis[r]], row.items(), 1, 1, twin)
        while True:
            # D > 0, so D d has the signs of d
            entering = _bland(d, status)
            if entering is None:
                return
            j, direction = entering
            col = self.column(j)
            det = self.det
            # ratio test: x_j may move by t = num / |v| before row r's basic
            # variable meets a bound; ties go to the lowest-index leaving
            # variable
            best = leave_row = leave_bound = None
            for r, v in col:
                bv = basis[r]
                if (v > 0) == (direction == 1):
                    num, bound = b[r], _AT_LOWER
                elif upper[bv] is None:
                    continue
                else:
                    num, bound = upper[bv] * det - b[r], _AT_UPPER
                if best is not None:
                    lhs, rhs = num * best[1], best[0] * abs(v)
                    if lhs > rhs or (lhs == rhs and bv > basis[leave_row]):
                        continue
                best, leave_row, leave_bound = (num, abs(v)), r, bound
            flip = upper[j]
            if best is None and flip is None:
                raise AssertionError("simplex found an improving ray on an "
                                     "LP whose costs are all >= 0")
            if flip is not None and (best is None
                                     or flip * best[1] < best[0]):
                # bound flip, no basis change, reduced costs unchanged
                step = flip * direction
                for r, v in col:
                    b[r] -= step * v
                status[j] = _AT_UPPER if direction == 1 else _AT_LOWER
                self.bound_flips += 1
                continue
            # b is one more column: (|p| b - direction num N_j) / D, and x_j
            # enters at |p| t = num from its bound
            num, p = best
            _eliminate(b, direction * num, col, p, det)
            r = leave_row
            b[r] = num if direction == 1 else p * upper[j] - num
            leaving, prow = self.pivot(r, j, col)
            status[leaving] = leave_bound
            # the D d row is one more row in column j
            _eliminate(d, d[j], prow.items(), p, det, twin)


def _eliminate(vec, f, pairs, p, det, twin=None):
    """vec <- (p vec - f w) / det, for w given by its (index, entry) `pairs`
    and, with `twin`, minus those entries at the twins: one more row or
    column of the pivot, so every division is exact."""
    scaled = p != det
    if scaled:
        vec[:] = [p * v for v in vec]
    for k, v in pairs:
        w = f * v if scaled else f * v // det
        vec[k] -= w
        if twin:
            vec[twin[k]] += w
    if scaled:
        vec[:] = [v // det for v in vec]


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
    with x = c + B y exactly. `basis` lists its columns of A, `stats` counts
    the pivots and the bound flips, and gives basis_det, the final D.

    Every result proves itself by a dual certificate, checked in the ints
    of the final tableau. The simplex prices with scale * f over the N
    columns; column x_i^+ of A is the unit vector e_i, so its reduced cost
    gives pi' = D scale f_i - (D d)_i. The check confirms A (D x) = D c,
    recomputes r' = D scale f - A'pi' from the nonzeros of B and demands
    0 <= D x <= D upper, x_j = 0 where r'_j > 0 and x_j = upper_j where
    r'_j < 0. Then for any feasible x', scale f x' = (pi' c + r' x') / D >=
    (pi' c + r' x) / D = scale f x, so x is optimal. `duals` is
    pi' / (scale D).
    """
    m, n, N = len(lp.c), len(lp.B), lp.num_vars
    upper = [1 if lp.box else None] * (2 * m) + [None] * (2 * n)
    twin = [*range(m, 2 * m), *range(m), *range(2 * m + n, N),
            *range(2 * m, 2 * m + n)]
    # the crash basis: x_i^+ where c_i >= 0, else x_i^- with row i negated;
    # row i of A on the x^+ and y^+ columns is row i of [I -B]
    sign = [1 if ci >= 0 else -1 for ci in lp.c]
    rows = [{i: s} for i, s in enumerate(sign)]
    for j, col in enumerate(lp.B):
        for i, e in col.items():
            rows[i][2 * m + j] = -sign[i] * e
    basis = [i if s > 0 else m + i for i, s in enumerate(sign)]
    status = [_AT_LOWER] * N
    for j in basis:
        status[j] = None
    tab = _Tableau(upper, twin, basis, rows, [abs(ci) for ci in lp.c],
                   status)

    # price with the objective times the lcm of its denominators: a positive
    # factor changes no sign, so no pivot changes, and D d stays in the
    # integers
    costs = lp.x_cost + lp.y_cost
    scale = math.lcm(*(v.denominator for v in costs))
    cost = [v.numerator * (scale // v.denominator) for v in costs]
    cost = cost[:m] * 2 + cost[m:] * 2
    tab.minimize(cost)
    det = tab.det
    point = tab.scaled_point()
    x = [u - v for u, v in zip(point[:m], point[m:2 * m])]
    y = [u - v for u, v in zip(point[2 * m:2 * m + n], point[2 * m + n:])]
    # exactness check, zero tolerance: A (D x) = D c reads D x = D c + B D y
    rhs = [det * ci for ci in lp.c]
    for yj, col in zip(y, lp.B):
        if yj:
            for i, e in col.items():
                rhs[i] += e * yj
    if x != rhs:
        raise AssertionError("simplex returned a point with A x != c")
    # dual certificate, in the units of 1/(scale D); A'pi' is pi', -pi',
    # -B'pi' and B'pi' on the columns x^+, x^-, y^+, y^-
    pi = [det * cost[i] - tab.d[i] for i in range(m)]
    bpi = [sum(e * pi[i] for i, e in col.items()) for col in lp.B]
    a_pi = pi + [-p for p in pi] + [-s for s in bpi] + bpi
    r = [det * cj - a for cj, a in zip(cost, a_pi)]
    for v, up, rj in zip(point, upper, r):
        up = None if up is None else det * up
        if v < 0 or (up is not None and v > up):
            raise AssertionError("simplex returned a point outside its bounds")
        if (rj > 0 and v != 0) or (rj < 0 and v != up):
            raise AssertionError("simplex optimum fails its dual certificate")
    obj = Fraction(sum(cj * v for cj, v in zip(cost, point) if v),
                   scale * det)
    if det > 1:
        x, y = ([v // det if v % det == 0 else Fraction(v, det) for v in vec]
                for vec in (x, y))
    return LPSolution(x=x, y=y, objective=obj,
                      basis=sorted(tab.basis), stats=tab.stats(),
                      duals=[Fraction(p, scale * det) for p in pi])
