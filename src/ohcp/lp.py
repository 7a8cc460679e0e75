"""Exact simplex for standard-form LPs with variable bounds.

min f'x  s.t.  A x = b,  lower <= x <= upper

with A a list of sparse rows {column: nonzero}, which the simplex reads as
they are.

All arithmetic is exact, so optima are exact and A x = b holds with no
tolerance. The solver is a two-phase bounded-variable simplex with Bland's
anti-cycling rule, which always terminates and lands on a basic feasible
point (a vertex), so integrality over TU systems comes for free.

The tableau is fraction-free (Edmonds 1967; Bareiss 1968): integer rows
N = D B^{-1} [A | I] ({column: entry}, zeros never stored) over one
positive int D = |det B|, so the rational tableau is N / D. A pivot on
p = N[r][j] makes row r sgn(p) N_r and every other row i
(|p| N_i - sgn(p) N_ij N_r) / D, a division that Sylvester's identity makes
exact, and sets D = |p|; a row with no entry in column j is only scaled by
|p| / D, which is skipped when |p| = D. Over a TU matrix every basis has
|det B| = 1, so D stays 1 and a pivot is a plain integer elimination. The
reduced costs are held as D d, one more row in the elimination, computed
once per phase; a bound flip leaves them unchanged.

A row of A with fractional entries is scaled by the lcm l_i of its
denominators, which scales its artificial variable by l_i as well; phase 1
prices that artificial at lcm(l) / l_i, so every reduced cost is a positive
multiple of the unscaled one. The integer tableau is thus the rational one
with each row and column times a positive number: every sign, every ratio
and so every pivot are those of a Fraction tableau. The ratio test, the
bound flips and the basic values keep exact values, ints or Fractions,
e.g. t = (beta_r - lower) D / |N_rj|.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

_AT_LOWER = "L"
_AT_UPPER = "U"


@dataclass
class LinearProgram:
    objective: list                  # Fractions, length N
    A: list                          # M sparse rows {column: nonzero}
    b: list                          # Fractions, length M
    lower: list = None               # finite Fractions; defaults to 0
    upper: list = None               # Fraction or None (+inf); defaults to None

    def __post_init__(self):
        n = len(self.objective)
        self.objective = [Fraction(c) for c in self.objective]
        self.A = [{j: _number(a) for j, a in row.items() if a}
                  for row in self.A]
        self.b = [Fraction(v) for v in self.b]
        if self.lower is None:
            self.lower = [Fraction(0)] * n
        else:
            self.lower = [Fraction(v) for v in self.lower]
        if self.upper is None:
            self.upper = [None] * n
        else:
            self.upper = [None if v is None else Fraction(v) for v in self.upper]
        for row in self.A:
            for j in row:
                if not 0 <= j < n:
                    raise ValueError(f"column index {j} out of range "
                                     f"0..{n - 1}")
        if len(self.b) != len(self.A):
            raise ValueError("b length mismatch")
        if len(self.lower) != n or len(self.upper) != n:
            raise ValueError("bounds length mismatch")
        for lo, up in zip(self.lower, self.upper):
            if up is not None and lo > up:
                raise ValueError("lower bound exceeds upper bound")

    @property
    def num_vars(self):
        return len(self.objective)

    @property
    def num_constraints(self):
        return len(self.b)


@dataclass
class LPSolution:
    status: str                      # Optimal | Infeasible | Unbounded
    x: list = None                   # Fractions, length N
    objective: Fraction = None
    basis: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)  # counts and basis_det
    duals: list = None               # Fractions, length M; Optimal only


def _exact(v):
    """v as an int when it is integral, else as a Fraction."""
    if type(v) is int or v.denominator != 1:
        return v
    return v.numerator


def _number(v):
    """v as an int when it is integral, else as a Fraction; ints pass as
    they are."""
    return v if type(v) is int else _exact(Fraction(v))


def _div(a, b):
    """Exact a / b for nonzero b, normalised by `_exact`."""
    if b == 1:
        return a
    if b == -1:
        return -a
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _exact(a / b)


def _bland(d, movable, status):
    """Bland's rule: the lowest-index improving column and its direction (1
    up from its lower bound, -1 down from its upper), or None if none."""
    for j, dj in enumerate(d):
        if dj and movable[j]:
            if dj < 0 and status[j] == _AT_LOWER:
                return j, 1
            if dj > 0 and status[j] == _AT_UPPER:
                return j, -1
    return None


class _Tableau:
    """Bounded-variable simplex state: the integer rows N = D B^{-1} [A | I]
    over one positive int D = |det B|, and the reduced costs as D d."""

    def __init__(self, lower, upper, basis, rows, beta, status):
        self.lower = lower
        self.upper = upper
        self.basis = basis          # basis[r] = variable index of row r
        self.rows = rows            # rows[r] = {column: nonzero int}
        self.det = 1                # D; the initial basis is diagonal, +-1
        self.beta = beta            # values of basic variables
        self.status = status        # _AT_LOWER/_AT_UPPER; None when basic
        self.pivots = 0
        self.bound_flips = 0
        self.d = None               # D d, ints, of the last minimize

    def point(self, n):
        x = [self.lower[j] if self.status[j] == _AT_LOWER else self.upper[j]
             for j in range(n)]
        for r, bj in enumerate(self.basis):
            if bj < n:
                x[bj] = self.beta[r]
        return x

    def stats(self, phase1_pivots):
        return {"phase1_pivots": phase1_pivots,
                "phase2_pivots": self.pivots - phase1_pivots,
                "bound_flips": self.bound_flips,
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
            if p != 1:
                for k, v in row.items():
                    row[k] = p * v
            for k, v in prow.items():
                w = row.get(k, 0) - f * v
                if w:
                    row[k] = w
                else:
                    del row[k]
            if det != 1:
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
        """Run Bland-rule simplex on the current basis, for int costs;
        returns 'Optimal' or 'Unbounded'."""
        rows, basis, beta = self.rows, self.basis, self.beta
        lower, upper, status = self.lower, self.upper, self.status
        # D d = D cost - c_B N, kept current below
        det = self.det
        self.d = d = [c * det for c in cost]
        for r, row in enumerate(rows):
            cr = cost[basis[r]]
            if cr:
                for k, v in row.items():
                    d[k] -= cr * v
        # a fixed variable can never improve
        movable = [up is None or lo != up for lo, up in zip(lower, upper)]
        while True:
            # D > 0, so D d has the signs of d
            entering = _bland(d, movable, status)
            if entering is None:
                return "Optimal"
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
                    t = _div((beta[r] - lower[bv]) * det, abs(v))
                    bound = _AT_LOWER
                elif upper[bv] is None:
                    continue
                else:
                    t = _div((upper[bv] - beta[r]) * det, abs(v))
                    bound = _AT_UPPER
                if (best_t is None or t < best_t
                        or (t == best_t and bv < basis[leave_row])):
                    best_t, leave_row, leave_bound = t, r, bound
            flip_t = None
            if upper[j] is not None:
                flip_t = upper[j] - lower[j]
            if best_t is None and flip_t is None:
                return "Unbounded"
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
            start = lower[j] if direction == 1 else upper[j]
            beta[r] = _exact(start + step)
            leaving, prow = self.pivot(r, j, col)
            status[leaving] = leave_bound
            # the D d row is one more row in column j
            p, f = self.det, d[j]
            if p != 1:
                d[:] = [p * v for v in d]
            for k, v in prow.items():
                d[k] -= f * v
            if det != 1:
                d[:] = [v // det for v in d]


def simplex_solve(lp: LinearProgram) -> LPSolution:
    """Two-phase exact simplex; every Optimal result is a vertex with
    A x = b satisfied exactly. `stats` counts the pivots of each phase
    (phase 1 includes driving leftover artificials out of the basis) and
    the bound flips of both, and gives basis_det, the final D.

    Every Optimal result proves itself by a dual certificate. Phase 2
    prices with scale * f; the artificial columns of its final tableau hold
    the row operations G, so their reduced costs are -pi, pi = c_B G, each
    divided by its row's scale ell_i. The check recomputes
    r = scale * f - A'pi from A's nonzeros and demands lower <= x <= upper,
    x_j = lower_j where r_j > 0 and x_j = upper_j where r_j < 0. Then for
    any feasible x', scale * f x' = pi b + r x' >= pi b + r x = scale * f x,
    so x is optimal. `duals` is pi / scale.
    """
    m, n = lp.num_constraints, lp.num_vars
    lower = [_exact(v) for v in lp.lower] + [0] * m
    upper = [None if v is None else _exact(v) for v in lp.upper] + [None] * m
    # row i is scaled by the lcm of its denominators, so the tableau starts
    # in the integers; this scales artificial i by that factor too
    ell = [math.lcm(*(a.denominator for a in row.values())) for row in lp.A]
    # start nonbasic at lower bounds; artificials absorb the residual
    resid = [_exact(lp.b[i] - sum(a * lower[j] for j, a in row.items()))
             for i, row in enumerate(lp.A)]
    rows = []
    for i, row in enumerate(lp.A):
        s = 1 if resid[i] >= 0 else -1
        tr = {j: int(s * a * ell[i]) for j, a in row.items()}
        tr[n + i] = s
        rows.append(tr)
    beta = [abs(v) * e for v, e in zip(resid, ell)]
    basis = [n + i for i in range(m)]
    status = [_AT_LOWER] * n + [None] * m
    tab = _Tableau(lower, upper, basis, rows, beta, status)

    # phase 1 minimizes lcm(ell) times the sum of the unscaled artificials:
    # every reduced cost is a positive multiple of the unscaled one, so no
    # pivot changes
    big = math.lcm(*ell)
    phase1_cost = [0] * n + [big // e for e in ell]
    tab.minimize(phase1_cost)
    infeas = sum(tab.beta[r] for r in range(m) if tab.basis[r] >= n)
    if infeas > 0:
        return LPSolution(status="Infeasible", stats=tab.stats(tab.pivots))
    # drive leftover artificials out of the basis where possible, then pin
    # them to zero so phase 2 cannot move them; the lowest-index column
    # with a nonzero in the row enters at its current value
    for r in range(m):
        if tab.basis[r] >= n:
            j = min((k for k in tab.rows[r] if k < n), default=None)
            if j is not None:
                val = lower[j] if status[j] == _AT_LOWER else upper[j]
                leaving, _ = tab.pivot(r, j, tab.column(j))
                tab.beta[r] = val
                status[leaving] = _AT_LOWER
    for k in range(n, n + m):
        upper[k] = 0
    phase1_pivots = tab.pivots

    # phase 2 prices with the objective times the lcm of its denominators:
    # a positive factor changes no sign, so no pivot changes, and D d stays
    # in the integers
    scale = math.lcm(*(v.denominator for v in lp.objective))
    phase2_cost = [_exact(v * scale) for v in lp.objective] + [0] * m
    outcome = tab.minimize(phase2_cost)
    stats = tab.stats(phase1_pivots)
    if outcome == "Unbounded":
        return LPSolution(status="Unbounded", stats=stats)
    x = tab.point(n)
    # exactness check, zero tolerance
    for row, rhs in zip(lp.A, lp.b):
        if sum(a * x[j] for j, a in row.items()) != rhs:
            raise AssertionError("simplex returned a point with A x != b")
    # dual certificate, in the phase-2 units of 1/scale; the D d row holds
    # D times artificial i's reduced cost, -pi_i / ell_i
    pi = [_div(-v * e, tab.det) for v, e in zip(tab.d[n:], ell)]
    r = phase2_cost[:n]
    for row, p in zip(lp.A, pi):
        if p:
            for j, a in row.items():
                r[j] -= a * p
    for v, lo, up, rj in zip(x, lower, upper, r):
        if v < lo or (up is not None and v > up):
            raise AssertionError("simplex returned a point outside its bounds")
        if (rj > 0 and v != lo) or (rj < 0 and v != up):
            raise AssertionError("simplex optimum fails its dual certificate")
    obj = Fraction(sum(lp.objective[j] * v for j, v in enumerate(x) if v))
    return LPSolution(status="Optimal", x=[Fraction(v) for v in x],
                      objective=obj,
                      basis=sorted(bj for bj in tab.basis if bj < n),
                      stats=stats, duals=[Fraction(p, scale) for p in pi])
