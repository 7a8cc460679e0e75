"""Assemble and solve optimal-homologous-chain instances.

A p-chain x is homologous to the input chain c when x = c + B y for an
integer (p+1)-chain y, B the (p+1)-boundary matrix. Minimizing the weighted
1-norm of x is a linear program after the usual +-splitting of variables:
columns are ordered [x+, x-, y+, y-]. Three variants:

  L1          min sum |w_i| (x_i^+ + x_i^-)
  L0Box       same with W = I, c in {-1,0,1}^m, and x^+, x^- <= 1, which
              makes the optimum the homologous chain of minimal support
  TotalWeight adds |v_j| (y_j^+ + y_j^-) so the bounding chain is paid for
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .complexes import InputError, SimplicialComplex, boundary_matrix
from .lp import LinearProgram, simplex_solve
from .tu import BudgetExceeded

VARIANTS = ("L1", "L0Box", "TotalWeight")


@dataclass
class OHCPInstance:
    K: SimplicialComplex
    p: int
    c: list                    # integer chain vector, length m
    weights: list              # rationals, length m; absolute values used
    variant: str = "L1"
    y_weights: list = None     # rationals, length n; TotalWeight only

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        m = self.K.count(self.p)
        n = self.K.count(self.p + 1)
        if len(self.c) != m:
            raise ValueError(f"chain length {len(self.c)} != {m} p-simplices")
        if len(self.weights) != m:
            raise ValueError(f"weight length {len(self.weights)} != {m}")
        self.c = [int(v) for v in self.c]
        self.weights = [Fraction(w) for w in self.weights]
        if self.variant == "L0Box":
            if any(v not in (-1, 0, 1) for v in self.c):
                raise ValueError("L0Box requires chain entries in {-1,0,1}")
            if any(abs(w) != 1 for w in self.weights):
                raise ValueError("L0Box requires identity weights")
        if self.variant == "TotalWeight":
            if self.y_weights is None or len(self.y_weights) != n:
                raise ValueError("TotalWeight requires y-weights of length "
                                 f"{n}")
            self.y_weights = [Fraction(w) for w in self.y_weights]

    @property
    def m(self):
        return self.K.count(self.p)

    @property
    def n(self):
        return self.K.count(self.p + 1)


@dataclass
class OHCPSolution:
    x_star: list               # integers if integral, else Fractions
    y_witness: list
    objective: Fraction
    integral: bool
    variant: str
    torsion_note: str = None

    def nnz(self):
        return sum(1 for v in self.x_star if v != 0)

    def y_support(self):
        return [j for j, v in enumerate(self.y_witness) if v != 0]


def _boundary_columns(inst: OHCPInstance):
    """The complex's cached sparse columns of B; none when p is the top
    dimension."""
    return inst.K.boundary_columns(inst.p + 1) if inst.n else []


def assemble(inst: OHCPInstance) -> LinearProgram:
    """The LP of `inst`, one sparse row per p-simplex i:
    x_i^+ - x_i^- - (B y^+)_i + (B y^-)_i = c_i, in O(nnz(B))."""
    m, n = inst.m, inst.n
    rows = [{i: 1, m + i: -1} for i in range(m)]
    for j, col in enumerate(_boundary_columns(inst)):
        for i, e in col.items():
            rows[i][2 * m + j] = -e
            rows[i][2 * m + n + j] = e
    x_cost = [abs(w) for w in inst.weights]
    y_cost = ([abs(v) for v in inst.y_weights]
              if inst.variant == "TotalWeight" else [0] * n)
    x_upper = 1 if inst.variant == "L0Box" else None
    return LinearProgram(objective=x_cost * 2 + y_cost * 2, A=rows, b=inst.c,
                         upper=[x_upper] * (2 * m) + [None] * (2 * n))


def solve(inst: OHCPInstance) -> OHCPSolution:
    """Assemble the chosen variant, solve exactly, reconstruct x and y.

    Non-integral vertices (possible only over non-TU boundary matrices) are
    returned as-is with integral=False and a note; they are never rounded.
    """
    lp = assemble(inst)
    sol = simplex_solve(lp)
    if sol.status != "Optimal":
        raise AssertionError(f"OHCP LP came back {sol.status}; it is always "
                             "feasible and bounded")
    m, n = inst.m, inst.n
    x = [sol.x[i] - sol.x[m + i] for i in range(m)]
    y = [sol.x[2 * m + j] - sol.x[2 * m + n + j] for j in range(n)]
    c_by = list(inst.c)
    for yj, col in zip(y, _boundary_columns(inst)):
        if yj:
            for i, e in col.items():
                c_by[i] += e * yj
    if x != c_by:
        raise AssertionError("reconstructed chain violates x = c + B y")
    integral = all(v.denominator == 1 for v in x + y)
    note = None
    if not integral:
        note = ("optimum is fractional; the boundary matrix is not totally "
                "unimodular -- run a torsion scan for a witness")
    if integral:
        x = [int(v) for v in x]
        y = [int(v) for v in y]
    return OHCPSolution(x_star=x, y_witness=y, objective=sol.objective,
                        integral=integral, variant=inst.variant,
                        torsion_note=note)


# Candidates the oracle holds at once; at m = 12, n = 6 (the Moebius strip)
# a block peaks at about 6 MB of numpy arrays.
ORACLE_BLOCK = 1 << 14


def brute_force_oracle(inst: OHCPInstance, y_bound: int,
                       budget: int = 10 ** 7) -> OHCPSolution:
    """Exhaustive oracle: try every y in [-y_bound, y_bound]^n.

    Independent of the simplex path; enumeration is vectorized with exact
    integer arithmetic (weights are cleared of denominators first): int64
    when a bound on every |x_i| and objective value fits, else Python ints
    (dtype=object), so nothing wraps around. Candidates are taken in
    lexicographic order of y, ORACLE_BLOCK at a time, so memory does not
    grow with their number; a later block replaces the best candidate only
    when strictly better, so ties go to the lexicographically smallest y.
    """
    import numpy as np

    m, n = inst.m, inst.n
    if y_bound < 0:
        raise InputError("y_bound must be >= 0")
    count = (2 * y_bound + 1) ** n
    if count > budget:
        raise BudgetExceeded(f"{count} candidates exceed budget {budget}")
    dens = [w.denominator for w in inst.weights]
    if inst.variant == "TotalWeight":
        dens += [v.denominator for v in inst.y_weights]
    scale = math.lcm(*dens) if dens else 1
    w_int = [abs(int(w * scale)) for w in inst.weights]
    v_int = ([abs(int(v * scale)) for v in inst.y_weights]
             if inst.variant == "TotalWeight" else [])
    B = boundary_matrix(inst.K, inst.p + 1) if n else []
    row_abs = [sum(abs(e) for e in row) for row in B] if n else [0] * m
    x_max = [abs(ci) + y_bound * r for ci, r in zip(inst.c, row_abs)]
    bound = (sum(w * x for w, x in zip(w_int, x_max))
             + y_bound * sum(v_int) + max(x_max, default=0))
    dtype = np.int64 if bound < np.iinfo(np.int64).max else object
    c = np.array(inst.c, dtype=dtype)
    Bt = np.array(B, dtype=dtype).reshape(m, n).T
    w_np = np.array(w_int, dtype=dtype)
    v_np = np.array(v_int, dtype=dtype)
    base = 2 * y_bound + 1
    place = base ** np.arange(n - 1, -1, -1)    # y[0] is the slowest digit
    best = None                 # (scaled objective, x, y)
    for start in range(0, count, ORACLE_BLOCK):
        idx = np.arange(start, min(start + ORACLE_BLOCK, count))
        ys = (idx[:, None] // place % base - y_bound).astype(dtype)
        xs = c[None, :] + ys @ Bt
        obj = np.abs(xs) @ w_np
        if inst.variant == "TotalWeight":
            obj = obj + np.abs(ys) @ v_np
        if inst.variant == "L0Box":
            obj = np.where((np.abs(xs) <= 1).all(axis=1), obj, bound + 1)
        k = int(np.argmin(obj))
        if best is None or obj[k] < best[0]:
            best = (int(obj[k]), [int(v) for v in xs[k]],
                    [int(v) for v in ys[k]])
    value, x, y = best
    if value > bound:
        raise AssertionError("no {-1,0,1} chain found; y_bound too small")
    objective = Fraction(value, scale)
    return OHCPSolution(x_star=x, y_witness=y, objective=objective,
                        integral=True, variant=inst.variant)
