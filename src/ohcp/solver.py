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

from dataclasses import dataclass
from fractions import Fraction

from .complexes import SimplicialComplex
from .lp import LinearProgram, simplex_solve

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
    dual: list = None          # z, one rational per p-simplex; see solve


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
    return LinearProgram(objective=x_cost * 2 + y_cost * 2, A=rows, b=inst.c,
                         box=inst.variant == "L0Box")


def solve(inst: OHCPInstance) -> OHCPSolution:
    """Assemble the chosen variant, solve exactly, reconstruct x and y.

    Non-integral vertices (possible only over non-TU boundary matrices) are
    returned as-is with integral=False and a note; they are never rounded.

    `dual` is z, the LP's row duals, which prove the objective optimal:
    |z_i| <= |w_i| (L1, TotalWeight), B'z = 0 (L1, L0Box) or
    |(B'z)_j| <= |v_j| (TotalWeight), and the objective is c z, less
    sum max(0, |z_i| - 1) for L0Box.
    """
    lp = assemble(inst)
    sol = simplex_solve(lp)
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
                        torsion_note=note, dual=sol.duals)
