"""Assemble and solve optimal-homologous-chain instances.

A p-chain x is homologous to the input chain c when x = c + B y for an
integer (p+1)-chain y, B the (p+1)-boundary matrix. Minimizing the weighted
1-norm of x over the rational y is the linear program that `ohcp.lp`
solves, given B, c and one cost per simplex. Three variants:

  L1          min sum |w_i| |x_i|
  L0Box       same with W = I, c in {-1,0,1}^m, and |x_i| <= 1, which
              makes the optimum the homologous chain of minimal support
  TotalWeight adds sum |v_j| |y_j| so the bounding chain is paid for
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import InputError, SimplicialComplex
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
            raise InputError(f"unknown variant {self.variant!r}")
        if not 0 <= self.p <= self.K.dim:
            if self.K.dim < 0:
                raise InputError(f"complex has no {self.p}-simplices")
            raise InputError(f"dimension {self.p} out of range "
                             f"0..{self.K.dim}")
        if len(self.c) != self.m:
            raise InputError(f"chain length {len(self.c)} != {self.m} "
                             "p-simplices")
        if len(self.weights) != self.m:
            raise InputError(f"weight length {len(self.weights)} != {self.m}")
        self.c = [int(v) for v in self.c]
        self.weights = [w if isinstance(w, Fraction) else Fraction(w)
                        for w in self.weights]
        if self.variant == "L0Box":
            if any(v not in (-1, 0, 1) for v in self.c):
                raise InputError("L0Box requires chain entries in {-1,0,1}")
            if any(abs(w) != 1 for w in self.weights):
                raise InputError("L0Box requires identity weights")
        if self.variant == "TotalWeight":
            if self.y_weights is None or len(self.y_weights) != self.n:
                raise InputError("TotalWeight requires y-weights of length "
                                 f"{self.n}")
            self.y_weights = [w if isinstance(w, Fraction) else Fraction(w)
                              for w in self.y_weights]

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
    dual: list = None          # z, one rational per p-simplex; see solve


def assemble(inst: OHCPInstance) -> LinearProgram:
    """The LP of `inst`: the complex's cached columns of B themselves (none
    when p is the top dimension), c, and the absolute weights as the costs
    of x and, for TotalWeight only, of y. A non-negative weight is kept as
    it is: abs() would build a new Fraction for it."""
    y_cost = ([v if v.numerator >= 0 else -v for v in inst.y_weights]
              if inst.variant == "TotalWeight" else [0] * inst.n)
    B = inst.K.boundary_columns(inst.p + 1) if inst.n else []
    return LinearProgram(B=B, c=inst.c,
                         x_cost=[w if w.numerator >= 0 else -w
                                 for w in inst.weights],
                         y_cost=y_cost, box=inst.variant == "L0Box")


def solve(inst: OHCPInstance) -> OHCPSolution:
    """Assemble the chosen variant and solve it exactly. `simplex_solve`
    checks x = c + B y, the bounds and the dual certificate in the ints of
    its final tableau before it returns, so no check is repeated here.

    Non-integral vertices (possible only over non-TU boundary matrices) are
    returned as-is with integral=False; they are never rounded.

    `dual` is z, the LP's row duals, which prove the objective optimal:
    |z_i| <= |w_i| (L1, TotalWeight), B'z = 0 (L1, L0Box) or
    |(B'z)_j| <= |v_j| (TotalWeight), and the objective is c z, less
    sum max(0, |z_i| - 1) for L0Box.
    """
    lp = assemble(inst)
    sol = simplex_solve(lp)
    integral = all(v.denominator == 1 for v in sol.x + sol.y)
    return OHCPSolution(x_star=sol.x, y_witness=sol.y,
                        objective=sol.objective, integral=integral,
                        variant=inst.variant, dual=sol.duals)
