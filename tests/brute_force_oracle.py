"""The exhaustive OHCP oracle, a reference for the exact solve: it tries
every bounding chain y in a box, so its cost grows exponentially in the
number of (p+1)-simplices. Do not optimise or "fix" this file."""
import math
from fractions import Fraction

from ohcp.complexes import InputError, boundary_matrix
from ohcp.solver import OHCPInstance, OHCPSolution
from ohcp.tu import BudgetExceeded

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
