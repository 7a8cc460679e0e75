#!/usr/bin/env python3
"""The hourglass phenomenon: on a pinched cylinder whose middle ring is
much cheaper than everything else, the chain homologous to the sum of both
boundary rings with minimal weighted length runs around the middle ring
*twice* -- the optimum has coefficients of magnitude 2 even though the
input chain is unit. Under the L0Box (minimal support) variant the optimum
is a {-1,0,1} chain instead."""
from ohcp import fixtures
from ohcp.solver import OHCPInstance, solve


def show(sol, K, label):
    print(f"{label}: objective {sol.objective}, integral {sol.integral}")
    edges = K.simplices(1)
    support = {edges[i]: v for i, v in enumerate(sol.x_star) if v != 0}
    print(f"  optimal chain: {support}")


def dual_objective(inst, z):
    """The objective of the LP dual at the certificate z: c.z, less
    sum max(0, |z_i| - 1) under L0Box, whose x^+ and x^- are capped at 1."""
    value = sum(ci * zi for ci, zi in zip(inst.c, z))
    if inst.variant == "L0Box":
        value -= sum(max(0, abs(zi) - 1) for zi in z)
    return value


def main():
    K, w, c = fixtures.hourglass()
    print("hourglass: two stacked triangulated bands; middle-ring edges "
          "weigh 1, all others 10")
    print(f"input chain c = c1 + c2 (both boundary rings), "
          f"{sum(1 for v in c if v)} edges\n")

    inst1 = OHCPInstance(K=K, p=1, c=c, weights=w, variant="L1")
    sol1 = solve(inst1)
    show(sol1, K, "L1 optimum")
    dual1 = dual_objective(inst1, sol1.dual)
    print(f"  dual certificate objective: {dual1} "
          f"({'match' if dual1 == sol1.objective else 'MISMATCH'})\n")

    inst0 = OHCPInstance(K=K, p=1, c=c, weights=[1] * K.count(1),
                         variant="L0Box")
    sol0 = solve(inst0)
    show(sol0, K, "L0Box optimum (unit weights, minimal support)")
    dual0 = dual_objective(inst0, sol0.dual)
    print(f"  dual certificate objective: {dual0} "
          f"({'match' if dual0 == sol0.objective else 'MISMATCH'})")


if __name__ == "__main__":
    main()
