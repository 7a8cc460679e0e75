#!/usr/bin/env python3
"""The seven-tetrahedra complex: its 3-boundary matrix is not totally
unimodular, yet the complex contains no 3-dimensional Moebius subcomplex.
The Moebius-cycle characterization of TU therefore fails above dimension
p = 1, and the bad minor can only be found by enumeration."""
import time

from ohcp import fixtures
from ohcp.complexes import coface_map
from ohcp.homology import torsion_witness_from_submatrix
from ohcp.tu import find_mobius_subcomplex, is_tu_minor_enumeration


def main():
    K = fixtures.seven_tetrahedra()
    print(f"complex: {K}")
    print(f"3-boundary matrix: {K.count(2)} x {K.count(3)}")

    t0 = time.time()
    verdict = is_tu_minor_enumeration(K.boundary_columns(3), col_cap=16)
    dt = time.time() - t0
    print(f"\nminor enumeration ({dt:.2f}s): {verdict.status}")
    print(f"  witness minor: rows {verdict.witness_rows}, "
          f"cols {verdict.witness_cols}, det {verdict.witness_det}")

    w = find_mobius_subcomplex(K.boundary_columns(3), coface_map(K, 3), 3)
    print(f"\n3-dimensional Moebius subcomplex search: "
          f"{'found ' + str(w.simplices) if w else 'none found'}")

    tw = torsion_witness_from_submatrix(K, 2, verdict.witness_rows,
                                        verdict.witness_cols)
    print(f"\nrelative torsion witness: L = all {len(tw.L_cols)} tetrahedra, "
          f"L0 = {len(tw.L0_rows)} excluded triangles, "
          f"torsion coefficient {tw.torsion_coefficient}")


if __name__ == "__main__":
    main()
