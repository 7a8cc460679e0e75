"""Optimal homologous chains over the integers, with TU certification.

Solve min ||W x||_1 over integer p-chains x homologous to a given chain c,
by exact-rational linear programming, and certify when the LP relaxation is
guaranteed integral (totally unimodular boundary matrix / torsion-free
relative homology).

The package root re-exports nothing; import from the submodules
(`ohcp.complexes`, `ohcp.solver`, `ohcp.tu`, ...).
"""

__version__ = "0.1.0"
