"""Text file formats.

.scx  complex: one maximal simplex per line (vertex ids), '#' comments
.chn  chain:   "coeff v0 v1 ... vp"; sign adjusted by permutation parity
.wts  weights: "num/den v0 ... vp"; unlisted simplices default to weight 1
.xyz  coords:  "vid x1 ... xd" with decimal rationals
.mat  matrix:  "m n" header, then m rows of n signed integers
"""
from __future__ import annotations

import json
from fractions import Fraction

from .complexes import Chain, InputError, Simplex, SimplicialComplex, build_closure


def _content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _ints(toks, lineno, what):
    try:
        return [int(t) for t in toks]
    except ValueError:
        raise InputError(f"line {lineno}: expected integer {what}") from None


def parse_complex(text: str) -> SimplicialComplex:
    maximal = [_ints(line.split(), lineno, "vertex ids")
               for lineno, line in _content_lines(text)]
    return build_closure(maximal)


def parse_chain(text: str, K: SimplicialComplex, p: int) -> Chain:
    coeffs = {}
    for lineno, line in _content_lines(text):
        toks = line.split()
        if len(toks) != p + 2:
            raise InputError(f"line {lineno}: expected coeff and {p + 1} vertices")
        try:
            coeff = int(toks[0])
        except ValueError:
            raise InputError(f"line {lineno}: non-integer coefficient {toks[0]!r}") from None
        s = Simplex.from_vertices(_ints(toks[1:], lineno, "vertex ids"))
        idx = K.index_of(p, s.vertices)
        coeffs[idx] = coeffs.get(idx, 0) + coeff * s.sign
    return Chain(p, coeffs)


def write_chain(K: SimplicialComplex, c: Chain) -> str:
    lines = []
    for idx in sorted(c.coeffs):
        verts = K.simplices(c.dim)[idx]
        lines.append(f"{c.coeffs[idx]} " + " ".join(map(str, verts)))
    return "\n".join(lines) + "\n"


def _parse_rational(tok: str) -> Fraction:
    try:
        return Fraction(tok)  # handles "p/q", ints, and decimal strings
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad rational {tok!r}") from None


def parse_weights(text: str, K: SimplicialComplex, p: int):
    weights = [Fraction(1)] * K.count(p)
    for lineno, line in _content_lines(text):
        toks = line.split()
        if len(toks) != p + 2:
            raise InputError(f"line {lineno}: expected weight and {p + 1} vertices")
        s = Simplex.from_vertices(_ints(toks[1:], lineno, "vertex ids"))
        weights[K.index_of(p, s.vertices)] = _parse_rational(toks[0])
    return weights


def parse_coordinates(text: str):
    coords = {}
    dim = None
    for lineno, line in _content_lines(text):
        toks = line.split()
        if len(toks) < 2:
            raise InputError(f"line {lineno}: expected vertex id and coordinates")
        vid = _ints(toks[:1], lineno, "vertex id")[0]
        pt = [_parse_rational(t) for t in toks[1:]]
        if dim is None:
            dim = len(pt)
        elif len(pt) != dim:
            raise InputError(f"line {lineno}: ambient dimension changed")
        coords[vid] = pt
    return coords


def parse_matrix(text: str):
    """(sparse rows, column count n) of a .mat text."""
    lines = list(_content_lines(text))
    if not lines:
        raise InputError("empty matrix file")
    header = lines[0][1].split()
    if len(header) != 2:
        raise InputError("matrix header must be 'm n'")
    m, n = _ints(header, lines[0][0], "matrix header 'm n'")
    if len(lines) != m + 1:
        raise InputError(f"expected {m} matrix rows, got {len(lines) - 1}")
    rows = []
    for lineno, line in lines[1:]:
        row = _ints(line.split(), lineno, "matrix entries")
        if len(row) != n:
            raise InputError(f"line {lineno}: expected {n} entries")
        rows.append({j: v for j, v in enumerate(row) if v})
    return rows, n


def solution_summary(sol) -> str:
    """JSON summary of an OHCP solution; all numbers exact."""
    obj = sol.objective
    doc = {
        "objective": f"{obj.numerator}/{obj.denominator}",
        "integral": sol.integral,
        "variant": sol.variant,
        "nnz": sol.nnz(),
        "y_support": sol.y_support(),
    }
    if sol.torsion_note:
        doc["note"] = sol.torsion_note
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
