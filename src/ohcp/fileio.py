"""Text file formats.

.scx  complex: one maximal simplex per line (vertex ids), '#' comments
.chn  chain:   "coeff v0 v1 ... vp"; sign adjusted by permutation parity
.wts  weights: "num/den v0 ... vp"; unlisted simplices default to weight 1
.xyz  coords:  "vid x1 ... xd"
.mat  matrix:  "m n" header, then m rows of n signed integers

A weight or coordinate is an integer, a decimal or p/q; nothing else.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction

from .complexes import InputError, SimplicialComplex, build_closure, canonical


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


def parse_chain(text: str, K: SimplicialComplex, p: int) -> list:
    """The coefficient vector of a .chn text, one int per p-simplex."""
    x = [0] * K.count(p)
    for lineno, line in _content_lines(text):
        toks = line.split()
        if len(toks) != p + 2:
            raise InputError(f"line {lineno}: expected coeff and {p + 1} vertices")
        try:
            coeff = int(toks[0])
        except ValueError:
            raise InputError(f"line {lineno}: non-integer coefficient {toks[0]!r}") from None
        verts, sign = canonical(_ints(toks[1:], lineno, "vertex ids"))
        x[K.index_of(p, verts)] += coeff * sign
    return x


def write_chain(K: SimplicialComplex, p: int, x) -> str:
    """The .chn text of the p-chain vector x: its nonzeros in basis order."""
    lines = []
    for verts, coeff in zip(K.simplices(p), x):
        if coeff:
            lines.append(f"{coeff} " + " ".join(map(str, verts)))
    return "\n".join(lines) + "\n"


# an optional sign, then digits with a /denominator or a .fraction; no
# exponent, so a number's size is bounded by its token's, and int() checks
# the digits and the '_' between them
_RATIONAL = re.compile(r"([-+]?)(?=\.?\d)([\d_]*)(?:/([\d_]+)|\.([\d_]*))?")


def _parse_rational(tok: str) -> Fraction:
    """An integer, a decimal or p/q, as an exact Fraction."""
    m = _RATIONAL.fullmatch(tok)
    if m is None:
        raise InputError(f"bad rational {tok!r}")
    sign, num, den, frac = m.groups()
    try:
        num = int(num) if num else 0
        den = int(den) if den else 1
        if frac:
            den = 10 ** len(frac.replace("_", ""))
            num = num * den + int(frac)
        return Fraction(-num if sign == "-" else num, den)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad rational {tok!r}") from None


def parse_weights(text: str, K: SimplicialComplex, p: int):
    weights = [Fraction(1)] * K.count(p)
    for lineno, line in _content_lines(text):
        toks = line.split()
        if len(toks) != p + 2:
            raise InputError(f"line {lineno}: expected weight and {p + 1} vertices")
        verts, _ = canonical(_ints(toks[1:], lineno, "vertex ids"))
        weights[K.index_of(p, verts)] = _parse_rational(toks[0])
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
        "nnz": sum(1 for v in sol.x_star if v != 0),
        "y_support": [j for j, v in enumerate(sol.y_witness) if v != 0],
    }
    if sol.torsion_note:
        doc["note"] = sol.torsion_note
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
