"""Untimed output checker for the ohcp benchmark.

It never calls into `ohcp` to recompute an answer. It reads the same input
files `ohcp` read, rebuilds boundary matrices with its own sparse code, and
checks each operation's output:

* solve: x from the `--out` chain file, y solved exactly from x - c = ∂y on
  the reported y support, the objective recomputed exactly, the L0 box,
  exit 3 exactly when the optimum is fractional, and the LP optimum against
  scipy's HiGHS at a 1e-9 relative tolerance. A TU verdict on the same
  complex (from `ohcp tu`, untimed) must come with an integral solve, and
  every NotTU witness determinant is recomputed here by exact elimination.
* torsion-scan: witness |det| >= 2 recomputed, the torsion coefficient
  checked against the relative boundary matrix, the orientable route
  re-derived, exit 5 only where the ladder allows the budget to run out.
* homology: Betti numbers from ranks over GF(2^31 - 1) and the count of
  torsion coefficients divisible by 2 and by 3 from ranks over GF(2) and
  GF(3); a TU complex has no torsion.

Each check returns a list of problems; an empty list is a pass.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from fractions import Fraction

import numpy as np

from gen import closure, perm_sign

BIG_PRIME = 2147483647          # 2^31 - 1: products of residues fit in int64
REL_TOL = 1e-9
DENOMINATOR = 10 ** 9           # ohcp rounds Euclidean volumes to 1/10^9


# ---------------------------------------------------------------- files

def _lines(path):
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.split("#", 1)[0].split()
            if line:
                yield line


def read_complex(path):
    levels = closure([tuple(int(t) for t in toks) for toks in _lines(path)])
    index = [{s: i for i, s in enumerate(level)} for level in levels]
    return levels, index


def boundary_columns(levels, index, q):
    """Column j of ∂_q as {row: sign} for the j-th q-simplex."""
    cols = []
    for s in levels[q]:
        col = {}
        for i in range(len(s)):
            col[index[q - 1][s[:i] + s[i + 1:]]] = (-1) ** i
        cols.append(col)
    return cols


def dense(cols, m):
    A = np.zeros((m, len(cols)), dtype=np.int64)
    for j, col in enumerate(cols):
        for i, v in col.items():
            A[i, j] = v
    return A


def read_chain(path, index, p):
    vec = {}
    for toks in _lines(path):
        verts = tuple(int(t) for t in toks[1:])
        i = index[p][tuple(sorted(verts))]
        vec[i] = vec.get(i, 0) + int(toks[0]) * perm_sign(verts)
    return {i: v for i, v in vec.items() if v}


def read_weights(path, levels, index, q):
    w = [Fraction(1)] * len(levels[q])
    if path:
        for toks in _lines(path):
            w[index[q][tuple(sorted(int(t) for t in toks[1:]))]] = \
                abs(Fraction(toks[0]))
    return w


def edge_lengths(path, levels):
    """Euclidean edge lengths, rounded to the nearest 1/10^9 unless exact."""
    pts = {int(t[0]): [Fraction(x) for x in t[1:]] for t in _lines(path)}
    out = []
    for a, b in levels[1]:
        v = sum((x - y) ** 2 for x, y in zip(pts[a], pts[b]))
        num, den = v.numerator, v.denominator
        s = math.isqrt(num * den)
        if s * s == num * den:
            out.append(Fraction(s, den))
            continue
        n = math.isqrt(num * DENOMINATOR ** 2 // den)
        if 4 * num * DENOMINATOR ** 2 > den * (2 * n + 1) ** 2:
            n += 1
        out.append(Fraction(n, DENOMINATOR))
    return out


# ---------------------------------------------------------------- algebra

def exact_det(rows, n):
    """Determinant of a square matrix given as sparse rows {col: int}, by
    Fraction elimination choosing the sparsest pivot row per column."""
    if len(rows) != n:
        raise ValueError("not square")
    work = {r: {c: Fraction(v) for c, v in row.items() if v}
            for r, row in enumerate(rows)}
    by_col = {}
    for r, row in work.items():
        for c in row:
            by_col.setdefault(c, set()).add(r)
    det, perm = Fraction(1), [None] * n
    for c in range(n):
        cand = by_col.get(c, set())
        if not cand:
            return 0
        r = min(cand, key=lambda k: (len(work[k]), k))
        prow = work.pop(r)
        for cc in prow:
            by_col[cc].discard(r)
        perm[c] = r
        piv = prow[c]
        det *= piv
        for other in list(by_col[c]):
            orow = work[other]
            f = orow[c] / piv
            for cc, v in prow.items():
                nv = orow.get(cc, 0) - f * v
                if nv:
                    if cc not in orow:
                        by_col.setdefault(cc, set()).add(other)
                    orow[cc] = nv
                else:
                    orow.pop(cc, None)
                    by_col[cc].discard(other)
    # sign of the permutation column c -> pivot row perm[c]
    seen, sign = [False] * n, 1
    for start in range(n):
        length, k = 0, start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return int(sign * det)


def rank_mod(A, prime):
    """Rank of an integer matrix over GF(prime)."""
    A = np.array(A, dtype=np.int64) % prime
    m, n = A.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        piv = r + nz[0]
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        A[r, c:] = A[r, c:] * pow(int(A[r, c]), prime - 2, prime) % prime
        below = r + 1 + np.flatnonzero(A[r + 1:, c])
        if below.size:
            f = A[below, c][:, None]
            A[below, c:] = (A[below, c:] - f * A[r, c:]) % prime
        r += 1
    return r


def solve_on_support(cols, support, rhs):
    """Unique exact y on `support` with Σ_j cols[j] y_j = rhs, or a reason."""
    eqs = {}
    for j in support:
        for i, v in cols[j].items():
            eqs.setdefault(i, [{}, Fraction(rhs.get(i, 0))])[0][j] = Fraction(v)
    for i, v in rhs.items():
        if v and i not in eqs:
            return None, f"x - c is nonzero on row {i}, outside the reach of y"
    rows = list(eqs.values())
    y = {}
    pivots = []
    for j in support:
        pr = next((e for e in rows if e[0].get(j)), None)
        if pr is None:
            return None, f"y support column {j} is not determined"
        rows.remove(pr)
        coeffs, b = pr
        piv = coeffs[j]
        for e in rows:
            f = e[0].get(j)
            if f:
                f = f / piv
                for jj, v in coeffs.items():
                    nv = e[0].get(jj, 0) - f * v
                    if nv:
                        e[0][jj] = nv
                    else:
                        e[0].pop(jj, None)
                e[1] -= f * b
        pivots.append((j, pr))
    if any(b != 0 for coeffs, b in rows if not coeffs):
        return None, "x - c is not in the span of the y support"
    for j, (coeffs, b) in reversed(pivots):
        y[j] = (b - sum(v * y[jj] for jj, v in coeffs.items() if jj != j)) \
            / coeffs[j]
    return y, None


# ---------------------------------------------------------------- HiGHS

def highs_objective(cols, m, c, w, variant, v):
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix, hstack, identity

    n = len(cols)
    rows = [i for col in cols for i in col]
    cidx = [j for j, col in enumerate(cols) for _ in col]
    vals = [-s for col in cols for s in col.values()]
    negB = coo_matrix((vals, (rows, cidx)), shape=(m, n))
    eye = identity(m, format="coo")
    blocks = [eye, -eye, negB] + ([-negB] if variant == "total" else [])
    A = hstack(blocks).tocsc()
    cost = [float(x) for x in w] * 2
    bounds = [(0, 1 if variant == "l0" else None)] * (2 * m)
    if variant == "total":
        cost += [float(x) for x in v] * 2
        bounds += [(0, None)] * (2 * n)
    else:
        cost += [0.0] * n
        bounds += [(None, None)] * n
    b = [float(c.get(i, 0)) for i in range(m)]
    res = linprog(cost, A_eq=A, b_eq=b, bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return res.fun


# ---------------------------------------------------------------- checks

class Checker:
    """Checks one workload's operations; caches per-complex work."""

    def __init__(self, run_tu):
        # run_tu(argv) -> (rc, stdout): an untimed `ohcp tu` call
        self.run_tu = run_tu
        self._complex = {}
        self._verdict = {}

    def complex(self, path):
        if path not in self._complex:
            self._complex[path] = read_complex(path)
        return self._complex[path]

    # -- witnesses -------------------------------------------------------

    def witness_problems(self, path, p, v):
        levels, index = self.complex(path)
        cols = boundary_columns(levels, index, p + 1)
        rows, wcols = v["witness_rows"], v["witness_cols"]
        if not rows or len(rows) != len(wcols):
            return ["NotTU verdict without a square witness"]
        rpos = {r: k for k, r in enumerate(rows)}
        sub = [dict() for _ in rows]
        for k, j in enumerate(wcols):
            for i, s in cols[j].items():
                if i in rpos:
                    sub[rpos[i]][k] = s
        d = exact_det(sub, len(rows))
        out = []
        if abs(d) < 2:
            out.append(f"witness determinant {d} has |det| < 2")
        if d != v["witness_det"]:
            out.append(f"witness det {v['witness_det']} != recomputed {d}")
        return out

    def orientable(self, path, q):
        """True iff every (q-1)-face has <= 2 cofaces and signs exist that
        cancel every interior face."""
        levels, index = self.complex(path)
        cols = boundary_columns(levels, index, q)
        cof = {}
        for j, col in enumerate(cols):
            for i, s in col.items():
                cof.setdefault(i, []).append((j, s))
        if any(len(v) > 2 for v in cof.values()):
            return False
        sign = [0] * len(cols)
        for start in range(len(cols)):
            if sign[start]:
                continue
            sign[start], stack = 1, [start]
            while stack:
                j = stack.pop()
                for i, s in cols[j].items():
                    for k, t in cof[i]:
                        if k == j:
                            continue
                        want = -sign[j] * s * t
                        if not sign[k]:
                            sign[k] = want
                            stack.append(k)
                        elif sign[k] != want:
                            return False
        return True

    def verdict(self, op):
        """Untimed `ohcp tu` verdict on the op's complex (cached)."""
        key = (op.argv[2], op.instance.p)
        if key not in self._verdict:
            rc, out = self.run_tu(["tu", "--complex", key[0],
                                   "--dim", str(key[1])])
            self._verdict[key] = json.loads(out) if rc == 0 else None
        return self._verdict[key]

    # -- solve -----------------------------------------------------------

    def check_solve(self, op, rc, out, err):
        inst, p = op.instance, op.instance.p
        path = op.argv[2]
        levels, index = self.complex(path)
        m = len(levels[p])
        cols = boundary_columns(levels, index, p + 1)
        base = path[:-len(".scx")]
        c = read_chain(base + ".chn", index, p)
        if inst.coords is not None:
            w = edge_lengths(base + ".xyz", levels)
        else:
            w = read_weights(base + ".wts" if op.variant != "l0" else None,
                             levels, index, p)
        v = (read_weights(base + ".ywts", levels, index, p + 1)
             if op.variant == "total" else None)
        try:
            doc = json.loads(out)
        except ValueError:
            return [f"stdout is not JSON (rc={rc}): {err.strip()[:200]}"]
        probs = []
        want_variant = {"l1": "L1", "l0": "L0Box", "total": "TotalWeight"}
        if doc.get("variant") != want_variant[op.variant]:
            probs.append(f"variant {doc.get('variant')!r}")
        integral = doc.get("integral")
        if rc != (0 if integral else 3):
            probs.append(f"exit {rc} with integral={integral}")
        if rc == 3 and "fractional" not in err:
            probs.append("exit 3 without the fractional-optimum warning")
        with open(op.out + ".json", encoding="utf-8") as f:
            if f.read() != out:
                probs.append("--out JSON differs from stdout")
        obj = Fraction(doc["objective"])
        chn = op.out + ".chn"
        if integral:
            if not os.path.exists(chn):
                return probs + ["integral optimum without a chain file"]
            x = read_chain(chn, index, p)
            if doc.get("nnz") != len(x):
                probs.append(f"nnz {doc.get('nnz')} != {len(x)}")
            if op.variant == "l0" and any(abs(a) > 1 for a in x.values()):
                probs.append("L0Box optimum leaves the {-1, 0, 1} box")
            diff = {i: x.get(i, 0) - c.get(i, 0) for i in set(x) | set(c)}
            y, why = solve_on_support(cols, doc.get("y_support", []), diff)
            if why:
                return probs + [f"x != c + ∂y: {why}"]
            if any(val == 0 or val.denominator != 1 for val in y.values()):
                probs.append("y is not a nonzero integer on its support")
            got = sum(w[i] * abs(a) for i, a in x.items())
            if v is not None:
                got += sum(v[j] * abs(val) for j, val in y.items())
            if got != obj:
                probs.append(f"objective {obj} != recomputed {got}")
        elif os.path.exists(chn):
            probs.append("fractional optimum wrote a chain file")
        ref = highs_objective(cols, m, c, w, op.variant, v)
        if abs(float(obj) - ref) > REL_TOL * max(1.0, abs(ref)):
            probs.append(f"objective {float(obj)!r} != HiGHS {ref!r}")
        verdict = self.verdict(op)
        if verdict is None:
            probs.append("`ohcp tu` gave no verdict")
        elif verdict["status"] == "TU":
            if not integral:
                probs.append("TU verdict but a fractional optimum")
        else:
            probs += self.witness_problems(path, p, verdict)
        if inst.expect.get("orientable") is not None and verdict:
            if (verdict["status"] == "TU") != inst.expect["orientable"]:
                probs.append(f"verdict {verdict['status']} on a "
                             f"{inst.family}")
        return probs

    # -- certify ---------------------------------------------------------

    def check_torsion_scan(self, op, rc, out, err):
        inst, p, path = op.instance, op.instance.p, op.argv[2]
        if rc == 5:
            if not inst.expect.get("may_exhaust"):
                return ["undecided on an instance the budget should decide"]
            if out or not err.startswith("undecided:"):
                return ["exit 5 without a lone 'undecided:' message"]
            return []
        if rc != 0:
            return [f"exit {rc}: {err.strip()[:200]}"]
        doc = json.loads(out)
        v = doc["verdict"]
        probs = []
        if doc["torsion"] != (v["status"] == "NotTU"):
            probs.append("torsion flag disagrees with the verdict")
        if v["status"] == "TU":
            if inst.expect.get("orientable") is False:
                probs.append(f"TU verdict on a {inst.family}")
            if (v["method"] == "orientable-manifold-shortcut"
                    and not self.orientable(path, p + 1)):
                probs.append("orientable route on a non-orientable complex")
            return probs
        if inst.expect.get("orientable") is True:
            probs.append(f"NotTU verdict on a {inst.family}")
        probs += self.witness_problems(path, p, v)
        probs += self.torsion_witness_problems(path, p, doc, v)
        return probs

    def torsion_witness_problems(self, path, p, doc, v):
        levels, index = self.complex(path)
        cols = boundary_columns(levels, index, p + 1)
        L, L0 = doc["L_cols"], set(doc["L0_rows"])
        if L != sorted(v["witness_cols"]):
            return ["L_cols differ from the witness columns"]
        kept = sorted({i for j in L for i in cols[j]} - L0)
        pos = {i: k for k, i in enumerate(kept)}
        rel = [dict() for _ in kept]
        for k, j in enumerate(L):
            for i, s in cols[j].items():
                if i in pos:
                    rel[pos[i]][k] = s
        t = doc["torsion_coefficient"]
        if t < 2:
            return [f"torsion coefficient {t} < 2"]
        if len(kept) != len(L):
            return ["relative boundary matrix is not square"]
        d = exact_det(rel, len(L))
        if d % t:
            return [f"torsion coefficient {t} does not divide det {d}"]
        A = np.zeros((len(kept), len(L)), dtype=np.int64)
        for r, row in enumerate(rel):
            for k, s in row.items():
                A[r, k] = s
        q = next(f for f in itertools.count(2) if t % f == 0)
        if rank_mod(A, q) >= len(L):
            return [f"relative matrix has full rank mod {q}, so no "
                    f"invariant factor is divisible by {q}"]
        return []

    def check_homology(self, op, rc, out, err):
        inst, p, path = op.instance, op.instance.p, op.argv[2]
        if rc != 0:
            return [f"exit {rc}: {err.strip()[:200]}"]
        doc = json.loads(out)
        levels, index = self.complex(path)
        m = len(levels[p])
        r_down = 0
        if p >= 1:
            r_down = rank_mod(dense(boundary_columns(levels, index, p),
                                    len(levels[p - 1])), BIG_PRIME)
        probs = []
        torsion = doc["torsion"]
        if p + 1 < len(levels):
            up = dense(boundary_columns(levels, index, p + 1), m)
            r_up = rank_mod(up, BIG_PRIME)
            for q in (2, 3):
                want = r_up - rank_mod(up, q)
                got = sum(1 for t in torsion if t % q == 0)
                if got != want:
                    probs.append(f"{got} torsion coefficients divisible by "
                                 f"{q}, ranks say {want}")
        else:
            r_up = 0
        betti = m - r_down - r_up
        if doc["betti"] != betti:
            probs.append(f"betti {doc['betti']} != {betti}")
        if any(t < 2 for t in torsion) or any(
                b % a for a, b in zip(torsion, torsion[1:])):
            probs.append(f"torsion {torsion} is not a divisibility chain")
        for key in ("betti", "torsion"):
            if key in inst.expect and doc[key] != inst.expect[key]:
                probs.append(f"{key} {doc[key]} on a {inst.family}, "
                             f"expected {inst.expect[key]}")
        return probs

    def check(self, op, rc, out, err):
        fn = {"solve": self.check_solve,
              "torsion-scan": self.check_torsion_scan,
              "homology": self.check_homology}[op.command]
        return fn(op, rc, out, err)


def cross_check(ops, first):
    """Checks across the two certify operations on one complex: a TU
    verdict means no relative torsion, so in particular none in H_p."""
    probs = {}
    by_inst = {}
    for op in ops:
        by_inst.setdefault(op.instance.name, {})[op.command] = op
    for pair in by_inst.values():
        ts, hom = pair.get("torsion-scan"), pair.get("homology")
        if not ts or not hom:
            continue
        (rc1, out1, _), (rc2, out2, _) = first[ts.id], first[hom.id]
        if rc1 == 0 and rc2 == 0:
            if (json.loads(out1)["verdict"]["status"] == "TU"
                    and json.loads(out2)["torsion"]):
                probs[hom.id] = ["TU verdict but H_p has torsion"]
    return probs
