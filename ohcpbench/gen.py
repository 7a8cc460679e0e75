"""Seeded instance generators and workload ladders for the ohcp benchmark.

Everything here is independent of `ohcp`: complexes are lists of maximal
simplices, chains and weights are written in the documented text formats,
and `ohcp` only ever sees the generated files. The same seed gives
byte-identical files; each instance draws from its own RNG stream, keyed
by the seed and the instance name, so adding an instance to a ladder does
not perturb the others.

Sizes are fixed per ladder. The seed moves only what keeps the cost of an
instance roughly constant: square diagonals, jitter, vertex labels, which
path or loop is the input chain, small-integer weights, and the extra
simplices of random complexes. That keeps run-to-run spread across seeds
small enough for the end-to-end bounds in BENCHMARK.json.
"""
from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_SEED = 1

# Möbius-search budget passed to every `torsion-scan` of the certify
# workload. The largest Klein-bottle rung is the first size that exhausts
# it (exit 5); smaller rungs find a Möbius band within it.
CERTIFY_BUDGET = 100_000


# ---------------------------------------------------------------- complexes

def closure(maximal):
    """Per-dimension sorted lists of the faces of `maximal` (ascending tuples)."""
    levels = {}
    for s in maximal:
        s = tuple(sorted(s))
        for r in range(1, len(s) + 1):
            for f in itertools.combinations(s, r):
                levels.setdefault(r - 1, set()).add(f)
    return [sorted(levels[q]) for q in range(max(levels) + 1)]


def perm_sign(verts):
    inv = sum(1 for i, j in itertools.combinations(range(len(verts)), 2)
              if verts[i] > verts[j])
    return -1 if inv % 2 else 1


@dataclass
class Instance:
    name: str
    family: str
    maximal: list                 # maximal simplices as vertex tuples
    p: int                        # chain dimension of the operations
    chain: list = None            # [(coeff, vertex tuple in traversal order)]
    weights: list = None          # [(Fraction, vertex tuple)] on p-simplices
    y_weights: list = None        # [(Fraction, vertex tuple)] on (p+1)-simplices
    coords: dict = None           # vid -> tuple of decimal strings
    expect: dict = field(default_factory=dict)

    def counts(self):
        return [len(level) for level in closure(self.maximal)]

    def lp_shape(self):
        """(rows, columns) of the split OHCP LP: m x (2m + 2n)."""
        c = self.counts()
        m = c[self.p]
        n = c[self.p + 1] if self.p + 1 < len(c) else 0
        return m, 2 * m + 2 * n

    def files(self):
        out = {"scx": "".join(" ".join(map(str, s)) + "\n"
                              for s in self.maximal)}
        if self.chain is not None:
            out["chn"] = "".join(f"{c} " + " ".join(map(str, v)) + "\n"
                                 for c, v in self.chain)
        if self.weights is not None:
            out["wts"] = _weights_text(self.weights)
        if self.y_weights is not None:
            out["ywts"] = _weights_text(self.y_weights)
        if self.coords is not None:
            out["xyz"] = "".join(f"{v} " + " ".join(self.coords[v]) + "\n"
                                 for v in sorted(self.coords))
        return out


def _weights_text(ws):
    return "".join(f"{w.numerator}/{w.denominator} " + " ".join(map(str, v))
                   + "\n" for w, v in ws)


def _dec(x, digits):
    return f"{x:.{digits}f}"


def _square_triangles(a, b, c, d, flip):
    """Two triangles of the square with corners a=(i,j), b=(i+1,j),
    c=(i,j+1), d=(i+1,j+1); `flip` picks the b-c diagonal over a-d."""
    if flip:
        return [(a, b, c), (b, d, c)]
    return [(a, b, d), (a, d, c)]


def _grid(a, b, vid, rng):
    """Triangles of an a x b grid of squares; `rng` picks each square's
    diagonal (None: always the a-d diagonal)."""
    tris = []
    for i in range(a):
        for j in range(b):
            tris += _square_triangles(vid(i, j), vid(i + 1, j),
                                      vid(i, j + 1), vid(i + 1, j + 1),
                                      rng is not None and rng.random() < 0.5)
    return tris


def _check_counts(maximal, expected, what):
    got = [len(level) for level in closure(maximal)]
    if got != expected:
        raise ValueError(f"{what}: face counts {got}, expected {expected}")


def grid_disk(a, b, rng, name):
    """a x b grid disk, jittered planar coordinates, and a random monotone
    staircase path between opposite corners as the input 1-chain."""
    vid = lambda i, j: i * (b + 1) + j  # noqa: E731
    tris = _grid(a, b, vid, rng)
    coords = {vid(i, j): (_dec(i + rng.uniform(-0.2, 0.2), 4),
                          _dec(j + rng.uniform(-0.2, 0.2), 4))
              for i in range(a + 1) for j in range(b + 1)}
    steps = [(1, 0)] * a + [(0, 1)] * b
    rng.shuffle(steps)
    chain, (i, j) = [], (0, 0)
    for di, dj in steps:
        chain.append((1, (vid(i, j), vid(i + di, j + dj))))
        i, j = i + di, j + dj
    return Instance(name, "grid-disk", tris, 1, chain=chain, coords=coords,
                    expect={"orientable": True})


def grid_torus(a, b, rng, name):
    """a x b grid torus (a, b >= 3) on a jittered torus of revolution in
    R^3, with a loop around one handle as the input 1-chain."""
    vid = lambda i, j: (i % a) * b + (j % b)  # noqa: E731
    tris = _grid(a, b, vid, rng)
    _check_counts(tris, [a * b, 3 * a * b, 2 * a * b], name)
    coords = {}
    for i in range(a):
        for j in range(b):
            th = 2 * math.pi * (i + rng.uniform(-0.15, 0.15)) / a
            ph = 2 * math.pi * (j + rng.uniform(-0.15, 0.15)) / b
            r = 3 + math.cos(ph)
            coords[vid(i, j)] = (_dec(r * math.cos(th), 6),
                                 _dec(r * math.sin(th), 6),
                                 _dec(math.sin(ph), 6))
    if rng.random() < 0.5:
        t = rng.randrange(b)
        chain = [(1, (vid(i, t), vid(i + 1, t))) for i in range(a)]
    else:
        t = rng.randrange(a)
        chain = [(1, (vid(t, j), vid(t, j + 1))) for j in range(b)]
    return Instance(name, "grid-torus", tris, 1, chain=chain, coords=coords,
                    expect={"orientable": True, "betti": 2, "torsion": []})


def klein_grid(a, b, rng, name, loop="i"):
    """a x b grid Klein bottle (a, b >= 3): the cylinder seam j = b is glued
    to j = 0 with the reflection i -> -i. The input 1-chain is a loop in
    the i direction (a torsion class, so the LP optimum is fractional) or
    in the j direction through i = 0 (infinite order). With `rng` None the
    complex is fixed; otherwise `rng` picks diagonals, labels and the
    height of an i loop."""
    def vid(i, j):
        if j >= b:
            i, j = -i, j - b
        return (i % a) + a * j
    tris = _grid(a, b, vid, rng)
    _check_counts(tris, [a * b, 3 * a * b, 2 * a * b], name)
    if loop == "i":
        t = rng.randrange(b) if rng is not None else 0
        chain = [(1, (vid(i, t), vid(i + 1, t))) for i in range(a)]
    else:
        chain = [(1, (vid(0, j), vid(0, j + 1))) for j in range(b)]
    inst = Instance(name, "klein-grid", tris, 1, chain=chain,
                    expect={"orientable": False, "betti": 1, "torsion": [2]})
    return _relabel(inst, rng) if rng is not None else inst


def mobius_strip(n, rng, name):
    """Zigzag Möbius strip of n triangles {i, i+1, i+2} mod n (n odd)."""
    if n % 2 == 0 or n < 5:
        raise ValueError("a zigzag Möbius strip needs an odd n >= 5")
    tris = [(i, (i + 1) % n, (i + 2) % n) for i in range(n)]
    inst = Instance(name, "mobius-strip", tris, 1,
                    expect={"orientable": False, "betti": 1, "torsion": []})
    return _relabel(inst, rng)


MOBIUS5 = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)]


def random_2complex(nv, extra, rng, name):
    """A 5-vertex Möbius strip on random labels (so the 2-boundary is never
    TU) plus `extra` random triangles on `nv` vertices, and a random
    {-1, 0, 1} 1-chain on the edges."""
    core = rng.sample(range(nv), 5)
    tris = {tuple(sorted(core[v] for v in t)) for t in MOBIUS5}
    allt = list(itertools.combinations(range(nv), 3))
    while len(tris) < 5 + extra:
        tris.add(rng.choice(allt))
    tris = sorted(tris)
    edges = closure(tris)[1]
    picked = rng.sample(edges, max(3, len(edges) // 4))
    chain = [(rng.choice((1, -1)), e) for e in sorted(picked)]
    return Instance(name, "random-2complex", tris, 1, chain=chain,
                    expect={"orientable": False})


SEVEN_TETRAHEDRA = [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5), (0, 1, 2, 6),
                    (0, 1, 3, 4), (0, 2, 3, 5), (1, 2, 3, 6)]


def seven_tetrahedra(rng, name):
    """The seven-tetrahedra complex: not TU at p = 2, no 3-dimensional
    Möbius subcomplex, so only minor enumeration decides it."""
    return _relabel(Instance(name, "seven-tetrahedra", SEVEN_TETRAHEDRA, 2),
                    rng)


def random_3complex(nv, nt, rng, name):
    """`nt` tetrahedra on `nv` vertices, three of them on one common
    triangle, so the cascade cannot take the pseudomanifold shortcut and
    p = 2 falls through to minor enumeration."""
    base = tuple(sorted(rng.sample(range(nv), 3)))
    rest = [v for v in range(nv) if v not in base]
    tets = {tuple(sorted(base + (v,))) for v in rng.sample(rest, 3)}
    allt = list(itertools.combinations(range(nv), 4))
    while len(tets) < nt:
        tets.add(rng.choice(allt))
    return Instance(name, "random-3complex", sorted(tets), 2)


def _relabel(inst, rng):
    verts = sorted({v for s in inst.maximal for v in s})
    perm = dict(zip(verts, rng.sample(verts, len(verts))))
    inst.maximal = [tuple(perm[v] for v in s) for s in inst.maximal]
    if inst.chain is not None:
        inst.chain = [(c, tuple(perm[v] for v in s)) for c, s in inst.chain]
    return inst


def small_int_weights(simplices, rng):
    return [(Fraction(rng.randint(1, 3)), s) for s in simplices]


# ---------------------------------------------------------------- ladders

@dataclass
class Op:
    """One closed-loop operation: a single `ohcp` command line."""
    id: str
    instance: Instance
    command: str                  # solve | torsion-scan | homology
    argv: list
    variant: str = None           # l1 | l0 | total for solve
    out: str = None               # --out prefix for solve


def _rng(seed, name):
    return random.Random(f"ohcpbench:{seed}:{name}")


def _many(make, sizes, seed, prefix):
    """One instance per (a, b, count) repetition, each with its own stream."""
    out = []
    for a, b, count in sizes:
        for r in range(count):
            name = f"{prefix}-{a}x{b}-{r}"
            out.append(make(a, b, _rng(seed, name), name))
    return out


def ladder(workload, seed):
    """The instances of a workload for a seed, in operation order.

    The cost of one instance moves by 10-25% between seeds (pivot counts,
    search order), so each ladder holds 36-72 operations of nearby sizes:
    their sum and rank statistics average that out. One pass takes 4-8 s
    on a 2-core sandbox, so a 30 s run makes four to seven passes, and a
    per-operation median shrugs off a slow pass or two on a shared host.
    """
    if workload == "solve-orientable":
        return (_many(grid_disk, [(2, 3, 6), (2, 4, 8), (3, 3, 8),
                                  (2, 5, 3)], seed, "disk")
                + _many(grid_torus, [(3, 3, 8), (3, 4, 3)], seed, "torus"))
    if workload == "solve-nonorientable":
        kleins = [(3, 3, "i", 12), (3, 3, "j", 9)]
        insts = [klein_grid(a, b, _rng(seed, f"klein-{a}x{b}-{lp}{r}"),
                            f"klein-{a}x{b}-{lp}{r}", loop=lp)
                 for a, b, lp, count in kleins for r in range(count)]
        insts += [random_2complex(10, 14, _rng(seed, f"rand2-{r}"),
                                  f"rand2-{r}") for r in range(3)]
        for inst in insts:
            r = _rng(seed, f"weights-{inst.name}")
            lv = closure(inst.maximal)
            inst.weights = small_int_weights(lv[1], r)
            inst.y_weights = small_int_weights(lv[2], r)
        return insts
    if workload == "certify":
        insts = [mobius_strip(n, _rng(seed, f"mobius-{n}"), f"mobius-{n}")
                 for n in (61, 91, 121, 151, 181, 211, 241)]
        insts += [grid_torus(k, k, _rng(seed, f"torus-{k}"), f"torus-{k}x{k}")
                  for k in (6, 8, 10, 12, 14)]
        # Fixed complexes: the 7 x 7 rung exhausts CERTIFY_BUDGET on every
        # seed, the smaller ones find a Möbius band well within it.
        insts += [klein_grid(k, k, None, f"klein-{k}x{k}") for k in (4, 5, 6, 7)]
        insts[-1].expect["may_exhaust"] = True
        insts += [random_2complex(8, 8, _rng(seed, f"rand2-{r}"), f"rand2-{r}")
                  for r in range(3)]
        insts.append(seven_tetrahedra(_rng(seed, "seven"), "seven-tets"))
        # Also fixed: the memory of minor enumeration depends on the
        # complex, and it sets the workload's peak RSS.
        insts += [random_3complex(7, nt, _rng("fixed", f"rand3-{nt}-{r}"),
                                  f"rand3-t{nt}-{r}")
                  for nt in (7, 8) for r in range(2)]
        return insts
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("solve-orientable", "solve-nonorientable", "certify")


def operations(workload, insts, directory):
    """Command lines for `insts`, whose files live under `directory`."""
    ops = []
    for inst in insts:
        base = f"{directory}/{inst.name}"
        K = ["--complex", f"{base}.scx", "--dim", str(inst.p)]
        if workload == "solve-orientable":
            ops.append(Op(f"{inst.name}/l1", inst, "solve",
                          ["solve"] + K + ["--chain", f"{base}.chn",
                                           "--coords", f"{base}.xyz",
                                           "--variant", "l1",
                                           "--out", f"{base}.l1"],
                          variant="l1", out=f"{base}.l1"))
        elif workload == "solve-nonorientable":
            extra = {"l1": ["--weights", f"{base}.wts"],
                     "l0": [],
                     "total": ["--weights", f"{base}.wts",
                               "--y-weights", f"{base}.ywts"]}
            for v, flags in extra.items():
                ops.append(Op(f"{inst.name}/{v}", inst, "solve",
                              ["solve"] + K + ["--chain", f"{base}.chn",
                                               "--variant", v,
                                               "--out", f"{base}.{v}"]
                              + flags, variant=v, out=f"{base}.{v}"))
        else:
            ops.append(Op(f"{inst.name}/torsion-scan", inst, "torsion-scan",
                          ["torsion-scan"] + K
                          + ["--budget", str(CERTIFY_BUDGET)]))
            ops.append(Op(f"{inst.name}/homology", inst, "homology",
                          ["homology"] + K))
    return ops


def write_files(insts, directory):
    os.makedirs(directory, exist_ok=True)
    for inst in insts:
        for suffix, text in inst.files().items():
            with open(f"{directory}/{inst.name}.{suffix}", "w",
                      encoding="utf-8") as f:
                f.write(text)
