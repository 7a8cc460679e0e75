"""Command-line interface.

Exit codes: 0 success, 3 solve returned a non-integral optimum, 4 input
parse error, 5 the requested method could not decide within its cap/budget.
All numeric output is exact: integers or "p/q" rationals.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction

from . import fileio
from .complexes import (Chain, InputError, NotPseudomanifold, boundary_matrix,
                        orient_consistently)
from .geometry import weights_from_coordinates
from .homology import (homology_summary, smith_normal_form,
                       torsion_witness_from_submatrix)
from .solver import OHCPInstance, brute_force_oracle, solve
from .tu import (TUVerdict, Undecided, find_mobius_subcomplex,
                 is_tu_minor_enumeration, mobius_verdict, tu_verdict)

EXIT_OK = 0
EXIT_NONINTEGRAL = 3
EXIT_PARSE = 4
EXIT_UNDECIDED = 5


def _read(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise InputError(f"cannot read {path}: not UTF-8 text") from None


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from None


def _load_complex(args):
    return fileio.parse_complex(_read(args.complex))


def _emit(doc):
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_boundary(args):
    K = _load_complex(args)
    rows = boundary_matrix(K, args.dim)
    lines = [f"{len(rows)} {K.count(args.dim)}"]
    lines += [" ".join(map(str, row)) for row in rows]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_snf(args):
    rows, n = fileio.parse_matrix(_read(args.matrix))
    res = smith_normal_form(rows, n)
    sys.stdout.write(" ".join(map(str, res.diagonal)) + "\n")
    return EXIT_OK


def cmd_tu(args):
    K = _load_complex(args)
    p = args.dim
    if args.method == "auto":
        verdict = tu_verdict(K, p, col_cap=args.col_cap, budget=args.budget)
    elif args.method == "minors":
        verdict = is_tu_minor_enumeration(K.boundary_columns(p + 1),
                                          col_cap=args.col_cap)
    elif args.method == "ht":
        # a Heller-Tompkins partition of the transpose is an orientation
        try:
            signs = orient_consistently(K, p + 1)
            status = "no-partition" if signs is None else "tu-certified"
        except NotPseudomanifold:
            status = "inapplicable"
        if status != "tu-certified":
            raise Undecided(f"Heller-Tompkins: {status} (the condition "
                            "is sufficient only)")
        verdict = TUVerdict("TU", "heller-tompkins")
    else:  # mobius
        verdict = mobius_verdict(K, p + 1, args.budget)
    _emit(asdict(verdict))
    return EXIT_OK


def cmd_mobius_scan(args):
    K = _load_complex(args)
    w = find_mobius_subcomplex(K, args.dim, budget=args.budget)
    if w is None:
        _emit({"found": False})
    else:
        _emit({"found": True, "simplices": w.simplices,
               "shared_faces": w.shared_faces})
    return EXIT_OK


def cmd_torsion_scan(args):
    K = _load_complex(args)
    p = args.dim
    verdict = tu_verdict(K, p, col_cap=args.col_cap, budget=args.budget)
    if verdict.status == "TU":
        _emit({"torsion": False, "verdict": asdict(verdict)})
        return EXIT_OK
    w = torsion_witness_from_submatrix(K, p, verdict.witness_rows,
                                       verdict.witness_cols)
    _emit({"torsion": True, "verdict": asdict(verdict),
           "L_cols": w.L_cols, "L0_rows": w.L0_rows,
           "torsion_coefficient": w.torsion_coefficient})
    return EXIT_OK


def _build_instance(args):
    K = _load_complex(args)
    p = args.dim
    chain = fileio.parse_chain(_read(args.chain), K, p)
    c = chain.to_vector(K.count(p))
    if args.weights and args.coords:
        raise InputError("give either --weights or --coords, not both")
    if args.weights:
        weights = fileio.parse_weights(_read(args.weights), K, p)
    elif args.coords:
        coords = fileio.parse_coordinates(_read(args.coords))
        weights = weights_from_coordinates(K, coords, p)
    else:
        weights = [Fraction(1)] * K.count(p)
    variant = {"l1": "L1", "l0": "L0Box", "total": "TotalWeight"}[args.variant]
    y_weights = None
    if variant == "TotalWeight":
        if not args.y_weights:
            raise InputError("TotalWeight needs --y-weights")
        y_weights = fileio.parse_weights(_read(args.y_weights), K, p + 1)
    try:
        return K, OHCPInstance(K=K, p=p, c=c, weights=weights,
                               variant=variant, y_weights=y_weights)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _report_solution(args, K, inst, sol):
    summary = fileio.solution_summary(sol)
    sys.stdout.write(summary)
    if args.out:
        _write(args.out + ".json", summary)
        if sol.integral:
            chain = Chain.from_vector(inst.p, sol.x_star)
            _write(args.out + ".chn", fileio.write_chain(K, chain))
    if not sol.integral:
        print("warning: fractional optimum; see note in summary",
              file=sys.stderr)
        return EXIT_NONINTEGRAL
    return EXIT_OK


def cmd_solve(args):
    K, inst = _build_instance(args)
    return _report_solution(args, K, inst, solve(inst))


def cmd_oracle(args):
    K, inst = _build_instance(args)
    sol = brute_force_oracle(inst, args.y_bound, budget=args.budget)
    return _report_solution(args, K, inst, sol)


def cmd_homology(args):
    K = _load_complex(args)
    betti, torsion = homology_summary(K, args.dim)
    _emit({"betti": betti, "torsion": torsion})
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ohcp",
        description="Optimal homologous chains with TU/torsion certification")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        if flags.get("complex"):
            p.add_argument("--complex", required=True, metavar="K.scx")
        if flags.get("dim"):
            p.add_argument("--dim", type=int, required=True)
        if flags.get("caps"):
            p.add_argument("--col-cap", type=int, default=16)
            p.add_argument("--budget", type=int, default=10 ** 6)
        return p

    add("boundary", cmd_boundary, complex=True, dim=True)

    p = sub.add_parser("snf")
    p.set_defaults(fn=cmd_snf)
    p.add_argument("--matrix", required=True, metavar="M.mat")

    p = add("tu", cmd_tu, complex=True, dim=True, caps=True)
    p.add_argument("--method", choices=("auto", "minors", "ht", "mobius"),
                   default="auto")

    add("mobius-scan", cmd_mobius_scan, complex=True, dim=True, caps=True)
    add("torsion-scan", cmd_torsion_scan, complex=True, dim=True, caps=True)

    for name, fn in (("solve", cmd_solve), ("oracle", cmd_oracle)):
        p = add(name, fn, complex=True, dim=True)
        p.add_argument("--chain", required=True, metavar="c.chn")
        p.add_argument("--weights", metavar="w.wts")
        p.add_argument("--coords", metavar="pts.xyz")
        p.add_argument("--variant", choices=("l1", "l0", "total"),
                       default="l1")
        p.add_argument("--y-weights", metavar="v.wts")
        p.add_argument("--out", metavar="PREFIX")
        if name == "oracle":
            p.add_argument("--y-bound", type=int, required=True)
            p.add_argument("--budget", type=int, default=10 ** 7)

    add("homology", cmd_homology, complex=True, dim=True)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, NotPseudomanifold) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Undecided as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
