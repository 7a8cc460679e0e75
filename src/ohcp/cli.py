"""Command-line interface.

Exit codes: 0 success, 3 solve returned a non-integral optimum, 4 input
parse error, 5 the requested method could not decide within its cap/budget.
All numeric output is exact: integers or "p/q" rationals.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import fileio
from .complexes import (InputError, boundary_matrix, coface_map,
                        orient_consistently)
from .geometry import weights_from_coordinates
from .homology import homology_summary, torsion_witness_from_submatrix
from .matrices import smith_normal_form
from .solver import OHCPInstance, solve
from .tu import (TUVerdict, Undecided, boundary_of, find_mobius_subcomplex,
                 is_tu_minor_enumeration, mobius_verdict, tu_verdict)

EXIT_OK = 0
EXIT_NONINTEGRAL = 3
EXIT_PARSE = 4
EXIT_UNDECIDED = 5
_parser = None          # built by main's first call, not at import


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


def _load_complex(args, above=1):
    # no command reads a level above --dim + 1; stopping the closure there
    # keeps a simplex of many vertices from building all its faces
    return fileio.parse_complex(_read(args.complex), args.dim + above)


def _emit(doc):
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_boundary(args):
    K = _load_complex(args, 0)
    rows = boundary_matrix(K, args.dim)
    lines = [f"{len(rows)} {K.count(args.dim)}"]
    lines += [" ".join(map(str, row)) for row in rows]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_snf(args):
    rows, _ = fileio.parse_matrix(_read(args.matrix))
    sys.stdout.write(" ".join(map(str, smith_normal_form(rows))) + "\n")
    return EXIT_OK


def cmd_tu(args):
    K = _load_complex(args)
    p = args.dim
    B = boundary_of(K, p)
    if args.method == "auto":
        verdict = tu_verdict(K, p, col_cap=args.col_cap, budget=args.budget)
    elif args.method == "minors":
        verdict = is_tu_minor_enumeration(B, col_cap=args.col_cap)
    elif args.method == "ht":
        # a Heller-Tompkins partition of the transpose is an orientation
        rows = coface_map(K, p + 1)
        if orient_consistently(rows, len(B)) is None:
            status = ("inapplicable" if any(len(r) > 2 for r in rows)
                      else "no-partition")
            raise Undecided(f"Heller-Tompkins: {status} (the condition "
                            "is sufficient only)")
        verdict = TUVerdict("TU", "heller-tompkins")
    else:  # mobius
        verdict = mobius_verdict(B, coface_map(K, p + 1), p + 1, args.budget)
    _emit(vars(verdict))
    return EXIT_OK


def cmd_mobius_scan(args):
    K = _load_complex(args, 0)
    w = find_mobius_subcomplex(K.boundary_columns(args.dim),
                               coface_map(K, args.dim), args.dim,
                               budget=args.budget)
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
        _emit({"torsion": False, "verdict": vars(verdict)})
        return EXIT_OK
    w = torsion_witness_from_submatrix(K, p, verdict.witness_rows,
                                       verdict.witness_cols,
                                       verdict.witness_det)
    _emit({"torsion": True, "verdict": vars(verdict),
           "L_cols": w.L_cols, "L0_rows": w.L0_rows,
           "torsion_coefficient": w.torsion_coefficient})
    return EXIT_OK


def _build_instance(args):
    K = _load_complex(args)
    p = args.dim
    c = fileio.parse_chain(_read(args.chain), K, p)
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
    return OHCPInstance(K=K, p=p, c=c, weights=weights, variant=variant,
                        y_weights=y_weights)


def cmd_solve(args):
    inst = _build_instance(args)
    sol = solve(inst)
    summary = fileio.solution_summary(sol)
    sys.stdout.write(summary)
    if args.out:
        _write(args.out + ".json", summary)
        if sol.integral:
            _write(args.out + ".chn",
                   fileio.write_chain(inst.K, inst.p, sol.x_star))
    if not sol.integral:
        print("warning: fractional optimum; see note in summary",
              file=sys.stderr)
        return EXIT_NONINTEGRAL
    return EXIT_OK


def cmd_homology(args):
    K = _load_complex(args)
    betti, torsion = homology_summary(K, args.dim)
    _emit({"betti": betti, "torsion": torsion})
    return EXIT_OK


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it reports an argument it does not know with
    its own usage, which names its flags, not with the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        args, extra = super().parse_known_args(args, namespace)
        if extra:   # what parse_args says
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return args, extra


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ohcp",
        description="Optimal homologous chains with TU/torsion certification")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=_SubcommandParser)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        if flags.get("complex"):
            p.add_argument("--complex", required=True, metavar="K.scx")
        if flags.get("dim"):
            p.add_argument("--dim", type=int, required=True)
        if flags.get("col_cap"):
            p.add_argument("--col-cap", type=int, default=16)
        if flags.get("budget"):
            p.add_argument("--budget", type=int, default=10 ** 6)
        return p

    add("boundary", cmd_boundary, complex=True, dim=True)

    p = add("snf", cmd_snf)
    p.add_argument("--matrix", required=True, metavar="M.mat")

    p = add("tu", cmd_tu, complex=True, dim=True, col_cap=True, budget=True)
    p.add_argument("--method", choices=("auto", "minors", "ht", "mobius"),
                   default="auto")

    add("mobius-scan", cmd_mobius_scan, complex=True, dim=True, budget=True)
    add("torsion-scan", cmd_torsion_scan, complex=True, dim=True,
        col_cap=True, budget=True)

    p = add("solve", cmd_solve, complex=True, dim=True)
    p.add_argument("--chain", required=True, metavar="c.chn")
    p.add_argument("--weights", metavar="w.wts")
    p.add_argument("--coords", metavar="pts.xyz")
    p.add_argument("--variant", choices=("l1", "l0", "total"), default="l1")
    p.add_argument("--y-weights", metavar="v.wts")
    p.add_argument("--out", metavar="PREFIX")

    add("homology", cmd_homology, complex=True, dim=True)
    return ap


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        for flag in ("col_cap", "budget"):
            if getattr(args, flag, 0) < 0:
                raise InputError(f"--{flag.replace('_', '-')} must be "
                                 f"non-negative, got {getattr(args, flag)}")
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Undecided as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
