"""Benchmark for the `ohcp` command: end-to-end and per-layer metrics.

    python3 ohcpbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Each workload is one
single-threaded closed loop with one client: operations are `ohcp`
command lines, run in-process through `ohcp.cli.main` on files that set-up
generated from the seed, one after another. A pass runs every operation of
the workload's ladder once; passes repeat while the next one still fits in
`--seconds`. Every output is checked afterwards (untimed, see check.py).

--trace 0 prints the end-to-end metrics. --trace 1 runs one untraced pass,
then traced passes, and prints the per-layer metrics (see tracing.py).
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden")
WORK = os.path.join(ROOT, ".ohcpbench")
SETUP_REPS = 7
IMPORT_OHCP = "import sys; sys.path.insert(0, sys.argv[1]); import ohcp.cli"
TAIL_BEYOND = 10    # op_tail_s: the highest percentile with 10 ops beyond it

import gen  # noqa: E402
from check import Checker, cross_check  # noqa: E402
from tracing import PER_LAYER, Tracer, dump_spans, median_metrics  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
              "op_tail_s": "s", "peak_rss_mb": "MB", "decided_frac": "ratio"}


def import_ohcp():
    """Import `ohcp` from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "ohcp", "cli.py")):
        raise SystemExit(f"error: no ohcp sources under {SRC}")
    sys.path.insert(0, SRC)
    import ohcp.cli
    if not os.path.abspath(ohcp.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported ohcp from {ohcp.cli.__file__}")
    return ohcp.cli


def call(cli, argv):
    """One operation: `ohcp argv` in-process -> (rc, stdout, stderr, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc, error = exc.code, f"SystemExit({exc.code})"
        except Exception:       # a crash is a failed operation, not a stop
            rc, error = None, traceback.format_exc(limit=3)
    return rc, out.getvalue(), err.getvalue(), error


def setup(workload, seed, workdir):
    """Set up SETUP_REPS times: import `ohcp` in a fresh interpreter, then
    generate and write the inputs. Returns the instances, the operations on
    the last copy of the files and the median set-up time."""
    times = []
    for r in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_OHCP, SRC], check=True)
        insts = gen.ladder(workload, seed)
        d = os.path.join(workdir, f"setup{r}")
        gen.write_files(insts, d)
        ops = gen.operations(workload, insts, d)
        times.append(time.perf_counter() - t0)
    return insts, ops, statistics.median(times)


def clear_outputs(op):
    """Remove an op's previous --out files. Re-truncating a just-written
    file makes some file systems flush it first, which would time the disk
    instead of `ohcp`; a user writes a result once."""
    for suffix in (".json", ".chn"):
        if op.out and os.path.exists(op.out + suffix):
            os.unlink(op.out + suffix)


def run_passes(cli, ops, seconds, results, tracer=None):
    """Closed loop over `ops` until the next pass would overrun `seconds`
    (at least one pass). Appends (rc, out, err, error) per op to `results`.
    Returns the pass wall times, the per-op times and, with a tracer, the
    layer metrics and spans of each pass."""
    walls, times, layers, spans = [], {op.id: [] for op in ops}, [], []
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
            tracer.install()
        t_pass = time.perf_counter()
        try:
            for op in ops:
                clear_outputs(op)
                t0 = time.perf_counter()
                res = call(cli, op.argv)
                times[op.id].append(time.perf_counter() - t0)
                results[op.id].append(res)
        finally:
            if tracer:
                tracer.remove()
        walls.append(time.perf_counter() - t_pass)
        if tracer:
            layers.append(tracer.layer_metrics(walls[-1]))
            spans.append(list(tracer.spans))
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls, times, layers, spans


def check_all(cli, workload, ops, results, golden):
    """Failed executions per op id, with the reasons, after every check."""
    def run_tu(argv):
        rc, out, _, _ = call(cli, argv)
        return rc, out

    checker = Checker(run_tu)
    first = {op.id: results[op.id][0][:3] for op in ops}
    problems = {}
    for op in ops:
        rc, out, err, error = results[op.id][0]
        if error:
            problems[op.id] = [f"raised: {error.strip()}"]
            continue
        try:
            probs = checker.check(op, rc, out, err)
        except Exception:
            probs = ["checker could not read the output: "
                     + traceback.format_exc(limit=2)]
        if probs:
            problems[op.id] = probs
    if workload == "certify":
        for k, v in cross_check(ops, first).items():
            problems.setdefault(k, []).extend(v)
    if golden:
        for k, v in golden_problems(workload, ops, first).items():
            problems.setdefault(k, []).extend(v)
    failed = {}
    for op in ops:
        reps = results[op.id]
        if op.id in problems:
            failed[op.id] = (len(reps), problems[op.id])
            continue
        bad = sum(1 for r in reps[1:] if r != reps[0])
        if bad:
            failed[op.id] = (bad, ["output changed between repetitions"])
    return failed, first


def golden_problems(workload, ops, first):
    path = os.path.join(GOLDEN, f"{workload}.json")
    with open(path, encoding="utf-8") as f:
        golden = json.load(f)
    probs = {}
    for op in ops:
        want = golden.get(op.id)
        rc, out, _ = first[op.id]
        if want is None:
            probs[op.id] = ["no golden output"]
        elif (rc, out) != (want["rc"], want["stdout"]):
            # a verified decision may replace a recorded budget exhaustion
            if not (want["rc"] == 5 and rc == 0):
                probs[op.id] = [f"stdout/exit differ from golden (exit {rc},"
                                f" golden exit {want['rc']})"]
    return probs


def write_golden(workload, first):
    os.makedirs(GOLDEN, exist_ok=True)
    doc = {k: {"rc": rc, "stdout": out} for k, (rc, out, _) in first.items()}
    with open(os.path.join(GOLDEN, f"{workload}.json"), "w",
              encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def op_stats(times):
    """(p50, tail, tail percentile, n) over the per-operation medians
    across passes; n, and so the tail percentile, is fixed by the ladder."""
    xs = sorted(statistics.median(ts) for ts in times.values())
    n = len(xs)
    k = max(n - TAIL_BEYOND - 1, 0)
    return statistics.median(xs), xs[k], 100 * (k + 1) / n, n


def describe(insts):
    for inst in insts:
        m, N = inst.lp_shape()
        print(f"# instance {inst.name} {inst.family} p={inst.p} "
              f"counts={inst.counts()} lp={m}x{N}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="record this run's outputs as the golden outputs "
                         "(default seed only)")
    args = ap.parse_args(argv)

    cli = import_ohcp()
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        insts, ops, setup_s = setup(args.workload, args.seed, workdir)
        describe(insts)
        results = {op.id: [] for op in ops}
        if args.trace:
            untraced = run_passes(cli, ops, 0, results)[0][0]
            walls, _, per_pass, spans = run_passes(
                cli, ops, args.seconds - untraced, results, Tracer())
            layer = median_metrics(per_pass)
            layer["trace.overhead_s"] = layer["trace.wall_s"] - untraced
            dump_spans(os.path.join(
                WORK, f"trace-{args.workload}-seed{args.seed}.json"), spans)
        else:
            walls, times, _, _ = run_passes(cli, ops, args.seconds, results)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        golden = args.seed == gen.DEFAULT_SEED and not args.write_golden
        failed, first = check_all(cli, args.workload, ops, results, golden)
        if args.write_golden:
            if args.seed != gen.DEFAULT_SEED or failed:
                raise SystemExit("error: golden outputs come from a clean "
                                 "run on the default seed")
            write_golden(args.workload, first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r) for r in results.values())
    n_failed = sum(n for n, _ in failed.values())
    undecided = sum(1 for r in results.values() for x in r if x[0] == 5)
    for op_id, (n, why) in sorted(failed.items()):
        print(f"# FAILED {op_id} x{n}: " + "; ".join(why))
    if args.trace:
        metrics = {k: {"value": layer[k], "unit": u}
                   for k, (u, _) in PER_LAYER.items()}
        print(f"# traced passes={len(walls)} ops/pass={len(ops)} "
              f"untraced wall_s={untraced:.4f}")
    else:
        p50, tail, pct, n = op_stats(times)
        values = {"setup_s": setup_s, "wall_s": statistics.median(walls),
                  "op_p50_s": p50, "op_tail_s": tail, "peak_rss_mb": rss_mb,
                  "decided_frac": 1 - undecided / attempted}
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
        print(f"# passes={len(walls)} op_tail_s=p{pct:.1f} of {n} per-op "
              f"medians; failed_frac={n_failed / attempted:.4f} "
              f"undecided_frac={undecided / attempted:.4f}")
    print(json.dumps({"correct": n_failed == 0, "attempted": attempted,
                      "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
