"""Self-tests of the benchmark harness (not part of the ohcp test suite).

    python3 -m pytest -q ohcpbench/test_bench.py
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import gen
import run
from check import Checker
from tracing import COUNTERS, PER_LAYER, TARGETS, Tracer

cli = run.import_ohcp()


@pytest.fixture
def workdir():
    d = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    yield d
    shutil.rmtree(d, ignore_errors=True)


def _written(workload, seed, d):
    gen.write_files(gen.ladder(workload, seed), d)
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as f:
            out[name] = f.read()
    return out


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_seed_determines_inputs(workload, workdir):
    a = _written(workload, 7, os.path.join(workdir, "a"))
    b = _written(workload, 7, os.path.join(workdir, "b"))
    c = _written(workload, 8, os.path.join(workdir, "c"))
    assert a and a == b
    assert a.keys() == c.keys() and a != c


def _some_ops(workdir, names):
    """Operations of every workload whose instance is in `names`."""
    ops = []
    for w in gen.WORKLOADS:
        insts = [i for i in gen.ladder(w, 3) if i.name in names]
        d = os.path.join(workdir, w)
        gen.write_files(insts, d)
        ops += gen.operations(w, insts, d)
    return ops


SMALL = {"disk-2x3-0", "klein-3x3-i0", "rand2-0", "mobius-61", "klein-5x5",
         "seven-tets", "rand3-t7-0"}


def _traced_pass(ops):
    results = {op.id: [] for op in ops}
    _, _, layers, spans = run.run_passes(cli, ops, 0, results, Tracer())
    return layers[0], spans[0], results


def test_tracer_restores_every_attribute(workdir):
    mods = {k: m for k, m in sys.modules.items()
            if k == "ohcp" or k.startswith("ohcp.")}
    before = {(k, a): m.__dict__.get(a) for k, m in mods.items()
              for names in TARGETS.values() for a in names}
    layer, spans, _ = _traced_pass(_some_ops(workdir, SMALL))
    assert spans and layer["cli.main.self_s"] > 0
    after = {(k, a): m.__dict__.get(a) for k, m in mods.items()
             for names in TARGETS.values() for a in names}
    assert all(after[key] is v for key, v in before.items())
    assert not any(hasattr(v, "__wrapped__") for v in after.values())


def test_counts_repeat_across_traced_runs(workdir):
    ops = _some_ops(workdir, SMALL)
    a, _, _ = _traced_pass(ops)
    b, _, _ = _traced_pass(ops)
    keys = [k for k in PER_LAYER if k.endswith((".calls", ".count"))]
    keys += list(COUNTERS)
    assert {k: a[k] for k in keys} == {k: b[k] for k in keys}
    assert a["lp.simplex_solve.calls"] > 0 and a["tu.route.minors.count"] > 0


def test_checker_rejects_a_changed_coefficient(workdir):
    op = next(o for o in _some_ops(workdir, {"disk-2x3-0"})
              if o.command == "solve")
    rc, out, err, error = run.call(cli, op.argv)
    checker = Checker(lambda argv: run.call(cli, argv)[:2])
    assert error is None and checker.check(op, rc, out, err) == []
    with open(op.out + ".chn", encoding="utf-8") as f:
        lines = f.read().splitlines()
    coeff, rest = lines[0].split(" ", 1)
    lines[0] = f"{int(coeff) + 1} {rest}"
    with open(op.out + ".chn", "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    assert checker.check(op, rc, out, err)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["per_layer"]} == PER_LAYER


def test_fails_without_the_sources(workdir):
    bare = os.path.join(workdir, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "ohcpbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "ohcpbench/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
