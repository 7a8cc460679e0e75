"""End-to-end command-line behaviour, exit codes, and determinism."""
import itertools
import json
import os
import subprocess
import sys

import pytest

import ohcp
from helpers import MOEBIUS_B2, IntMatrix, write_complex
from ohcp import fileio, fixtures
from ohcp.cli import main
from ohcp.complexes import build_closure


@pytest.fixture
def paths(tmp_path):
    out = {}
    out["moebius"] = tmp_path / "moebius.scx"
    out["moebius"].write_text(write_complex(fixtures.mobius_strip()))
    out["triangle"] = tmp_path / "triangle.scx"
    out["triangle"].write_text("0 1 2\n")
    out["chain"] = tmp_path / "c.chn"
    out["chain"].write_text("1 0 1\n1 1 2\n-1 0 2\n")
    out["empty"] = tmp_path / "empty.chn"
    out["empty"].write_text("")
    out["tmp"] = tmp_path
    return out


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCertification:
    def test_tu_on_moebius(self, paths, capsys):
        code, out, _ = run(capsys, "tu", "--complex", paths["moebius"],
                           "--dim", "1")
        doc = json.loads(out)
        assert code == 0
        assert doc["status"] == "NotTU"
        assert abs(doc["witness_det"]) == 2

    def test_torsion_scan_on_moebius(self, paths, capsys):
        code, out, _ = run(capsys, "torsion-scan", "--complex",
                           paths["moebius"], "--dim", "1")
        doc = json.loads(out)
        assert code == 0
        assert doc["torsion"] is True
        assert doc["torsion_coefficient"] == 2

    def test_torsion_scan_on_disk(self, paths, capsys):
        code, out, _ = run(capsys, "torsion-scan", "--complex",
                           paths["triangle"], "--dim", "1")
        assert code == 0
        assert json.loads(out)["torsion"] is False

    def test_mobius_scan(self, paths, capsys):
        code, out, _ = run(capsys, "mobius-scan", "--complex",
                           paths["moebius"], "--dim", "2")
        assert code == 0
        assert json.loads(out)["found"] is True

    def test_snf_of_shipped_matrix(self, paths, capsys):
        mat = paths["tmp"] / "moebius_b2.mat"
        mat.write_text(IntMatrix(MOEBIUS_B2).to_text())
        code, out, _ = run(capsys, "snf", "--matrix", mat)
        assert code == 0
        assert out.strip() == "1 1 1 1 1 1"

    @pytest.mark.parametrize("header", ["0 -1", "-1 -1"])
    def test_negative_matrix_size_exit_code(self, paths, capsys, header):
        bad = paths["tmp"] / "neg.mat"
        bad.write_text(header + "\n")
        code, out, err = run(capsys, "snf", "--matrix", bad)
        assert (code, out) == (4, "")
        assert err == (f"error: line 1: negative size in matrix header "
                       f"'{header}'\n")

    def test_snf_of_empty_matrix_with_huge_column_count(self, paths):
        # no column holds a nonzero, so nothing may be sized by the count;
        # the address-space cap turns such an allocation into a quick
        # failure instead of exhausting memory
        resource = pytest.importorskip("resource")
        mat = paths["tmp"] / "wide.mat"
        mat.write_text("0 1000000000000\n")
        cap = 1536 * 2 ** 20
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(ohcp.__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "ohcp.cli", "snf", "--matrix", str(mat)],
            env=env, capture_output=True, text=True, timeout=10,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (cap, cap)))
        assert (done.returncode, done.stdout) == (0, "\n"), done.stderr

    def test_ht_method_undecided_on_moebius(self, paths, capsys):
        code, _, err = run(capsys, "tu", "--complex", paths["moebius"],
                           "--dim", "1", "--method", "ht")
        assert code == 5
        assert "undecided" in err

    def test_col_cap_undecided(self, paths, capsys):
        code, _, _ = run(capsys, "tu", "--complex", paths["moebius"],
                         "--dim", "1", "--method", "minors", "--col-cap", "2")
        assert code == 5


class TestHellerTompkins:
    """`tu --method ht`: the Heller-Tompkins partition of the rows of the
    transposed boundary exists exactly when the complex is an orientable
    pseudomanifold, and it is then the orientation."""

    @staticmethod
    def ht(tmp_path, capsys, K):
        scx = tmp_path / "k.scx"
        scx.write_text(write_complex(K))
        return run(capsys, "tu", "--complex", scx, "--dim", "1",
                   "--method", "ht")

    def test_cylinder_certified(self, tmp_path, capsys):
        code, out, err = self.ht(tmp_path, capsys, fixtures.cylinder())
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "status": "TU", "method": "heller-tompkins", "witness_rows": None,
            "witness_cols": None, "witness_det": None}

    def test_moebius_no_partition(self, tmp_path, capsys):
        assert self.ht(tmp_path, capsys, fixtures.mobius_strip()) == (
            5, "", "undecided: Heller-Tompkins: no-partition (the condition "
            "is sufficient only)\n")

    def test_three_nonzeros_inapplicable(self, tmp_path, capsys):
        # three triangles on one edge: a row of the boundary with three
        # nonzeros, a column of its transpose outside Heller-Tompkins
        K = build_closure([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
        assert self.ht(tmp_path, capsys, K) == (
            5, "", "undecided: Heller-Tompkins: inapplicable (the condition "
            "is sufficient only)\n")


class TestSolvePipeline:
    def test_solve_and_round_trip(self, paths, capsys):
        out_prefix = paths["tmp"] / "sol"
        code, out, _ = run(capsys, "solve", "--complex", paths["triangle"],
                           "--chain", paths["chain"], "--dim", "1",
                           "--out", out_prefix)
        assert code == 0
        doc = json.loads(out)
        assert doc["objective"] == "0/1"
        assert doc["integral"] is True
        K = fileio.parse_complex(paths["triangle"].read_text())
        written = fileio.parse_chain((paths["tmp"] / "sol.chn").read_text(),
                                     K, 1)
        assert written == [0] * K.count(1)

    def test_homology(self, paths, capsys):
        code, out, _ = run(capsys, "homology", "--complex", paths["moebius"],
                           "--dim", "1")
        assert code == 0
        assert json.loads(out) == {"betti": 1, "torsion": []}

    def test_boundary(self, paths, capsys):
        code, out, _ = run(capsys, "boundary", "--complex", paths["triangle"],
                           "--dim", "2")
        assert code == 0
        assert out == "3 1\n1\n-1\n1\n"

    def test_parse_error_exit_code(self, paths, capsys):
        bad = paths["tmp"] / "bad.scx"
        bad.write_text("0 0 1\n")
        code, _, err = run(capsys, "tu", "--complex", bad, "--dim", "1")
        assert code == 4
        assert "error" in err

    def test_invalid_instance_exit_code(self, paths, capsys):
        # an L0Box chain entry outside {-1, 0, 1}
        chain = paths["tmp"] / "two.chn"
        chain.write_text("2 0 1\n")
        code, out, err = run(capsys, "solve", "--complex", paths["triangle"],
                             "--chain", chain, "--dim", "1", "--variant", "l0")
        assert (code, out) == (4, "")
        assert err == "error: L0Box requires chain entries in {-1,0,1}\n"

    def test_non_integer_matrix_header_exit_code(self, paths, capsys):
        bad = paths["tmp"] / "bad.mat"
        bad.write_text("3 x\n")
        code, _, err = run(capsys, "snf", "--matrix", bad)
        assert code == 4
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ("homology", "--dim", "5"),
        ("mobius-scan", "--dim", "0"),
        ("tu", "--dim", "3"),
        ("tu", "--dim", "3", "--method", "mobius"),
        ("torsion-scan", "--dim", "3"),
        ("solve", "--dim", "3", "--chain", "empty"),
        ("solve", "--dim", "-1", "--chain", "empty"),
        # an empty complex has no range to name
        ("homology", "--dim", "0", "--complex", "empty"),
        ("homology", "--dim", "1", "--complex", "empty"),
        ("solve", "--dim", "0", "--chain", "empty", "--complex", "empty"),
        ("boundary", "--dim", "1", "--complex", "empty"),
        ("mobius-scan", "--dim", "1", "--complex", "empty"),
    ], ids=" ".join)
    def test_out_of_range_exit_code(self, paths, capsys, argv):
        # a key of `paths` stands for its file; the complex is the triangle
        # unless argv names one, which argparse reads last
        code, _, err = run(capsys, argv[0], "--complex", paths["triangle"],
                           *(paths.get(a, a) for a in argv[1:]))
        assert code == 4
        assert err.startswith("error: ")
        if "--complex" in argv:
            q = argv[2] if argv[0] in ("homology", "solve") else 1
            assert err == f"error: complex has no {q}-simplices\n"
        elif argv[0] in ("homology", "solve"):
            assert err == f"error: dimension {argv[2]} out of range 0..2\n"

    @pytest.mark.parametrize("argv", [
        ("tu",), ("tu", "--method", "minors"), ("tu", "--method", "ht"),
        ("tu", "--method", "mobius"), ("torsion-scan",),
    ], ids=" ".join)
    def test_negative_dim_names_p(self, paths, capsys, argv):
        # --dim is p, and the boundary read is the (p+1)-boundary; the error
        # names p and its range, not p + 1 and the boundaries' range
        code, out, err = run(capsys, *argv, "--complex", paths["triangle"],
                             "--dim", "-1")
        assert (code, out) == (4, "")
        assert err == "error: dimension -1 out of range 0..1\n"

    @pytest.mark.parametrize("argv", [
        ("tu", "--dim", "1", "--budget", "-1"),
        ("tu", "--dim", "1", "--method", "minors", "--col-cap", "-1"),
        ("tu", "--dim", "1", "--col-cap", "-1"),
        ("torsion-scan", "--dim", "1", "--budget", "-1"),
        ("torsion-scan", "--dim", "1", "--col-cap", "-1"),
        ("mobius-scan", "--dim", "2", "--budget", "-1"),
    ], ids=" ".join)
    def test_negative_cap_exit_code(self, paths, capsys, argv):
        code, out, err = run(capsys, argv[0], "--complex", paths["moebius"],
                             *argv[1:])
        assert (code, out) == (4, "")
        assert err == f"error: {argv[-2]} must be non-negative, got -1\n"

    def test_zero_budget_is_a_cap(self, paths, capsys):
        code, _, err = run(capsys, "mobius-scan", "--complex",
                           paths["moebius"], "--dim", "2", "--budget", "0")
        assert code == 5
        assert err == "undecided: cycle search exceeded budget 0\n"

    def test_mobius_scan_refuses_col_cap(self, paths, capsys):
        # the cycle search has no column cap, so argparse refuses the flag
        with pytest.raises(SystemExit) as exc:
            run(capsys, "mobius-scan", "--complex", paths["moebius"],
                "--dim", "2", "--col-cap", "16")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --col-cap 16" in err

    def test_many_vertex_simplex_builds_only_the_levels_read(self, paths,
                                                             capsys):
        # all 2**26 faces of this simplex do not fit in memory; homology
        # --dim 1 reads its levels 0..2 alone
        big = paths["tmp"] / "big.scx"
        big.write_text(" ".join(map(str, range(26))) + "\n")
        code, out, _ = run(capsys, "homology", "--complex", big, "--dim", "1")
        assert (code, json.loads(out)) == (0, {"betti": 0, "torsion": []})

    def test_missing_file_exit_code(self, paths, capsys):
        code, _, _ = run(capsys, "homology", "--complex",
                         paths["tmp"] / "nope.scx", "--dim", "0")
        assert code == 4

    @pytest.mark.parametrize("flag", ("--complex", "--chain", "--matrix"))
    def test_non_utf8_file_exit_code(self, paths, capsys, flag):
        bad = paths["tmp"] / "bad.txt"
        bad.write_bytes(b"\xff 0 1\n")
        argv = {"--complex": ("homology", "--complex", bad, "--dim", "0"),
                "--chain": ("solve", "--complex", paths["triangle"],
                            "--chain", bad, "--dim", "1"),
                "--matrix": ("snf", "--matrix", bad)}[flag]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err == f"error: cannot read {bad}: not UTF-8 text\n"

    def test_out_in_missing_directory_exit_code(self, paths, capsys):
        prefix = paths["tmp"] / "missing" / "sol"
        code, out, err = run(capsys, "solve", "--complex", paths["triangle"],
                             "--chain", paths["chain"], "--dim", "1",
                             "--out", prefix)
        assert code == 4
        assert json.loads(out)["objective"] == "0/1"
        assert err == (f"error: cannot write {prefix}.json: "
                       "No such file or directory\n")

    def test_deterministic_output(self, paths, capsys):
        outs = set()
        for _ in range(3):
            _, out, _ = run(capsys, "torsion-scan", "--complex",
                            paths["moebius"], "--dim", "1")
            outs.add(out)
        assert len(outs) == 1

    def test_solve_with_coordinate_weights(self, paths, capsys):
        xyz = paths["tmp"] / "pts.xyz"
        xyz.write_text("0 0 0\n1 3 0\n2 3 4\n")
        code, out, _ = run(capsys, "solve", "--complex", paths["triangle"],
                           "--chain", paths["chain"], "--dim", "1",
                           "--coords", xyz)
        assert code == 0
        assert json.loads(out)["objective"] == "0/1"

    @pytest.mark.parametrize("flag, text", [
        ("--weights", "2 0 1\n5 1 0\n"),
        ("--coords", "0 0 0\n1 3 0\n1 30 0\n2 3 4\n"),
    ], ids=["weights", "coords"])
    def test_repeated_line_exit_code(self, paths, capsys, flag, text):
        # a second line for the same simplex or vertex used to win silently
        path = paths["tmp"] / "repeated.txt"
        path.write_text(text)
        code, out, err = run(capsys, "solve", "--complex", paths["triangle"],
                             "--chain", paths["chain"], "--dim", "1",
                             flag, path)
        assert (code, out) == (4, "")
        assert err.startswith("error: line ") and "repeated" in err

    @pytest.mark.parametrize("flag, text", [
        ("--weights", "1e99999999 0 1\n"),
        ("--coords", "0 0 0\n1 1e99999999 0\n2 3 4\n"),
    ])
    def test_exponent_token_exits_at_once(self, paths, flag, text):
        # an exponent is no number form; read as one, this token would ask
        # for a 10**99999999 that takes minutes to build
        path = paths["tmp"] / "huge.txt"
        path.write_text(text)
        argv = ["solve", "--complex", paths["triangle"], "--chain",
                paths["chain"], "--dim", "1", flag, path]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(ohcp.__file__)))
        done = subprocess.run([sys.executable, "-m", "ohcp.cli",
                               *map(str, argv)], env=env,
                              capture_output=True, text=True, timeout=5)
        assert (done.returncode, done.stdout) == (4, "")
        assert done.stderr.startswith("error: ")


def test_reused_parser_carries_nothing_between_calls(paths, capsys,
                                                     monkeypatch):
    # main keeps one parser for the process; each call must still read as
    # a fresh `python -m ohcp.cli` run of the same argv
    monkeypatch.setenv("COLUMNS", "80")     # --help wraps at this width
    wts = paths["tmp"] / "w.wts"
    wts.write_text("2 0 1\n1/2 1 2\n3 0 2\n")
    y_wts = paths["tmp"] / "y.wts"
    y_wts.write_text("5 0 1 2\n")
    out = paths["tmp"] / "sol"
    outs = [out.with_suffix(".json"), out.with_suffix(".chn")]
    solve = ["solve", "--complex", paths["triangle"], "--chain",
             paths["chain"], "--dim", "1"]
    tu = ["tu", "--complex", paths["moebius"], "--dim", "1"]
    argvs = [solve + ["--weights", wts, "--variant", "total",
                      "--y-weights", y_wts, "--out", out],
             solve,
             tu + ["--method", "mobius", "--budget", "0"],
             tu,
             ["solve", "--help"],
             ["mobius-scan", "--complex", paths["moebius"], "--dim", "2",
              "--col-cap", "3"]]
    got = []
    for argv in argvs:
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
        got.append((code, *capsys.readouterr()))
        if argv is argvs[0]:
            assert all(p.exists() for p in outs)
            for p in outs:
                p.unlink()
    assert not any(p.exists() for p in outs)
    assert [g[0] for g in got] == [0, 0, 5, 0, 0, 2]
    assert got[2][2] == "undecided: cycle search exceeded budget 0\n"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(ohcp.__file__)))
    for argv, want in zip(argvs, got):
        done = subprocess.run([sys.executable, "-m", "ohcp.cli",
                               *map(str, argv)], env=env,
                              capture_output=True, text=True, timeout=30)
        assert (done.returncode, done.stdout, done.stderr) == want, argv


def test_unknown_flag_gets_the_subcommand_usage(paths, capsys):
    # parse_args alone reports it with the top-level usage, which names no
    # flag of the subcommand
    with pytest.raises(SystemExit) as exc:
        main(["mobius-scan", "--complex", str(paths["moebius"]), "--dim", "2",
              "--col-cap", "3"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: ohcp mobius-scan [-h] --complex K.scx ")
    assert err.endswith("\nohcp mobius-scan: error: unrecognized arguments: "
                        "--col-cap 3\n")


@pytest.mark.parametrize("before", (True, False), ids=("before", "after"))
def test_unknown_flag_gets_the_usage_of_the_parser_it_reached(paths, capsys,
                                                              before):
    # before the subcommand the top-level parser is the one that did not
    # know it; after it, the subcommand's parser
    argv = ["homology", "--dim", "1", "--complex", str(paths["moebius"])]
    argv = ["--bogus"] + argv if before else argv + ["--bogus"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    prog = "ohcp" if before else "ohcp homology"
    usage = ("usage: ohcp [-h] {" if before
             else "usage: ohcp homology [-h] --complex K.scx --dim DIM\n")
    assert exc.value.code == 2
    assert err.startswith(usage)
    assert err.endswith(f"\n{prog}: error: unrecognized arguments: --bogus\n")


class TestSparseCascade:
    """The TU routes read the cached sparse boundary, never a dense one."""

    FIXTURES = ("triangle", "hollow_triangle", "tetrahedron_surface",
                "disk_fan", "cylinder", "mobius_strip", "projective_plane",
                "torus", "seven_tetrahedra", "two_tetrahedra",
                "solid_octahedron")

    @staticmethod
    def verdicts(tmp_path, capsys, name):
        """{(p, route): (exit code, TU status or None)} for `tu` with each
        method and for `torsion-scan`, at every dimension of the fixture;
        the column cap keeps minor enumeration off the 14-triangle torus,
        which takes tens of seconds to reach the stored-minor cap."""
        K = getattr(fixtures, name)()
        scx = tmp_path / f"{name}.scx"
        scx.write_text(write_complex(K))
        out = {}
        for p in range(K.dim):
            for route in ("auto", "minors", "ht", "mobius", "torsion-scan"):
                argv = ["tu", "--method", route] if route != "torsion-scan" \
                    else [route]
                code, text, _ = run(capsys, *argv, "--complex", scx,
                                    "--dim", p, "--col-cap", 10)
                doc = json.loads(text) if code == 0 else {}
                out[p, route] = (code, doc.get("verdict", doc).get("status"))
        return out

    @pytest.mark.parametrize("name", FIXTURES)
    def test_no_dense_boundary(self, tmp_path, capsys, monkeypatch, name):
        def dense(*args):
            raise AssertionError("dense boundary matrix built")
        for module in ("ohcp.complexes", "ohcp.cli", "ohcp.tu"):
            monkeypatch.setattr(f"{module}.boundary_matrix", dense,
                                raising=False)
        runs = self.verdicts(tmp_path, capsys, name)
        assert {code for code, _ in runs.values()} <= {0, 5}

    @pytest.mark.parametrize("name", FIXTURES)
    def test_methods_agree_with_auto(self, tmp_path, capsys, name):
        runs = self.verdicts(tmp_path, capsys, name)
        for (p, route), (code, status) in runs.items():
            assert runs[p, "auto"][0] == 0
            if code == 0:
                assert status == runs[p, "auto"][1], (p, route)

    def test_cap_checked_first(self, tmp_path, capsys):
        # the 3-skeleton of the 6-simplex: 4 cofaces per triangle and 4
        # faces per tetrahedron, so no line is deleted before the cap
        scx = tmp_path / "skeleton.scx"
        scx.write_text("".join(" ".join(map(str, t)) + "\n"
                               for t in itertools.combinations(range(7), 4)))
        code, _, err = run(capsys, "tu", "--complex", scx, "--dim", 2)
        assert code == 5
        assert "35 columns exceed the cap 16" in err

    def test_cap_counts_reduced_columns(self, tmp_path, capsys):
        # 40 tetrahedra on one triangle: every other triangle has one
        # coface, so the reductions delete every row and column
        scx = tmp_path / "fan.scx"
        scx.write_text("".join(f"0 1 2 {3 + i}\n" for i in range(40)))
        code, out, _ = run(capsys, "tu", "--complex", scx, "--dim", 2)
        assert code == 0
        doc = json.loads(out)
        assert (doc["status"], doc["method"]) == ("TU", "minor-enumeration")

    def test_stored_minors_capped(self, tmp_path, capsys, monkeypatch):
        # 14 columns pass the column cap; the stored minors pass 1 GB
        monkeypatch.setattr("ohcp.tu.MINOR_CAP", 10_000)
        scx = tmp_path / "torus.scx"
        scx.write_text(write_complex(fixtures.torus()))
        code, out, err = run(capsys, "tu", "--complex", scx, "--dim", 1,
                             "--method", "minors")
        assert (code, out) == (5, "")
        assert err.startswith("undecided: more than 10000 nonzero ")

    @pytest.mark.parametrize("name", ("cylinder", "torus"))
    def test_ht_certifies_orientable_surfaces(self, tmp_path, capsys, name):
        scx = tmp_path / f"{name}.scx"
        scx.write_text(write_complex(getattr(fixtures, name)()))
        code, out, _ = run(capsys, "tu", "--complex", scx, "--dim", 1,
                           "--method", "ht")
        assert code == 0
        doc = json.loads(out)
        assert (doc["status"], doc["method"]) == ("TU", "heller-tompkins")


def test_start_up_does_not_import_numpy():
    # the package runs on the standard library; numpy is for the tests only
    src = os.path.dirname(os.path.dirname(ohcp.__file__))
    check = "import sys, ohcp.cli; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", check], env=env).returncode == 0
