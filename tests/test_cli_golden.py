"""Byte-exact command-line transcripts over every bundled fixture.

For each complex in `ohcp.fixtures` and each dimension a command accepts,
the exit code, stdout and stderr of `boundary`, `snf` on that boundary's
.mat text, `tu` by every method, `torsion-scan` and `homology` are compared
with tests/expected/cli_fixtures.txt, and so are those of `solve` at one
below the top dimension in every variant, with chain entries cycling 1, -1,
0, weights cycling 1, 2, 3 (identity for l0) and y-weights cycling 1, 2,
and of `solve --variant l1 --coords` with seeded points in R^3 whose
coordinates mix the denominators 7, 10^4 and 1, so that Euclidean lengths
(p = 1) and areas (p = 2) are pinned. Regenerate that file after a
deliberate output change with

    PYTHONPATH=src:tests python tests/test_cli_golden.py --write
"""
import contextlib
import io
import pathlib
import random
import sys
import tempfile

from helpers import write_complex
from ohcp import fixtures
from ohcp.cli import main

EXPECTED = pathlib.Path(__file__).resolve().parent / "expected" / "cli_fixtures.txt"

COMPLEXES = {
    "triangle": fixtures.triangle(),
    "hollow_triangle": fixtures.hollow_triangle(),
    "tetrahedron_surface": fixtures.tetrahedron_surface(),
    "disk_fan": fixtures.disk_fan(),
    "cylinder": fixtures.cylinder(),
    "mobius_strip": fixtures.mobius_strip(),
    "projective_plane": fixtures.projective_plane(),
    "torus": fixtures.torus(),
    "hourglass": fixtures.hourglass()[0],
    "seven_tetrahedra": fixtures.seven_tetrahedra(),
    "two_tetrahedra": fixtures.two_tetrahedra(),
    "solid_octahedron": fixtures.solid_octahedron(),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _cycling(K, q, values):
    """.chn or .wts text giving the q-simplices of K `values` in turn."""
    return "".join(f"{values[i % len(values)]} " + " ".join(map(str, s))
                   + "\n" for i, s in enumerate(K.simplices(q)))


def _coordinates(K):
    """.xyz text placing each vertex of K at a seeded rational point of R^3,
    each coordinate k/7, a decimal with four places or an integer."""
    rng = random.Random(0)
    forms = (lambda: f"{rng.randint(-30, 30)}/7",
             lambda: "%d.%04d" % divmod(rng.randrange(10 ** 5), 10 ** 4),
             lambda: str(rng.randint(-5, 5)))
    return "".join(f"{v} " + " ".join(rng.choice(forms)() for _ in range(3))
                   + "\n" for (v,) in K.simplices(0))


def _commands(name, K, scx, mat, write):
    """(display argv, argv) pairs; `mat(q)` writes the q-boundary .mat and
    `write(file name, text)` any other input file."""
    for q in range(1, K.dim + 1):
        yield f"boundary {name} --dim {q}", \
            ["boundary", "--complex", scx, "--dim", str(q)]
        yield f"snf {name}.b{q}.mat", ["snf", "--matrix", mat(q)]
    for p in range(K.dim):
        for method in ("auto", "ht", "mobius"):
            yield f"tu {name} --dim {p} --method {method}", \
                ["tu", "--complex", scx, "--dim", str(p), "--method", method]
        yield f"tu {name} --dim {p} --method minors --col-cap 10", \
            ["tu", "--complex", scx, "--dim", str(p), "--method", "minors",
             "--col-cap", "10"]
        yield f"torsion-scan {name} --dim {p}", \
            ["torsion-scan", "--complex", scx, "--dim", str(p)]
    for p in range(K.dim + 1):
        yield f"homology {name} --dim {p}", \
            ["homology", "--complex", scx, "--dim", str(p)]
    p = K.dim - 1
    chain = ["--chain", write(f"{name}.chn", _cycling(K, p, (1, -1, 0)))]
    weights = ["--weights", write(f"{name}.wts", _cycling(K, p, (1, 2, 3)))]
    y_weights = ["--y-weights",
                 write(f"{name}.y.wts", _cycling(K, p + 1, (1, 2)))]
    for variant, extra in (("l1", weights), ("l0", []),
                           ("total", weights + y_weights)):
        yield f"solve {name} --dim {p} --variant {variant}", \
            ["solve", "--complex", scx, "--dim", str(p), "--variant",
             variant] + chain + extra
    yield f"solve {name} --dim {p} --variant l1 --coords", \
        ["solve", "--complex", scx, "--dim", str(p), "--variant", "l1"] \
        + chain + ["--coords", write(f"{name}.xyz", _coordinates(K))]


def transcript():
    parts = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)

        def write(file, text):
            path = tmp / file
            path.write_text(text)
            return str(path)

        for name, K in COMPLEXES.items():
            scx = write(f"{name}.scx", write_complex(K))

            def mat(q, name=name, scx=scx):
                path = tmp / f"{name}.b{q}.mat"
                _, out, _ = _run(["boundary", "--complex", scx,
                                  "--dim", str(q)])
                path.write_text(out)
                return str(path)

            for shown, argv in _commands(name, K, scx, mat, write):
                code, out, err = _run(argv)
                parts.append(f"$ ohcp {shown}\nexit {code}\n"
                             f"--- stdout\n{out}--- stderr\n{err}")
    return "".join(parts)


def test_cli_transcript_matches_expected():
    assert transcript() == EXPECTED.read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_cli_golden.py --write")
    EXPECTED.parent.mkdir(exist_ok=True)
    EXPECTED.write_text(transcript())
