"""Guards over the source of src/ohcp. Each top-level public name, the
fixtures module aside, is referenced outside its own definition by the
package, the scripts or the benchmark harness; a name that only tests reach
belongs in tests/. No check is an assert statement, which python -O strips."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the field holding the name each kind of reference uses; string constants
# count, because the benchmark harness names what it traces by string
REFERENCES = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name",
              ast.Constant: "value"}


def test_every_public_name_is_used_outside_the_tests():
    defs = {}       # name -> (file, first line, last line)
    for path in (ROOT / "src" / "ohcp").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if path.stem != "fixtures" and not name.startswith("_"):
                    defs[name] = (path, node.lineno, node.end_lineno)
    used = set()
    for top in ("src/ohcp", "scripts", "ohcpbench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                name = getattr(node, REFERENCES.get(type(node), ""), None)
                if isinstance(name, str) and name in defs:
                    home, first, last = defs[name]
                    if path != home or not first <= node.lineno <= last:
                        used.add(name)
    unused = sorted(set(defs) - used)
    assert not unused, f"referenced only by tests: {', '.join(unused)}"


def test_no_assert_statement_in_the_package():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "ohcp").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements: {', '.join(found)}"
