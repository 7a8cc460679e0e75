"""Guards over the source of src/ohcp. Each top-level public name, the
fixtures module aside, is referenced outside its own definition by the
package, the scripts or the benchmark harness; a name that only tests reach
belongs in tests/. Each top-level private name is referenced by the package
outside its own definition, and each import is read by its module. No check
is an assert statement, which python -O strips."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ohcp").glob("*.py"))
# the field holding the name each kind of reference uses; string constants
# count, because the benchmark harness names what it traces by string
REFERENCES = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name",
              ast.Constant: "value"}


def top_level_names(private):
    """{name: (file, first line, last line)} of the functions, classes and
    assigned names at the top level of the package's modules, the private
    ones (a leading underscore, dunders aside) or the public ones outside
    fixtures.py."""
    defs = {}
    for path in PACKAGE:
        if not private and path.stem == "fixtures":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") == private \
                        and not name.startswith("__"):
                    defs[name] = (path, node.lineno, node.end_lineno)
    return defs


def referenced(defs, paths):
    """The names of `defs` that `paths` reference outside their own
    definitions."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, REFERENCES.get(type(node), ""), None)
            if isinstance(name, str) and name in defs:
                home, first, last = defs[name]
                if path != home or not first <= node.lineno <= last:
                    used.add(name)
    return used


def test_every_public_name_is_used_outside_the_tests():
    defs = top_level_names(private=False)
    paths = [path for top in ("src/ohcp", "scripts", "ohcpbench")
             for path in (ROOT / top).rglob("*.py")]
    unused = sorted(set(defs) - referenced(defs, paths))
    assert not unused, f"referenced only by tests: {', '.join(unused)}"


def test_every_private_name_is_used_by_the_package():
    defs = top_level_names(private=True)
    unused = sorted(set(defs) - referenced(defs, PACKAGE))
    assert not unused, f"never referenced: {', '.join(unused)}"


def test_every_import_is_read():
    found = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"unused imports: {', '.join(found)}"


def test_no_assert_statement_in_the_package():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "ohcp").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements: {', '.join(found)}"
