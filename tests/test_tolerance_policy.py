"""The scale rule of `linalg` is the only tolerance policy in the package.

Walks the package source with `ast`.  A float literal below 1e-3 may appear
only as `linalg.DEFAULT_TOL` and as the two display cut-offs of `Form`
(`__repr__`, `to_json`); every other tolerance is a multiple of a `tol` in
scope or of `DEFAULT_TOL`.  A `max(1.0, ...)` floor, which makes a
threshold absolute for small data, may appear only in `linalg._svd_rank`,
whose callers pass unit-scaled data.
"""
import ast
from pathlib import Path

import nilkilling

SRC = Path(nilkilling.__file__).parent

LITERAL_SITES = {("linalg.py", "DEFAULT_TOL"), ("forms.py", "__repr__"),
                 ("forms.py", "to_json")}
FLOOR_SITES = {("linalg.py", "_svd_rank")}


def _sites(tree):
    """(site, node) for every node; the site is the enclosing function, or
    the assigned name for a module-level assignment."""
    def walk(node, site):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif (site is None and isinstance(child, ast.Assign)
                  and len(child.targets) == 1
                  and isinstance(child.targets[0], ast.Name)):
                inner = child.targets[0].id
            else:
                inner = site
            yield inner, child
            yield from walk(child, inner)
    yield from walk(tree, None)


def _is_number(node, pred):
    return (isinstance(node, ast.Constant) and not isinstance(node.value, bool)
            and isinstance(node.value, (int, float)) and pred(node.value))


def violations(filename, source):
    out = []
    for site, node in _sites(ast.parse(source)):
        where = (filename, site)
        if (_is_number(node, lambda v: isinstance(v, float) and 0 < abs(v) < 1e-3)
                and where not in LITERAL_SITES):
            out.append(f"{filename}:{node.lineno} literal tolerance {node.value!r}")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "max"
                and any(_is_number(a, lambda v: v == 1) for a in node.args)
                and where not in FLOOR_SITES):
            out.append(f"{filename}:{node.lineno} max(1.0, ...) floor")
    return out


def test_checker_flags_literals_and_floors():
    source = ("X = 1e-9\n"
              "def f(a, tol):\n"
              "    return a > 1e-8 or a > tol * max(1.0, a) or a > 2e-3\n")
    assert [v.split(" ", 1)[1] for v in violations("m.py", source)] == [
        "literal tolerance 1e-09", "literal tolerance 1e-08",
        "max(1.0, ...) floor",
    ]


def test_one_tolerance_policy():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += violations(path.name, path.read_text())
    assert found == []
