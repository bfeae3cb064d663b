"""The scale rule of `linalg` is the only tolerance policy in the package.

Walks the package source with `ast`.  A float literal below 1e-3 may appear
only as `linalg.DEFAULT_TOL` and as the two display cut-offs of `Form`
(`__repr__`, `to_json`); every other tolerance is a multiple of a `tol` in
scope or of `DEFAULT_TOL`.  A `max(1.0, ...)` floor, which makes a
threshold absolute for small data, may appear only in `linalg._svd_rank`,
whose callers pass unit-scaled data.

Every threshold site is listed: a comparison, product or quotient that
reads `tol` (a name or an attribute), `DEFAULT_TOL` or `GAP_FACTOR`,
counted once where such expressions nest, by file and enclosing function.
A new site fails `test_threshold_sites_are_listed` until it is listed.
"""
import ast
from collections import Counter
from pathlib import Path

import nilkilling

SRC = Path(nilkilling.__file__).parent

LITERAL_SITES = {("linalg.py", "DEFAULT_TOL"), ("forms.py", "__repr__"),
                 ("forms.py", "to_json")}
FLOOR_SITES = {("linalg.py", "_svd_rank")}

THRESHOLD_NAMES = {"tol", "DEFAULT_TOL", "GAP_FACTOR"}
THRESHOLD_SITES = {
    ("algebra.py", "validate"): 5,
    ("algebra.py", "_canonical_span_basis"): 2,
    ("cli.py", "_run"): 1,               # the --tol range of the parser
    ("cli.py", "cmd_killing"): 1,        # the span check of --method both
    ("forms.py", "terms"): 1,            # a display cut-off
    ("forms.py", "_skew_map"): 1,
    ("killing.py", "_normalize"): 1,
    ("killing.py", "killing_residual"): 1,
    ("killing.py", "is_parallel"): 1,
    ("linalg.py", "_svd_rank"): 2,
    ("structure.py", "_cluster"): 1,
    ("structure.py", "find_complex_structure"): 2,
    ("structure.py", "naturally_reductive_type"): 2,
    ("structure.py", "decompose"): 1,
}


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


def _reads_threshold(node):
    return any((isinstance(n, ast.Name) and n.id in THRESHOLD_NAMES)
               or (isinstance(n, ast.Attribute) and n.attr == "tol")
               for n in ast.walk(node))


def threshold_sites(filename, source):
    """Counter of (filename, site) over the outermost comparisons, products
    and quotients that read a threshold."""
    found, inside = Counter(), set()
    for site, node in _sites(ast.parse(source)):
        if id(node) in inside:
            continue
        if ((isinstance(node, ast.Compare)
             or (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div))))
                and _reads_threshold(node)):
            found[(filename, site)] += 1
            inside.update(map(id, ast.walk(node)))
    return found


def test_checker_counts_threshold_sites():
    source = ("def f(a, s, args):\n"
              "    gap = GAP_FACTOR * tol * s\n"
              "    return a > gap or a < 10 * args.tol or a * 2 > s\n"
              "def g(a):\n"
              "    return a - DEFAULT_TOL\n")
    assert threshold_sites("m.py", source) == Counter({("m.py", "f"): 2})


def test_threshold_sites_are_listed():
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        found += threshold_sites(path.name, path.read_text())
    assert found == Counter(THRESHOLD_SITES)
