"""The scale rule of `linalg` is the only tolerance policy in the package.

Walks the package source with `ast`.  A float literal below 1e-3 may appear
only as `linalg.DEFAULT_TOL` and as the two display cut-offs of `Form`
(`__repr__`, `to_json`); every other tolerance is a multiple of a `tol` in
scope or of `DEFAULT_TOL`.  A `max(1.0, ...)` floor, which makes a
threshold absolute for small data, may appear only in
`linalg._row_and_null_space`, whose callers pass unit-scaled data.

Every threshold site is listed: a comparison, product or quotient that
reads `tol` (a name or an attribute), `DEFAULT_TOL` or `GAP_FACTOR`,
counted once where such expressions nest, by file and enclosing function.
A new site fails `test_threshold_sites_are_listed` until it is listed.

Every dense factorization or solve is listed too: each `np.linalg.<name>`
the package reads, called or not, other than `norm` and `LinAlgError`, by
file, enclosing function and name.
A new one fails `test_lapack_calls_are_listed` until it is listed.
"""
import ast
from collections import Counter
from pathlib import Path

import nilkilling

SRC = Path(nilkilling.__file__).parent

LITERAL_SITES = {("linalg.py", "DEFAULT_TOL"), ("forms.py", "__repr__"),
                 ("forms.py", "to_json")}
FLOOR_SITES = {("linalg.py", "_row_and_null_space")}

THRESHOLD_NAMES = {"tol", "DEFAULT_TOL", "GAP_FACTOR"}
THRESHOLD_SITES = {
    ("algebra.py", "validate"): 5,
    ("algebra.py", "_canonical_span_basis"): 2,
    ("cli.py", "_run"): 1,               # the --tol range of the parser
    ("cli.py", "cmd_killing"): 1,        # the span check of --method both
    ("forms.py", "terms"): 1,            # a display cut-off
    ("forms.py", "_skew_map"): 1,
    ("linalg.py", "_rank"): 2,           # the two edges of the refusal band
    ("linalg.py", "_sign_fixed"): 1,
    ("structure.py", "_cluster"): 1,
}

# np.linalg.<name> by file, enclosing function and name
LAPACK_CALLS = {
    ("algebra.py", "validate", "eigvalsh"): 1,
    ("algebra.py", "adapted_frame", "cholesky"): 1,
    ("algebra.py", "adapted_frame", "qr"): 1,
    ("algebra.py", "adapted_frame", "solve"): 1,
    ("forms.py", "transform", "det"): 1,
    ("killing.py", "killing_nullspace_brute", "qr"): 1,
    ("linalg.py", "_row_and_null_space", "svd"): 1,       # the package's one SVD
    ("structure.py", "naturally_reductive_type", "lstsq"): 1,   # dim z >= 3 only
    ("structure.py", "decompose", "eigh"): 2,
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


def lapack_calls(filename, source):
    """Counter of (filename, site, name) over the `np.linalg.<name>` (or
    `numpy.linalg.<name>`) the source reads, called or not, but `norm` and
    `LinAlgError`; an import from numpy.linalg or scipy counts under its
    module name, so no factorization enters unlisted."""
    found = Counter()
    for site, node in _sites(ast.parse(source)):
        if (isinstance(node, ast.Attribute)
                and node.attr not in ("norm", "LinAlgError")
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy")):
            found[(filename, site, node.attr)] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                       else [alias.name for alias in node.names])
            for module in modules:
                if module.startswith(("numpy.linalg", "scipy")):
                    found[(filename, site, module)] += 1
    return found


def test_checker_counts_lapack_calls():
    source = ("import scipy.linalg\n"
              "def f(a):\n"
              "    q, r = np.linalg.qr(a)\n"
              "    return np.linalg.norm(a), numpy.linalg.svd(q), np.linalg.qr(r)\n"
              "def g(a):\n"
              "    solve = np.linalg.lstsq\n"
              "    err = np.linalg.LinAlgError\n"
              "    return np.eye(2), a.linalg.svd()\n")
    assert lapack_calls("m.py", source) == Counter({
        ("m.py", None, "scipy.linalg"): 1, ("m.py", "f", "qr"): 2,
        ("m.py", "f", "svd"): 1, ("m.py", "g", "lstsq"): 1})


def test_lapack_calls_are_listed():
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        found += lapack_calls(path.name, path.read_text())
    assert found == Counter(LAPACK_CALLS)
