"""Command-line front end.

Commands: analyze (also named decompose), killing, catalog list|show,
tables.
Inputs are either algebra JSON files or the pseudo-path catalog:<name>.

Exit codes: 0 ok, 1 stdout closed by its reader, 2 parse error, 3
validation failure, 4 numerical failure, 5 oracle/table mismatch;
`_EXIT_CODES` maps each library exception a command can raise to its code.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from . import catalog as cat
from .algebra import MetricLieAlgebra, adapted_frame
from .errors import (
    DecompositionAmbiguous,
    InternalInvariantViolation,
    InvalidAlgebra,
    NumericalRankFailure,
    WorkingSetTooLarge,
)
from .killing import (
    _check_structured_degree,
    killing_nullspace_brute,
    structured_killing,
)
from .linalg import DEFAULT_TOL, span_distance
from .structure import decompose, killing_dimensions

SCHEMA = 1

EXIT_CLOSED_PIPE = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_NUMERICAL = 4
EXIT_MISMATCH = 5

_EXIT_CODES = {
    WorkingSetTooLarge: EXIT_PARSE,
    InvalidAlgebra: EXIT_INVALID,
    NumericalRankFailure: EXIT_NUMERICAL,
    DecompositionAmbiguous: EXIT_NUMERICAL,
    InternalInvariantViolation: EXIT_NUMERICAL,
}

# the flag and type of each catalog keyword (`catalog.parameters`)
_CATALOG_FLAGS = {"lam": ("--lambda", float), "l": ("--l", int), "d": ("--d", int)}


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def load_algebra(spec, **params):
    """The algebra of a JSON file or a catalog:<name> pseudo-path, built with
    the catalog keywords `params`; a spec that does not resolve to an algebra
    or does not read a keyword (a JSON file reads none) exits 2."""
    name = spec[len("catalog:"):] if spec.startswith("catalog:") else None
    try:
        reads = {} if name is None else cat.parameters(name)
        unread = [_CATALOG_FLAGS[key][0] for key in params if key not in reads]
        if unread:
            raise CliError(EXIT_PARSE, f"{name or spec} does not take {unread[0]}")
        if name is None:
            return MetricLieAlgebra.load(spec)
        return cat.build(name, **params)
    except KeyError as exc:     # str() of a KeyError quotes its message
        raise CliError(EXIT_PARSE, exc.args[0])
    except (OSError, ValueError, MemoryError) as exc:
        raise CliError(EXIT_PARSE, f"cannot parse {spec}: {exc}"
                       if name is None else str(exc))


def analyze_record(alg, tol):
    dec = decompose(alg, tol)
    dim_k2, dim_k3, d, _, _ = dec.killing_dimensions()
    return {
        "schema": SCHEMA,
        "name": alg.name,
        "n": alg.dim,
        "dim_v": dec.frame.nv,
        "dim_z": dec.frame.nz,
        "d": d,
        "factors": [
            {
                "dim": f.dim,
                "dims_vz": [f.frame.nv, f.frame.nz],
                "complex": f.has_complex_structure,
                "nat_reductive": f.naturally_reductive,
            }
            for f in dec.factors
        ],
        "dimK2": dim_k2,
        "dimK3": dim_k3,
    }


def _emit(record, as_json, text_lines):
    if as_json:
        print(json.dumps(record, indent=2))
    else:
        for line in text_lines(record):
            print(line)


def cmd_analyze(args):
    alg = load_algebra(args.input, **args.params)
    rec = analyze_record(alg, args.tol)

    def lines(r):
        yield f"algebra {r['name'] or '<unnamed>'}: n={r['n']} (v={r['dim_v']}, z={r['dim_z']})"
        yield f"abelian factor d={r['d']}; {len(r['factors'])} irreducible factor(s)"
        for i, f in enumerate(r["factors"]):
            yield (
                f"  factor {i}: dim={f['dim']} (v={f['dims_vz'][0]}, z={f['dims_vz'][1]})"
                f" complex={f['complex']} nat_reductive={f['nat_reductive']}"
            )
        yield f"dim K2 = {r['dimK2']}, dim K3 = {r['dimK3']}"

    _emit(rec, args.json, lines)
    return 0


def cmd_killing(args):
    k = args.degree
    if k < 1:
        raise CliError(EXIT_PARSE, "degree must be >= 1")
    if args.method != "brute":
        try:
            _check_structured_degree(k)
        except ValueError as exc:
            raise CliError(EXIT_PARSE, str(exc))
    alg = load_algebra(args.input, **args.params)
    rec = {"schema": SCHEMA, "name": alg.name, "degree": k}
    brute = structured = None
    if args.method == "brute":
        F = adapted_frame(alg, args.tol)
    else:
        # the brute oracle of --method both runs on the decomposition's frame
        dec = decompose(alg, args.tol)
        structured, F = structured_killing(dec, k), dec.frame
    if args.method != "structured":
        brute = killing_nullspace_brute(alg, F, k, args.tol)
        rec["brute_dim"] = brute.dim
    if structured is not None:
        rec["structured_dim"] = structured.dim
    if brute is not None and structured is not None:
        residual = _space_mismatch(brute, structured)
        rec["span_residual"] = residual
        rec["dims_agree"] = brute.dim == structured.dim
    space = brute if brute is not None else structured
    rec["dim"] = space.dim
    rec["method"] = args.method
    rec["forms"] = [f.to_json() for f in space.basis]

    def lines(r):
        yield f"algebra {r['name'] or '<unnamed>'}: degree {r['degree']}"
        if "brute_dim" in r:
            yield f"brute dimension: {r['brute_dim']}"
        if "structured_dim" in r:
            yield f"structured dimension: {r['structured_dim']}"
        if "span_residual" in r:
            yield f"span projection residual: {r['span_residual']:.3e}"
        yield f"dim K{r['degree']} = {r['dim']} (method={r['method']})"

    _emit(rec, args.json, lines)
    if brute is not None and structured is not None:
        # written so that a NaN residual fails it
        if brute.dim != structured.dim or not rec["span_residual"] <= 10 * args.tol:
            raise CliError(
                EXIT_MISMATCH,
                "brute (%d) and structured (%d) solvers disagree"
                % (brute.dim, structured.dim),
            )
    return 0


def _space_mismatch(a, b):
    # span_distance needs orthonormal columns, which both solvers return
    # (tests/test_killing.py pins it)
    return span_distance(a.matrix(), b.matrix())


def cmd_catalog(args):
    if args.action == "list":
        _emit({"schema": SCHEMA, "names": cat.catalog_names()}, args.json,
              lambda r: r["names"])
        return 0
    alg = load_algebra("catalog:" + args.name, **args.params)
    print(json.dumps(alg.to_json(), indent=2))
    return 0


def cmd_tables(args):
    tables = []
    dims = {}                   # (dimK2, dimK3) by name; the lists share entries
    for degree, entries in zip((2, 3), cat.classification_lists()):
        rows = []
        for entry in entries:
            row = {"name": entry.name, "dim": entry.dim}
            if entry.buildable:
                if entry.name not in dims:
                    dims[entry.name] = killing_dimensions(entry.build(), args.tol)[:2]
                computed = dims[entry.name][degree - 2]
                expected = entry.expected[degree - 2]
                row.update(computed=computed, expected=expected,
                           ok=computed == expected)
            rows.append({**row, "skipped": not entry.buildable})
        tables.append({"degree": degree, "rows": rows})

    def lines(r):
        for table in r["tables"]:
            yield f"Killing {table['degree']}-forms:"
            for row in table["rows"]:
                if row["skipped"]:
                    yield f"  {row['name']:<14} p={row['dim']}  [skipped: external construction]"
                else:
                    status = "ok" if row["ok"] else "MISMATCH"
                    yield (
                        f"  {row['name']:<14} p={row['dim']}  dimK={row['computed']}"
                        f" (expected {row['expected']})  {status}"
                    )

    _emit({"schema": SCHEMA, "tables": tables}, args.json, lines)
    if not all(row.get("ok", True) for table in tables for row in table["rows"]):
        raise CliError(EXIT_MISMATCH, "computed table dimensions disagree")
    return 0


def _add_catalog_flags(parser):
    """The catalog parameters; `load_algebra` refuses one its input does not read."""
    for key, (flag, kind) in _CATALOG_FLAGS.items():
        parser.add_argument(flag, dest=key, type=kind, default=argparse.SUPPRESS)


def _add_common(parser):
    """The input and the flags `analyze` and `killing` both read."""
    parser.add_argument("input", help="algebra JSON path or catalog:<name>")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    parser.add_argument("--json", action="store_true")
    _add_catalog_flags(parser)


@lru_cache(maxsize=None)
def build_parser():
    """The command-line parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="nilkilling",
        description="Killing forms on metric 2-step nilpotent Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the name `decompose` stays: perfbench's cli-small workload runs it
    p = sub.add_parser("analyze", aliases=["decompose"],
                       help="decompose and report all invariants")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("killing", help="solve the Killing equation")
    _add_common(p)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--method", choices=("brute", "structured", "both"),
                   default="brute")
    p.set_defaults(func=cmd_killing)

    p = sub.add_parser("catalog", help="list or show built-in algebras")
    p.set_defaults(func=cmd_catalog)
    actions = p.add_subparsers(dest="action", required=True)
    actions.add_parser("list").add_argument("--json", action="store_true")
    p = actions.add_parser("show")
    p.add_argument("name")
    _add_catalog_flags(p)

    p = sub.add_parser("tables", help="regenerate the classification tables")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tables)
    return parser


def main(argv=None):
    try:
        code = _run(argv)
        sys.stdout.flush()      # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away: point fd 1 at devnull, so the flush at
        # interpreter exit cannot fail again (the recipe in the Python docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE


def _run(argv):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:    # a rejected flag (2) or --help (0)
        return exc.code
    try:
        if hasattr(args, "tol") and not 0 < args.tol < 1:
            raise CliError(EXIT_PARSE, "tol must be a finite number in (0, 1)")
        args.params = {key: value for key, value in vars(args).items()
                       if key in _CATALOG_FLAGS}
        return args.func(args)
    except (CliError, *_EXIT_CODES) as exc:
        print(str(exc), file=sys.stderr)
        if isinstance(exc, CliError):
            return exc.code
        return next(code for cls, code in _EXIT_CODES.items()
                    if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
