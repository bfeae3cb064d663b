"""Command-line front end.

Commands: analyze, killing, decompose, catalog list|show, tables.
Inputs are either algebra JSON files or the pseudo-path catalog:<name>.

Exit codes: 0 ok, 1 stdout closed by its reader, 2 parse error (an
algebra too large to allocate included), 3 validation failure
(InvalidAlgebra, raised by the one gate `adapted_frame`), 4 numerical
failure (NumericalRankFailure, DecompositionAmbiguous,
InternalInvariantViolation, NotSkew), 5 oracle/table mismatch.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

import numpy as np

from . import catalog as cat
from .algebra import MetricLieAlgebra, adapted_frame, j_trace_form
from .errors import (
    DecompositionAmbiguous,
    InternalInvariantViolation,
    InvalidAlgebra,
    NotSkew,
    NumericalRankFailure,
)
from .killing import killing_nullspace_brute, structured_killing
from .linalg import DEFAULT_TOL, span_distance
from .structure import decompose, killing_dimensions

SCHEMA = 1

EXIT_CLOSED_PIPE = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_NUMERICAL = 4
EXIT_MISMATCH = 5


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _build_catalog(name, lam, l, d):
    try:
        alg = cat.build(name, lam=lam, l=l, d=d)
    except (KeyError, ValueError, MemoryError) as exc:
        raise CliError(EXIT_PARSE, str(exc))
    if alg.dim == 0:
        raise CliError(EXIT_PARSE, "algebra dimension must be positive")
    return alg


def load_algebra(spec, lam=1.0, l=1, d=1):
    if spec.startswith("catalog:"):
        return _build_catalog(spec.split(":", 1)[1], lam, l, d)
    try:
        return MetricLieAlgebra.load(spec)
    except (OSError, json.JSONDecodeError, KeyError, ValueError, IndexError,
            MemoryError) as exc:
        raise CliError(EXIT_PARSE, f"cannot parse {spec}: {exc}")


def _decomposition_record(dec):
    dim_k2, dim_k3, d, _, _ = dec.killing_dimensions()
    return {
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


def analyze_record(alg, tol):
    dec = decompose(alg, tol)
    F = dec.frame
    return {
        "schema": SCHEMA,
        "name": alg.name,
        "n": alg.dim,
        "dim_v": F.nv,
        "dim_z": F.nz,
        **_decomposition_record(dec),
        "j_trace_eigenvalues": sorted(
            np.linalg.eigvalsh(j_trace_form(F)).tolist()
        ),
    }


def _emit(record, as_json, text_lines):
    if as_json:
        print(json.dumps(record, indent=2))
    else:
        for line in text_lines(record):
            print(line)


def cmd_analyze(args):
    alg = load_algebra(args.input, args.lam, args.l, args.d)
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
        yield "j-trace-form eigenvalues: " + ", ".join(
            "%.6g" % v for v in r["j_trace_eigenvalues"]
        )

    _emit(rec, args.json, lines)
    return 0


def cmd_killing(args):
    k = args.degree
    if args.method != "brute" and k not in (2, 3):
        raise CliError(
            EXIT_PARSE, "structured solvers exist for degrees 2 and 3 only"
        )
    alg = load_algebra(args.input, args.lam, args.l, args.d)
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
        if brute.dim != structured.dim or rec["span_residual"] > 10 * args.tol:
            raise CliError(
                EXIT_MISMATCH,
                "brute (%d) and structured (%d) solvers disagree"
                % (brute.dim, structured.dim),
            )
    return 0


def _space_mismatch(a, b):
    ma, mb = a.matrix(), b.matrix()
    if ma.size == 0 and mb.size == 0:
        return 0.0
    if ma.size == 0 or mb.size == 0:
        return float(max(np.abs(ma).max(initial=0.0), np.abs(mb).max(initial=0.0)))
    qa, _ = np.linalg.qr(ma)
    qb, _ = np.linalg.qr(mb)
    return span_distance(qa, qb)


def cmd_decompose(args):
    alg = load_algebra(args.input, args.lam, args.l, args.d)
    rec = {
        "schema": SCHEMA,
        "name": alg.name,
        **_decomposition_record(decompose(alg, args.tol)),
    }

    def lines(r):
        yield f"abelian dimension d = {r['d']}"
        for i, f in enumerate(r["factors"]):
            yield (
                f"factor {i}: dim={f['dim']} (v={f['dims_vz'][0]}, z={f['dims_vz'][1]})"
                f" complex={f['complex']} nat_reductive={f['nat_reductive']}"
            )
        yield f"dim K2 = {r['dimK2']}, dim K3 = {r['dimK3']}"

    _emit(rec, args.json, lines)
    return 0


def cmd_catalog(args):
    if args.action == "list":
        names = cat.catalog_names()
        if args.json:
            print(json.dumps({"schema": SCHEMA, "names": names}, indent=2))
        else:
            for name in names:
                print(name)
        return 0
    alg = _build_catalog(args.name, args.lam, args.l, args.d)
    print(json.dumps(alg.to_json(), indent=2))
    return 0


def cmd_tables(args):
    list2, list3 = cat.classification_lists()
    mismatch = False
    tables = []
    dims = {}                   # (dimK2, dimK3) by name; the lists share entries
    for degree, entries in ((2, list2), (3, list3)):
        rows = []
        for entry in entries:
            if not entry.buildable:
                rows.append({"name": entry.name, "dim": entry.dim, "skipped": True})
                continue
            if entry.name not in dims:
                dims[entry.name] = killing_dimensions(entry.build(), args.tol)[:2]
            computed = dims[entry.name][degree - 2]
            expected = entry.expected[degree - 2] if entry.expected else None
            ok = expected is None or computed == expected
            mismatch = mismatch or not ok
            rows.append(
                {
                    "name": entry.name,
                    "dim": entry.dim,
                    "computed": computed,
                    "expected": expected,
                    "ok": ok,
                    "skipped": False,
                }
            )
        tables.append({"degree": degree, "rows": rows})
    rec = {"schema": SCHEMA, "tables": tables}
    if args.json:
        print(json.dumps(rec, indent=2))
    else:
        for table in tables:
            print(f"Killing {table['degree']}-forms:")
            for row in table["rows"]:
                if row["skipped"]:
                    print(f"  {row['name']:<14} p={row['dim']}  [skipped: external construction]")
                else:
                    status = "ok" if row["ok"] else "MISMATCH"
                    print(
                        f"  {row['name']:<14} p={row['dim']}  dimK={row['computed']}"
                        f" (expected {row['expected']})  {status}"
                    )
    if mismatch:
        raise CliError(EXIT_MISMATCH, "computed table dimensions disagree")
    return 0


def _add_common(parser, with_input=True, tol=True, catalog_params=True):
    """Register only the flags the command reads."""
    if with_input:
        parser.add_argument("input", help="algebra JSON path or catalog:<name>")
    if tol:
        parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    parser.add_argument("--json", action="store_true")
    if catalog_params:
        parser.add_argument("--lambda", dest="lam", type=float, default=1.0)
        parser.add_argument("--l", type=int, default=1)
        parser.add_argument("--d", type=int, default=1)


@lru_cache(maxsize=None)
def build_parser():
    """The command-line parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="nilkilling",
        description="Killing forms on metric 2-step nilpotent Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="decompose and report all invariants")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("killing", help="solve the Killing equation")
    _add_common(p)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--method", choices=("brute", "structured", "both"),
                   default="brute")
    p.set_defaults(func=cmd_killing)

    p = sub.add_parser("decompose", help="abelian + irreducible factors")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("catalog", help="list or show built-in algebras")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?", default="")
    _add_common(p, with_input=False, tol=False)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("tables", help="regenerate the classification tables")
    _add_common(p, with_input=False, catalog_params=False)
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
    if getattr(args, "degree", 1) < 1:
        print("degree must be >= 1", file=sys.stderr)
        return EXIT_PARSE
    if hasattr(args, "tol") and not 0 < args.tol < 1:
        print("tol must be a finite number in (0, 1)", file=sys.stderr)
        return EXIT_PARSE
    if not np.isfinite(getattr(args, "lam", 1.0)):
        print("lambda must be a finite number", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except InvalidAlgebra as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    except (NumericalRankFailure, DecompositionAmbiguous,
            InternalInvariantViolation, NotSkew) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
