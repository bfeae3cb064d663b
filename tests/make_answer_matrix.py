"""The committed CLI answer matrix: write it, rerun it, compare it.

    PYTHONPATH=src python tests/make_answer_matrix.py

writes `tests/answer_matrix.json` from the current tree: every command of
`commands()` run in-process through `cli.main`, with its exit code, stdout
and stderr, plus the algebra files the commands read.  It keeps the
committed files and each committed record that `compare_runs` finds equal
to the fresh run, so a regeneration rewrites only the answers that moved
and adds the new ones.  The matrix covers the catalog names × `analyze`,
`decompose` (another name of `analyze`), `killing --method both` at
degrees 2 and 3 and `killing --method brute` at degree 4 (text and
`--json`), `catalog show`, `tables`, `catalog list`, two isometric
scrambles with dense Gram matrices, the refusals with exit 2, 3 and 4 (a
non-boolean `metric.identity`, an identity given with a Gram matrix and an
unknown field among them), h3 and a 3-step algebra with brackets of size
1e200, and n32 with brackets of size 1e308.

`tests/test_answer_matrix.py` reruns the file's commands and compares with
`compare_runs`: exit codes exactly; stdout and stderr line by line, the
text between numbers exactly and the numbers to 1e-10 (relative above 1);
JSON output field by field, numbers to 1e-10 and Killing form bases by span
distance, since a basis of a space of dimension >= 2 is defined only up to
rotation.  A regenerated file is changed check data: say which entries
changed and why.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "answer_matrix.json"
TOL = 1e-10

# a number not glued to a name: the 3 of "h3" stays text
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _scrambled(L, seed):
    """An isometric copy of L in a random user basis, with a dense Gram."""
    from helpers import change_user_basis

    q = np.random.default_rng(seed).normal(size=(L.dim, L.dim))
    return change_user_basis(L, q, name=L.name + "~")


def inputs():
    """The algebra files the matrix reads, by file name, as JSON objects."""
    from nilkilling import (MetricLieAlgebra, complex_heisenberg, direct_sum,
                            euclidean, heisenberg)
    from nilkilling.catalog import build

    h3, n32 = heisenberg(1), build("n32")
    h3c3 = complex_heisenberg(3.0).to_json()
    faint = MetricLieAlgebra(3, list(h3.basis_names),
                             5e-9 * h3.structure_constants, np.eye(3))
    return {
        "h3.json": h3.to_json(),
        "scrambled_R2+h3+h3C2.json": _scrambled(direct_sum(
            [euclidean(2), h3, complex_heisenberg(2.0)]), 7).to_json(),
        "scrambled_h3+h5.json": _scrambled(
            direct_sum([h3, heisenberg(2)]), 8).to_json(),
        # rank decisions past the gap policy and failed validation
        "near_ambiguous.json": direct_sum([h3, faint]).to_json(),
        # extreme bracket scales: a double bracket or a norm squared would
        # overflow without the unit scaling
        "h3_1e200.json": MetricLieAlgebra(3, list(h3.basis_names),
                                          1e200 * h3.structure_constants,
                                          np.eye(3)).to_json(),
        "three_step_1e200.json": {"dim": 4, "brackets": [[0, 1, 2, 1e200],
                                                         [0, 2, 3, 1e200]]},
        # twice this bracket overflows
        "n32_1e308.json": MetricLieAlgebra(6, list(n32.basis_names),
                                           1e308 * n32.structure_constants,
                                           np.eye(6), name=n32.name).to_json(),
        "invalid.json": {"dim": 3, "brackets": [[0, 1, 2, 1.0]],
                         "metric": {"gram": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}},
        # missing or ragged fields
        "no_dim.json": {},
        "no_gram.json": {"dim": 3, "metric": {}},
        "ragged_gram.json": {"dim": 2, "metric": {"gram": [[1, 0], [0]]}},
        # a non-boolean identity, which must not drop the Gram matrix of g_3
        "identity_no.json": {**h3c3, "metric": {"identity": "no", **h3c3["metric"]}},
        # an identity given with a Gram matrix, and a misspelled metric
        "identity_and_gram.json": {**h3c3, "metric": {"identity": True,
                                                      **h3c3["metric"]}},
        "metrc.json": {"dim": 3, "brackets": [[0, 1, 2, 1.0]],
                       "metrc": {"gram": (4 * np.eye(3)).tolist()}},
    }


def commands():
    """The argv lists of the matrix, in order."""
    from nilkilling.catalog import catalog_names

    def analyses(spec):
        for argv in (["analyze", spec], ["decompose", spec],
                     ["killing", spec, "--method", "both", "--degree", "2"],
                     ["killing", spec, "--method", "both", "--degree", "3"],
                     ["killing", spec, "--method", "brute", "--degree", "4"]):
            yield argv
            yield argv + ["--json"]

    out = []
    for name in catalog_names():
        out += analyses("catalog:" + name)
        out.append(["catalog", "show", name])
    for spec in ("scrambled_R2+h3+h3C2.json", "scrambled_h3+h5.json"):
        out += analyses(spec)
    out += [["tables"], ["tables", "--json"],
            ["catalog", "list"], ["catalog", "list", "--json"]]
    out += [
        ["analyze", "catalog:nope"], ["catalog", "show", "nope"],
        ["analyze", "catalog:R2+N6#7"], ["catalog", "show", "R2+N5#2"],
        ["analyze", "catalog:euclidean", "--d", "0"],
        ["catalog", "show", "euclidean", "--d", "0"],
        ["analyze", "no_dim.json"], ["analyze", "no_gram.json"],
        ["analyze", "ragged_gram.json"],
        ["analyze", "catalog:h3", "--l", "5"],
        ["catalog", "show", "euclidean", "--lambda", "3"],
        ["analyze", "h3.json", "--d", "2"],
        ["killing", "catalog:h3", "--method", "both", "--degree", "4"],
        ["analyze", "invalid.json"],
        ["analyze", "near_ambiguous.json"],
        ["decompose", "near_ambiguous.json", "--json"],
        ["analyze", "three_step_1e200.json"],
        ["killing", "h3_1e200.json", "--method", "both", "--degree", "3", "--json"],
        ["killing", "h3_1e200.json", "--method", "structured", "--degree", "3",
         "--json"],
        ["analyze", "h3_1e200.json"], ["analyze", "h3_1e200.json", "--json"],
        ["killing", "n32_1e308.json", "--method", "both", "--degree", "3",
         "--json"],
        ["analyze", "identity_no.json"],
        ["analyze", "identity_and_gram.json"], ["analyze", "metrc.json"],
    ]
    return out


def run_matrix(workdir, argvs, files):
    """Write `files` into `workdir`, run each argv through `cli.main` there,
    and return one {argv, exit, stdout, stderr} record per command."""
    from nilkilling import cli

    workdir = Path(workdir)
    for fname, data in files.items():
        (workdir / fname).write_text(json.dumps(data))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        runs = []
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            runs.append({"argv": list(argv), "exit": code,
                         "stdout": out.getvalue(), "stderr": err.getvalue()})
        return runs
    finally:
        os.chdir(cwd)


def _close(a, b):
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def _compare_lines(want, got, where):
    """Problems between two texts: line count, text between numbers, and
    numbers off by more than TOL."""
    wl, gl = want.splitlines(), got.splitlines()
    if len(wl) != len(gl):
        return [f"{where}: {len(gl)} lines, expected {len(wl)}"]
    problems = []
    for i, (w, g) in enumerate(zip(wl, gl)):
        if (_NUMBER.split(w) != _NUMBER.split(g)
                or not all(_close(float(a), float(b)) for a, b in
                           zip(_NUMBER.findall(w), _NUMBER.findall(g)))):
            problems.append(f"{where} line {i + 1}: {g!r}, expected {w!r}")
    return problems


def _form_rows(forms):
    """Each form's terms as a {legs: coeff} dict."""
    return [{tuple(t["indices"]): t["coeff"] for t in f["terms"]} for f in forms]


def _span_distance(want, got):
    """Span distance of two lists of Killing form records of one degree."""
    from nilkilling.linalg import span_distance

    rows_w, rows_g = _form_rows(want), _form_rows(got)
    legs = sorted(set().union(*rows_w, *rows_g))
    if not legs:
        return 0.0
    mats = [np.array([[r.get(t, 0.0) for t in legs] for r in rows]).T
            for rows in (rows_w, rows_g)]
    return span_distance(*(np.linalg.qr(m)[0] for m in mats))


def _compare_json(want, got, where):
    if type(want) is not type(got):
        return [f"{where}: {got!r}, expected {want!r}"]
    if isinstance(want, dict):
        if list(want) != list(got):
            return [f"{where}: keys {list(got)}, expected {list(want)}"]
        problems = []
        for key in want:
            if key == "forms":
                if ([f["degree"] for f in want[key]]
                        != [f["degree"] for f in got[key]]):
                    problems.append(f"{where}.forms: degrees or count differ")
                elif (dist := _span_distance(want[key], got[key])) > TOL:
                    problems.append(f"{where}.forms: span distance {dist:.3e}")
            else:
                problems += _compare_json(want[key], got[key], f"{where}.{key}")
        return problems
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{where}: length {len(got)}, expected {len(want)}"]
        return [p for i, (w, g) in enumerate(zip(want, got))
                for p in _compare_json(w, g, f"{where}[{i}]")]
    if isinstance(want, float) and math.isfinite(want):
        return [] if _close(want, got) else [f"{where}: {got!r}, expected {want!r}"]
    return [] if want == got else [f"{where}: {got!r}, expected {want!r}"]


def _parse_json(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def compare_runs(want, got):
    """Problems between a golden record and a fresh run of the same argv."""
    where = " ".join(want["argv"])
    problems = []
    if want["exit"] != got["exit"]:
        problems.append(f"{where}: exit {got['exit']}, expected {want['exit']}")
    problems += _compare_lines(want["stderr"], got["stderr"], where + " (stderr)")
    doc = _parse_json(want["stdout"])
    if doc is None:
        problems += _compare_lines(want["stdout"], got["stdout"], where)
    else:
        fresh = _parse_json(got["stdout"])
        problems += (_compare_json(doc, fresh, where) if fresh is not None
                     else [f"{where}: stdout is not JSON"])
    return problems


def main():
    import tempfile

    # the committed files and every committed record that `compare_runs`
    # finds equal are kept as they are, so only moved answers are rewritten
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    files = {fname: old.get("inputs", {}).get(fname, data)
             for fname, data in inputs().items()}
    with tempfile.TemporaryDirectory() as tmp:
        runs = run_matrix(tmp, commands(), files)
    committed = {tuple(r["argv"]): r for r in old.get("runs", [])}
    runs = [want if (want := committed.get(tuple(run["argv"])))
            and not compare_runs(want, run) else run for run in runs]
    GOLDEN.write_text(json.dumps({"inputs": files, "runs": runs}, indent=1) + "\n")
    codes = sorted({r["exit"] for r in runs})
    print(f"wrote {len(runs)} commands (exit codes {codes}) to {GOLDEN}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
