"""The committed CLI answer matrix (tests/answer_matrix.json) still holds:
every command gives the recorded exit code, stderr and stdout, numbers to
1e-10 and Killing form bases by span distance (tests/make_answer_matrix.py)."""
import json

import numpy as np
import pytest

from make_answer_matrix import (GOLDEN, commands, compare_runs, inputs,
                                run_matrix)

GOLD = json.loads(GOLDEN.read_text())


def test_matrix_covers_the_commands_the_script_writes():
    assert [r["argv"] for r in GOLD["runs"]] == commands()
    # the stored files, not fresh ones, are the inputs: their last bits
    # may differ between numpy builds
    assert list(GOLD["inputs"]) == list(inputs())
    assert {r["exit"] for r in GOLD["runs"]} == {0, 2, 3, 4}


def test_answer_matrix_unchanged(tmp_path):
    runs = run_matrix(tmp_path, [r["argv"] for r in GOLD["runs"]],
                      GOLD["inputs"])
    problems = [p for want, got in zip(GOLD["runs"], runs)
                for p in compare_runs(want, got)]
    assert problems == []


def test_comparison_sees_a_moved_answer():
    # h3+h3 at degree 3: two forms, one naturally reductive form per factor
    run = next(r for r in GOLD["runs"]
               if r["argv"] == ["killing", "catalog:h3+h3", "--method", "both",
                                "--degree", "3", "--json"])
    doc = json.loads(run["stdout"])
    assert compare_runs(run, dict(run)) == []
    # a rotated basis of the same space passes, a different space fails
    c = s = np.sqrt(0.5)
    rotated = {**doc, "forms": [
        {"degree": 3, "terms": [{"indices": t["indices"], "coeff": w * t["coeff"]}
                                for f, w in zip(doc["forms"], ws)
                                for t in f["terms"]]}
        for ws in ((c, s), (-s, c))]}
    assert compare_runs(run, {**run, "stdout": json.dumps(rotated)}) == []
    moved = json.loads(run["stdout"])
    moved["forms"][1]["terms"][0]["indices"] = [0, 2, 4]
    assert compare_runs(run, {**run, "stdout": json.dumps(moved)})
    for key, value in (("dim", 3), ("span_residual", 1e-9)):
        assert compare_runs(run, {**run, "stdout": json.dumps({**doc, key: value})})
    assert compare_runs(run, {**run, "exit": 5})


@pytest.mark.parametrize("want, got, same", [
    ("dim K2 = 1, dim K3 = 2", "dim K2 = 1, dim K3 = 2", True),
    ("dim K2 = 1, dim K3 = 2", "dim K2 = 1, dim K3 = 3", False),
    ("eigenvalues: 1, 2", "eigenvalues: 1.00000000000001, 2", True),
    ("residual: 1.2e-16", "residual: -3.000e-17", True),
    ("residual: 1.2e-16", "residual: 1.2e-08", False),
    ("algebra h3+h3: n=6", "algebra h3+h5: n=6", False),
    ("a\nb", "a", False),
])
def test_line_comparison(want, got, same):
    run = {"argv": ["x"], "exit": 0, "stderr": want, "stdout": want}
    assert (compare_runs(run, {**run, "stdout": got, "stderr": got}) == []) is same
