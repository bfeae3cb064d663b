"""Command-line interface: commands, output formats, exit codes."""
import argparse
import json
import subprocess
import sys
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from nilkilling import (
    MetricLieAlgebra,
    adapted_frame,
    catalog,
    classification_lists,
    cli,
    complex_heisenberg,
    direct_sum,
    euclidean,
    heisenberg,
    killing,
    structure,
)
from nilkilling.catalog import catalog_names
from nilkilling.errors import (
    DecompositionAmbiguous,
    InternalInvariantViolation,
    InvalidAlgebra,
    NilkillingError,
    NumericalRankFailure,
    WorkingSetTooLarge,
)

from helpers import (change_user_basis, commuting_planes, quaternionic_heisenberg,
                     with_metric)
from make_answer_matrix import GOLDEN, run_matrix


Run = namedtuple("Run", "returncode stdout stderr")

# the algebra files of the committed answer matrix, by file name
GOLD_INPUTS = json.loads(GOLDEN.read_text())["inputs"]


def run_cli(capsys, *argv):
    """cli.main in-process: exit code and captured output, with no traceback
    on stderr (an escaping exception fails the test just as a traceback
    would)."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return Run(code, out, err)


def test_module_entry_point_exits_with_main_code():
    # `python -m nilkilling.cli` hands cli.main's return value to the process
    for argv, code in ((["analyze", "catalog:h3", "--json"], 0),
                       (["killing", "catalog:h5", "--bogus"], 2)):
        out = subprocess.run([sys.executable, "-m", "nilkilling.cli", *argv],
                             capture_output=True, text=True)
        assert out.returncode == code, out.stderr
        assert "Traceback" not in out.stderr
        if code == 0:
            assert json.loads(out.stdout)["dimK3"] == 1


def test_analyze_complex_heisenberg(capsys):
    out = run_cli(capsys, "analyze", "catalog:complex_heisenberg",
                  "--lambda", "1", "--json")
    assert out.returncode == 0
    rec = json.loads(out.stdout)
    assert rec["schema"] == 1
    assert (rec["dimK2"], rec["dimK3"]) == (1, 0)
    assert rec["factors"][0]["complex"] is True


def test_analyze_heisenberg(capsys):
    out = run_cli(capsys, "analyze", "catalog:heisenberg", "--l", "1", "--json")
    rec = json.loads(out.stdout)
    assert (rec["dimK2"], rec["dimK3"]) == (0, 1)
    assert rec["factors"][0]["nat_reductive"] is True


def test_text_and_json_agree(capsys):
    js = json.loads(run_cli(capsys, "analyze", "catalog:free_two_step_3",
                            "--json").stdout)
    txt = run_cli(capsys, "analyze", "catalog:free_two_step_3").stdout
    assert f"dim K2 = {js['dimK2']}, dim K3 = {js['dimK3']}" in txt


def test_analyze_invalid_algebra_exits_3(tmp_path, capsys):
    # 3-step brackets fail validation
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dim": 4,
        "brackets": [[0, 1, 2, 1.0], [0, 2, 3, 1.0]],
        "metric": {"identity": True},
    }))
    out = run_cli(capsys, "analyze", str(path))
    assert out.returncode == 3
    assert "2-step" in out.stderr


def test_analyze_asymmetric_gram_exits_3(tmp_path, capsys):
    path = tmp_path / "asymmetric.json"
    path.write_text(json.dumps({
        "dim": 3,
        "brackets": [[0, 1, 2, 1.0]],
        "metric": {"gram": [[1, 0.5, 0], [0, 1, 0], [0, 0, 1]]},
    }))
    out = run_cli(capsys, "analyze", str(path))
    assert out.returncode == cli.EXIT_INVALID
    assert out.stdout == ""
    assert out.stderr.startswith("invalid algebra: gram not symmetric")


def test_parse_errors_exit_2(tmp_path, capsys):
    assert run_cli(capsys, "analyze", str(tmp_path / "missing.json")).returncode == 2
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert run_cli(capsys, "analyze", str(bad)).returncode == 2
    assert run_cli(capsys, "analyze", "catalog:no_such_algebra").returncode == 2
    h3 = {"dim": 3, "brackets": [[0, 1, 2, 1.0]]}
    malformed = [
        {"dim": 3, "brackets": [[-1, 0, 1, 1.0]]},
        {"dim": 3, "brackets": [[0, 1, 3, 1.0]]},
        {"dim": 3, "brackets": [[0, 0, 2, 1.0], [0, 1, 2, 1.0]]},
        {"dim": 3, "brackets": [[0, 1, 2, float("nan")]]},
        {**h3, "metric": {"gram": [[1, 0, 0], [0, float("inf"), 0], [0, 0, 1]]}},
        {"dim": 0},
        {"dim": 2.5},
        {"dim": 3, "brackets": [[0, 1, 2, 1.0], [1, 0, 2, 1.0]]},
        {"dim": 3, "brackets": [[0, 1, 2, "x"]]},
        [1, 2],
    ]
    for i, data in enumerate(malformed):
        path = tmp_path / f"malformed{i}.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2, (data, err)


@pytest.mark.parametrize("data, message", [
    ({}, "missing required field: dim"),
    ({"dim": 3, "metric": {}}, "missing required field: gram"),
    ({"dim": 3, "metric": {"gram": [[1, 0, 0], [0, 1], [0, 0, 1]]}},
     "gram matrix has wrong shape"),
], ids=["no-dim", "no-gram", "ragged-gram"])
def test_missing_or_ragged_json_field_is_named(tmp_path, capsys, data, message):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    assert run_cli(capsys, "analyze", str(path)) == (
        2, "", f"cannot parse {path}: {message}\n")


def test_analyze_file_input(tmp_path, capsys):
    path = tmp_path / "alg.json"
    complex_heisenberg(2.0).save(path)
    rec = json.loads(run_cli(capsys, "analyze", str(path), "--json").stdout)
    assert (rec["dimK2"], rec["dimK3"]) == (1, 0)


def test_killing_both_methods(capsys):
    # n32; h11 (n = 11: one connection array and the stacked differentials);
    # R3, whose v-block is empty
    for spec in (["catalog:free_two_step_3"], ["catalog:heisenberg", "--l", "5"],
                 ["catalog:euclidean", "--d", "3"]):
        out = run_cli(capsys, "killing", *spec, "--degree", "3", "--method",
                      "both", "--json")
        assert out.returncode == 0, spec
        rec = json.loads(out.stdout)
        assert rec["brute_dim"] == 1 and rec["structured_dim"] == 1, spec
        assert rec["span_residual"] <= 1e-8, spec


def test_killing_h5_degree_2(capsys):
    rec = json.loads(run_cli(capsys, "killing", "catalog:heisenberg", "--l",
                             "2", "--degree", "2", "--json").stdout)
    assert rec["dim"] == 0


def test_killing_euclidean_degree_3(capsys):
    rec = json.loads(run_cli(capsys, "killing", "catalog:euclidean", "--d",
                             "4", "--degree", "3", "--json").stdout)
    assert rec["dim"] == 4


def test_killing_structured_degree_4_rejected(capsys):
    out = run_cli(capsys, "killing", "catalog:heisenberg", "--degree", "4",
                  "--method", "structured")
    assert out.returncode == 2


@pytest.mark.parametrize("degree", ["1", "4"])
def test_structured_degree_refused_before_brute(monkeypatch, capsys, degree):
    calls = []
    monkeypatch.setattr(cli, "killing_nullspace_brute",
                        lambda *args: calls.append(args))
    argv = ["killing", "catalog:h3", "--degree", degree, "--method", "both"]
    assert cli.main(argv) == 2
    assert calls == []
    assert "degrees 2 and 3 only" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["structured", "both"])
def test_structured_degree_rule_is_the_library_rule(monkeypatch, capsys, method):
    # refused before the algebra loads, with structured_killing's message
    monkeypatch.setattr(cli, "load_algebra",
                        lambda *args, **kwargs: pytest.fail("algebra loaded"))
    out = run_cli(capsys, "killing", "catalog:h3", "--degree", "4", "--method", method)
    with pytest.raises(ValueError) as info:
        cli.structured_killing(structure.decompose(heisenberg(1)), 4)
    assert (out.returncode, out.stdout, out.stderr) == (2, "", str(info.value) + "\n")


def test_killing_forms_serialized(capsys):
    rec = json.loads(run_cli(capsys, "killing", "catalog:heisenberg",
                             "--degree", "3", "--json").stdout)
    assert len(rec["forms"]) == 1
    assert rec["forms"][0]["degree"] == 3


def test_decompose_command(capsys):
    rec = json.loads(run_cli(capsys, "decompose", "catalog:R3+h3",
                             "--json").stdout)
    assert (rec["n"], rec["dim_v"], rec["dim_z"]) == (6, 2, 4)
    assert rec["d"] == 3
    assert [f["dim"] for f in rec["factors"]] == [3]
    assert (rec["dimK2"], rec["dimK3"]) == (3, 2)


def test_catalog_list_and_show(capsys):
    out = run_cli(capsys, "catalog", "list")
    assert out.returncode == 0
    names = out.stdout.split()
    for expected in ("heisenberg", "complex_heisenberg", "free_two_step_3",
                     "euclidean"):
        assert expected in names
    shown = json.loads(run_cli(capsys, "catalog", "show",
                               "complex_heisenberg", "--lambda", "2").stdout)
    alg = MetricLieAlgebra.from_json(shown)
    assert np.allclose(alg.gram[4:, 4:], 4.0 * np.eye(2))


def test_tables_pass(capsys):
    out = run_cli(capsys, "tables", "--json")
    assert out.returncode == 0
    rec = json.loads(out.stdout)
    assert {t["degree"] for t in rec["tables"]} == {2, 3}
    for table in rec["tables"]:
        for row in table["rows"]:
            assert row.get("skipped") or row["ok"]


def test_tables_mismatch_exits_5(monkeypatch, capsys):
    monkeypatch.setattr(cli, "killing_dimensions",
                        lambda alg, tol: (9, 9, 0, 0, 0))
    out = run_cli(capsys, "tables")
    assert out.returncode == 5
    assert "  R2+h3          p=5  dimK=9 (expected 1)  MISMATCH\n" in out.stdout
    assert "[skipped: external construction]" in out.stdout
    assert out.stderr == "computed table dimensions disagree\n"


def test_catalog_show_needs_a_name(capsys):
    code, out, err = run_cli(capsys, "catalog", "show")
    assert (code, out) == (2, "")
    assert err.endswith("error: the following arguments are required: name\n")


def test_catalog_list_takes_no_name(capsys):
    code, out, err = run_cli(capsys, "catalog", "list", "h3")
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: h3\n")


def test_unknown_catalog_name_exits_2(capsys):
    for argv in (("analyze", "catalog:nope"), ("catalog", "show", "nope")):
        out = run_cli(capsys, *argv)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == "unknown catalog name: nope\n"


PLACEHOLDERS = sorted({entry.name for entries in classification_lists()
                       for entry in entries if not entry.buildable})


@pytest.mark.parametrize("name", PLACEHOLDERS)
def test_placeholder_has_no_construction(capsys, name):
    for argv in (("analyze", f"catalog:{name}"), ("catalog", "show", name)):
        out = run_cli(capsys, *argv)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == f"{name}: no construction shipped\n"


def test_tables_tolerance_sweep(capsys):
    base = json.loads(run_cli(capsys, "tables", "--json").stdout)
    loose = json.loads(run_cli(capsys, "tables", "--json", "--tol",
                               "1e-6").stdout)
    assert base == loose


def test_numerical_ambiguity_exits_4(tmp_path, capsys):
    # h3 + 5e-9 * h3: the second bracket sits right at the rank threshold
    # relative to the first, so the singular-value gap check must refuse to
    # decide instead of guessing
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "dim": 6,
        "brackets": [[0, 1, 2, 1.0], [3, 4, 5, 5e-9]],
        "metric": {"identity": True},
    }))
    out = run_cli(capsys, "analyze", str(path))
    assert out.returncode == 4


def test_full_rank_in_the_gap_band_exits_4(tmp_path, capsys):
    # qH with one Gram entry scaled by 1 + 1e-8: the brute's smallest
    # singular value at k = 3 is about 2.6e-9, above the threshold 1e-9 but
    # within the gap band of the 0 below a full rank, so dim K3 = 0 (the
    # structured side says 1) is refused, not answered
    gram = np.eye(7)
    gram[0, 0] += 1e-8
    L = with_metric(quaternionic_heisenberg(), gram)
    with pytest.raises(NumericalRankFailure, match="discarded 0.000e"):
        killing.killing_nullspace_brute(L, adapted_frame(L), 3)
    path = tmp_path / "qh.json"
    L.save(path)
    out = run_cli(capsys, "killing", str(path), "--method", "brute", "--degree", "3")
    assert out.returncode == 4
    assert "ambiguous singular value gap" in out.stderr


@pytest.mark.parametrize("eps, analyze_exit, brute_dim", [(1e-7, 0, 0), (2e-9, 4, 1)])
def test_naturally_reductive_decision_agrees_with_the_brute_or_exits_4(
        tmp_path, capsys, eps, analyze_exit, brute_dim):
    # qH with one Gram entry scaled by 1 + eps is not naturally reductive.
    # At 1e-7 `analyze` once answered dim K3 = 1 at exit 0 where the brute
    # finds 0; at 2e-9 the brute still finds 1 and only the structured
    # decision lies in its band, so `analyze` refuses and names it
    gram = np.eye(7)
    gram[0, 0] *= 1 + eps
    path = tmp_path / "qh.json"
    with_metric(quaternionic_heisenberg(), gram).save(path)
    brute = run_cli(capsys, "killing", str(path), "--method", "brute",
                    "--degree", "3", "--json")
    assert (brute.returncode, json.loads(brute.stdout)["dim"]) == (0, brute_dim)
    out = run_cli(capsys, "analyze", str(path), "--json")
    assert out.returncode == analyze_exit
    if analyze_exit:
        assert "naturally reductive defect" in out.stderr
    else:
        assert json.loads(out.stdout)["dimK3"] == brute_dim


def _near_degenerate_answers(capsys, path):
    """Exit codes of `analyze --json` and `killing --method structured|brute
    --degree 2|3` on `path`, and the dimensions answered at exit 0 by degree."""
    codes, dims = [], {2: set(), 3: set()}
    out = run_cli(capsys, "analyze", str(path), "--json")
    codes.append(out.returncode)
    if not out.returncode:
        report = json.loads(out.stdout)
        dims[2].add(report["dimK2"])
        dims[3].add(report["dimK3"])
    for method in ("structured", "brute"):
        for k in (2, 3):
            out = run_cli(capsys, "killing", str(path), "--method", method,
                          "--degree", str(k), "--json")
            codes.append(out.returncode)
            if not out.returncode:
                dims[k].add(json.loads(out.stdout)["dim"])
    return codes, dims


@pytest.mark.parametrize("name", ["h5", "R+h3C", "qH"])
def test_commands_agree_or_exit_4_near_degenerate_metrics(tmp_path, capsys, name):
    # one factor whose centre is a line (h5), a plane (R+h3C) or 3-dimensional
    # (qH), with one Gram entry scaled by 1 + eps where the structured and
    # brute decisions sit near their bands: each command may refuse, but
    # no two answer different dimensions
    L = quaternionic_heisenberg() if name == "qH" else catalog.build(name)
    path = tmp_path / "near.json"
    for i in (1, L.dim - 1):
        for eps in (1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 1e-6):
            gram = L.gram.copy()
            gram[i, i] *= 1 + eps
            with_metric(L, gram).save(path)
            codes, dims = _near_degenerate_answers(capsys, path)
            assert set(codes) <= {0, cli.EXIT_NUMERICAL}, (i, eps, codes)
            assert all(len(d) <= 1 for d in dims.values()), (i, eps, dims)


def test_commuting_planes_agree_under_both_methods(tmp_path, capsys):
    # a naturally reductive factor with a 2-dimensional centre: the
    # structured and brute Killing 3-forms span the same line
    path = tmp_path / "planes.json"
    commuting_planes().save(path)
    out = run_cli(capsys, "killing", str(path), "--method", "both", "--degree", "3",
                  "--json")
    assert out.returncode == 0
    assert json.loads(out.stdout)["dim"] == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bracket, gram", [(1e-300, 1e100), (1e200, 1e-300)])
@pytest.mark.parametrize("argv", [["analyze"],
                                  ["killing", "--method", "brute", "--degree", "2"]])
def test_frame_constants_outside_the_double_range_exit_3(tmp_path, capsys,
                                                         bracket, gram, argv):
    # h3's frame constants scale like bracket / sqrt(gram), here 1e-350 and
    # 1e350, outside the double range though each input is inside it; all
    # zero, they would give R^3's answer (dim K2 = 3)
    path = tmp_path / "h3.json"
    path.write_text(json.dumps({"dim": 3, "brackets": [[0, 1, 2, bracket]],
                                "metric": {"gram": (gram * np.eye(3)).tolist()}}))
    out = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert out.returncode == cli.EXIT_INVALID
    assert out.stdout == ""
    assert out.stderr == "frame constants leave the double-precision range\n"

def test_tol_near_the_gap_factor_cannot_decide(capsys):
    # kept and dropped singular values must lie GAP_FACTOR * tol * max(s_max, 1)
    # apart, so tol = 0.09 cannot separate 1 from 0 (README: the --tol ceiling)
    assert cli.main(["analyze", "catalog:h3", "--tol", "0.09"]) == 4
    assert "ambiguous singular value gap" in capsys.readouterr().err
    assert cli.main(["tables", "--tol", "0.02"]) == 0


def test_brute_degree_1_on_a_40_dim_algebra(tmp_path, capsys):
    # 13 h3 + R: the sign tables stay C(n, k) x C(n, l), where a lookup over
    # all 2^40 leg sets would not fit in memory
    path = tmp_path / "h3x13+R.json"
    alg = direct_sum([heisenberg(1)] * 13 + [euclidean(1)])
    path.write_text(json.dumps(alg.to_json()))
    argv = ["killing", str(path), "--method", "brute", "--degree", "1", "--json"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["brute_dim"] == 14


@pytest.mark.parametrize("argv, first_bytes", [
    # 2.3 kB, which a pipe buffers whole: the reader is gone before the
    # first write, so a 300-byte read could race the last one
    (["killing", "<n40>", "--method", "brute", "--degree", "1", "--json"], 0),
    # 97 kB, more than a pipe buffers: the reader leaves mid-write
    (["killing", "catalog:euclidean", "--d", "11", "--degree", "5",
      "--method", "brute", "--json"], 300),
])
def test_closed_stdout_ends_quietly(tmp_path, argv, first_bytes):
    path = tmp_path / "n40.json"
    path.write_text(json.dumps(
        direct_sum([heisenberg(1)] * 13 + [euclidean(1)]).to_json()))
    argv = [str(path) if arg == "<n40>" else arg for arg in argv]
    with open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "nilkilling.cli", *argv],
                                stdout=subprocess.PIPE, stderr=err)
        assert len(proc.stdout.read(first_bytes)) == first_bytes
        proc.stdout.close()
        code = proc.wait(timeout=120)
    assert "Traceback" not in (tmp_path / "stderr").read_text()
    assert code == cli.EXIT_CLOSED_PIPE == 1


@pytest.mark.parametrize("argv", [
    ["analyze", "<dim 100000>"],
    ["analyze", "catalog:heisenberg", "--l", "100000"],
    ["catalog", "show", "euclidean", "--d", "1000000"],
])
def test_algebra_too_large_to_allocate_exits_2(tmp_path, capsys, argv):
    # each n^3 structure table is petabytes or more: refused at once
    path = tmp_path / "big.json"
    path.write_text('{"dim": 100000}')
    argv = [str(path) if arg == "<dim 100000>" else arg for arg in argv]
    assert cli.main(argv) == cli.EXIT_PARSE
    assert "allocate" in capsys.readouterr().err


def test_brute_past_the_memory_budget_exits_2(capsys):
    # h19 at degree 6: C(19,6) = 27132 basis forms, an estimated 78.4 GiB,
    # refused before the basis is built; the peak is the frame's (the n^4
    # double bracket of validate is 1 MB)
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, "killing", "catalog:heisenberg",
                               "--l", "9", "--degree", "6", "--method", "brute")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_PARSE
    assert err == ("brute-force working set of about 78.4 GiB at n = 19, "
                   "degree 6 exceeds the 4 GiB budget\n")
    assert peak < 2**23


@pytest.mark.parametrize("coeff", [5e-9, 1e-11])
def test_scaled_heisenberg_is_heisenberg(tmp_path, coeff, capsys):
    # a bracket rescaling is a homothety: the answers of h3 do not change
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps({"dim": 3, "brackets": [[0, 1, 2, coeff]]}))
    out = run_cli(capsys, "analyze", str(path))
    assert out.returncode == 0, out.stderr
    assert "dim K2 = 0, dim K3 = 1" in out.stdout
    out = run_cli(capsys, "killing", str(path), "--method", "both",
                  "--degree", "2", "--json")
    assert out.returncode == 0, out.stderr
    rec = json.loads(out.stdout)
    assert (rec["brute_dim"], rec["structured_dim"]) == (0, 0)


EXIT_TABLE = [(WorkingSetTooLarge, 2), (InvalidAlgebra, 3),
              (NumericalRankFailure, 4), (DecompositionAmbiguous, 4),
              (InternalInvariantViolation, 4)]


def test_every_package_error_has_an_exit_code():
    # a bad argument is a ValueError; a NilkillingError is a refusal the
    # command line maps
    assert set(NilkillingError.__subclasses__()) == set(cli._EXIT_CODES)


@pytest.mark.parametrize("error, code", EXIT_TABLE,
                         ids=[error.__name__ for error, _ in EXIT_TABLE])
def test_library_invariant_failure_exits_4(monkeypatch, capsys, error, code):
    # each library exception a command can raise exits with its own code
    def broken(*args, **kwargs):
        raise error("invariant broken")

    monkeypatch.setattr(structure, "find_complex_structure", broken)
    assert cli.main(["analyze", "catalog:heisenberg"]) == code
    assert capsys.readouterr() == ("", "invariant broken\n")


def test_bad_flags_exit_2(capsys):
    out = run_cli(capsys, "killing", "catalog:heisenberg", "--degree", "0")
    assert out.returncode == 2
    for tol in ("-1", "0", "1", "2", "nan", "inf", "-inf"):
        out = run_cli(capsys, "analyze", "catalog:heisenberg", f"--tol={tol}",
                      "--json")
        assert out.returncode == 2, (tol, out.stdout)
        assert "tol must be" in out.stderr
    # a zero-dimensional catalog algebra is a parse error, not a traceback
    for command in (("analyze", "catalog:euclidean"),
                    ("killing", "catalog:euclidean"),
                    ("decompose", "catalog:euclidean"),
                    ("catalog", "show", "euclidean")):
        out = run_cli(capsys, *command, "--d", "0")
        assert out.returncode == 2, (command, out.stderr)
        assert "Traceback" not in out.stderr


def test_non_positive_dimension_has_one_message(capsys):
    for command in (("analyze", "catalog:euclidean"),
                    ("catalog", "show", "euclidean")):
        for d in ("0", "-1"):
            out = run_cli(capsys, *command, "--d", d)
            assert out == (2, "", "algebra dimension must be positive\n"), d


def test_bad_lambda_exits_2(capsys):
    # a non-finite lambda is refused before any algebra is built, and one
    # whose square overflows by the builder
    for lam, message in (("nan", "lambda must be a finite number"),
                         ("inf", "lambda must be a finite number"),
                         ("1e300", "lambda squared is not finite")):
        out = run_cli(capsys, "analyze", "catalog:complex_heisenberg",
                      "--lambda", lam)
        assert out.returncode == 2, (lam, out.stderr)
        assert message in out.stderr


def test_ill_conditioned_gram_exits_3(capsys):
    # a positive-definite Gram matrix past the conditioning cap is refused
    # as such, not as indefinite
    argv = ["analyze", "catalog:complex_heisenberg", "--lambda", "1e5"]
    assert cli.main(argv) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("invalid algebra: gram condition number 1e+10"
                            " exceeds 1/tol = 1e+09\n")


def test_main_returns_parser_exit_codes(capsys):
    # argparse's own exits come back as return values, not SystemExit
    assert cli.main(["killing", "catalog:h5", "--bogus"]) == 2
    assert "--bogus" in capsys.readouterr().err
    assert cli.main(["--help"]) == 0
    assert "usage: nilkilling" in capsys.readouterr().out


def test_flags_a_command_does_not_read_exit_2(capsys):
    assert run_cli(capsys, "tables", "--l", "2").returncode == 2
    # `catalog show` always prints the algebra JSON
    code, out, err = run_cli(capsys, "catalog", "show", "h3", "--json")
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --json\n")
    assert run_cli(capsys, "catalog", "list", "--tol", "1e-6").returncode == 2
    code, out, err = run_cli(capsys, "catalog", "list", "--l", "2")
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --l 2\n")


# the one flag each parametric catalog name reads, and the algebra it builds
# at 2; every other name reads none
DECLARED_FLAG = {"heisenberg": ("--l", "h5"),
                 "complex_heisenberg": ("--lambda", "h3C(lam=2)"),
                 "euclidean": ("--d", "R2")}


@pytest.mark.parametrize("flag", ["--lambda", "--l", "--d"])
@pytest.mark.parametrize("name", catalog_names())
def test_catalog_name_takes_only_its_declared_flag(capsys, name, flag):
    declared, built = DECLARED_FLAG.get(name, (None, None))
    analyzed = run_cli(capsys, "analyze", f"catalog:{name}", flag, "2")
    shown = run_cli(capsys, "catalog", "show", name, flag, "2")
    if flag == declared:
        assert analyzed.returncode == shown.returncode == 0
        assert analyzed.stdout.startswith(f"algebra {built}: ")
        assert json.loads(shown.stdout)["name"] == built
    else:
        for out in (analyzed, shown):
            assert out == (2, "", f"{name} does not take {flag}\n")


def test_json_file_input_refuses_catalog_flags(tmp_path, capsys):
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(heisenberg(1).to_json()))
    for flag in ("--lambda", "--l", "--d"):
        out = run_cli(capsys, "analyze", str(path), flag, "2")
        assert out == (2, "", f"{path} does not take {flag}\n")


def test_main_builds_parser_once(monkeypatch, capsys):
    cli.build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(3):
        assert cli.main(["catalog", "list"]) == 0
    assert built.count("nilkilling") == 1
    assert capsys.readouterr().out.splitlines().count("heisenberg") == 3


def test_reused_parser_keeps_no_state_between_calls(capsys):
    calls = [
        ["killing", "catalog:h5", "--degree", "3", "--json"],
        ["killing", "catalog:h5", "--json"],
        ["analyze", "catalog:complex_heisenberg", "--lambda", "2", "--json"],
        ["analyze", "catalog:complex_heisenberg", "--json"],
        ["killing", "catalog:h5", "--bogus"],
        ["killing", "catalog:h5", "--json"],
    ]
    reused = [run_cli(capsys, *argv)[:2] for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv)[:2])
    assert reused == fresh
    assert [code for code, _ in reused] == [0, 0, 0, 0, 2, 0]
    assert json.loads(reused[1][1])["degree"] == 2
    assert reused[2][1] != reused[3][1]


def test_nan_span_residual_is_a_mismatch(monkeypatch, capsys):
    # a residual that is not a number cannot show agreement: exit 5
    monkeypatch.setattr(cli, "_space_mismatch", lambda a, b: float("nan"))
    out = run_cli(capsys, "killing", "catalog:h3", "--method", "both",
                  "--degree", "3")
    assert out.returncode == cli.EXIT_MISMATCH
    assert out.stderr == "brute (1) and structured (1) solvers disagree\n"


def test_decompose_is_another_name_of_analyze():
    assert (cli.build_parser().parse_args(["decompose", "catalog:h3"]).func
            is cli.cmd_analyze)


# every catalog name and every algebra file of the answer matrix
ALIAS_INPUTS = ([f"catalog:{name}" for name in catalog_names()]
                + list(GOLD_INPUTS))


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("spec", ALIAS_INPUTS)
def test_decompose_prints_what_analyze_prints(tmp_path, spec, as_json):
    flags = ["--json"] * as_json
    analyzed, decomposed = run_matrix(
        tmp_path, [[command, spec] + flags for command in ("analyze", "decompose")],
        GOLD_INPUTS)
    assert [decomposed[key] for key in ("exit", "stdout", "stderr")] == [
        analyzed[key] for key in ("exit", "stdout", "stderr")]


@pytest.mark.parametrize("field, value, message", [
    ("name", float("nan"), "name must be a string: nan"),
    ("name", 3, "name must be a string: 3"),
    ("basis", ["x", "y", 2], "basis must be a list of strings"),
    ("basis", "xyz", "basis must be a list of strings"),
    ("metric.identity", "no", "metric.identity must be true or false: 'no'"),
    ("metric.identity", 1, "metric.identity must be true or false: 1"),
    ("metric.identity", True, "metric gives both identity and gram"),
    ("metrc", {"gram": np.eye(6).tolist()}, "unknown field: metrc"),
    ("metric.identty", False, "unknown field: metric.identty"),
], ids=["name-nan", "name-int", "basis-int", "basis-str", "identity-str",
        "identity-int", "identity-and-gram", "unknown-field",
        "unknown-metric-field"])
def test_json_field_of_the_wrong_type_is_named(tmp_path, capsys, field, value,
                                               message):
    # h3C at lambda = 3, whose Gram diagonal is 9 on z: an identity that is
    # not a boolean or comes with that Gram matrix, or a misspelled field,
    # must not drop the Gram matrix for the identity
    doc = complex_heisenberg(3.0).to_json()
    holder = doc["metric"] if field.startswith("metric.") else doc
    holder[field.removeprefix("metric.")] = value
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    for command in ("analyze", "killing"):
        assert run_cli(capsys, command, str(path), "--json") == (
            2, "", f"cannot parse {path}: {message}\n")


# derandomized; no explain phase, which reformats the traceback of a
# failure from deep in numpy for minutes
FUZZ = settings(derandomize=True, deadline=None,
                phases=[Phase.explicit, Phase.generate, Phase.shrink])

COMMANDS = [["analyze"], ["decompose"],
            ["killing", "--method", "both", "--degree", "2"],
            ["killing", "--method", "both", "--degree", "3"]]


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


def _checked_output(run, as_json):
    """The run's output with no traceback on stderr, parsed if it is --json
    output: NaN and Infinity, which `json` writes by default, fail."""
    assert "Traceback" not in run["stderr"], run
    if not as_json or not run["stdout"]:
        return run["stdout"].splitlines()
    return json.loads(run["stdout"], parse_constant=_refuse_constant)


def _invariant_part(out):
    """Output that a homothety may not move: all but the span residual,
    whose round-off follows the scale, and the forms, counted by `dim`."""
    if isinstance(out, dict):
        return {k: v for k, v in out.items() if k not in ("span_residual", "forms")}
    return [line for line in out if not line.startswith("span projection residual")]


@settings(FUZZ, max_examples=150)
@given(name=st.sampled_from(catalog_names()), e=st.integers(-300, 308),
       seed=st.integers(0, 2**32 - 1), command=st.sampled_from(COMMANDS),
       as_json=st.booleans())
def test_any_bracket_scale_gives_the_unscaled_output(tmp_path_factory, name, e,
                                                     seed, command, as_json):
    # an isometric scramble with its largest bracket at 10^e, up to 1e308,
    # against the same scramble with its largest bracket at 1
    L = catalog.build(name)
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(L.dim, L.dim)))
    S = change_user_basis(L, q, name=name)
    peak = np.abs(S.structure_constants).max()
    files = {}
    for fname, scale in (("scaled.json", 10.0 ** e), ("unscaled.json", 1.0)):
        c = scale * (S.structure_constants / peak) if peak else S.structure_constants
        files[fname] = MetricLieAlgebra(L.dim, list(L.basis_names), c, S.gram,
                                        name=name).to_json()
    flags = command[1:] + ["--json"] * as_json
    got, want = run_matrix(tmp_path_factory.mktemp("scale"),
                           [[command[0], fname] + flags for fname in files], files)
    assert got["exit"] == want["exit"] == 0, (got, want)
    got_out, want_out = (_checked_output(run, as_json) for run in (got, want))
    assert _invariant_part(got_out) == _invariant_part(want_out)
    if as_json and "forms" in got_out:
        assert len(got_out["forms"]) == got_out["dim"]


# the values that replace one field of a valid document: wrong types and
# the non-finite numbers `json` reads
MUTANTS = [None, "x", True, [], {}, float("nan"), float("inf"), float("-inf")]


def _paths(doc, path=()):
    """The path of every value in a JSON document, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


DROP = object()


def _mutated(doc, path, value):
    """A copy of `doc` with the value at `path` replaced by `value`, or
    dropped if `value` is DROP."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    *parent, key = path
    holder = doc
    for step in parent:
        holder = holder[step]
    if value is DROP:
        del holder[key]
    else:
        holder[key] = value
    return doc


BASE_DOCS = [heisenberg(1).to_json(), complex_heisenberg(2.0).to_json(),
             catalog.build("n32").to_json(), catalog.build("R2+h3").to_json()]


@st.composite
def mutated_documents(draw):
    """A valid algebra document with one key dropped, one value replaced by
    a wrong type or a non-finite number, or a name that is not a string."""
    doc = draw(st.sampled_from(BASE_DOCS))
    kind = draw(st.sampled_from(["drop", "replace", "name"]))
    if kind == "name":
        return _mutated(doc, ("name",), draw(st.sampled_from(MUTANTS)))
    paths = list(_paths(doc))
    if kind == "drop":      # a key of an object
        path = draw(st.sampled_from([p for p in paths if p and isinstance(p[-1], str)]))
        return _mutated(doc, path, DROP)
    return _mutated(doc, draw(st.sampled_from(paths)), draw(st.sampled_from(MUTANTS)))


@settings(FUZZ, max_examples=150)
@given(doc=mutated_documents(), command=st.sampled_from(COMMANDS),
       as_json=st.booleans())
def test_mutated_document_is_answered_or_refused(tmp_path_factory, doc, command,
                                                 as_json):
    # a dropped key or a wrong type is answered (exit 0: a dropped name,
    # basis, bracket list or metric has a default) or refused as a parse
    # error, never with a traceback or output that is not JSON
    argv = [command[0], "alg.json"] + command[1:] + ["--json"] * as_json
    run, = run_matrix(tmp_path_factory.mktemp("mutant"), [argv], {"alg.json": doc})
    assert run["exit"] in (0, 2), run
    out = _checked_output(run, as_json)
    if run["exit"] == 2:
        assert out == [] and run["stderr"].startswith("cannot parse alg.json: ")
