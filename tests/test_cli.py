"""Command-line interface: commands, output formats, exit codes."""
import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

from nilkilling import (
    MetricLieAlgebra,
    cli,
    direct_sum,
    euclidean,
    heisenberg,
    structure,
)
from nilkilling.errors import InternalInvariantViolation, NotSkew


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "nilkilling.cli", *args],
        capture_output=True, text=True,
    )


def test_analyze_complex_heisenberg():
    out = run_cli("analyze", "catalog:complex_heisenberg", "--lambda", "1",
                  "--json")
    assert out.returncode == 0
    rec = json.loads(out.stdout)
    assert rec["schema"] == 1
    assert (rec["dimK2"], rec["dimK3"]) == (1, 0)
    assert rec["factors"][0]["complex"] is True


def test_analyze_heisenberg():
    out = run_cli("analyze", "catalog:heisenberg", "--l", "1", "--json")
    rec = json.loads(out.stdout)
    assert (rec["dimK2"], rec["dimK3"]) == (0, 1)
    assert rec["factors"][0]["nat_reductive"] is True


def test_text_and_json_agree():
    js = json.loads(run_cli("analyze", "catalog:free_two_step_3",
                            "--json").stdout)
    txt = run_cli("analyze", "catalog:free_two_step_3").stdout
    assert f"dim K2 = {js['dimK2']}, dim K3 = {js['dimK3']}" in txt


def test_analyze_invalid_algebra_exits_3(tmp_path):
    # 3-step brackets fail validation
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dim": 4,
        "brackets": [[0, 1, 2, 1.0], [0, 2, 3, 1.0]],
        "metric": {"identity": True},
    }))
    out = run_cli("analyze", str(path))
    assert out.returncode == 3
    assert "2-step" in out.stderr


def test_parse_errors_exit_2(tmp_path):
    assert run_cli("analyze", str(tmp_path / "missing.json")).returncode == 2
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert run_cli("analyze", str(bad)).returncode == 2
    assert run_cli("analyze", "catalog:no_such_algebra").returncode == 2
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
        out = run_cli("analyze", str(path))
        assert out.returncode == 2, (data, out.stderr)
        assert "Traceback" not in out.stderr


def test_analyze_file_input(tmp_path):
    from nilkilling import complex_heisenberg
    path = tmp_path / "alg.json"
    complex_heisenberg(2.0).save(path)
    rec = json.loads(run_cli("analyze", str(path), "--json").stdout)
    assert (rec["dimK2"], rec["dimK3"]) == (1, 0)


def test_killing_both_methods():
    out = run_cli("killing", "catalog:free_two_step_3", "--degree", "3",
                  "--method", "both", "--json")
    assert out.returncode == 0
    rec = json.loads(out.stdout)
    assert rec["brute_dim"] == 1 and rec["structured_dim"] == 1
    assert rec["span_residual"] <= 1e-8


def test_killing_h5_degree_2():
    rec = json.loads(run_cli("killing", "catalog:heisenberg", "--l", "2",
                             "--degree", "2", "--json").stdout)
    assert rec["dim"] == 0


def test_killing_euclidean_degree_3():
    rec = json.loads(run_cli("killing", "catalog:euclidean", "--d", "4",
                             "--degree", "3", "--json").stdout)
    assert rec["dim"] == 4


def test_killing_structured_degree_4_rejected():
    out = run_cli("killing", "catalog:heisenberg", "--degree", "4",
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


def test_killing_forms_serialized():
    rec = json.loads(run_cli("killing", "catalog:heisenberg", "--degree", "3",
                             "--json").stdout)
    assert len(rec["forms"]) == 1
    assert rec["forms"][0]["degree"] == 3


def test_decompose_command():
    rec = json.loads(run_cli("decompose", "catalog:R3+h3", "--json").stdout)
    assert rec["d"] == 3
    assert [f["dim"] for f in rec["factors"]] == [3]
    assert (rec["dimK2"], rec["dimK3"]) == (3, 2)


def test_catalog_list_and_show():
    out = run_cli("catalog", "list")
    assert out.returncode == 0
    names = out.stdout.split()
    for expected in ("heisenberg", "complex_heisenberg", "free_two_step_3",
                     "euclidean"):
        assert expected in names
    shown = json.loads(run_cli("catalog", "show", "complex_heisenberg",
                               "--lambda", "2").stdout)
    alg = MetricLieAlgebra.from_json(shown)
    assert np.allclose(alg.gram[4:, 4:], 4.0 * np.eye(2))


def test_tables_pass():
    out = run_cli("tables", "--json")
    assert out.returncode == 0
    rec = json.loads(out.stdout)
    assert {t["degree"] for t in rec["tables"]} == {2, 3}
    for table in rec["tables"]:
        for row in table["rows"]:
            assert row.get("skipped") or row["ok"]


def test_tables_tolerance_sweep():
    base = json.loads(run_cli("tables", "--json").stdout)
    loose = json.loads(run_cli("tables", "--json", "--tol", "1e-6").stdout)
    assert base == loose


def test_numerical_ambiguity_exits_4(tmp_path):
    # h3 + 5e-9 * h3: the second bracket sits right at the rank threshold
    # relative to the first, so the singular-value gap check must refuse to
    # decide instead of guessing
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "dim": 6,
        "brackets": [[0, 1, 2, 1.0], [3, 4, 5, 5e-9]],
        "metric": {"identity": True},
    }))
    out = run_cli("analyze", str(path))
    assert out.returncode == 4


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


@pytest.mark.parametrize("coeff", [5e-9, 1e-11])
def test_scaled_heisenberg_is_heisenberg(tmp_path, coeff):
    # a bracket rescaling is a homothety: the answers of h3 do not change
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps({"dim": 3, "brackets": [[0, 1, 2, coeff]]}))
    out = run_cli("analyze", str(path))
    assert out.returncode == 0, out.stderr
    assert "dim K2 = 0, dim K3 = 1" in out.stdout
    out = run_cli("killing", str(path), "--method", "both", "--degree", "2",
                  "--json")
    assert out.returncode == 0, out.stderr
    rec = json.loads(out.stdout)
    assert (rec["brute_dim"], rec["structured_dim"]) == (0, 0)


@pytest.mark.parametrize("error", [InternalInvariantViolation, NotSkew])
def test_library_invariant_failure_exits_4(monkeypatch, capsys, error):
    def broken(*args, **kwargs):
        raise error("invariant broken")

    monkeypatch.setattr(structure, "find_complex_structure", broken)
    assert cli.main(["analyze", "catalog:heisenberg"]) == 4
    assert capsys.readouterr().err == "invariant broken\n"


def test_bad_flags_exit_2():
    assert run_cli("killing", "catalog:heisenberg", "--degree", "0").returncode == 2
    for tol in ("-1", "0", "1", "2", "nan", "inf", "-inf"):
        out = run_cli("analyze", "catalog:heisenberg", f"--tol={tol}", "--json")
        assert out.returncode == 2, (tol, out.stdout)
        assert "tol must be" in out.stderr
    # a zero-dimensional catalog algebra is a parse error, not a traceback
    for command in (("analyze", "catalog:euclidean"),
                    ("killing", "catalog:euclidean"),
                    ("decompose", "catalog:euclidean"),
                    ("catalog", "show", "euclidean")):
        out = run_cli(*command, "--d", "0")
        assert out.returncode == 2, (command, out.stderr)
        assert "Traceback" not in out.stderr


def test_bad_lambda_exits_2():
    # a non-finite lambda is refused before any algebra is built, and one
    # whose square overflows by the builder
    for lam, message in (("nan", "lambda must be a finite number"),
                         ("inf", "lambda must be a finite number"),
                         ("1e300", "lambda squared is not finite")):
        out = run_cli("analyze", "catalog:complex_heisenberg", "--lambda", lam)
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


def test_flags_a_command_does_not_read_exit_2():
    assert run_cli("tables", "--l", "2").returncode == 2
    assert run_cli("catalog", "list", "--tol", "1e-6").returncode == 2


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


def _main_in_process(argv, capsys):
    return cli.main(argv), capsys.readouterr().out


def test_reused_parser_keeps_no_state_between_calls(capsys):
    calls = [
        ["killing", "catalog:h5", "--degree", "3", "--json"],
        ["killing", "catalog:h5", "--json"],
        ["analyze", "catalog:complex_heisenberg", "--lambda", "2", "--json"],
        ["analyze", "catalog:complex_heisenberg", "--json"],
        ["killing", "catalog:h5", "--bogus"],
        ["killing", "catalog:h5", "--json"],
    ]
    reused = [_main_in_process(argv, capsys) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(_main_in_process(argv, capsys))
    assert reused == fresh
    assert [code for code, _ in reused] == [0, 0, 0, 0, 2, 0]
    assert json.loads(reused[1][1])["degree"] == 2
    assert reused[2][1] != reused[3][1]
