"""Each request validates once, builds one frame and decomposes at most once."""
import json
import sys

import numpy as np
import pytest

from nilkilling import MetricLieAlgebra, algebra, cli, structure
from nilkilling.catalog import (complex_heisenberg, direct_sum, euclidean,
                                free_two_step_3, heisenberg)
from nilkilling.errors import InvalidAlgebra
from nilkilling.killing import solve_killing2, solve_killing3, structured_killing

from helpers import change_user_basis

COUNTED = (("validate", algebra.validate),
           ("adapted_frame", algebra.adapted_frame),
           ("decompose", structure.decompose))


@pytest.fixture
def calls(monkeypatch):
    """Algebras passed to validate, adapted_frame and decompose, in call order.

    Every nilkilling.* namespace that binds one of them gets the counting
    wrapper, so lazy imports and module-level imports are both seen.
    """
    seen = {name: [] for name, _ in COUNTED}
    for name, orig in COUNTED:
        def counted(L, *args, _orig=orig, _name=name, **kwargs):
            seen[_name].append(L)
            return _orig(L, *args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if (modname.partition(".")[0] == "nilkilling"
                    and getattr(mod, name, None) is orig):
                monkeypatch.setattr(mod, name, counted)
    return seen


def _sum():
    return direct_sum([euclidean(2), heisenberg(1), complex_heisenberg(1.0)])


def _killing(method, k):
    return lambda: cli.main(["killing", "catalog:R2+h3", "--degree", str(k),
                             "--method", method, "--json"])


def _both_degrees():
    # read through the module, so the counting wrapper is seen
    dec = structure.decompose(_sum())
    return structured_killing(dec, 2), structured_killing(dec, 3)


# request -> number of decompositions it needs
REQUESTS = {
    "analyze_record": (lambda: cli.analyze_record(_sum(), 1e-9), 1),
    "cli_decompose": (lambda: cli.main(["decompose", "catalog:R3+h3", "--json"]), 1),
    "cli_analyze": (lambda: cli.main(["analyze", "catalog:R3+h3", "--json"]), 1),
    "cli_killing_brute": (_killing("brute", 2), 0),
    "cli_killing_structured": (_killing("structured", 3), 1),
    "cli_killing_both_k2": (_killing("both", 2), 1),
    "cli_killing_both_k3": (_killing("both", 3), 1),
    "solve_killing2": (lambda: solve_killing2(_sum()), 1),
    "solve_killing3": (lambda: solve_killing3(_sum()), 1),
    "structured_killing_k2_k3": (_both_degrees, 1),
}


@pytest.mark.parametrize("request_name", sorted(REQUESTS))
def test_one_decomposition_and_one_whole_frame(calls, capsys, request_name):
    """One validate and one adapted_frame, both of the request's algebra, and
    one decompose of it unless the request runs only the brute oracle."""
    run, decompositions = REQUESTS[request_name]
    run()
    capsys.readouterr()
    (L,) = calls["validate"]
    (framed,) = calls["adapted_frame"]
    assert framed is L
    assert len(calls["decompose"]) == decompositions
    assert all(M is L for M in calls["decompose"])


def test_tables_decomposes_each_algebra_once(calls, capsys):
    # R2+h3 and R3+h3 are on both classification lists: 15 rows, 13 algebras
    assert cli.main(["tables", "--json"]) == 0
    rows = [row for table in json.loads(capsys.readouterr().out)["tables"]
            for row in table["rows"] if not row["skipped"]]
    names = [L.name for L in calls["decompose"]]
    assert len(rows) == 15
    assert sorted(names) == sorted({row["name"] for row in rows})
    assert len(names) == 13


# algebra -> factor dimensions; n32+n32+h3+h3 took three solves when a
# block that one element split into too few clusters was solved again
ONE_SOLVE = {
    "R2+h3+h3": ([euclidean(2), heisenberg(1), heisenberg(1)], [3, 3]),
    "n32+n32+h3+h3": ([free_two_step_3(), free_two_step_3(), heisenberg(1),
                       heisenberg(1)], [6, 6, 3, 3]),
    "h3+h3+h3": ([heisenberg(1)] * 3, [3, 3, 3]),
    "h3C+h3C+h3C": ([complex_heisenberg(1.0)] * 3, [6, 6, 6]),
    "R3": ([euclidean(3)], []),
}


@pytest.mark.parametrize("scrambled", [False, True], ids=["plain", "scrambled"])
@pytest.mark.parametrize("name", list(ONE_SOLVE))
def test_decompose_solves_one_symmetric_commutant(monkeypatch, name, scrambled):
    # the factors are the joint eigenspaces of the one commutant basis of
    # the block ker j is split off from, so no factor's commutant is solved
    # again, and an abelian algebra has no block to solve
    parts, dims = ONE_SOLVE[name]
    L = direct_sum(parts)
    if scrambled:
        q, _ = np.linalg.qr(np.random.default_rng(59).normal(size=(L.dim, L.dim)))
        L = change_user_basis(L, q)
    kinds = []
    solve = structure._solve_intertwiners

    def counting(constants, pv, tol, symmetric):
        kinds.append(symmetric)
        return solve(constants, pv, tol, symmetric)

    monkeypatch.setattr(structure, "_solve_intertwiners", counting)
    dec = structure.decompose(L)
    assert [f.dim for f in dec.factors] == dims
    assert kinds.count(True) == (1 if dims else 0)


def test_structured_killing_degrees_two_and_three_only():
    dec = structure.decompose(_sum())
    dims = [structured_killing(dec, k).dim for k in (2, 3)]
    assert dims == list(dec.killing_dimensions()[:2]) == [2, 1]
    for k in (1, 4):
        with pytest.raises(ValueError, match="degrees 2 and 3"):
            structured_killing(dec, k)


def _three_step():
    # [e1,e2] = e3, [e1,e3] = e4 is 3-step: [[e1,e2],e1] != 0
    c = np.zeros((4, 4, 4))
    c[0, 1, 2], c[1, 0, 2], c[0, 2, 3], c[2, 0, 3] = 1.0, -1.0, 1.0, -1.0
    return MetricLieAlgebra(4, ["e1", "e2", "e3", "e4"], c, np.eye(4))


def test_adapted_frame_refuses_three_step_algebra():
    with pytest.raises(InvalidAlgebra, match="invalid algebra: 2-step"):
        algebra.adapted_frame(_three_step())


@pytest.mark.parametrize("command", [
    ["analyze"], ["decompose"],
    ["killing", "--method", "brute"],
    ["killing", "--method", "structured"],
    ["killing", "--method", "both", "--degree", "3"],
])
def test_every_command_refuses_three_step_algebra(tmp_path, capsys, command):
    path = tmp_path / "three_step.json"
    _three_step().save(path)
    assert cli.main([command[0], str(path), *command[1:]]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid algebra: 2-step")
