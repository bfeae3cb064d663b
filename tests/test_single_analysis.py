"""Each request runs the de Rham decomposition once and builds one frame."""
import sys

import pytest

from nilkilling import algebra, cli, structure
from nilkilling.catalog import complex_heisenberg, direct_sum, euclidean, heisenberg
from nilkilling.killing import solve_killing2, solve_killing3


@pytest.fixture
def calls(monkeypatch):
    """Algebras passed to decompose and adapted_frame, in call order.

    Every nilkilling.* namespace that binds either function gets the counting
    wrapper, so lazy imports and module-level imports are both seen.
    """
    seen = {"decompose": [], "adapted_frame": []}
    for name, orig in (("decompose", structure.decompose),
                       ("adapted_frame", algebra.adapted_frame)):
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


REQUESTS = {
    "analyze_record": lambda: cli.analyze_record(_sum(), 1e-9),
    "cli_decompose": lambda: cli.main(["decompose", "catalog:R3+h3", "--json"]),
    "cli_analyze": lambda: cli.main(["analyze", "catalog:R3+h3", "--json"]),
    "solve_killing2": lambda: solve_killing2(_sum()),
    "solve_killing3": lambda: solve_killing3(_sum()),
}


@pytest.mark.parametrize("request_name", sorted(REQUESTS))
def test_one_decomposition_and_one_whole_frame(calls, capsys, request_name):
    REQUESTS[request_name]()
    capsys.readouterr()
    assert len(calls["decompose"]) == 1
    (L,) = calls["decompose"]
    whole_frames = [M for M in calls["adapted_frame"] if M is L]
    assert len(whole_frames) == 1
