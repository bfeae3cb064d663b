"""The SVD rank policy shared by nullspace and column_space."""
import ast
from pathlib import Path

import numpy as np
import pytest

import nilkilling
from nilkilling.errors import NumericalRankFailure
from nilkilling.linalg import (
    DEFAULT_TOL,
    GAP_FACTOR,
    _row_and_null_space,
    _svd_rank,
    column_space,
    nullspace,
    projection_residual,
    span_distance,
)


def rank_deficient(rows, cols, rank, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))


def full_svd_spaces(a):
    """Reference nullspace and column space from a full SVD."""
    u, s, vt = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > DEFAULT_TOL * max(s[0], 1.0)))
    return vt[rank:].T, u[:, :rank]


def test_tall_matrix_matches_full_svd():
    a = rank_deficient(40, 7, 4, seed=0)
    null_ref, col_ref = full_svd_spaces(a)
    null, col = nullspace(a), column_space(a)
    assert null.shape == (7, 3) and col.shape == (40, 4)
    assert span_distance(null, null_ref) < 1e-10
    assert span_distance(col, col_ref) < 1e-10


def test_wide_matrix_nullspace_has_cols_minus_rank():
    a = rank_deficient(3, 10, 2, seed=1)
    null = nullspace(a)
    assert null.shape == (10, 8)
    assert np.allclose(null.T @ null, np.eye(8))
    assert np.abs(a @ null).max() < 1e-10
    assert column_space(a).shape == (3, 2)


@pytest.mark.parametrize("a", [rank_deficient(40, 7, 4, seed=3),
                               rank_deficient(3, 10, 2, seed=4),
                               np.zeros((4, 3))], ids=["tall", "wide", "zero"])
def test_row_space_is_the_complement_of_the_nullspace(a):
    # one rank decision gives both: the nullspace is nullspace's, and the
    # row space is the column space of a^T
    row, null = _row_and_null_space(a)
    assert np.array_equal(null, nullspace(a))
    assert row.shape[1] + null.shape[1] == a.shape[1]
    assert np.abs(row.T @ null).max(initial=0.0) < 1e-12
    assert span_distance(row, column_space(a.T)) < 1e-10


def test_zero_matrix():
    assert np.array_equal(nullspace(np.zeros((4, 3))), np.eye(3))
    assert column_space(np.zeros((4, 3))).shape == (4, 0)


@pytest.mark.parametrize("space", [nullspace, column_space])
@pytest.mark.parametrize("shape", [(6, 4), (4, 6)])
def test_straddling_singular_values_refused(space, shape):
    # one value above the threshold and one below, closer than the gap policy
    sv = np.array([1.0, 2 * DEFAULT_TOL, 0.5 * DEFAULT_TOL])
    assert sv[1] - sv[2] < GAP_FACTOR * DEFAULT_TOL
    rng = np.random.default_rng(2)
    q_left, _ = np.linalg.qr(rng.normal(size=(shape[0], 3)))
    q_right, _ = np.linalg.qr(rng.normal(size=(shape[1], 3)))
    with pytest.raises(NumericalRankFailure):
        space(q_left @ np.diag(sv) @ q_right.T)


def test_svd_rank_reads_singular_values():
    assert _svd_rank(np.array([2.0, 1.0, 1e-12]), DEFAULT_TOL) == 2
    # the floor 1 keeps round-off of unit-scaled data at rank 0
    assert _svd_rank(np.array([1e-12, 1e-13]), DEFAULT_TOL) == 0
    with pytest.raises(NumericalRankFailure, match="ambiguous singular value gap"):
        _svd_rank(np.array([1.0, 2 * DEFAULT_TOL, 0.5 * DEFAULT_TOL]), DEFAULT_TOL)
    # a full rank is judged against 0 below it: its smallest value must
    # clear the gap too, and one that does not is refused
    assert _svd_rank(np.array([1.0, 20 * DEFAULT_TOL]), DEFAULT_TOL) == 2
    with pytest.raises(NumericalRankFailure, match="discarded 0.000e"):
        _svd_rank(np.array([1.0, 2 * DEFAULT_TOL]), DEFAULT_TOL)


def test_one_svd_call_in_the_package():
    sites = []
    for path in sorted(Path(nilkilling.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                sites += [(path.name, func.name) for node in ast.walk(func)
                          if isinstance(node, ast.Attribute) and node.attr == "svd"]
    assert sites == [("linalg.py", "_row_and_null_space")]


def test_span_outside_an_empty_span():
    # a brute/structured dimension mismatch: a unit vector lies wholly
    # outside the zero space, and the zero space inside every span
    unit = np.eye(3)[:, :1]
    assert projection_residual(unit, np.zeros((3, 0))) == 1.0
    assert projection_residual(np.zeros((3, 0)), unit) == 0.0
    assert span_distance(unit, np.zeros((3, 0))) == 1.0
