"""The one rank rule (`_rank`) on the singular values of nullspace and
column_space and on one value (`_is_zero`), with the one sign rule."""
import ast
from pathlib import Path

import numpy as np
import pytest

import nilkilling
from nilkilling.errors import NumericalRankFailure
from nilkilling.linalg import (
    DEFAULT_TOL,
    GAP_FACTOR,
    _is_zero,
    _rank,
    _row_and_null_space,
    _sign_fixed,
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


SVD_STAGE = "ambiguous singular value gap"

# a scale at which tol * scale underflows to 0 and GAP_FACTOR * tol * scale
# is the second subnormal, so the band is (0, 1e-323) and its edges exact
TINY = 1e-315
assert DEFAULT_TOL * TINY == 0.0 < GAP_FACTOR * DEFAULT_TOL * TINY == 2 * 5e-324


def svd_rank(s):
    """The rule as `_row_and_null_space` applies it to singular values."""
    s = np.array(s)
    return _rank(s, max(s[0], 1.0), DEFAULT_TOL, SVD_STAGE)


def test_svd_rank_reads_singular_values():
    assert svd_rank([2.0, 1.0, 1e-12]) == 2
    # the floor 1 keeps round-off of unit-scaled data at rank 0
    assert svd_rank([1e-12, 1e-13]) == 0
    assert nullspace(np.diag([1e-12, 1e-13])).shape == (2, 2)
    with pytest.raises(NumericalRankFailure, match="ambiguous singular value gap"):
        svd_rank([1.0, 2 * DEFAULT_TOL, 0.5 * DEFAULT_TOL])
    # a full rank is judged against 0 below it: its smallest value must
    # clear the gap too, and one that does not is refused
    assert svd_rank([1.0, 20 * DEFAULT_TOL]) == 2
    with pytest.raises(NumericalRankFailure, match="discarded 0.000e"):
        svd_rank([1.0, 2 * DEFAULT_TOL])
    # at the exact edges: 0 is discarded, 1e-323 clears the gap to 0 and
    # to a discarded 0, and 5e-324 is retained but does not
    high = GAP_FACTOR * DEFAULT_TOL * TINY
    assert _rank(np.array([0.0, 0.0]), TINY, DEFAULT_TOL, SVD_STAGE) == 0
    assert _rank(np.array([2 * high, high]), TINY, DEFAULT_TOL, SVD_STAGE) == 2
    assert _rank(np.array([high, 0.0]), TINY, DEFAULT_TOL, SVD_STAGE) == 1
    for s in ([high, 5e-324], [1.0, 5e-324, 0.0]):
        with pytest.raises(NumericalRankFailure, match="retained 4.941e-324 vs discarded 0"):
            _rank(np.array(s), TINY, DEFAULT_TOL, SVD_STAGE)


def one_value(value, scale, stage="s"):
    """`_is_zero` on `value`, checked to be `_rank` on the one-value array."""
    zero = _is_zero(value, scale, DEFAULT_TOL, stage)
    assert _rank(np.array([value]), scale, DEFAULT_TOL, stage) == (0 if zero else 1)
    return zero


def test_is_zero_is_the_rank_rule_on_one_value():
    # zero at most tol * scale, non-zero from GAP_FACTOR times that, and
    # refused in between, NaN included, naming the stage
    scale = 1e-6
    assert one_value(0.0, 0.0) is True
    assert one_value(DEFAULT_TOL * scale, scale) is True
    assert one_value(GAP_FACTOR * DEFAULT_TOL * scale, scale) is False
    # the same edges where tol * scale is 0 and GAP_FACTOR * tol * scale is not
    assert one_value(0.0, TINY) is True
    assert one_value(GAP_FACTOR * DEFAULT_TOL * TINY, TINY) is False
    for value, sc in ((2 * DEFAULT_TOL * scale, scale), (np.nan, scale), (5e-324, TINY)):
        with pytest.raises(NumericalRankFailure, match="^cross-block: "):
            _is_zero(value, sc, DEFAULT_TOL, "cross-block")
        with pytest.raises(NumericalRankFailure, match="^cross-block: "):
            _rank(np.array([value]), sc, DEFAULT_TOL, "cross-block")


def test_sign_fixed_makes_the_first_clear_entry_positive():
    # an entry at round-off of the largest is not clear and does not decide
    a = np.array([[-1e-12, -0.5], [0.25, 1.0]])
    assert np.array_equal(_sign_fixed(a), -a)
    assert np.array_equal(_sign_fixed(-a), -a)
    assert np.array_equal(_sign_fixed(np.zeros(3)), np.zeros(3))


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
