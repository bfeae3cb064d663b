"""Dense linear algebra helpers: rank decisions via singular values.

Every rank and zero decision in the package reads one rule, `_rank`:
values above tol * scale are retained, and the decision is refused unless
the retained and discarded values are GAP_FACTOR * tol * scale apart.
The SVD rank of `_row_and_null_space` applies it to singular values, and
`_is_zero` to one structural residual.  The scale rule: rank decisions
take unit-scaled data (`_unit_scaled` constants); every other zero test
compares against tol times the largest entry of its own inputs, all-zero
input being the exact case; one quadratic in its data divides it by its
largest entry first, so no threshold is squared.  So no answer changes
under a homothety or an isometry.
"""
import numpy as np

from .errors import NumericalRankFailure

DEFAULT_TOL = 1e-9

# a rank decision is accepted only if retained and discarded singular
# values are separated by this multiple of the threshold
GAP_FACTOR = 10.0


def _rank(s, scale, tol, stage):
    """Number of the descending values `s` retained above tol * scale.

    The decision is refused with NumericalRankFailure naming `stage`
    unless the smallest retained value and the largest discarded one are
    GAP_FACTOR * tol * scale apart, the value below a full rank counting
    as 0; a NaN is retained and refused.
    """
    low, high = tol * scale, GAP_FACTOR * tol * scale
    rank = int(np.count_nonzero(~(s <= low)))
    below = s[rank] if rank < s.size else 0.0
    if rank and not s[rank - 1] - below >= high:
        raise NumericalRankFailure("%s: retained %.3e vs discarded %.3e"
                                   % (stage, s[rank - 1], below))
    return rank


def _is_zero(value, scale, tol, stage):
    """The rank rule on one value: zero at most tol * scale, non-zero from
    GAP_FACTOR times that, and NumericalRankFailure naming `stage` between."""
    return not _rank(np.array([value]), scale, tol, stage)


def _sign_fixed(a):
    """`-a` if its first entry above DEFAULT_TOL times the largest is < 0, else `a`."""
    flat = np.ravel(a)
    lead = flat[np.abs(flat) > DEFAULT_TOL * np.abs(flat).max(initial=0.0)]
    return -a if lead.size and lead[0] < 0 else a


def _unit_scaled(a):
    """`a` divided by its largest absolute entry; an all-zero `a` as is."""
    peak = np.abs(a).max(initial=0.0)
    return a / peak if peak else a


def nullspace(a, tol=DEFAULT_TOL):
    """Orthonormal basis (columns) of the nullspace of `a`.

    `a` is unit-scaled (see `_row_and_null_space`).  Raises
    NumericalRankFailure when the decision is ambiguous.
    """
    return _row_and_null_space(a, tol)[1]


def _row_and_null_space(a, tol=DEFAULT_TOL):
    """Orthonormal bases (columns) of the row space and the nullspace of `a`,
    the kept and the dropped right singular vectors of one rank decision;
    the nullspace is that of `nullspace`.  The package's one SVD."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0 or not np.any(a):
        return np.zeros((a.shape[1], 0)), np.eye(a.shape[1])
    # a wide matrix has more null directions than singular values
    _, s, vt = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    # callers pass unit-scaled data, so the floor 1, the package's only
    # unit scale, keeps pure round-off (the Killing operator of a
    # top-degree form) at rank 0
    rank = _rank(s, max(s[0], 1.0), tol, "ambiguous singular value gap")
    return vt[:rank].T, vt[rank:].T


def column_space(a, tol=DEFAULT_TOL):
    """Orthonormal basis (columns) of the column space of `a`, the row space of a^T."""
    return _row_and_null_space(np.atleast_2d(a).T, tol)[0]


def projection_residual(a, b):
    """How far the column span of `a` sticks out of the span of `b`.

    Both inputs must have orthonormal columns; returns a max-norm residual
    that is 0 iff span(a) is contained in span(b).
    """
    if a.shape[1] == 0:
        return 0.0
    if b.shape[1] == 0:
        return float(np.abs(a).max())
    return float(np.abs(a - b @ (b.T @ a)).max())


def span_distance(a, b):
    """Symmetric span mismatch of two orthonormal column families."""
    return max(projection_residual(a, b), projection_residual(b, a))
