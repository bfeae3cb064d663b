"""Dense linear algebra helpers: rank decisions via singular values.

Every rank/nullity decision in the package goes through these routines so
that the gap-ambiguity policy is applied uniformly.  The scale rule: rank
decisions take unit-scaled data (`_unit_scaled` constants); every other
zero test compares against tol times the largest entry of its own inputs,
all-zero input being the exact case; one quadratic in its data divides
the data by its largest entry first, so no threshold is squared.  So no
answer changes under a homothety or an isometry.
"""
import numpy as np

from .errors import NumericalRankFailure

DEFAULT_TOL = 1e-9

# a rank decision is accepted only if retained and discarded singular
# values are separated by this multiple of the threshold
GAP_FACTOR = 10.0


def _svd_rank(a, tol, full_v):
    """SVD factors of a non-zero `a` and its numerical rank.

    Singular values above tol * max(s_max, 1) count towards the rank; the
    decision is refused with NumericalRankFailure unless the retained and
    discarded values are separated by GAP_FACTOR times that scale.  The SVD
    is thin unless the caller needs all rows of V (`full_v`).  Callers pass
    unit-scaled `a`, so the floor 1, the package's only unit scale, keeps
    pure round-off (the Killing operator of a top-degree form) at rank 0.
    """
    u, s, vt = np.linalg.svd(a, full_matrices=full_v)
    scale = max(s[0], 1.0)
    thresh = tol * scale
    kept, dropped = s[s > thresh], s[s <= thresh]
    if kept.size and dropped.size and (
        kept.min() - dropped.max() < GAP_FACTOR * tol * scale
    ):
        raise NumericalRankFailure(
            "ambiguous singular value gap: retained %.3e vs discarded %.3e"
            % (kept.min(), dropped.max())
        )
    return u, kept.size, vt


def _unit_scaled(a):
    """`a` divided by its largest absolute entry; an all-zero `a` as is."""
    peak = np.abs(a).max(initial=0.0)
    return a / peak if peak else a


def nullspace(a, tol=DEFAULT_TOL):
    """Orthonormal basis (columns) of the nullspace of `a`.

    `a` is unit-scaled (see `_svd_rank`).  Raises NumericalRankFailure
    when the decision is ambiguous.
    """
    return _row_and_null_space(a, tol)[1]


def _row_and_null_space(a, tol=DEFAULT_TOL):
    """Orthonormal bases (columns) of the row space and the nullspace of `a`,
    the kept and the dropped right singular vectors of one rank decision;
    the nullspace is that of `nullspace`."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0 or not np.any(a):
        return np.zeros((a.shape[1], 0)), np.eye(a.shape[1])
    # a wide matrix has more null directions than singular values
    _, rank, vt = _svd_rank(a, tol, full_v=a.shape[0] < a.shape[1])
    return vt[:rank].T, vt[rank:].T


def column_space(a, tol=DEFAULT_TOL):
    """Orthonormal basis (columns) of the column space of `a`."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0 or not np.any(a):
        return np.zeros((a.shape[0], 0))
    u, rank, _ = _svd_rank(a, tol, full_v=False)
    return u[:, :rank]


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
