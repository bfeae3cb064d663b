"""Decomposition of metric 2-step nilpotent algebras and factor analysis.

Splits an algebra into an abelian block plus irreducible orthogonal ideals,
detects bi-invariant orthogonal complex structures, tests the algebraic
criterion for natural reductivity, and evaluates the two dimension
formulas for Killing 2- and 3-forms.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Optional

import numpy as np

from .algebra import (
    AdaptedFrame,
    MetricLieAlgebra,
    adapted_frame,
    rotate_constants,
)
from .errors import DecompositionAmbiguous, InternalInvariantViolation
from .linalg import DEFAULT_TOL, GAP_FACTOR, _unit_scaled, nullspace


@dataclass(frozen=True)
class FactorReport:
    """One irreducible factor together with its analysis.

    `J` is its bi-invariant orthogonal complex structure and
    `compact_bracket` its bracket on z of naturally reductive type, each in
    the factor's basis `columns` and None where the factor has none.
    `columns`, `J` and `compact_bracket` are defined only up to an
    orthogonal change of basis within the factor (`eigh` picks any basis of
    a repeated eigenspace, and a one-factor algebra keeps the identity);
    the invariant is the projector `columns @ columns.T`, from which
    `decompose` also takes the factor order.
    """

    columns: np.ndarray          # factor basis in ambient frame coordinates
    frame: AdaptedFrame          # adapted frame of the factor itself
    J: Optional[np.ndarray]
    compact_bracket: Optional[np.ndarray]

    @property
    def dim(self):
        return self.columns.shape[1]

    @property
    def has_complex_structure(self):
        return self.J is not None

    @property
    def naturally_reductive(self):
        return self.compact_bracket is not None


@dataclass(frozen=True)
class Decomposition:
    abelian: np.ndarray          # columns spanning ker j, ambient frame coordinates
    factors: list
    frame: AdaptedFrame          # adapted frame of the whole algebra

    @property
    def d(self):
        return self.abelian.shape[1]

    def killing_dimensions(self):
        """(dimK2, dimK3, d, r2, r3) from the dimension formulas."""
        d = self.d
        r2 = sum(1 for f in self.factors if f.has_complex_structure)
        r3 = sum(1 for f in self.factors if f.naturally_reductive)
        return comb(d, 2) + r2, comb(d, 3) + r3, d, r2, r3


@lru_cache(maxsize=None)
def _commutant_basis(pv, pz, symmetric):
    """Frobenius-orthonormal basis of the symmetric (or skew) matrices that
    are block-diagonal on v + z, as a (q, p, p) stack; read-only, shared by
    every solve of these shapes."""
    diag = 0 if symmetric else 1
    rv, cv = np.triu_indices(pv, diag)
    rz, cz = np.triu_indices(pz, diag)
    rows, cols = np.concatenate([rv, pv + rz]), np.concatenate([cv, pv + cz])
    p = pv + pz
    basis = np.zeros((rows.size, p, p))
    params = np.arange(rows.size)
    basis[params, rows, cols] = 1.0
    basis[params, cols, rows] = 1.0 if symmetric else -1.0
    basis /= np.linalg.norm(basis, axis=(1, 2))[:, None, None]
    basis.flags.writeable = False
    return basis


def _solve_intertwiners(constants, pv, tol, symmetric):
    """Basis of {S : S[x,y] = [Sx,y]} among symmetric or skew matrices.

    `constants` are those of an orthonormal frame whose first `pv` vectors
    span v and whose remaining vectors span the centre z.  S preserves the
    centre: for central x, [Sx,y] = S[x,y] = 0.  A symmetric or skew S
    therefore also preserves v = z^perp, so S is block-diagonal on v + z.
    The equations with a central argument then hold trivially, and only
    the z-components of the (v,v) brackets remain: pv^2 * pz equations in
    pv(pv±1)/2 + pz(pz±1)/2 unknowns.  Solves over the Frobenius-orthonormal
    basis `_commutant_basis`, so the returned matrices are
    Frobenius-orthonormal.
    """
    p = constants.shape[0]
    pz = p - pv
    basis = _commutant_basis(pv, pz, symmetric)
    count = basis.shape[0]
    if not count:
        return []
    c = _unit_scaled(constants[:pv, :pv, pv:])
    # z-part of S[x,y] - [Sx,y] for x, y in v, one row per basis matrix:
    # [q, (a b), s] = S_q[s, k] c[a, b, k] and [q, a, (b s)] = S_q[c, a] c[c, b, s]
    system = (c.reshape(pv * pv, pz) @ basis[:, pv:, pv:].transpose(0, 2, 1)
              ).reshape(count, -1)
    system -= (basis[:, :pv, :pv].transpose(0, 2, 1) @ c.reshape(pv, pv * pz)
               ).reshape(count, -1)
    null = nullspace(system.T, tol)
    return list((null.T @ basis.reshape(count, -1)).reshape(-1, p, p))


def _cluster(eigvals, tol, scale):
    """Indices of the eigenvalues in ascending order, split into clusters
    wherever two consecutive values are more than GAP_FACTOR * tol * scale
    apart, the rank policy's gap.  `scale` is the size of the whole matrix
    the values were read from, not of their restriction, so values at
    round-off level stay one cluster."""
    order = np.argsort(eigvals)
    gap = GAP_FACTOR * tol * scale
    return np.split(order, np.flatnonzero(np.diff(eigvals[order]) > gap) + 1)


def find_complex_structure(F: AdaptedFrame, tol=DEFAULT_TOL):
    """Bi-invariant orthogonal complex structure of an irreducible factor.

    Solves the linear space of skew D with D[x,y] = [Dx,y]; a non-zero
    solution must square to a negative multiple of the identity, which is
    rescaled to the complex structure.  Returns None when the space is 0.
    D preserves the centre z, so it is block-diagonal on v + z and only
    the (v,v) -> z equations are solved.
    """
    sols = _solve_intertwiners(F.constants, F.nv, tol, symmetric=False)
    if not sols:
        return None
    if len(sols) > 1:
        raise InternalInvariantViolation(
            "bi-invariant skew solution space has dimension %d > 1" % len(sols)
        )
    d = sols[0]
    d2 = d @ d
    p = d.shape[0]
    lam = float(np.trace(d2)) / p
    if np.abs(d2 - lam * np.eye(p)).max() > 100 * tol * np.abs(d2).max():
        raise InternalInvariantViolation(
            "square of bi-invariant skew map is not scalar; factor not irreducible"
        )
    if lam >= 0:
        raise InternalInvariantViolation("scalar square is not negative")
    j = d / np.sqrt(-lam)
    # deterministic sign: first non-zero entry positive (J is orthogonal)
    flat = j.ravel()
    lead = flat[np.abs(flat) > 10 * tol]
    if lead.size and lead[0] < 0:
        j = -j
    return j


def naturally_reductive_type(F: AdaptedFrame, tol=DEFAULT_TOL):
    """Compact bracket on z when the factor is of naturally reductive type.

    Checks that the skew maps attached to z close under commutators and
    that the induced bracket on z has skew adjoint maps; returns the m^3
    bracket table or None.  Both checks read the unit-scaled j-maps, as
    the commutators are quadratic in them; the bracket is scaled back.
    """
    m, mats = F.nz, F.j_matrices
    if m == 0:
        return None
    scale = np.abs(mats).max(initial=0.0)
    mats = _unit_scaled(mats)
    a = mats.reshape(m, -1).T
    # every commutator [J_s, J_t], solved for in the span of the J_u at once
    prod = mats[:, None] @ mats[None]
    targets = (prod - prod.transpose(1, 0, 2, 3)).reshape(m * m, -1).T
    coef, *_ = np.linalg.lstsq(a, targets, rcond=None)
    residual = a @ coef - targets
    if np.sqrt((residual * residual).sum(axis=0)).max() > 100 * tol:
        return None
    cb = coef.T.reshape(m, m, m)
    if np.abs(cb + cb.transpose(0, 2, 1)).max() > 100 * tol:
        return None
    return scale * cb


def decompose(L: MetricLieAlgebra, tol=DEFAULT_TOL) -> Decomposition:
    """Split into the abelian block plus irreducible orthogonal ideals.

    Works in frame coordinates.  Once ker j is split off, a symmetric S
    with S[x,y] = [Sx,y] maps the v-part of each irreducible orthogonal
    ideal into itself (its part in another ideal would be central there,
    and v meets no centre), so it is a multiple of the identity on each
    factor: the factor projectors span this commutant.  It is solved once
    per algebra, and the factors are its joint eigenspaces: each basis
    element in turn splits every cluster at its eigenvalue gaps, until
    there is one cluster per commutant dimension.  No two factors share
    every eigenvalue of the basis, so falling short of that count raises
    DecompositionAmbiguous.  The factors are ordered by size, then by the
    diagonal of the projector `columns @ columns.T`.  One rotation into
    [abelian | factors] must have no cross-block brackets and gives each
    factor its diagonal block.  An invalid algebra raises InvalidAlgebra
    from `adapted_frame`.
    """
    F = adapted_frame(L, tol)
    m = F.n - F.na
    v0, z0, abelian = np.split(np.eye(F.n), [F.nv, m], axis=1)
    const = F.constants

    clusters = [(v0, z0)] if F.nv else []
    comm = (_solve_intertwiners(const[:m, :m, :m], F.nv, tol, symmetric=True)
            if clusters else [])
    for s_mat in comm:
        if len(clusters) == len(comm):
            break
        scale = np.abs(s_mat).max()
        refined = []
        for vc, zc in clusters:
            # S is block-diagonal on v + z, so it splits each part alone
            ev_v, u_v = np.linalg.eigh(vc[:m].T @ s_mat @ vc[:m])
            ev_z, u_z = np.linalg.eigh(zc[:m].T @ s_mat @ zc[:m])
            pv = ev_v.size
            for cl in _cluster(np.concatenate([ev_v, ev_z]), tol, scale):
                sel_v, sel_z = cl[cl < pv], cl[cl >= pv] - pv
                if not sel_v.size or not sel_z.size:
                    raise DecompositionAmbiguous(
                        "eigenvalue cluster missing a v-part or z-part")
                refined.append((vc @ u_v[:, sel_v], zc @ u_z[:, sel_z]))
        clusters = refined
    if len(clusters) != len(comm):
        raise DecompositionAmbiguous(
            "commutant is %d-dimensional but its eigenvalues split the "
            "algebra into %d clusters" % (len(comm), len(clusters)))

    # largest factors first, then by the diagonal of the projector, which
    # unlike the factor's basis does not depend on what `eigh` picks
    blocks = sorted(((np.concatenate([vc, zc], axis=1), vc.shape[1])
                     for vc, zc in clusters),
                    key=lambda b: (-b[0].shape[1],
                                   tuple(-np.round(np.diag(b[0] @ b[0].T), 6))))
    parts = [abelian] + [cols for cols, _ in blocks]
    transform = np.concatenate(parts, axis=1)
    rotated = rotate_constants(const, transform, transform)
    # the blocks must reassemble the algebra: no cross-block brackets
    cross = np.abs(rotated)
    scale = cross.max()
    bounds = np.cumsum([0] + [part.shape[1] for part in parts])
    for start, end in zip(bounds, bounds[1:]):   # keep only the cross-block entries
        cross[start:end, start:end, start:end] = 0.0
    worst = cross.max()
    if worst > 100 * tol * scale:
        raise DecompositionAmbiguous("cross-block bracket residual %.2e" % worst)
    factors = []
    for (cols, nv), start, end in zip(blocks, bounds[1:], bounds[2:]):
        # an irreducible factor's centre is its z-block and its ker j is 0,
        # so the identity is already its adapted frame
        ff = AdaptedFrame(np.eye(cols.shape[1]),
                          rotated[start:end, start:end, start:end], nv, 0)
        j_struct = find_complex_structure(ff, tol)
        cbr = naturally_reductive_type(ff, tol)
        if j_struct is not None and cbr is not None:
            raise InternalInvariantViolation(
                "factor flagged both complex and naturally reductive"
            )
        factors.append(FactorReport(columns=cols, frame=ff, J=j_struct,
                                    compact_bracket=cbr))
    return Decomposition(abelian=abelian, factors=factors, frame=F)


def killing_dimensions(L: MetricLieAlgebra, tol=DEFAULT_TOL):
    """(dimK2, dimK3, d, r2, r3) from the decomposition and the formulas."""
    return decompose(L, tol).killing_dimensions()

