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
    frame_from_constants,
    rotate_constants,
)
from .errors import (
    DecompositionAmbiguous,
    InternalInvariantViolation,
    NotComplexStructure,
)
from .linalg import DEFAULT_TOL, _unit_scaled, nullspace


@dataclass(frozen=True)
class FactorReport:
    """One irreducible factor together with its analysis.

    `J` is its bi-invariant orthogonal complex structure and
    `compact_bracket` its bracket on z of naturally reductive type, each in
    the factor's basis `columns` and None where the factor has none.
    `columns`, `J` and `compact_bracket` are defined only up to an
    orthogonal change of basis within the factor (`eigh` picks any basis of
    a repeated eigenspace); the invariant is the projector
    `columns @ columns.T`.
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
def _block_triu_indices(pv, pz, symmetric):
    """Upper-triangle (row, col) indices of the pv + pz block-diagonal
    matrices, diagonal included when `symmetric`; read-only, shared by
    every solve of these shapes."""
    diag = 0 if symmetric else 1
    rv, cv = np.triu_indices(pv, diag)
    rz, cz = np.triu_indices(pz, diag)
    rows, cols = np.concatenate([rv, pv + rz]), np.concatenate([cv, pv + cz])
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _solve_intertwiners(constants, pv, tol, symmetric):
    """Basis of {S : S[x,y] = [Sx,y]} among symmetric or skew matrices.

    `constants` are those of an orthonormal frame whose first `pv` vectors
    span v and whose remaining vectors span the centre z.  S preserves the
    centre: for central x, [Sx,y] = S[x,y] = 0.  A symmetric or skew S
    therefore also preserves v = z^perp, so S is block-diagonal on v + z.
    The equations with a central argument then hold trivially, and only
    the z-components of the (v,v) brackets remain: pv^2 * pz equations in
    pv(pv±1)/2 + pz(pz±1)/2 unknowns.  Solves over a Frobenius-orthonormal
    basis of the block-diagonal matrices, so the returned matrices are
    Frobenius-orthonormal.
    """
    p = constants.shape[0]
    rows, cols = _block_triu_indices(pv, p - pv, symmetric)
    if not rows.size:
        return []
    basis = np.zeros((rows.size, p, p))
    params = np.arange(rows.size)
    basis[params, rows, cols] = 1.0
    basis[params, cols, rows] = 1.0 if symmetric else -1.0
    basis /= np.linalg.norm(basis, axis=(1, 2))[:, None, None]
    c = _unit_scaled(constants[:pv, :pv, pv:])
    # z-part of S[x,y] - [Sx,y] for x, y in v, one column per basis matrix
    system = np.einsum("qsk,abk->qabs", basis[:, pv:, pv:], c)
    system -= np.einsum("qca,cbs->qabs", basis[:, :pv, :pv], c)
    null = nullspace(system.reshape(rows.size, -1).T, tol)
    return list(np.einsum("qr,qij->rij", null, basis))


def bracket_commutant(F: AdaptedFrame, tol=DEFAULT_TOL):
    """Symmetric matrices commuting with the bracket: S[x,y] = [Sx,y].

    Computed in frame coordinates on the whole algebra; a 1-dimensional
    result (the identity line) certifies irreducibility.  Such an S maps
    the centre z into itself, so it is block-diagonal on v + z and only
    the (v,v) -> z equations are solved.
    """
    return _solve_intertwiners(F.constants, F.nv, tol, symmetric=True)


def _pick_splitting_element(mats, p):
    """The commutant basis element farthest from the line through Id."""
    best = max((m - (np.trace(m) / p) * np.eye(p) for m in mats),
               key=np.linalg.norm)
    return 0.5 * (best + best.T)


def _cluster(eigvals, tol):
    """Indices of the eigenvalues in ascending order, split into clusters
    wherever two consecutive values are more than the gap threshold apart."""
    order = np.argsort(eigvals)
    gap = 10.0 * tol * np.abs(eigvals).max()
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
    bracket table or None.
    """
    m, mats = F.nz, F.j_matrices
    if m == 0:
        return None
    a = mats.reshape(m, -1).T
    scale = np.abs(a).max()
    # every commutator [J_s, J_t], solved for in the span of the J_u at once
    prod = np.einsum("sab,tbc->stac", mats, mats)
    targets = (prod - prod.transpose(1, 0, 2, 3)).reshape(m * m, -1).T
    coef, *_ = np.linalg.lstsq(a, targets, rcond=None)
    # the commutators are quadratic in the j-maps, the bracket linear
    if np.linalg.norm(a @ coef - targets, axis=0).max() > 100 * tol * scale ** 2:
        return None
    cb = coef.T.reshape(m, m, m)
    if np.abs(cb + cb.transpose(0, 2, 1)).max() > 100 * tol * scale:
        return None
    return cb


def decompose(L: MetricLieAlgebra, tol=DEFAULT_TOL) -> Decomposition:
    """Split into the abelian block plus irreducible orthogonal ideals.

    Works in frame coordinates: the kernel of j is split off first, then
    blocks are subdivided along eigenspaces of generic bracket-commutant
    elements until every commutant is 1-dimensional.  An invalid algebra
    raises InvalidAlgebra from `adapted_frame`.
    """
    F = adapted_frame(L, tol)
    v0, z0, abelian = np.split(np.eye(F.n), [F.nv, F.n - F.na], axis=1)
    const = F.constants

    blocks = [(v0, z0)] if v0.shape[1] else []
    final = []
    while blocks:
        vc, zc = blocks.pop()
        cols = np.concatenate([vc, zc], axis=1)
        sub = rotate_constants(const, cols, cols)
        pv = vc.shape[1]
        comm = _solve_intertwiners(sub, pv, tol, symmetric=True)
        if len(comm) <= 1:
            final.append((vc, zc, sub))
            continue
        p = cols.shape[1]
        # block-diagonal on v + z by construction of the commutant basis
        s_mat = _pick_splitting_element(comm, p)
        ev_v, u_v = np.linalg.eigh(s_mat[:pv, :pv])
        ev_z, u_z = np.linalg.eigh(s_mat[pv:, pv:])
        allvals = np.concatenate([ev_v, ev_z])
        clusters = _cluster(allvals, tol)
        if len(clusters) < 2:
            raise DecompositionAmbiguous(
                "commutant is %d-dimensional but eigenvalue clusters are not "
                "separated by the gap threshold" % len(comm)
            )
        for cl in clusters:
            sel_v = [i for i in cl if i < pv]
            sel_z = [i - pv for i in cl if i >= pv]
            if not sel_v or not sel_z:
                raise DecompositionAmbiguous(
                    "eigenvalue cluster missing a v-part or z-part"
                )
            blocks.append((vc @ u_v[:, sel_v], zc @ u_z[:, sel_z]))

    # deterministic order: largest factors first, then lexicographic columns
    final.sort(key=lambda b: (-(b[0].shape[1] + b[1].shape[1]),
                              tuple(np.round(b[0][:, 0], 6))))
    factors = []
    parts = [abelian]
    for vc, zc, sub_const in final:
        cols = np.concatenate([vc, zc], axis=1)
        parts.append(cols)
        p = cols.shape[1]
        # an irreducible factor's centre is its z-block and its ker j is 0,
        # so the identity is already its adapted frame
        ff = frame_from_constants(np.eye(p), sub_const, vc.shape[1], 0, tol)
        j_struct = find_complex_structure(ff, tol)
        cbr = naturally_reductive_type(ff, tol)
        if j_struct is not None and cbr is not None:
            raise InternalInvariantViolation(
                "factor flagged both complex and naturally reductive"
            )
        factors.append(FactorReport(columns=cols, frame=ff, J=j_struct,
                                    compact_bracket=cbr))
    transform = np.concatenate(parts, axis=1)
    # the blocks must reassemble the algebra: no cross-block brackets
    c_rot = rotate_constants(const, transform, transform)
    block_of = np.repeat(np.arange(len(parts)), [p.shape[1] for p in parts])
    i, j, k = np.ix_(block_of, block_of, block_of)
    cross = np.abs(np.where((i != j) | (j != k), c_rot, 0.0))
    if cross.max() > 100 * tol * np.abs(c_rot).max():
        raise DecompositionAmbiguous(
            "cross-block bracket residual %.2e" % cross.max()
        )
    return Decomposition(abelian=abelian, factors=factors, frame=F)


def killing_dimensions(L: MetricLieAlgebra, tol=DEFAULT_TOL):
    """(dimK2, dimK3, d, r2, r3) from the decomposition and the formulas."""
    return decompose(L, tol).killing_dimensions()


def compatible_metric(H: MetricLieAlgebra, J, h) -> MetricLieAlgebra:
    """Equip an algebra carrying a bi-invariant complex structure J with a
    metric for which J is orthogonal: gram = h + J^T h J."""
    J = np.asarray(J, dtype=float)
    h = np.asarray(h, dtype=float)
    n = H.dim
    j_scale = np.abs(J).max()
    if np.abs(J @ J + np.eye(n)).max() > 10 * DEFAULT_TOL * j_scale ** 2:
        raise NotComplexStructure("J^2 != -Id")
    c = H.structure_constants
    lhs = np.einsum("ijm,km->ijk", c, J)
    rhs = np.einsum("mi,mjk->ijk", J, c)
    if np.abs(lhs - rhs).max() > 10 * DEFAULT_TOL * np.abs(c).max() * j_scale:
        raise NotComplexStructure("J is not bi-invariant")
    gram = h + J.T @ h @ J
    return MetricLieAlgebra(
        n, list(H.basis_names), c, gram,
        name=f"{H.name}+compatible" if H.name else "compatible",
    )
