"""The left-invariant Killing equation: brute-force and structured solvers.

The brute-force path assembles the linear operator behind the defining
equation and takes its SVD nullspace; it is the independent oracle for the
structured degree-2 and degree-3 solvers, which go through the de Rham
decomposition and the classification of the irreducible factors.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

from .algebra import AdaptedFrame, MetricLieAlgebra, nabla_matrix
from .errors import InternalInvariantViolation
from .forms import (
    Form,
    basis_tuples,
    bigrade,
    contract,
    lie_diff,
    oneform,
    skew_extend,
    transform,
    wedge,
)
from .linalg import DEFAULT_TOL, nullspace


@dataclass(frozen=True)
class KillingSpace:
    degree: int
    basis: list
    method: str                  # 'brute' or 'structured'
    algebra_ref: str = ""

    @property
    def dim(self):
        return len(self.basis)

    def matrix(self):
        """Coefficient vectors as columns, for span comparisons."""
        if not self.basis:
            return np.zeros((0, 0))
        return np.array([f.vec for f in self.basis]).T


@dataclass(frozen=True)
class Killing2Data:
    alpha2: np.ndarray           # skew matrix on the factor's v
    alpha0: np.ndarray           # skew matrix on the factor's z
    abelian_part: Optional[Form] = None


@dataclass(frozen=True)
class Killing3Data:
    gamma: Form                  # degree-3 form supported on the z legs
    abelian_part: Optional[Form] = None


def _normalize(form: Form) -> Form:
    nrm = form.norm()
    if nrm == 0.0:
        return form
    out = form * (1.0 / nrm)
    lead = out.vec[np.abs(out.vec) > 1e-10]
    if lead.size and lead[0] < 0:
        out = -out
    return out


def _d_contract(L, F, y, omega):
    """y contracted into d(omega); zero in top degree."""
    if omega.degree >= F.n:
        return Form(omega.n, omega.degree)
    return contract(y, lie_diff(L, F, omega))


def killing_residual(L, F: AdaptedFrame, omega: Form, tol=DEFAULT_TOL):
    """Max deviation from the Killing equation over the frame.

    Computes both the defining residual (covariant derivative vs the scaled
    contraction of the differential) and the polarized self-contraction
    residual, and checks that the two verdicts agree.
    """
    n = F.n
    k = omega.degree
    eye = np.eye(n)
    nablas = [skew_extend(nabla_matrix(L, F, eye[:, a]), omega) for a in range(n)]
    res1 = 0.0
    for a in range(n):
        diff = nablas[a] - (1.0 / (k + 1)) * _d_contract(L, F, eye[:, a], omega)
        res1 = max(res1, diff.norm())
    res2 = 0.0
    for a in range(n):
        for b in range(a, n):
            pol = contract(eye[:, a], nablas[b]) + contract(eye[:, b], nablas[a])
            res2 = max(res2, pol.norm())
    thresh = tol * max(1.0, omega.norm())
    if (res1 <= thresh) != (res2 <= 10 * thresh):
        raise InternalInvariantViolation(
            "Killing verdicts disagree: residuals %.3e vs %.3e" % (res1, res2)
        )
    return res1


def killing_nullspace_brute(L, F: AdaptedFrame, k, tol=DEFAULT_TOL) -> KillingSpace:
    """Nullspace of the stacked Killing operator; oracle for any degree."""
    n = F.n
    dim = comb(n, k)
    eye = np.eye(n)
    nmats = [nabla_matrix(L, F, eye[:, a]) for a in range(n)]
    cols = []
    for t in basis_tuples(n, k):
        base = Form.basis(n, k, t)
        stack = []
        for a in range(n):
            r = skew_extend(nmats[a], base) - (1.0 / (k + 1)) * _d_contract(
                L, F, eye[:, a], base
            )
            stack.append(r.vec)
        cols.append(np.concatenate(stack))
    op = np.array(cols).T
    null = nullspace(op, tol)
    basis = [_normalize(Form(n, k, null[:, i])) for i in range(null.shape[1])]
    return KillingSpace(degree=k, basis=basis, method="brute", algebra_ref=L.name)


def killgen_residuals(L, F: AdaptedFrame, omega: Form):
    """Per-bidegree residual table of the three component equations.

    Keys are ('pp1', l), ('pp2', l), ('pp3', l) for l = 0..k-1; the value is
    the max residual norm over frame vectors x in v and z in z.
    """
    n = F.n
    nv = F.nv
    k = omega.degree
    eye = np.eye(n)
    vvecs = [eye[:, i] for i in F.v_indices]
    zvecs = [eye[:, i] for i in F.z_indices]

    def grade(l):
        if 0 <= l <= k:
            return bigrade(F, omega, l)
        return Form(n, k)

    def bracket_vec(x, e):
        return np.einsum("a,b,abc->c", x, e, F.constants)

    def j_apply(z, x):
        out = np.zeros(n)
        for t, jt in enumerate(F.j_matrices):
            out[:nv] += z[nv + t] * (jt @ x[:nv])
        return out

    table = {}
    for l in range(k):
        # first family: bracket-wedge of the double contraction by x
        res1 = 0.0
        for x in vvecs:
            lhs = Form(n, k - 1)
            for e in vvecs:
                lhs = lhs + wedge(
                    oneform(bracket_vec(x, e)), contract(x, contract(e, grade(l + 2)))
                )
            rhs = Form(n, k - 1)
            for zt in zvecs:
                rhs = rhs + wedge(
                    oneform(j_apply(zt, x)), contract(x, contract(zt, grade(l)))
                )
            res1 = max(res1, (lhs - rhs).norm())
        table[("pp1", l)] = res1

        res2 = 0.0
        for z in zvecs:
            acc = Form(n, k - 1)
            for e in vvecs:
                acc = acc + wedge(
                    oneform(j_apply(z, e)), contract(z, contract(e, grade(l)))
                )
            res2 = max(res2, acc.norm())
        table[("pp2", l)] = res2

        res3 = 0.0
        for x in vvecs:
            for z in zvecs:
                lhs = Form(n, k - 1)
                for e in vvecs:
                    lhs = lhs + wedge(
                        oneform(bracket_vec(x, e)),
                        contract(z, contract(e, grade(l + 1))),
                    )
                rhs = 2.0 * contract(j_apply(z, x), grade(l + 1))
                for e in vvecs:
                    rhs = rhs + wedge(
                        oneform(j_apply(z, e)),
                        contract(x, contract(e, grade(l + 1))),
                    )
                for zt in zvecs:
                    rhs = rhs + wedge(
                        oneform(j_apply(zt, x)),
                        contract(z, contract(zt, grade(l - 1))),
                    )
                res3 = max(res3, (lhs - rhs).norm())
        table[("pp3", l)] = res3
    return table


def is_parallel(L, F: AdaptedFrame, omega: Form, tol=DEFAULT_TOL) -> bool:
    """True iff the covariant derivative vanishes in every frame direction."""
    eye = np.eye(F.n)
    worst = 0.0
    for a in range(F.n):
        worst = max(worst, skew_extend(nabla_matrix(L, F, eye[:, a]), omega).norm())
    return worst <= tol * max(1.0, omega.norm())


def _wedge_chain(vectors):
    form = oneform(vectors[0])
    for v in vectors[1:]:
        form = wedge(form, oneform(v))
    return form


def _factor_to_ambient(form_f, factor):
    """Push a form on a factor out to ambient frame coordinates."""
    cols = factor.columns @ factor.frame.frame
    return transform(form_f, cols.T)


def solve_killing2(L: MetricLieAlgebra, tol=DEFAULT_TOL):
    """Structured solver for degree 2.

    Wedges on the abelian block are added wholesale; each irreducible
    factor contributes a one-dimensional piece exactly when it carries a
    bi-invariant orthogonal complex structure.
    """
    from .structure import decompose

    dec = decompose(L, tol)
    basis = []
    data = []
    acols = dec.abelian.columns
    for i in range(acols.shape[1]):
        for j in range(i + 1, acols.shape[1]):
            basis.append(_normalize(_wedge_chain([acols[:, i], acols[:, j]])))
    for factor in dec.factors:
        if not factor.has_complex_structure:
            continue
        ff = factor.frame
        p = factor.dim
        pv = ff.nv
        jmat = factor.J
        alpha2 = jmat[:pv, :pv]
        alpha0 = 3.0 * jmat[pv:, pv:]
        form_f = Form(p, 2)
        for a in range(pv):
            for b in range(a + 1, pv):
                form_f = form_f + alpha2[b, a] * Form.basis(p, 2, (a, b))
        for s in range(p - pv):
            for t in range(s + 1, p - pv):
                form_f = form_f + alpha0[t, s] * Form.basis(p, 2, (pv + s, pv + t))
        basis.append(_normalize(_factor_to_ambient(form_f, factor)))
        data.append(Killing2Data(alpha2=alpha2, alpha0=alpha0))
    space = KillingSpace(degree=2, basis=basis, method="structured",
                         algebra_ref=L.name)
    return space, data


def solve_killing3(L: MetricLieAlgebra, tol=DEFAULT_TOL):
    """Structured solver for degree 3.

    Each naturally reductive factor contributes the form whose mixed part
    is the j-map itself and whose z-part doubles the compact bracket.
    """
    from .structure import decompose

    dec = decompose(L, tol)
    basis = []
    data = []
    acols = dec.abelian.columns
    d = acols.shape[1]
    for t in basis_tuples(d, 3):
        basis.append(_normalize(_wedge_chain([acols[:, i] for i in t])))
    for factor in dec.factors:
        if not factor.naturally_reductive:
            continue
        ff = factor.frame
        p = factor.dim
        pv = ff.nv
        m = ff.nz
        cb = factor.compact_bracket
        form_f = Form(p, 3)
        for t in range(m):
            jt = ff.j_matrices[t]
            for a in range(pv):
                for b in range(a + 1, pv):
                    if jt[b, a] != 0.0:
                        form_f = form_f + jt[b, a] * Form.basis(p, 3, (a, b, pv + t))
        gamma = Form(p, 3)
        for s in range(m):
            for t in range(s + 1, m):
                for u in range(t + 1, m):
                    coeff = 2.0 * cb[s, t, u]
                    if coeff != 0.0:
                        gamma = gamma + coeff * Form.basis(
                            p, 3, (pv + s, pv + t, pv + u)
                        )
        form_f = form_f + gamma
        basis.append(_normalize(_factor_to_ambient(form_f, factor)))
        data.append(Killing3Data(gamma=gamma))
    space = KillingSpace(degree=3, basis=basis, method="structured",
                        algebra_ref=L.name)
    return space, data
