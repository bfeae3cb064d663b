"""The left-invariant Killing equation: brute-force and structured solvers.

The brute-force path reduces the linear operator behind the defining
equation to a triangular factor, one frame direction at a time, and takes
its SVD nullspace; it is the independent oracle for the structured
degree-2 and degree-3 solvers, which go through the de Rham decomposition
and the classification of the irreducible factors.
"""
from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Killing3Data:
    gamma: Form                  # degree-3 form supported on the z legs


def _normalize(form: Form) -> Form:
    nrm = form.norm()
    if nrm == 0.0:
        return form
    out = form * (1.0 / nrm)
    lead = out.vec[np.abs(out.vec) > DEFAULT_TOL / 10]
    if lead.size and lead[0] < 0:
        out = -out
    return out


def _connections(F: AdaptedFrame):
    """The n connection matrices nabla_{e_a}, one per frame direction."""
    eye = np.eye(F.n)
    return [nabla_matrix(F, eye[:, a]) for a in range(F.n)]


def _differential(L, F: AdaptedFrame, omega: Form):
    """d omega, or None for a top-degree form, whose differential is zero."""
    return lie_diff(L, F, omega) if omega.degree < F.n else None


def _killing_terms(nmat, x, omega: Form, d_omega):
    """The Killing equation of omega in the frame direction x.

    Returns nabla_x omega and the defect nabla_x omega - (x -| d omega)/(k+1),
    for the connection matrix `nmat` of x and `d_omega` from `_differential`.
    """
    nab = skew_extend(nmat, omega)
    if d_omega is None:
        return nab, nab
    return nab, nab - (1.0 / (omega.degree + 1)) * contract(x, d_omega)


def killing_residual(L, F: AdaptedFrame, omega: Form, tol=DEFAULT_TOL):
    """Max deviation from the Killing equation over the frame.

    Computes both the defining residual (covariant derivative vs the scaled
    contraction of the differential) and the polarized self-contraction
    residual, and checks that the two verdicts agree.
    """
    n = F.n
    eye = np.eye(n)
    d_omega = _differential(L, F, omega)
    nablas, defects = zip(*(_killing_terms(m, eye[:, a], omega, d_omega)
                            for a, m in enumerate(_connections(F))))
    res1 = max(dft.norm() for dft in defects)
    res2 = max((contract(eye[:, a], nablas[b])
                + contract(eye[:, b], nablas[a])).norm()
               for a in range(n) for b in range(a, n))
    # both residuals are bilinear in the constants and omega
    thresh = tol * np.abs(F.constants).max() * omega.norm()
    if (res1 <= thresh) != (res2 <= 10 * thresh):
        raise InternalInvariantViolation(
            "Killing verdicts disagree: residuals %.3e vs %.3e" % (res1, res2)
        )
    return res1


def killing_nullspace_brute(L, F: AdaptedFrame, k, tol=DEFAULT_TOL) -> KillingSpace:
    """Nullspace of the stacked Killing operator; oracle for any degree.

    The operator stacks one C(n,k) x C(n,k) block per frame direction, the
    defects of the basis k-forms.  Each block is folded into a running
    triangular factor R of the stack (row-blocked QR), so the stack itself
    never exists; R has its singular values, so the rank decision on R is
    the decision on the operator.
    """
    n = F.n
    eye = np.eye(n)
    forms = [Form.basis(n, k, t) for t in basis_tuples(n, k)]
    diffs = [_differential(L, F, w) for w in forms]
    scale = np.abs(F.constants).max()
    r = np.zeros((0, len(forms)))
    for a, nmat in enumerate(_connections(F)):
        block = np.array([_killing_terms(nmat, eye[:, a], w, dw)[1].vec
                          for w, dw in zip(forms, diffs)]).T
        if scale:
            block /= scale      # unit-scaled in place (see linalg), linear in c
        r = np.linalg.qr(np.vstack([r, block]), mode="r")
    null = nullspace(r, tol)
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
    worst = max(skew_extend(m, omega).norm() for m in _connections(F))
    return worst <= tol * np.abs(F.constants).max() * omega.norm()


def _form_from_tensor(tensor) -> Form:
    """The form whose coefficients are the tensor's increasing-index entries."""
    p, k = tensor.shape[0], tensor.ndim
    return Form(p, k, tensor[tuple(np.array(basis_tuples(p, k)).T)])


def _solve_structured(L, tol, k, factor_part):
    """Shared skeleton of the structured solvers.

    Every k-wedge of the abelian block, then one form per factor for which
    `factor_part` returns a (form, data) pair; each form is pulled back to
    the ambient frame and normalized.
    """
    from .structure import decompose

    dec = decompose(L, tol)
    acols = dec.abelian.columns
    d = acols.shape[1]
    basis = [_normalize(transform(Form.basis(d, k, t), acols.T))
             for t in basis_tuples(d, k)]
    data = []
    for factor in dec.factors:
        part = factor_part(factor)
        if part is not None:
            cols = factor.columns @ factor.frame.frame
            basis.append(_normalize(transform(part[0], cols.T)))
            data.append(part[1])
    return KillingSpace(degree=k, basis=basis, method="structured",
                        algebra_ref=L.name), data


def _killing2_part(factor):
    if not factor.has_complex_structure:
        return None
    J, pv = factor.J, factor.frame.nv
    data = Killing2Data(alpha2=J[:pv, :pv], alpha0=3.0 * J[pv:, pv:])
    tensor = np.zeros((factor.dim, factor.dim))
    tensor[:pv, :pv], tensor[pv:, pv:] = data.alpha2.T, data.alpha0.T
    return _form_from_tensor(tensor), data


def _killing3_part(factor):
    if not factor.naturally_reductive:
        return None
    ff = factor.frame
    pv, m, p = ff.nv, ff.nz, factor.dim
    jmats = np.array(ff.j_matrices).reshape(m, pv, pv)
    tensor = np.zeros((p, p, p))
    tensor[:pv, :pv, pv:] = jmats.transpose(2, 1, 0)
    tensor[pv:, pv:, pv:] = 2.0 * factor.compact_bracket
    form_f = _form_from_tensor(tensor)
    return form_f, Killing3Data(gamma=bigrade(ff, form_f, 0))


def solve_killing2(L: MetricLieAlgebra, tol=DEFAULT_TOL):
    """Structured solver for degree 2.

    Wedges on the abelian block are added wholesale; each irreducible
    factor contributes a one-dimensional piece exactly when it carries a
    bi-invariant orthogonal complex structure J: alpha2 = J|_v, alpha0 = 3 J|_z.
    """
    return _solve_structured(L, tol, 2, _killing2_part)


def solve_killing3(L: MetricLieAlgebra, tol=DEFAULT_TOL):
    """Structured solver for degree 3.

    Each naturally reductive factor contributes the form whose mixed part
    is the j-map itself and whose z-part doubles the compact bracket.
    """
    return _solve_structured(L, tol, 3, _killing3_part)
