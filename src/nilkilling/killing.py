"""The left-invariant Killing equation: brute-force and structured solvers.

The brute-force path reduces the linear operator behind the defining
equation to a triangular factor, one frame direction at a time, and takes
its SVD nullspace; it is the independent oracle for the structured
degree-2 and degree-3 solvers, which go through the de Rham decomposition
and the classification of the irreducible factors.  The component table
of the equation in the v/z bigrading is read off the polarized equation
P(x, y) = x -| nabla_y omega + y -| nabla_x omega, one bigrade at a time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AdaptedFrame, MetricLieAlgebra, nabla_matrix
from .errors import InternalInvariantViolation
from .forms import (
    Form,
    _contractions,
    _legs,
    basis_tuples,
    contract,
    lie_diff,
    skew_extend,
    transform,
)
from .linalg import DEFAULT_TOL, nullspace
from .structure import Decomposition, decompose


@dataclass(frozen=True)
class KillingSpace:
    degree: int
    basis: list

    @property
    def dim(self):
        return len(self.basis)

    def matrix(self):
        """Coefficient vectors as columns, for span comparisons."""
        if not self.basis:
            return np.zeros((0, 0))
        return np.array([f.vec for f in self.basis]).T


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


def _polarized(nablas):
    """P[a, b] = e_a -| nabla_{e_b} omega + e_b -| nabla_{e_a} omega, (n, n, C(n, k-1)).

    `nablas` are the n forms nabla_{e_a} omega; P vanishes exactly when
    nabla omega is totally skew, i.e. when omega is Killing.
    """
    half = np.array([_contractions(nab) for nab in nablas])   # [b, a] = e_a -| nabla_b
    return half + half.transpose(1, 0, 2)


def killing_residual(L, F: AdaptedFrame, omega: Form, tol=DEFAULT_TOL):
    """Max deviation from the Killing equation over the frame.

    Computes both the defining residual (covariant derivative vs the scaled
    contraction of the differential) and the polarized self-contraction
    residual, and checks that the two verdicts agree.
    """
    nablas = [skew_extend(m, omega) for m in _connections(F)]
    defects = np.array([nab.vec for nab in nablas])
    if omega.degree < F.n:      # d of a top-degree form is zero
        defects -= (1.0 / (omega.degree + 1)) * _contractions(lie_diff(L, F, omega))
    res1 = np.linalg.norm(defects, axis=1).max()
    res2 = np.linalg.norm(_polarized(nablas), axis=2).max()
    # both residuals are bilinear in the constants and omega
    thresh = tol * np.abs(F.constants).max() * omega.norm()
    if (res1 <= thresh) != (res2 <= 10 * thresh):
        raise InternalInvariantViolation(
            "Killing verdicts disagree: residuals %.3e vs %.3e" % (res1, res2)
        )
    return float(res1)


def killing_nullspace_brute(L, F: AdaptedFrame, k, tol=DEFAULT_TOL) -> KillingSpace:
    """Nullspace of the stacked Killing operator; oracle for any degree.

    The operator stacks one C(n,k) x C(n,k) block per frame direction, the
    defects nabla_a e^t - (e_a -| d e^t)/(k+1) of the basis k-forms.  Each
    block is folded into a running triangular factor R of the stack
    (row-blocked QR), so the stack itself never exists; R has its singular
    values, so the rank decision on R is the decision on the operator.
    """
    n = F.n
    eye = np.eye(n)
    forms = [Form.basis(n, k, t) for t in basis_tuples(n, k)]
    # d of a top-degree form is zero
    diffs = [(1.0 / (k + 1)) * lie_diff(L, F, w) for w in forms] if k < n else []
    scale = np.abs(F.constants).max()
    r = np.zeros((0, len(forms)))
    for a, nmat in enumerate(_connections(F)):
        block = np.array([skew_extend(nmat, w).vec for w in forms]).T
        if diffs:
            block -= np.array([contract(eye[:, a], dw).vec for dw in diffs]).T
        if scale:
            block /= scale      # unit-scaled in place (see linalg), linear in c
        r = np.linalg.qr(np.vstack([r, block]), mode="r")
    null = nullspace(r, tol)
    basis = [_normalize(Form(n, k, null[:, i])) for i in range(null.shape[1])]
    return KillingSpace(degree=k, basis=basis)


def killgen_residuals(F: AdaptedFrame, omega: Form):
    """Per-bidegree residual table of the three component equations.

    Keys are ('pp1', l), ('pp2', l), ('pp3', l) for l = 0..k-1.  The three
    families are the bigrade-l parts of the polarized equation P: pp1 is the
    max of |P(x, y)_l| over frame vectors x, y in v, pp2 that of |P(z, w)_l|
    over z, w in z, and pp3 that of 2|P(x, z)_l| over x in v and z in z.
    Every value of P is read, so the table is all zero exactly when omega
    is Killing.
    """
    pol = _polarized([skew_extend(m, omega) for m in _connections(F)])
    v, z = slice(0, F.nv), slice(F.nv, F.n)
    families = {"pp1": pol[v, v], "pp2": pol[z, z], "pp3": 2.0 * pol[v, z]}
    # v-legs of each (k-1)-tuple; a 0-form has no families, and P one column
    vlegs = (_legs(F.n, max(omega.degree - 1, 0)) < F.nv).sum(axis=1)
    return {(name, l): float(np.linalg.norm(p[..., vlegs == l], axis=2).max(initial=0.0))
            for l in range(omega.degree) for name, p in families.items()}


def is_parallel(F: AdaptedFrame, omega: Form, tol=DEFAULT_TOL) -> bool:
    """True iff the covariant derivative vanishes in every frame direction."""
    nablas = np.array([skew_extend(m, omega).vec for m in _connections(F)])
    worst = np.linalg.norm(nablas, axis=1).max()
    return bool(worst <= tol * np.abs(F.constants).max() * omega.norm())


def _form_from_tensor(tensor) -> Form:
    """The form whose coefficients are the tensor's increasing-index entries."""
    p, k = tensor.shape[0], tensor.ndim
    return Form(p, k, tensor[tuple(np.array(basis_tuples(p, k)).T)])


def _killing2_part(factor):
    if not factor.has_complex_structure:
        return None
    J, pv = factor.J, factor.frame.nv
    tensor = np.zeros((factor.dim, factor.dim))
    tensor[:pv, :pv], tensor[pv:, pv:] = J[:pv, :pv].T, 3.0 * J[pv:, pv:].T
    return _form_from_tensor(tensor)


def _killing3_part(factor):
    if not factor.naturally_reductive:
        return None
    ff = factor.frame
    pv, p = ff.nv, factor.dim
    tensor = np.zeros((p, p, p))
    tensor[:pv, :pv, pv:] = ff.constants[:pv, :pv, pv:]
    tensor[pv:, pv:, pv:] = 2.0 * factor.compact_bracket
    return _form_from_tensor(tensor)


def structured_killing(dec: Decomposition, k) -> KillingSpace:
    """Killing k-forms, k = 2 or 3, read off a decomposition.

    By the structure theorem they are every k-wedge of the abelian block
    plus one form per factor carrying one: for k = 2 a factor with a
    bi-invariant orthogonal complex structure J (alpha2 = J|_v, alpha0 =
    3 J|_z), for k = 3 a naturally reductive one (the j-map plus twice its
    `compact_bracket`).  Each is pulled back to the ambient frame and
    normalized.
    """
    if k not in (2, 3):
        raise ValueError(f"structured Killing forms exist for degrees 2 and 3, not {k}")
    factor_part = _killing2_part if k == 2 else _killing3_part
    d = dec.d
    basis = [_normalize(transform(Form.basis(d, k, t), dec.abelian.T))
             for t in basis_tuples(d, k)]
    for factor in dec.factors:
        form_f = factor_part(factor)
        if form_f is not None:
            basis.append(_normalize(transform(form_f, factor.columns.T)))
    return KillingSpace(degree=k, basis=basis)


def solve_killing2(L: MetricLieAlgebra, tol=DEFAULT_TOL):
    """(structured_killing(decompose(L), 2), the decomposition)."""
    dec = decompose(L, tol)
    return structured_killing(dec, 2), dec


def solve_killing3(L: MetricLieAlgebra, tol=DEFAULT_TOL):
    """(structured_killing(decompose(L), 3), the decomposition)."""
    dec = decompose(L, tol)
    return structured_killing(dec, 3), dec
