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
from math import comb

import numpy as np

from .algebra import AdaptedFrame, MetricLieAlgebra, connection
from .errors import InternalInvariantViolation, WorkingSetTooLarge
from .forms import (
    Form,
    _contractions,
    _d_images,
    _derivation_matrix,
    _derive,
    _legs,
    _same_dimension,
    _skew_map,
    _wedge_table,
    skew_extend,
    transform,
)
from .linalg import DEFAULT_TOL, _unit_scaled, nullspace
from .structure import Decomposition, decompose


# the brute oracle refuses a request whose estimated working set
# (`_brute_bytes`) is larger than this
BRUTE_BUDGET_BYTES = 4 * 2**30


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
    """`form` at unit norm, its first clear coefficient positive.  The norm
    is read off the coefficients divided by the power of two above their
    largest: exact, and free of overflow and underflow."""
    peak = np.abs(form.vec).max(initial=0.0)
    if peak == 0.0:
        return form
    unit = np.ldexp(form.vec, -np.frexp(peak)[1])
    out = Form(form.n, form.degree, unit * (1.0 / np.linalg.norm(unit)))
    lead = out.vec[np.abs(out.vec) > DEFAULT_TOL / 10]
    if lead.size and lead[0] < 0:
        out = -out
    return out


def _nablas(F: AdaptedFrame, omega: Form):
    """The n forms nabla_{e_a} omega, one per frame direction."""
    _same_dimension(F.n, omega.n)
    return [skew_extend(m, omega) for m in connection(F)]


def _polarized(nablas):
    """P[a, b] = e_a -| nabla_{e_b} omega + e_b -| nabla_{e_a} omega, (n, n, C(n, k-1)).

    `nablas` are the n forms nabla_{e_a} omega; P vanishes exactly when
    nabla omega is totally skew, i.e. when omega is Killing.
    """
    half = np.array([_contractions(nab) for nab in nablas])   # [b, a] = e_a -| nabla_b
    return half + half.transpose(1, 0, 2)


def killing_residual(F: AdaptedFrame, omega: Form):
    """Max deviation from the Killing equation over the frame.

    Computes both the defining residual (covariant derivative vs the scaled
    contraction of the differential) and the polarized self-contraction
    residual, and checks that the two verdicts agree.
    """
    nablas = _nablas(F, omega)
    defects = np.array([nab.vec for nab in nablas])
    if omega.degree < F.n:      # d of a top-degree form is zero
        d_omega = _derive(_d_images(F), 2, omega)
        defects -= (1.0 / (omega.degree + 1)) * _contractions(d_omega)
    res1 = np.linalg.norm(defects, axis=1).max()
    res2 = np.linalg.norm(_polarized(nablas), axis=2).max()
    # both residuals are bilinear in the constants and omega
    thresh = DEFAULT_TOL * np.abs(F.constants).max() * omega.norm()
    if (res1 <= thresh) != (res2 <= 10 * thresh):
        raise InternalInvariantViolation(
            "Killing verdicts disagree: residuals %.3e vs %.3e" % (res1, res2)
        )
    return float(res1)


def _brute_bytes(n, k):
    """Estimated peak bytes of `killing_nullspace_brute` at dimension n and
    degree k: measured peaks above the interpreter baseline, with glibc's
    mmap threshold at 128 KiB, are 4.6x (h13 at k = 4), 4.0x (h15 at k = 4)
    and 4.5x (h15 at k = 5) the C(n,k)^2 + C(n,k) C(n,k+1) floats of the
    basis forms and their differentials."""
    c = comb(n, k)
    return 5 * 8 * (c * c + c * comb(n, k + 1))


def killing_nullspace_brute(L, F: AdaptedFrame, k, tol=DEFAULT_TOL) -> KillingSpace:
    """Nullspace of the stacked Killing operator; oracle for any degree.

    The operator stacks one C(n,k) x C(n,k) block per frame direction, the
    defects nabla_a e^t - (e_a -| d e^t)/(k+1) of the basis k-forms e^t,
    the rows of the identity.  The nabla half of block a checks the
    connection slice nabla_a skew once (`forms._skew_map`, the rule of
    `skew_extend`) and applies it to every basis form by `forms._derive`.
    The differentials of the basis forms, scaled by 1/(k+1), are the
    columns of one C(n,k+1) x C(n,k) matrix, scattered at once from the
    rows d(e^i) by `forms._derivation_matrix`, and e_a -| of it is one
    gather over the (1, k) wedge table.  Each block is folded into a
    running triangular factor R of the stack (row-blocked QR), so the stack
    itself never exists; R has its singular values, so the rank decision on
    R is the decision on the operator.  A request whose estimated working
    set exceeds BRUTE_BUDGET_BYTES raises WorkingSetTooLarge before
    anything is allocated.
    """
    n = F.n
    need = _brute_bytes(n, k)
    if need > BRUTE_BUDGET_BYTES:
        raise WorkingSetTooLarge(
            "brute-force working set of about %.3g GiB at n = %d, degree %d "
            "exceeds the %.3g GiB budget"
            % (need / 2**30, n, k, BRUTE_BUDGET_BYTES / 2**30))
    c = comb(n, k)
    forms = [Form(n, k, row) for row in np.eye(c)]
    if k < n:       # d of a top-degree form is zero
        dmat = _derivation_matrix(_d_images(F), 2, k)
        dmat *= 1.0 / (k + 1)
        target, sign = _wedge_table(n, 1, k)
    scale = np.abs(F.constants).max()
    r = np.zeros((0, c))
    for a, nmat in enumerate(connection(F)):
        nmat = _skew_map(nmat, n)   # checked once, applied to every basis form
        # reshaped so that k > n, with no basis forms, gives a 0 x 0 block
        block = np.array([_derive(nmat.T, 1, w).vec for w in forms]).reshape(c, c).T
        if k < n:
            block -= sign[a][:, None] * dmat[target[a]]
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
    pol = _polarized(_nablas(F, omega))
    v, z = slice(0, F.nv), slice(F.nv, F.n)
    families = {"pp1": pol[v, v], "pp2": pol[z, z], "pp3": 2.0 * pol[v, z]}
    # v-legs of each (k-1)-tuple; a 0-form has no families, and P one column
    vlegs = (_legs(F.n, max(omega.degree - 1, 0)) < F.nv).sum(axis=1)
    return {(name, l): float(np.linalg.norm(p[..., vlegs == l], axis=2).max(initial=0.0))
            for l in range(omega.degree) for name, p in families.items()}


def is_parallel(F: AdaptedFrame, omega: Form) -> bool:
    """True iff the covariant derivative vanishes in every frame direction."""
    nablas = np.array([nab.vec for nab in _nablas(F, omega)])
    worst = np.linalg.norm(nablas, axis=1).max()
    return bool(worst <= DEFAULT_TOL * np.abs(F.constants).max() * omega.norm())


def _form_from_tensor(tensor) -> Form:
    """The form whose coefficients are the tensor's increasing-index entries."""
    p, k = tensor.shape[0], tensor.ndim
    return Form(p, k, tensor[tuple(_legs(p, k).T)])


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
    # half the form, unit-scaled: `structured_killing` normalizes it, and
    # twice a bracket near the largest float would overflow
    tensor = np.zeros((p, p, p))
    tensor[:pv, :pv, pv:] = 0.5 * ff.constants[:pv, :pv, pv:]
    tensor[pv:, pv:, pv:] = factor.compact_bracket
    return _form_from_tensor(_unit_scaled(tensor))


def _check_structured_degree(k):
    """Refuse, with ValueError, a degree the structure theorem does not cover."""
    if k not in (2, 3):
        raise ValueError("structured solvers exist for degrees 2 and 3 only")


def structured_killing(dec: Decomposition, k) -> KillingSpace:
    """Killing k-forms, k = 2 or 3, read off a decomposition.

    By the structure theorem they are every k-wedge of the abelian block
    plus one form per factor carrying one: for k = 2 a factor with a
    bi-invariant orthogonal complex structure J (alpha2 = J|_v, alpha0 =
    3 J|_z), for k = 3 a naturally reductive one (the j-map plus twice its
    `compact_bracket`).  The abelian block is the last d frame vectors, so
    its k-wedges are the unit forms whose legs all lie there; each factor
    form is pulled back to the ambient frame and normalized.
    """
    _check_structured_degree(k)
    factor_part = _killing2_part if k == 2 else _killing3_part
    n = dec.frame.n
    abelian = np.flatnonzero((_legs(n, k) >= n - dec.d).all(axis=1))
    units = np.zeros((abelian.size, comb(n, k)))
    units[np.arange(abelian.size), abelian] = 1.0
    basis = [Form(n, k, row) for row in units]
    for factor in dec.factors:
        form_f = factor_part(factor)
        if form_f is not None:
            basis.append(_normalize(transform(form_f, factor.columns.T)))
    return KillingSpace(degree=k, basis=basis)


# The public route is structured_killing(decompose(L), k).  These two stay
# because the benchmark workloads call them and its tracer patches them.
def solve_killing2(L: MetricLieAlgebra, tol=DEFAULT_TOL):
    """(structured_killing(decompose(L), 2), the decomposition)."""
    dec = decompose(L, tol)
    return structured_killing(dec, 2), dec


def solve_killing3(L: MetricLieAlgebra, tol=DEFAULT_TOL):
    """(structured_killing(decompose(L), 3), the decomposition)."""
    dec = decompose(L, tol)
    return structured_killing(dec, 3), dec
