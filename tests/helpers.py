"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the library's own code
paths: the Koszul-formula connection is evaluated from its raw definition,
the component-equation checks for Killing 2- and 3-forms extract the
matrices straight out of the coefficient tables, the intertwiner
reference solves the full bracket system, and the brute-oracle reference
takes the nullspace of the full stacked Killing operator (both sharing
only the rank policy of `nullspace`).
"""
import numpy as np

from nilkilling import Form, MetricLieAlgebra, nabla_matrix
from nilkilling.forms import basis_tuples, contract, lie_diff, skew_extend
from nilkilling.killing import _normalize
from nilkilling.linalg import nullspace


def koszul_nabla(F, x, y):
    """Raw Koszul formula for left-invariant fields in an orthonormal frame.

    g(nabla_x y, w) = 1/2 (g([x,y],w) - g([y,w],x) + g([w,x],y)).
    """
    c = F.constants
    t1 = np.einsum("i,j,ijw->w", x, y, c)
    t2 = np.einsum("j,i,jwi->w", y, x, c)
    t3 = np.einsum("i,j,wij->w", x, y, c)
    return 0.5 * (t1 - t2 + t3)


def random_spd_metric(n, rng, shift=0.5):
    a = rng.normal(size=(n, n))
    return a.T @ a + shift * np.eye(n)


def with_metric(L, gram, name=None):
    return MetricLieAlgebra(
        L.dim, list(L.basis_names), L.structure_constants, gram,
        name=name or (L.name + "-metric"),
    )


def change_user_basis(L, P, name=None):
    """Isometrically isomorphic algebra in the user basis with columns P."""
    br = np.einsum("ia,jb,ijk->abk", P, P, L.structure_constants)
    c_new = np.einsum("abk,kc->abc", br, np.linalg.inv(P).T)
    g_new = P.T @ L.gram @ P
    return MetricLieAlgebra(
        L.dim, list(L.basis_names), c_new, g_new,
        name=name or (L.name + "-scrambled"),
    )


def random_two_step(nv, nz, rng, scale=1.0):
    """Orthonormal-basis algebra on v + z from Gaussian skew matrices j_t:
    the z_t-component of [e_a, e_b] is j_t[a, b] for e_a, e_b in v."""
    n = nv + nz
    c = np.zeros((n, n, n))
    for t in range(nz):
        c[:nv, :nv, nv + t] = scale * random_skew(nv, rng)
    return MetricLieAlgebra(n, [f"e{i}" for i in range(n)], c, np.eye(n),
                            name=f"random({nv},{nz})")


def full_intertwiners(constants, tol, symmetric):
    """Reference for {S : S[x,y] = [Sx,y]}: the full p^3 x p(p+-1)/2 system.

    Ignores the v + z grading: every symmetric (or skew) matrix is an
    unknown and every bracket component an equation.  Returns a
    Frobenius-orthonormal basis of the solutions.
    """
    p = constants.shape[0]
    rows, cols = np.triu_indices(p, 0 if symmetric else 1)
    if not rows.size:
        return []
    basis = np.zeros((rows.size, p, p))
    params = np.arange(rows.size)
    basis[params, rows, cols] = 1.0
    basis[params, cols, rows] = 1.0 if symmetric else -1.0
    basis /= np.linalg.norm(basis, axis=(1, 2))[:, None, None]
    system = np.einsum("qpk,abk->qabp", basis, constants)
    system -= np.einsum("qca,cbp->qabp", basis, constants)
    null = nullspace(system.reshape(rows.size, -1).T, tol)
    return list(np.einsum("qr,qij->rij", null, basis))


def brute_reference(L, F, k, tol):
    """Reference for the brute oracle: the full stacked Killing operator.

    One column per basis k-form e^t, stacking over the frame directions a
    the defects nabla_a e^t - (e_a -| d e^t)/(k+1), all n*C(n,k) rows at
    once, unit-scaled by the largest frame constant.  Returns the
    normalized forms of its nullspace, the basis the oracle reports.
    """
    n = F.n
    eye = np.eye(n)
    nmats = [nabla_matrix(F, eye[:, a]) for a in range(n)]
    cols = []
    for t in basis_tuples(n, k):
        w = Form.basis(n, k, t)
        dw = lie_diff(L, F, w) if k < n else None
        col = []
        for a in range(n):
            nab = skew_extend(nmats[a], w)
            dp = contract(eye[:, a], dw) if dw is not None else Form(n, k)
            col.append((nab - (1.0 / (k + 1)) * dp).vec)
        cols.append(np.concatenate(col))
    op = np.array(cols).T
    scale = np.abs(F.constants).max()
    null = nullspace(op / scale if scale else op, tol)
    return [_normalize(Form(n, k, v)) for v in null.T]


def random_form(n, k, rng):
    return Form(n, k, rng.normal(size=len(basis_tuples(n, k))))


def random_skew(n, rng):
    a = rng.normal(size=(n, n))
    return a - a.T


def two_form_matrices(F, form):
    """(alpha2 on v, alpha0 on z) of a 2-form, via alpha(x, y) = g(Ax, y)."""
    nv, nz = F.nv, F.nz
    a2 = np.zeros((nv, nv))
    a0 = np.zeros((nz, nz))
    for (i, j), c in form.terms():
        if j < nv:
            a2[j, i] = c
            a2[i, j] = -c
        elif i >= nv:
            a0[j - nv, i - nv] = c
            a0[i - nv, j - nv] = -c
    return a2, a0


def kill2_residual(F, form):
    """Max residual of j(alpha0 z) = 3 alpha2 j(z) = -3 j(z) alpha2."""
    a2, a0 = two_form_matrices(F, form)
    worst = 0.0
    for t in range(F.nz):
        lhs = sum(a0[s, t] * F.j_matrices[s] for s in range(F.nz))
        lhs = lhs if not np.isscalar(lhs) else np.zeros((F.nv, F.nv))
        r1 = np.abs(lhs - 3.0 * a2 @ F.j_matrices[t]).max(initial=0.0)
        r2 = np.abs(lhs + 3.0 * F.j_matrices[t] @ a2).max(initial=0.0)
        worst = max(worst, r1, r2)
    return worst


def beta_coefficients(F, form):
    """Least-squares expansion of the 2-v-leg part of a 3-form in the j maps.

    Returns (B, residual) with beta(z_t) = sum_s B[s, t] * J_s.
    """
    nv, nz = F.nv, F.nz
    betas = [np.zeros((nv, nv)) for _ in range(nz)]
    for (i, j, k), c in form.terms():
        if j < nv <= k:
            t = k - nv
            betas[t][j, i] = c
            betas[t][i, j] = -c
    a = np.array([jt.ravel() for jt in F.j_matrices]).T
    b = np.zeros((nz, nz))
    worst = 0.0
    for t in range(nz):
        coef, *_ = np.linalg.lstsq(a, betas[t].ravel(), rcond=None)
        b[:, t] = coef
        worst = max(worst, float(np.abs(a @ coef - betas[t].ravel()).max(initial=0.0)))
    return b, worst
