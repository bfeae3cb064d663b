"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the library's own code
paths: the Koszul-formula connection is evaluated from its raw definition
and gives a second differential through the torsion-free formula, with
its shuffle signs from `perm_sign` (permutation parity by cycles) and its
own index lookup, the polarized Killing equation is tabulated pair by
pair from that connection and a `perm_sign` contraction, the
component-equation checks for Killing 2- and 3-forms extract the
matrices straight out of the coefficient tables, the intertwiner
references solve the full bracket system and tabulate the graded one
bracket by bracket, and the brute-oracle reference
assembles the full stacked Killing operator from `koszul_nabla` and
`perm_sign` alone and takes its nullspace.  Those references share only
the rank policy of `nullspace` with the library, and the brute reference
also the `basis_tuples` order and the oracle's `_normalize` sign rule,
no exterior-algebra kernel.  The exact certificates assemble the same
operator, times 2(k+1), as an integer matrix from the raw brackets and
`perm_sign`, and take its rank modulo a prime; the factor-count
certificate does the same for the graded symmetric commutant system,
read off the raw brackets.  The representation ladder
(Im H on H, spin-2 and spin-1 + spin-2 of so(3)) is input, built with the
library's `from_representation`.
"""
from functools import lru_cache

import numpy as np

from nilkilling import Form, MetricLieAlgebra, from_representation
from nilkilling.forms import basis_tuples
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


def perm_sign(legs):
    """Parity of the permutation that sorts `legs`, by its cycles; 0 if a
    leg repeats."""
    legs = list(legs)
    if len(set(legs)) != len(legs):
        return 0
    order = sorted(range(len(legs)), key=legs.__getitem__)
    seen, cycles = set(), 0
    for start in range(len(legs)):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = order[i]
    return -1 if (len(legs) - cycles) % 2 else 1


@lru_cache(maxsize=None)
def _positions(n, k):
    return {t: i for i, t in enumerate(basis_tuples(n, k))}


def _signed_index(n, legs):
    """(position of sorted(legs) among the basis tuples, perm_sign(legs))."""
    sign = perm_sign(legs)
    return (_positions(n, len(legs))[tuple(sorted(legs))] if sign else 0), sign


def koszul_covariant(F, x, omega):
    """nabla_x omega from `koszul_nabla`, for left-invariant omega:
    (nabla_x omega)_t = -sum_j omega(e_t1, ..., nabla_x e_tj, ..., e_tk)."""
    n = omega.n
    nab = np.array([koszul_nabla(F, x, e) for e in np.eye(n)]).T

    def value(legs):
        pos, sign = _signed_index(n, legs)
        return sign * omega.vec[pos]

    vec = [-sum(nab[m, b] * value(t[:j] + (m,) + t[j + 1:])
                for j, b in enumerate(t) for m in range(n))
           for t in basis_tuples(n, omega.degree)]
    return Form(n, omega.degree, vec)


def torsion_free_d(F, omega):
    """Reference differential sum_i e^i ^ nabla_{e_i} omega, valid for the
    torsion-free Levi-Civita connection."""
    n = omega.n
    out = Form(n, omega.degree + 1)
    for i, x in enumerate(np.eye(n)):
        for t, c in koszul_covariant(F, x, omega).terms():
            pos, sign = _signed_index(n, (i,) + t)
            out.vec[pos] += sign * c
    return out


def contract_reference(i, omega):
    """e_i -| omega with the signs of `perm_sign`:
    (e_i -| omega)_t = omega(e_i, e_t1, ..., e_t(k-1))."""
    n = omega.n
    vec = []
    for t in basis_tuples(n, omega.degree - 1):
        pos, sign = _signed_index(n, (i,) + t)
        vec.append(sign * omega.vec[pos])
    return Form(n, omega.degree - 1, vec)


def polarized_reference(F, omega):
    """The polarized equation pair by pair: {(a, b): P(e_a, e_b)} for a <= b,
    P(x, y) = x -| nabla_y omega + y -| nabla_x omega, with nabla from
    `koszul_covariant` and the contraction from `contract_reference`."""
    n = F.n
    nablas = [koszul_covariant(F, x, omega) for x in np.eye(n)]
    return {(a, b): contract_reference(a, nablas[b]) + contract_reference(b, nablas[a])
            for a in range(n) for b in range(a, n)}


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


def commutant_system_reference(constants, pv, symmetric):
    """Reference for the graded commutant system, bracket by bracket.

    `constants` are those of an orthonormal frame whose first `pv` vectors
    span v and the rest the centre z.  Over a Frobenius-orthonormal basis
    of the symmetric (or skew) matrices that are block-diagonal on v + z,
    column q holds the z-part of S_q[x,y] - [S_q x,y] for every pair of
    frame vectors x, y in v.  Returns (system, basis).
    """
    p = constants.shape[0]
    eye = np.eye(p)

    def bracket(x, y):
        return np.einsum("i,j,ijk->k", x, y, constants)

    basis = []
    for lo, hi in ((0, pv), (pv, p)):
        for i in range(lo, hi):
            for j in range(i if symmetric else i + 1, hi):
                s = np.outer(eye[i], eye[j])
                s = s + s.T if symmetric else s - s.T
                basis.append(s / np.linalg.norm(s))
    system = np.zeros((pv * pv * (p - pv), len(basis)))
    for q, s in enumerate(basis):
        rows = [(s @ bracket(x, y) - bracket(s @ x, y))[pv:]
                for x in eye[:pv] for y in eye[:pv]]
        if rows:
            system[:, q] = np.concatenate(rows)
    return system, basis


def killing_operator_reference(F, k):
    """The full stacked Killing operator, one column per basis k-form e^t.

    Row block a (frame direction e_a) holds the defects
    nabla_a e^t - (e_a -| d e^t)/(k+1), all n*C(n,k) rows at once; row
    (a, s) is component s of direction a's defect.  Built from
    `koszul_nabla` and `perm_sign` alone: nabla_a e^t replaces one leg at a
    time, by nabla_a e^m = -sum_b g(nabla_a e_b, e_m) e^b; d e^t is the
    torsion-free sum_a e^a ^ nabla_a e^t; and the contraction is
    (e_a -| eta)_s = perm_sign((a,) + s) eta_{sorted((a,) + s)}, read off
    the terms of d e^t.  That is at most 2 n^2 k `perm_sign` calls per
    column for nabla and d, and k + 1 per term of d e^t.
    """
    n = F.n
    eye = np.eye(n)
    # conn[a, m, b] = g(nabla_{e_a} e_b, e_m)
    conn = np.array([[koszul_nabla(F, x, y) for y in eye] for x in eye])
    conn = conn.transpose(0, 2, 1)
    index = _positions(n, k)
    op = np.zeros((n, len(index), len(index)))
    for col, t in enumerate(basis_tuples(n, k)):
        d = {}
        for a in range(n):
            for j, m in enumerate(t):
                for b in map(int, np.flatnonzero(conn[a, m])):
                    legs = t[:j] + (b,) + t[j + 1:]
                    c = -conn[a, m, b]
                    pos, sign = _signed_index(n, legs)
                    op[a, pos, col] += sign * c
                    sign = perm_sign((a,) + legs)
                    if sign:
                        u = tuple(sorted((a,) + legs))
                        d[u] = d.get(u, 0.0) + sign * c
        for u, c in d.items():
            for p, a in enumerate(u):
                s = u[:p] + u[p + 1:]
                op[a, index[s], col] -= perm_sign((a,) + s) * c / (k + 1)
    return op.reshape(n * len(index), len(index))


def brute_reference(F, k, tol):
    """Reference for the brute oracle: the nullspace of
    `killing_operator_reference`, unit-scaled by the largest frame
    constant, as the normalized forms the oracle reports."""
    op = killing_operator_reference(F, k)
    scale = np.abs(F.constants).max()
    null = nullspace(op / scale if scale else op, tol)
    return [_normalize(Form(F.n, k, v)) for v in null.T]


# the prime of the exact rank certificates: entries stay below p, so a
# product of two of them, p^2 < 2^62, fits an int64
CERTIFICATE_PRIME = 2**31 - 1


def integer_killing_operator(L, k):
    """2(k+1) times the stacked Killing operator in the user basis of L, an
    int64 matrix with the row layout of `killing_operator_reference`.

    L must have the identity metric and integer brackets, so its user basis
    is orthonormal and every entry below is an integer.  Assembled from the
    raw brackets and `perm_sign` alone: 2 g(nabla_a e_b, e_m) =
    c[a,b,m] - c[b,m,a] + c[m,a,b] (Koszul), nabla_a e^m =
    -sum_b g(nabla_a e_b, e_m) e^b replacing one leg at a time, and
    d e^t = sum_j (-1)^j e^t1 ^ ... ^ d e^tj ^ ... ^ e^tk by the Leibniz
    rule from d e^i = -sum_{p<q} c[p,q,i] e^p ^ e^q.
    """
    n, c = L.dim, L.structure_constants
    if not np.array_equal(L.gram, np.eye(n)) or not np.array_equal(c, np.round(c)):
        raise ValueError("needs the identity metric and integer brackets")
    c = c.astype(np.int64)
    conn2 = c.transpose(0, 2, 1) - c.transpose(2, 1, 0) + c.transpose(1, 0, 2)
    index = _positions(n, k)
    op = np.zeros((n, len(index), len(index)), dtype=np.int64)
    for col, t in enumerate(basis_tuples(n, k)):
        for a in range(n):
            for j, m in enumerate(t):
                for b in map(int, np.flatnonzero(conn2[a, m])):
                    pos, sign = _signed_index(n, t[:j] + (b,) + t[j + 1:])
                    op[a, pos, col] -= (k + 1) * sign * conn2[a, m, b]
        d = {}
        for j, i in enumerate(t):
            for p in range(n):
                for q in range(p + 1, n):
                    legs = t[:j] + (p, q) + t[j + 1:]
                    sign = perm_sign(legs)
                    if sign and c[p, q, i]:
                        u = tuple(sorted(legs))
                        d[u] = d.get(u, 0) - (-1) ** j * sign * c[p, q, i]
        for u, coeff in d.items():
            for pos, a in enumerate(u):
                s = u[:pos] + u[pos + 1:]
                op[a, index[s], col] -= 2 * perm_sign((a,) + s) * coeff
    return op.reshape(n * len(index), len(index))


def rank_mod_p(m, p=CERTIFICATE_PRIME):
    """Rank of the integer matrix `m` over the integers mod the prime p, by
    Gaussian elimination; a lower bound for its rank over the rationals."""
    a = np.asarray(m, dtype=np.int64) % p
    rank = 0
    for col in range(a.shape[1]):
        if rank == a.shape[0]:
            break
        rows = rank + np.flatnonzero(a[rank:, col])
        if not rows.size:
            continue
        a[[rank, rows[0]]] = a[[rows[0], rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), p - 2, p) % p
        below = a[rank + 1:]
        below -= np.outer(below[:, col], a[rank]) % p
        below %= p
        rank += 1
    return rank


def integer_commutant_system(L):
    """The graded symmetric commutant system of L as an int64 matrix, with
    its unknowns and the basis indices of ker j.

    L must have the identity metric and integer brackets, and v, z and
    ker j must be spanned by basis vectors.  That is checked, not assumed:
    every bracket lands on basis vectors e_i with ad(e_i) = 0, the ad-maps
    of the other basis vectors are independent (so those e_i span the
    centre z, and the others v = z^perp), and the j-maps of the central
    e_k that some bracket reaches are independent (so the other central
    e_k span ker j), each by `rank_mod_p`, a lower bound for the rank over
    the rationals.  The unknowns are the pairs (i, j), i <= j, both in v or
    both in z minus ker j, standing for E_ij + E_ji; the row of (a, b, s),
    with a, b in v and s in z minus ker j, is the s-component of
    S[e_a, e_b] - [S e_a, e_b], from the raw brackets alone.
    """
    n, c = L.dim, L.structure_constants
    if not np.array_equal(L.gram, np.eye(n)) or not np.array_equal(c, np.round(c)):
        raise ValueError("needs the identity metric and integer brackets")
    c = c.astype(np.int64)
    central = ~c.any(axis=(1, 2))
    v, z = np.flatnonzero(~central), np.flatnonzero(central)
    zj = z[c[:, :, z].any(axis=(0, 1))]
    kerj = np.setdiff1d(z, zj)
    if (c[:, :, v].any() or rank_mod_p(c[v].reshape(v.size, n * n)) < v.size
            or rank_mod_p(c[:, :, zj].reshape(n * n, zj.size).T) < zj.size):
        raise ValueError("v, z or ker j is not spanned by basis vectors")
    pairs = [(i, j) for block in (v, zj) for i in block for j in block if i <= j]
    system = np.zeros((v.size * v.size * zj.size, len(pairs)), dtype=np.int64)
    for col, (i, j) in enumerate(pairs):
        s = np.zeros((n, n), dtype=np.int64)
        s[i, j] += 1
        s[j, i] += 1
        residual = (np.einsum("sk,abk->abs", s, c)
                    - np.einsum("ca,cbs->abs", s, c))
        system[:, col] = residual[np.ix_(v, v, zj)].ravel()
    return system, pairs, kerj


def frame_form_to_user(F, omega):
    """Coefficients, in the user basis, of a frame form whose frame is a
    signed permutation of the user basis (a catalog entry's)."""
    frame = F.frame
    if not (np.isin(frame, (-1.0, 0.0, 1.0)).all()
            and (np.abs(frame).sum(axis=0) == 1).all()):
        raise ValueError("the frame is not a signed permutation")
    axis = np.abs(frame).argmax(axis=0)              # frame vector a = +-e_axis[a]
    flip = frame[axis, np.arange(F.n)]
    out = np.zeros(omega.vec.shape)
    for t, coeff in omega.terms():
        legs = tuple(int(axis[a]) for a in t)
        pos, sign = _signed_index(F.n, legs)
        out[pos] += sign * np.prod(flip[list(t)]) * coeff
    return out


def exact_null_vector(vec):
    """`vec` scaled by its smallest non-zero entry and rounded to int64; a
    vector that the scaling does not make integral raises ValueError."""
    vec = np.asarray(vec, dtype=float)
    support = np.abs(vec) > 1e-9 * np.abs(vec).max()
    scaled = vec / np.abs(vec[support]).min()
    out = np.round(scaled)
    if np.abs(scaled - out).max() > 1e-9 * np.abs(out).max():
        raise ValueError("not an integer vector up to scale")
    return out.astype(np.int64)


def so3_matrices():
    """The rotation generators L_1, L_2, L_3 of so(3) on R^3."""
    l1 = np.zeros((3, 3)); l1[2, 1] = 1.0; l1[1, 2] = -1.0
    l2 = np.zeros((3, 3)); l2[0, 2] = 1.0; l2[2, 0] = -1.0
    l3 = np.zeros((3, 3)); l3[1, 0] = 1.0; l3[0, 1] = -1.0
    return [l1, l2, l3]


def so3_bracket():
    """Structure table of so(3) in the basis of `so3_matrices`."""
    c = np.zeros((3, 3, 3))
    for s, t, u in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        c[s, t, u] = 1.0
        c[t, s, u] = -1.0
    return c


def spin2_matrices():
    """so(3) acting by commutators on the traceless symmetric 3x3 matrices,
    in a Frobenius-orthonormal basis: the spin-2 representation, skew."""
    e = np.eye(3)
    sym = [(np.outer(e[0], e[0]) - np.outer(e[1], e[1])) / np.sqrt(2),
           (np.outer(e[0], e[0]) + np.outer(e[1], e[1])
            - 2 * np.outer(e[2], e[2])) / np.sqrt(6)]
    sym += [(np.outer(e[i], e[j]) + np.outer(e[j], e[i])) / np.sqrt(2)
            for i, j in ((0, 1), (0, 2), (1, 2))]
    return [np.array([[np.sum(a * (g @ b - b @ g)) for b in sym] for a in sym])
            for g in so3_matrices()]


def quaternion_matrices():
    """Left multiplication by i, j, k on H = R^4 (basis 1, i, j, k)."""
    table = {"i": [(1, 1), (0, -1), (3, 1), (2, -1)],
             "j": [(2, 1), (3, -1), (0, -1), (1, 1)],
             "k": [(3, 1), (2, 1), (1, -1), (0, -1)]}
    mats = []
    for unit in "ijk":
        m = np.zeros((4, 4))
        for col, (row, sign) in enumerate(table[unit]):
            m[row, col] = sign
        mats.append(m)
    return mats


def quaternionic_heisenberg():
    """Im H acting on H (n = 7); [i, j] = 2k in Im H."""
    return from_representation(2 * so3_bracket(), quaternion_matrices(),
                               np.eye(3))


def spin2_algebra():
    """spin-2 of so(3) on the traceless symmetric 3x3 matrices (n = 8)."""
    return from_representation(so3_bracket(), spin2_matrices(), np.eye(3))


def spin1_spin2_algebra():
    """spin-1 + spin-2 over one so(3) (n = 11)."""
    rho = [np.block([[a, np.zeros((3, 5))], [np.zeros((5, 3)), b]])
           for a, b in zip(so3_matrices(), spin2_matrices())]
    return from_representation(so3_bracket(), rho, np.eye(3))


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
