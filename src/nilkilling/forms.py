"""Exterior algebra over the adapted frame.

Forms are stored densely over the C(n, k) strictly increasing index tuples
of frame indices; the frame is orthonormal so the coefficient vector also
gives the inner product.  One cached wedge table (`_wedge_table`) decides
every sign: wedge, contraction, basis forms and the derivations built from
them (skew endomorphisms, the Lie algebra differential, the covariant
derivative of invariant forms) are products over it.  Also the projection
onto the v/z bigrading and pullback along linear maps.
"""
from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations
from math import comb

import numpy as np

from .algebra import AdaptedFrame, MetricLieAlgebra, nabla_matrix
from .linalg import DEFAULT_TOL


@lru_cache(maxsize=None)
def _legs(n, k):
    """The basis k-tuples, in `combinations` order, as a read-only array."""
    legs = np.array(list(combinations(range(n), k)), dtype=int).reshape(comb(n, k), k)
    legs.setflags(write=False)
    return legs


@lru_cache(maxsize=None)
def _wedge_table(n, k, l):
    """e^s ^ e^t = sign * e^target for basis k-tuples s and l-tuples t.

    Read-only (target, sign) arrays of shape (C(n, k), C(n, l)); sign is 0
    where s and t share a leg.  The sign is the parity of the shuffle, the
    number of legs of s above each leg of t; target is the lexicographic
    rank C(n, m) - 1 - sum_p C(n - 1 - u_p, m - p) of the merged legs u.
    """
    m = k + l
    s, t = _legs(n, k), _legs(n, l)
    member = np.zeros((len(s), n), dtype=int)
    np.put_along_axis(member, s, 1, axis=1)
    shared = member[:, t].any(axis=2)
    shuffles = (k - np.cumsum(member, axis=1))[:, t].sum(axis=2)
    merged = np.sort(np.concatenate([s[:, None].repeat(len(t), axis=1),
                                     t[None].repeat(len(s), axis=0)], axis=2), axis=2)
    binom = np.array([[comb(a, b) for b in range(m + 1)] for a in range(n)])
    rank = comb(n, m) - 1 - binom[n - 1 - merged, m - np.arange(m)].sum(axis=2)
    table = np.where(shared, 0, rank), np.where(shared, 0, (-1) ** shuffles)
    for a in table:
        a.setflags(write=False)
    return table


class Form:
    """Degree-k alternating form in frame coordinates."""

    __slots__ = ("n", "degree", "vec")

    def __init__(self, n, degree, vec=None):
        if not 0 <= degree <= n:
            raise ValueError("degree out of range")
        self.n = n
        self.degree = degree
        if vec is None:
            vec = np.zeros(comb(n, degree))
        self.vec = np.asarray(vec, dtype=float)
        if self.vec.shape != (comb(n, degree),):
            raise ValueError("coefficient vector has wrong length")

    @classmethod
    def basis(cls, n, degree, indices):
        """e^{i_1} ^ ... ^ e^{i_k}: signed for unsorted legs, 0 if one repeats."""
        if len(indices) != degree or not all(0 <= i < n for i in indices):
            raise ValueError("legs %s of a degree-%d form on R^%d"
                             % (indices, degree, n))
        eye = np.eye(n)
        return reduce(wedge, (oneform(eye[i]) for i in indices), cls(n, 0, [1.0]))

    def terms(self, tol=0.0):
        for t, c in zip(map(tuple, _legs(self.n, self.degree).tolist()), self.vec):
            if abs(c) > tol:
                yield t, float(c)

    def norm(self):
        return float(np.linalg.norm(self.vec))

    def __add__(self, other):
        self._compat(other)
        return Form(self.n, self.degree, self.vec + other.vec)

    def __sub__(self, other):
        self._compat(other)
        return Form(self.n, self.degree, self.vec - other.vec)

    def __mul__(self, scalar):
        return Form(self.n, self.degree, self.vec * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return Form(self.n, self.degree, -self.vec)

    def _compat(self, other):
        _same_dimension(self.n, other.n)
        if self.degree != other.degree:
            raise ValueError("incompatible forms")

    def __repr__(self):
        inside = " + ".join(
            "%.3g*e%s" % (c, "".join(str(i) for i in t)) for t, c in self.terms(1e-12)
        )
        return "Form(%d, deg=%d: %s)" % (self.n, self.degree, inside or "0")

    def to_json(self):
        terms = [{"indices": list(t), "coeff": c} for t, c in self.terms(1e-15)]
        return {"degree": self.degree, "terms": terms}


def _same_dimension(n, m):
    """Refuse, with ValueError, to combine forms (or a form and a frame) on
    R^n and R^m for n != m."""
    if n != m:
        raise ValueError("dimensions %d and %d differ" % (n, m))


def oneform(vector):
    """The 1-form dual to a frame-coordinate vector (frame is orthonormal)."""
    return Form(len(vector), 1, np.asarray(vector, dtype=float))


def wedge(omega: Form, eta: Form) -> Form:
    """Exterior product with shuffle signs."""
    n = omega.n
    k, l = omega.degree, eta.degree
    _same_dimension(n, eta.n)
    if k + l > n:
        raise ValueError("wedge degree %d exceeds dimension %d" % (k + l, n))
    return _product(n, k, l, np.outer(omega.vec, eta.vec))


def _product(n, k, l, weights):
    """The (k + l)-form sum_{s, t} weights[s, t] e^s ^ e^t, one scatter over
    the wedge table; `weights` has shape (C(n, k), C(n, l))."""
    target, sign = _wedge_table(n, k, l)
    return Form(n, k + l, np.bincount(target.ravel(), (sign * weights).ravel(),
                                      minlength=comb(n, k + l)))


def _contractions(omega: Form):
    """(n, C(n, k-1)) array whose row i is e_i -| omega; zeros for k = 0."""
    if omega.degree == 0:
        return np.zeros((omega.n, 1))
    target, sign = _wedge_table(omega.n, 1, omega.degree - 1)
    return sign * omega.vec[target]


def contract(x, omega: Form) -> Form:
    """Interior product of a frame-coordinate vector with a form."""
    x = np.asarray(x, dtype=float)
    if x.shape != (omega.n,):
        raise ValueError("vector must have shape (%d,), got %s"
                         % (omega.n, x.shape))
    return Form(omega.n, max(omega.degree - 1, 0), x @ _contractions(omega))


def _derive(images, degree, omega: Form) -> Form:
    """The derivation sum_i images[i] ^ (e_i -| omega).

    `images[i]` is the coefficient vector of a `degree`-form.  The sum over
    the legs i is one matrix product, images^T times the rows e_i -| omega,
    scattered once over the (degree, k - 1) wedge table.
    """
    n, k = omega.n, omega.degree
    if k == 0:
        return Form(n, degree - 1)
    return _product(n, degree, k - 1, images.T @ _contractions(omega))


@lru_cache(maxsize=None)
def _derivation_table(n, degree, k):
    """Non-zero entries of the matrix of `_derive(images, degree, .)` on k-forms.

    Read-only (cell, entry, sign) arrays: summing sign * images.flat[entry]
    into cell gives the C(n, k + degree - 1) x C(n, k) matrix, flattened
    row-major, for an (n, C(n, degree)) `images`.  e_i -| e^t has the
    coefficient sign1 on e^s where e^i ^ e^s = sign1 e^t (the (1, k - 1)
    wedge table), and image entry (i, u) wedges it by e^u (the (degree,
    k - 1) table).  The entries run in (u, s, i) order, the order in which
    `_derive` sums them, so each column equals `_derive` of its basis form
    bit for bit.
    """
    if k == 0:      # a 0-form has no leg to contract: the zero matrix
        cell = entry = sign = np.zeros(0, dtype=int)
    else:
        (t1, s1), (t2, s2) = _wedge_table(n, 1, k - 1), _wedge_table(n, degree, k - 1)
        signs = s2[:, :, None] * s1.T[None]     # [u, s, i]
        u, s, i = np.nonzero(signs)
        cell = t2[u, s] * comb(n, k) + t1[i, s]
        entry = i * comb(n, degree) + u
        sign = signs[u, s, i]
    # int32 holds every cell of a matrix small enough to allocate
    table = cell.astype(np.int32), entry.astype(np.int32), sign.astype(np.int8)
    for a in table:
        a.setflags(write=False)
    return table


def _derivation_matrix(images, degree, k):
    """The C(n, k + degree - 1) x C(n, k) matrix whose column t is
    `_derive(images, degree, e^t)`, one scatter over `_derivation_table`."""
    n = len(images)
    cell, entry, sign = _derivation_table(n, degree, k)
    shape = comb(n, k + degree - 1), comb(n, k)
    flat = np.bincount(cell, sign * images.ravel()[entry], minlength=shape[0] * shape[1])
    return flat.reshape(shape).astype(float, copy=False)     # no entries: int zeros


def _skew_map(f, n):
    """`f` as a float (n, n) array, checked finite and skew-symmetric.

    The one home of the rule `skew_extend` applies: |f + f^T| <=
    DEFAULT_TOL * max|f|.  A NaN or infinite entry is refused, since it
    would pass that comparison.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (n, n):
        raise ValueError("endomorphism must have shape (%d, %d), got %s"
                         % (n, n, f.shape))
    if not np.isfinite(f).all():
        raise ValueError("endomorphism has non-finite entries")
    if f.size and np.abs(f + f.T).max() > DEFAULT_TOL * np.abs(f).max():
        raise ValueError("endomorphism is not skew-symmetric")
    return f


def skew_extend(f, omega: Form) -> Form:
    """Derivation action of a skew endomorphism on a form.

    Sum over the frame of f(u_i) wedged with the contraction by u_i; the
    action on a 1-form dual to u is the 1-form dual to f(u).
    """
    return _derive(_skew_map(f, omega.n).T, 1, omega)


def lie_diff(L: MetricLieAlgebra, F: AdaptedFrame, omega: Form) -> Form:
    """Lie algebra (Chevalley-Eilenberg) differential in frame coordinates.

    d omega = sum_i d(e^i) ^ (e_i -| omega), with d(e^i) read off the frame
    constants by `_d_images`.
    """
    _same_dimension(F.n, omega.n)
    if omega.degree >= F.n:
        raise ValueError("differential of a top-degree form")
    return _derive(_d_images(F), 2, omega)


def _d_images(F: AdaptedFrame):
    """(n, C(n, 2)) array whose row i is the 2-form d(e^i), -c[a, b, i] at a < b."""
    a, b = _legs(F.n, 2).T
    return -F.constants[a, b].T


def nabla_form(L: MetricLieAlgebra, F: AdaptedFrame, y, omega: Form) -> Form:
    """Covariant derivative of an invariant form in the direction y."""
    _same_dimension(F.n, omega.n)
    return skew_extend(nabla_matrix(F, y), omega)


def bigrade(F: AdaptedFrame, omega: Form, l: int) -> Form:
    """Projection onto the component with l v-legs and degree - l z-legs."""
    _same_dimension(F.n, omega.n)
    if not 0 <= l <= omega.degree:
        raise ValueError("bigrade index out of range")
    mask = (_legs(omega.n, omega.degree) < F.nv).sum(axis=1) == l
    return Form(omega.n, omega.degree, np.where(mask, omega.vec, 0.0))


def transform(omega: Form, matrix) -> Form:
    """Pull a form back along a linear map.

    `matrix` maps R^{n_out} to R^{n_in} coordinates (n_in = omega.n); the
    result is the form x -> omega(Mx, ...), a form on R^{n_out}.
    """
    matrix = np.asarray(matrix, dtype=float)
    n_in, n_out = matrix.shape
    if n_in != omega.n:
        raise ValueError("matrix rows must match form dimension")
    k = omega.degree
    # k-th compound of the map, restricted to the rows of the non-zero terms
    nonzero = np.flatnonzero(omega.vec)
    rows, cols = _legs(n_in, k)[nonzero], _legs(n_out, k)
    minors = np.linalg.det(matrix[rows[:, None, :, None], cols[None, :, None, :]])
    return Form(n_out, k, omega.vec[nonzero] @ minors)
