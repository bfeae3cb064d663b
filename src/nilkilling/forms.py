"""Exterior algebra over the adapted frame.

Forms are stored densely over the C(n, k) strictly increasing index tuples
of frame indices; the frame is orthonormal so the coefficient vector also
gives the inner product.  Alongside the standard wedge/contraction pair,
this module provides the derivation action of skew endomorphisms, the Lie
algebra differential, the covariant derivative of invariant forms, and the
projection onto the v/z bigrading.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .algebra import AdaptedFrame, MetricLieAlgebra, nabla_matrix
from .errors import DegreeOverflow, NotSkew
from .linalg import DEFAULT_TOL


@lru_cache(maxsize=None)
def basis_tuples(n, k):
    return tuple(combinations(range(n), k))


@lru_cache(maxsize=None)
def tuple_index(n, k):
    return {t: i for i, t in enumerate(basis_tuples(n, k))}


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
    def from_terms(cls, n, degree, terms):
        """Build from (indices, coeff) pairs; indices need not be sorted."""
        out = cls(n, degree)
        pos = tuple_index(n, degree)
        for indices, coeff in terms:
            idx = tuple(indices)
            if len(set(idx)) != len(idx):
                continue
            srt = tuple(sorted(idx))
            out.vec[pos[srt]] += _sort_sign(idx) * coeff
        return out

    @classmethod
    def basis(cls, n, degree, indices):
        return cls.from_terms(n, degree, [(indices, 1.0)])

    def coeff(self, indices):
        idx = tuple(indices)
        srt = tuple(sorted(idx))
        if len(set(idx)) != len(idx):
            return 0.0
        return _sort_sign(idx) * self.vec[tuple_index(self.n, self.degree)[srt]]

    def terms(self, tol=0.0):
        for t, c in zip(basis_tuples(self.n, self.degree), self.vec):
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
        if self.n != other.n or self.degree != other.degree:
            raise ValueError("incompatible forms")

    def __repr__(self):
        inside = " + ".join(
            "%.3g*e%s" % (c, "".join(str(i) for i in t)) for t, c in self.terms(1e-12)
        )
        return "Form(%d, deg=%d: %s)" % (self.n, self.degree, inside or "0")

    def to_json(self):
        return {
            "degree": self.degree,
            "terms": [
                {"indices": list(t), "coeff": c} for t, c in self.terms(1e-15)
            ],
        }

    @classmethod
    def from_json(cls, data, n):
        return cls.from_terms(
            n, int(data["degree"]),
            [(term["indices"], term["coeff"]) for term in data.get("terms", [])],
        )


def _sort_sign(idx):
    sign = 1
    idx = list(idx)
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            if idx[i] > idx[j]:
                sign = -sign
    return sign


def oneform(vector):
    """The 1-form dual to a frame-coordinate vector (frame is orthonormal)."""
    return Form(len(vector), 1, np.asarray(vector, dtype=float))


def wedge(omega: Form, eta: Form) -> Form:
    """Exterior product with shuffle signs."""
    n = omega.n
    k, l = omega.degree, eta.degree
    if k + l > n:
        raise DegreeOverflow("wedge degree %d exceeds dimension %d" % (k + l, n))
    return Form.from_terms(n, k + l, ((s + t, a * b)
                                      for s, a in omega.terms()
                                      for t, b in eta.terms()))


def contract(x, omega: Form) -> Form:
    """Interior product of a frame-coordinate vector with a form."""
    x = np.asarray(x, dtype=float)
    if x.shape != (omega.n,):
        raise ValueError("vector must have shape (%d,), got %s"
                         % (omega.n, x.shape))
    if omega.degree == 0:
        return Form(omega.n, 0)
    out = Form(omega.n, omega.degree - 1)
    pos = tuple_index(omega.n, omega.degree - 1)
    for t, c in omega.terms():
        for p, i in enumerate(t):
            if x[i] == 0.0:
                continue
            rest = t[:p] + t[p + 1:]
            out.vec[pos[rest]] += ((-1) ** p) * x[i] * c
    return out


def _derive(images, degree, omega: Form) -> Form:
    """The derivation sum_i images[i] ^ (e_i -| omega).

    `images[i]` is the coefficient vector of a `degree`-form; e_i -| omega
    vanishes unless i is a leg of one of omega's terms, so only those legs
    with a non-zero image contribute.
    """
    n = omega.n
    out = Form(n, omega.degree + degree - 1)
    eye = np.eye(n)
    for i in sorted({i for t, _ in omega.terms() for i in t}):
        if np.any(images[i]):
            out = out + wedge(Form(n, degree, images[i]), contract(eye[:, i], omega))
    return out


def skew_extend(f, omega: Form) -> Form:
    """Derivation action of a skew endomorphism on a form.

    Sum over the frame of f(u_i) wedged with the contraction by u_i; the
    action on a 1-form dual to u is the 1-form dual to f(u).
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (omega.n, omega.n):
        raise ValueError("endomorphism must have shape (%d, %d), got %s"
                         % (omega.n, omega.n, f.shape))
    if f.size and np.abs(f + f.T).max() > DEFAULT_TOL * np.abs(f).max():
        raise NotSkew("endomorphism is not skew-symmetric")
    return _derive(f.T, 1, omega)


def lie_diff(L: MetricLieAlgebra, F: AdaptedFrame, omega: Form) -> Form:
    """Lie algebra (Chevalley-Eilenberg) differential in frame coordinates.

    d omega = sum_i d(e^i) ^ (e_i -| omega), where d(e^i) is the 2-form
    with coefficients -c[a, b, i], a < b, read off the frame constants c.
    """
    n = F.n
    if omega.degree >= n:
        raise DegreeOverflow("differential of a top-degree form")
    d_frame = -F.constants[np.triu_indices(n, 1)]    # rows in basis_tuples(n, 2) order
    return _derive(d_frame.T, 2, omega)


def nabla_form(L: MetricLieAlgebra, F: AdaptedFrame, y, omega: Form) -> Form:
    """Covariant derivative of an invariant form in the direction y."""
    return skew_extend(nabla_matrix(F, y), omega)


def bigrade(F: AdaptedFrame, omega: Form, l: int) -> Form:
    """Projection onto the component with l v-legs and degree - l z-legs."""
    if not 0 <= l <= omega.degree:
        raise ValueError("bigrade index out of range")
    legs = np.array(basis_tuples(omega.n, omega.degree), dtype=int)
    mask = (legs < F.nv).sum(axis=1) == l
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

    def tuples(n):
        return np.array(basis_tuples(n, k), dtype=int).reshape(comb(n, k), k)

    # k-th compound of the map, restricted to the rows of the non-zero terms
    nonzero = np.flatnonzero(omega.vec)
    rows, cols = tuples(n_in)[nonzero], tuples(n_out)
    minors = np.linalg.det(matrix[rows[:, None, :, None], cols[None, :, None, :]])
    return Form(n_out, k, omega.vec[nonzero] @ minors)
