"""Metric 2-step nilpotent Lie algebras and their adapted orthonormal frames.

A metric Lie algebra is given by structure constants c[i][j][k] in a user
basis together with a symmetric positive-definite Gram matrix.  All the
geometry (central splitting, the skew maps attached to central directions,
the Levi-Civita connection) is computed in a g-orthonormal frame adapted
to the splitting n = v + z.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidAlgebra, NotSkew
from .linalg import DEFAULT_TOL, _unit_scaled, gram_orthonormalize, nullspace


def _is_int(x):
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_finite_number(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and np.isfinite(x)


@dataclass(frozen=True)
class MetricLieAlgebra:
    """Structure constants plus inner product in a fixed user basis.

    structure_constants[i, j, k] is the coefficient of b_k in [b_i, b_j].
    """

    dim: int
    basis_names: list
    structure_constants: np.ndarray
    gram: np.ndarray
    name: str = ""

    def __post_init__(self):
        c = np.asarray(self.structure_constants, dtype=float)
        g = np.asarray(self.gram, dtype=float)
        if c.shape != (self.dim,) * 3:
            raise ValueError("structure constant table has wrong shape")
        if g.shape != (self.dim, self.dim):
            raise ValueError("gram matrix has wrong shape")
        object.__setattr__(self, "structure_constants", c)
        object.__setattr__(self, "gram", g)
        if len(self.basis_names) != self.dim:
            raise ValueError("need one basis name per dimension")

    def bracket(self, x, y):
        """[x, y] in user coordinates."""
        return np.einsum("i,j,ijk->k", x, y, self.structure_constants)

    def ad_matrix(self, i):
        """Matrix of ad_{b_i} acting on user coordinates."""
        return self.structure_constants[i].T

    def to_json(self):
        c = self.structure_constants
        brackets = [[int(i), int(j), int(k), float(c[i, j, k])]
                    for i, j, k in zip(*np.nonzero(c)) if i < j]
        out = {
            "name": self.name,
            "dim": self.dim,
            "basis": list(self.basis_names),
            "brackets": brackets,
        }
        if np.array_equal(self.gram, np.eye(self.dim)):
            out["metric"] = {"identity": True}
        else:
            out["metric"] = {"gram": self.gram.tolist()}
        return out

    @classmethod
    def from_json(cls, data):
        """Parse the JSON layout of `to_json`; malformed input raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("algebra JSON must be an object")
        n = data["dim"]
        if not _is_int(n) or n < 1:
            raise ValueError(f"dim must be a positive integer: {n!r}")
        basis = data.get("basis", [f"b{i}" for i in range(n)])
        brackets = data.get("brackets", [])
        if not isinstance(basis, list) or not isinstance(brackets, list):
            raise ValueError("basis and brackets must be lists")
        c = np.zeros((n, n, n))
        seen = set()
        for entry in brackets:
            if not isinstance(entry, (list, tuple)) or len(entry) != 4:
                raise ValueError(f"bracket entry is not [i, j, k, coeff]: {entry}")
            i, j, k, coeff = entry
            if not all(_is_int(idx) and 0 <= idx < n for idx in (i, j, k)):
                raise ValueError(f"bracket index not an integer in 0..{n - 1}: {entry}")
            if i == j:
                raise ValueError(f"bracket of a basis vector with itself: {entry}")
            if not _is_finite_number(coeff):
                raise ValueError(f"bracket coefficient is not a finite number: {entry}")
            if (min(i, j), max(i, j), k) in seen:
                raise ValueError(f"duplicate bracket entry: {entry}")
            seen.add((min(i, j), max(i, j), k))
            c[i, j, k] = coeff
            c[j, i, k] = -coeff
        metric = data.get("metric", {"identity": True})
        if not isinstance(metric, dict):
            raise ValueError("metric must be an object")
        if metric.get("identity"):
            gram = np.eye(n)
        else:
            rows = metric["gram"]
            if not isinstance(rows, list) or not all(
                isinstance(row, list) and all(map(_is_finite_number, row))
                for row in rows
            ):
                raise ValueError("gram entries must be finite numbers")
            gram = np.asarray(rows, dtype=float)
        return cls(n, basis, c, gram, name=data.get("name", ""))

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


@dataclass(frozen=True)
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


@dataclass(frozen=True)
class AdaptedFrame:
    """g-orthonormal frame adapted to the orthogonal splitting n = v + z.

    Columns of `frame` are the frame vectors in user coordinates: the first
    `nv` span v, the rest span z, and the last `na` of those span ker j.
    `constants` holds the structure constants rewritten in frame
    coordinates, where the metric is the identity.  `j_matrices` is the
    (nz, nv, nv) stack, a view of `constants`, whose t-th entry is the
    skew map on v attached to the t-th z-frame vector.
    """

    frame: np.ndarray
    constants: np.ndarray
    nv: int
    na: int                      # trailing z-vectors spanning ker j

    @property
    def n(self):
        return self.frame.shape[0]

    @property
    def nz(self):
        return self.n - self.nv

    @property
    def j_matrices(self):
        nv = self.nv
        return self.constants[:nv, :nv, nv:].transpose(2, 1, 0)


def validate(L: MetricLieAlgebra, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check finiteness, antisymmetry, 2-step nilpotency,
    positive-definiteness and the conditioning of the Gram matrix.

    A non-finite entry is the only violation reported, since no other check
    is meaningful on it.  A zero-dimensional algebra, which has no frame or
    constants, raises ValueError.
    """
    if L.dim < 1:
        raise ValueError("algebra dimension must be positive")
    c, g = L.structure_constants, L.gram
    violations = [f"{what} has a non-finite entry"
                  for what, a in (("structure constants", c), ("gram", g))
                  if not np.isfinite(a).all()]
    if violations:
        return ValidationReport(violations)
    scale = np.abs(c).max()
    if np.abs(c + c.transpose(1, 0, 2)).max() > tol * scale:
        violations.append("antisymmetry: c[i][j][k] != -c[j][i][k]")
    # [[b_i, b_j], b_k] must vanish for all triples; subsumes Jacobi here
    double = np.einsum("ijm,mkl->ijkl", c, c)
    if np.abs(double).max() > tol * scale * scale:
        violations.append("2-step: [[x,y],w] != 0 for some basis triple")
    if np.abs(g - g.T).max() > tol * np.abs(g).max():
        violations.append("gram not symmetric")
    else:
        eigvals = np.linalg.eigvalsh(0.5 * (g + g.T))
        if eigvals.min() <= 0:
            violations.append("gram not positive definite")
        elif eigvals.min() <= tol * eigvals.max():
            violations.append("gram condition number %.3g exceeds 1/tol = %.3g"
                              % (eigvals.max() / eigvals.min(), 1 / tol))
    return ValidationReport(violations)


def _canonical_span_basis(cols, gram):
    """g-orthonormal basis of span(cols) aligned with user axes when possible.

    Pivoted Gram-Schmidt on the g-orthogonal projections of the user basis
    vectors: deterministic, and returns the user vectors themselves whenever
    the span is axis-aligned and the metric is diagonal there.  A pivot whose
    squared g-norm is below DEFAULT_TOL / 1000 of the Gram scale ends it.
    """
    cols = np.asarray(cols, dtype=float)
    p = cols.shape[1]
    if p == 0:
        return cols
    c_on = gram_orthonormalize(cols, gram)
    cands = c_on @ (c_on.T @ gram)      # projections of the user axes, as columns
    cutoff = np.sqrt(DEFAULT_TOL / 1000 * np.abs(gram).max())
    chosen = []
    for _ in range(p):
        g_cands = gram @ cands
        norms = np.sqrt(np.maximum(np.einsum("ij,ij->j", cands, g_cands), 0.0))
        best = int(np.argmax(norms))
        if norms[best] <= cutoff:
            break
        u = cands[:, best] / norms[best]
        chosen.append(u)
        cands = cands - np.outer(u, u @ g_cands)
    if len(chosen) != p:
        return c_on
    return np.array(chosen).T


def rotate_constants(constants, cols, dual):
    """Constants c'[a,b,c] = cols[i,a] cols[j,b] constants[i,j,k] dual[k,c].

    Contracted one index at a time in a fixed order, so no contraction
    path is searched per call.
    """
    out = np.tensordot(constants, dual, axes=(2, 0))        # i j c
    out = np.tensordot(cols, out, axes=(0, 0))              # a j c
    return np.tensordot(out, cols, axes=(1, 0)).transpose(0, 2, 1)


def _frame_constants(L, frame):
    """Structure constants rewritten in the (orthonormal) frame columns."""
    return rotate_constants(L.structure_constants, frame, L.gram @ frame)


def frame_from_constants(frame, constants, nv, na, tol=DEFAULT_TOL) -> AdaptedFrame:
    """Adapted frame whose first `nv` columns span v and the rest span z.

    `constants` are the structure constants in the orthonormal frame; the
    j-map of the t-th z-vector is the z_t-component of the v x v block.
    The last `na` z-vectors span the abelian kernel ker j, as decided by
    the caller.
    """
    block = constants[:nv, :nv, nv:]
    scale = np.abs(constants).max()
    if np.abs(block + block.transpose(1, 0, 2)).max(initial=0.0) > 100 * tol * scale:
        raise NotSkew("j matrix not skew; inconsistent input")
    return AdaptedFrame(frame, constants, nv, na)


def adapted_frame(L: MetricLieAlgebra, tol: float = DEFAULT_TOL) -> AdaptedFrame:
    """Build a g-orthonormal frame split into v-part and z-part.

    The one gate of the package: an algebra that fails `validate` raises
    InvalidAlgebra, a zero-dimensional one ValueError.  It makes two rank
    decisions: the center z is the SVD nullspace of the stacked ad
    matrices, and ker j is the SVD nullspace of the stacked j-maps in a
    g-orthonormal basis of z.  v is the g-orthogonal complement of z and
    the image of j the orthogonal complement of ker j, both read off a
    complete QR.  v, the image and ker j are each made g-orthonormal and
    aligned with the user axes where possible, ker j spanning the trailing
    frame vectors.  Works for abelian input too (v empty).
    """
    report = validate(L, tol)
    if not report.ok:
        raise InvalidAlgebra("invalid algebra: " + "; ".join(report.violations))
    n, g = L.dim, L.gram
    ads = np.concatenate([L.ad_matrix(i) for i in range(n)])
    z = gram_orthonormalize(nullspace(_unit_scaled(ads), tol), g)
    nz = z.shape[1]
    nv = n - nz
    v = np.linalg.qr(g @ z, mode="complete")[0][:, nz:]
    jmaps = rotate_constants(L.structure_constants, v, g @ z)
    ker = nullspace(_unit_scaled(jmaps.reshape(nv * nv, nz)), tol)
    na = ker.shape[1]
    img = np.linalg.qr(ker, mode="complete")[0][:, na:]
    frame = np.concatenate(
        [_canonical_span_basis(cols, g) for cols in (v, z @ img, z @ ker)], axis=1)
    return frame_from_constants(frame, _frame_constants(L, frame), nv, na, tol)


def nabla_matrix(F: AdaptedFrame, y):
    """Matrix of the skew endomorphism u -> nabla_y u in frame coordinates.

    Koszul formula in the orthonormal frame: with c the frame constants,
    g(nabla_a e_b, e_c) = 1/2 (c_abc - c_bca + c_cab).  Returned as the skew
    part of that sum, so it is exactly skew even where it is pure round-off
    (an abelian direction), as the relative check of `skew_extend` needs.
    """
    c = F.constants
    koszul = 0.5 * (c - np.einsum("bca->abc", c) + np.einsum("cab->abc", c))
    m = np.einsum("a,abc->cb", y, koszul)
    return 0.5 * (m - m.T)


def levi_civita(F: AdaptedFrame, x, y):
    """Covariant derivative of y in the direction x, frame coordinates."""
    return nabla_matrix(F, x) @ y


def j_trace_form(F: AdaptedFrame):
    """Symmetric matrix [tr(J_s J_t)] on the z-frame; an isometry invariant."""
    return np.einsum("sab,tba->st", F.j_matrices, F.j_matrices)
