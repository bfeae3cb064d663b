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

from .errors import InvalidAlgebra
from .linalg import (
    DEFAULT_TOL,
    _row_and_null_space,
    _unit_scaled,
    nullspace,
)


def _check_dimension(n):
    """The dimension rule of every algebra: n >= 1."""
    if n < 1:
        raise ValueError("algebra dimension must be positive")


def _is_int(x):
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _refuse_unknown_fields(data, allowed, prefix=""):
    """Refuse the first key of `data` outside `allowed`, so a misspelled
    field does not silently take its default."""
    for key in data:
        if key not in allowed:
            raise ValueError(f"unknown field: {prefix}{key}")


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
        _check_dimension(self.dim)
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
        _refuse_unknown_fields(data, ("name", "dim", "basis", "brackets", "metric"))
        if "dim" not in data:
            raise ValueError("missing required field: dim")
        n = data["dim"]
        if not _is_int(n) or n < 1:
            raise ValueError(f"dim must be a positive integer: {n!r}")
        name = data.get("name", "")
        if not isinstance(name, str):
            raise ValueError(f"name must be a string: {name!r}")
        basis = data.get("basis", [f"b{i}" for i in range(n)])
        if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
            raise ValueError("basis must be a list of strings")
        brackets = data.get("brackets", [])
        if not isinstance(brackets, list):
            raise ValueError("brackets must be a list")
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
        identity = metric.get("identity", False)
        if not isinstance(identity, bool):
            raise ValueError(f"metric.identity must be true or false: {identity!r}")
        _refuse_unknown_fields(metric, ("identity", "gram"), "metric.")
        if identity and "gram" in metric:
            raise ValueError("metric gives both identity and gram")
        if identity:
            gram = np.eye(n)
        else:
            if "gram" not in metric:
                raise ValueError("missing required field: gram")
            rows = metric["gram"]
            if not isinstance(rows, list) or not all(
                isinstance(row, list) and all(map(_is_finite_number, row))
                for row in rows
            ):
                raise ValueError("gram entries must be finite numbers")
            if any(len(row) != n for row in rows):      # a ragged gram included
                raise ValueError("gram matrix has wrong shape")
            gram = np.asarray(rows, dtype=float)
        return cls(n, basis, c, gram, name=name)

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


# entries of the double-bracket table `validate` holds at once
_DOUBLE_BRACKET_BLOCK = 2**18


def validate(L: MetricLieAlgebra, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check finiteness, antisymmetry, 2-step nilpotency,
    positive-definiteness and the conditioning of the Gram matrix.

    A non-finite entry is the only violation reported, since no other check
    is meaningful on it.  The checks read the unit-scaled constants and
    Gram matrix, so the double bracket squares no threshold and neither it
    nor the Gram eigenvalues overflow.
    """
    c, g = L.structure_constants, L.gram
    violations = [f"{what} has a non-finite entry"
                  for what, a in (("structure constants", c), ("gram", g))
                  if not np.isfinite(a).all()]
    if violations:
        return ValidationReport(violations)
    c, g = _unit_scaled(c), _unit_scaled(g)
    if np.abs(c + c.transpose(1, 0, 2)).max() > tol:
        violations.append("antisymmetry: c[i][j][k] != -c[j][i][k]")
    # [[b_i, b_j], b_k] must vanish for all triples; subsumes Jacobi here.
    # The n^4 table is read in row blocks of about _DOUBLE_BRACKET_BLOCK
    # entries, so its working set does not grow like n^4
    n = L.dim
    brackets, ads = c.reshape(n * n, n), c.reshape(n, n * n)
    step = _DOUBLE_BRACKET_BLOCK // (n * n) or 1        # rows per block
    worst = max(np.abs(brackets[s:s + step] @ ads).max()
                for s in range(0, n * n, step))
    if worst > tol:
        violations.append("2-step: [[x,y],w] != 0 for some basis triple")
    if np.abs(g - g.T).max() > tol:
        violations.append("gram not symmetric")
    else:
        eigvals = np.linalg.eigvalsh(0.5 * (g + g.T))
        if eigvals.min() <= 0:
            violations.append("gram not positive definite")
        elif eigvals.min() <= tol * eigvals.max():
            violations.append("gram condition number %.3g exceeds 1/tol = %.3g"
                              % (eigvals.max() / eigvals.min(), 1 / tol))
    return ValidationReport(violations)


def _canonical_span_basis(basis, gram):
    """g-orthonormal basis of span(basis) aligned with user axes when possible.

    `basis` is g-orthonormal.  Pivoted Gram-Schmidt on the g-orthogonal
    projections of the user basis vectors, held as their coordinates
    Y = basis^T gram in `basis`, so the g-norm of a projection is the
    Euclidean norm of its column of Y: deterministic, and returns the user
    vectors themselves whenever the span is axis-aligned and the metric is
    diagonal there.  Pivots within DEFAULT_TOL (relative) of the largest
    norm count as tied, and a tie takes the lowest user index, so the frame
    order does not follow the last bits of the factorizations before it.
    A pivot whose squared g-norm is below DEFAULT_TOL / 1000 of the Gram
    scale ends it, and `basis` is returned as it is.
    """
    p = basis.shape[1]
    if not p:
        return basis
    coords = basis.T @ gram
    cutoff = np.sqrt(DEFAULT_TOL / 1000 * np.abs(gram).max())
    chosen = np.empty((p, p))
    for i in range(p):
        norms = np.sqrt((coords * coords).sum(axis=0))
        best = int(np.argmax(norms >= (1 - DEFAULT_TOL) * norms.max()))
        if norms[best] <= cutoff:
            return basis
        u = coords[:, best] / norms[best]
        chosen[:, i] = u
        coords -= u[:, None] * (u @ coords)
    return basis @ chosen


def rotate_constants(constants, cols, dual):
    """Constants c'[a,b,c] = cols[i,a] cols[j,b] constants[i,j,k] dual[k,c].

    Three matrix products over reshaped operands, one index each, so no
    contraction path is searched per call.
    """
    n, p = cols.shape
    q = dual.shape[1]
    out = constants.reshape(n * n, n) @ dual                  # (i j) c
    out = cols.T @ out.reshape(n, n * q)                      # a (j c)
    return cols.T @ out.reshape(p, n, q)                      # a b c


def adapted_frame(L: MetricLieAlgebra, tol: float = DEFAULT_TOL) -> AdaptedFrame:
    """Build a g-orthonormal frame split into v-part and z-part.

    The one gate of the package: an algebra that fails `validate`, or whose
    frame constants leave the double range, raises InvalidAlgebra.  All that follows reads the antisymmetric part of the
    constants it accepted, so no later step checks the j-maps for skewness.
    It makes two rank decisions: the center z is the SVD
    nullspace of the stacked ad matrices, a decision that does not read the
    metric, and ker j is the SVD nullspace of the stacked j-maps in a
    g-orthonormal basis of z.  The metric enters through one Cholesky
    factor g = R R^T: w is g-orthonormal exactly when R^T w is orthonormal,
    so one complete QR of R^T z, mapped back by one solve with R^T, gives a
    g-orthonormal basis of z in its first columns and of v = z^perp in the
    rest.  The image of j, the orthogonal complement of ker j, is spanned
    by the kept right singular vectors of the SVD that decides ker j.  v,
    the image and ker j are each aligned with the user axes where possible
    (`_canonical_span_basis`), ker j spanning the trailing frame vectors.
    Works for abelian input too (v empty).
    """
    report = validate(L, tol)
    if not report.ok:
        raise InvalidAlgebra("invalid algebra: " + "; ".join(report.violations))
    n, g, c = L.dim, L.gram, L.structure_constants
    # halves first: exact on antisymmetric input, and no sum overflows
    c = 0.5 * c - 0.5 * c.transpose(1, 0, 2)
    # row (i, k), column j: ad_{b_i} = c[i].T for every i, stacked
    ads = c.transpose(0, 2, 1).reshape(n * n, n)
    center = nullspace(_unit_scaled(ads), tol)
    nz = center.shape[1]
    nv = n - nz
    chol = np.linalg.cholesky(g)
    q = np.linalg.qr(chol.T @ center, mode="complete")[0]
    zv = np.linalg.solve(chol.T, q)          # g-orthonormal: z, then v
    z, v = zv[:, :nz], zv[:, nz:]
    # g z = R q for the z-columns: their dual, the coordinate read-off
    jmaps = _rotate_in_range(c, v, chol @ q[:, :nz])
    img, ker = _row_and_null_space(_unit_scaled(jmaps.reshape(nv * nv, nz)), tol)
    na = ker.shape[1]
    # img and ker are orthonormal in the g-orthonormal z coordinates
    spans = (v, z @ img, z @ ker)
    frame = np.concatenate([_canonical_span_basis(b, g) for b in spans], axis=1)
    return AdaptedFrame(frame, _rotate_in_range(c, frame, g @ frame), nv, na)


def _rotate_in_range(c, cols, dual):
    """`rotate_constants`, refused with InvalidAlgebra where the result (like
    bracket / sqrt(Gram)) overflows, or all underflows while `c` is not 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = rotate_constants(c, cols, dual)
    peak = np.abs(out).max(initial=0.0)
    if not np.isfinite(peak) or (peak < np.finfo(float).tiny and c.any()):
        raise InvalidAlgebra("frame constants leave the double-precision range")
    return out


def connection(F: AdaptedFrame):
    """The (n, n, n) connection array: slice a is the matrix of the skew
    endomorphism u -> nabla_{e_a} u in frame coordinates.

    Koszul formula in the orthonormal frame: with c the frame constants,
    g(nabla_a e_b, e_c) = 1/2 (c_abc - c_bca + c_cab).  Each slice is the
    skew part of that sum, so it is exactly skew even where it is pure
    round-off (an abelian direction), as the relative check of `skew_extend`
    needs.
    """
    c = F.constants
    koszul = 0.5 * (c - c.transpose(2, 0, 1) + c.transpose(1, 2, 0))   # [a, b, c]
    return 0.5 * (koszul.transpose(0, 2, 1) - koszul)


def _frame_vector(y, n):
    """y as a float array, if it is a vector of n frame coordinates."""
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise ValueError("vector must have shape (%d,), got %s" % (n, y.shape))
    return y


def nabla_matrix(F: AdaptedFrame, y):
    """Matrix of the skew endomorphism u -> nabla_y u in frame coordinates:
    y contracted with `connection(F)`, kept exactly skew."""
    m = np.tensordot(_frame_vector(y, F.n), connection(F), axes=1)
    return 0.5 * (m - m.T)


def levi_civita(F: AdaptedFrame, x, y):
    """Covariant derivative of y in the direction x, frame coordinates."""
    return nabla_matrix(F, x) @ _frame_vector(y, F.n)


def j_trace_form(F: AdaptedFrame):
    """Symmetric matrix [tr(J_s J_t)] on the z-frame; an isometry invariant."""
    return np.einsum("sab,tba->st", F.j_matrices, F.j_matrices)
