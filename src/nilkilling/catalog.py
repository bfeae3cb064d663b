"""Named constructors for the algebras used throughout the low-dimensional
classification, plus the two classification lists and the construction of
naturally-reductive-type algebras from compact Lie algebra representations.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .algebra import MetricLieAlgebra, _check_dimension
from .linalg import DEFAULT_TOL, _unit_scaled, nullspace


def _brackets(n, triples):
    """The n^3 antisymmetric structure table with [e_i, e_j] = v e_k for
    each (i, j, k, v)."""
    c = np.zeros((n, n, n))
    for i, j, k, v in triples:
        c[i, j, k] = v
        c[j, i, k] = -v
    return c


def heisenberg(l: int) -> MetricLieAlgebra:
    """Real Heisenberg algebra of dimension 2l+1, identity metric."""
    if l < 1:
        raise ValueError("l must be >= 1")
    n = 2 * l + 1
    c = _brackets(n, ((2 * i, 2 * i + 1, n - 1, 1.0) for i in range(l)))
    names = [f"e{i + 1}" for i in range(n - 1)] + ["z"]
    return MetricLieAlgebra(n, names, c, np.eye(n), name=f"h{n}")


def complex_heisenberg(lam: float = 1.0) -> MetricLieAlgebra:
    """Real algebra underlying the complex Heisenberg algebra.

    Brackets [e1,e3] = z1 = -[e2,e4], [e2,e3] = z2 = [e1,e4]; the metric
    makes {e1..e4, z1/lam, z2/lam} orthonormal.
    """
    if not np.isfinite(lam):
        raise ValueError("lambda must be a finite number")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    lam2 = float(lam) * float(lam)      # float ** would raise OverflowError
    if not np.isfinite(lam2):
        raise ValueError(f"lambda squared is not finite: {lam!r}")
    n = 6
    c = _brackets(n, [(0, 2, 4, 1.0), (1, 3, 4, -1.0), (1, 2, 5, 1.0),
                      (0, 3, 5, 1.0)])
    gram = np.diag([1.0, 1.0, 1.0, 1.0, lam2, lam2])
    names = ["e1", "e2", "e3", "e4", "z1", "z2"]
    return MetricLieAlgebra(n, names, c, gram, name=f"h3C(lam={lam:g})")


def free_two_step_3() -> MetricLieAlgebra:
    """Free 2-step nilpotent algebra on 3 generators, identity metric."""
    n = 6
    c = _brackets(n, [(0, 1, 3, 1.0), (0, 2, 4, 1.0), (1, 2, 5, 1.0)])
    names = [f"e{i + 1}" for i in range(n)]
    return MetricLieAlgebra(n, names, c, np.eye(n), name="n32")


def euclidean(d: int) -> MetricLieAlgebra:
    """Abelian algebra of dimension d with the standard inner product.

    A d below 1 is refused by the rule of `MetricLieAlgebra`, before the d^3
    structure table is allocated; that table comes next, so a dimension
    too large to allocate raises MemoryError before any per-dimension work.
    """
    _check_dimension(d)
    c = np.zeros((d, d, d))
    return MetricLieAlgebra(d, [f"a{i + 1}" for i in range(d)], c, np.eye(d),
                            name=f"R{d}")


def direct_sum(parts, name="") -> MetricLieAlgebra:
    """Block-diagonal direct sum of metric Lie algebras."""
    parts = list(parts)
    if not parts:
        raise ValueError("direct sum of no algebras")
    n = sum(p.dim for p in parts)
    c = np.zeros((n, n, n))
    gram = np.zeros((n, n))
    names = []
    off = 0
    for p in parts:
        d = p.dim
        c[off:off + d, off:off + d, off:off + d] = p.structure_constants
        gram[off:off + d, off:off + d] = p.gram
        names.extend(f"{nm}.{len(names)}" for nm in p.basis_names)
        off += d
    if not name:
        name = "+".join(p.name or "?" for p in parts)
    return MetricLieAlgebra(n, names, c, gram, name=name)


def from_representation(z_bracket, rho, gram_z) -> MetricLieAlgebra:
    """2-step algebra of naturally reductive type from a representation.

    z_bracket is the m^3 structure table of a compact Lie algebra on z,
    rho a list of m skew matrices on v (one per z basis vector), and
    gram_z an ad-invariant inner product on z.  The output bracket is
    defined by pairing the representation action with the metric, so the
    induced skew maps coincide with rho.  Raises ValueError unless rho is
    a representation: rho([u, w]) = [rho u, rho w].
    """
    z_bracket = np.asarray(z_bracket, dtype=float)
    mats = np.asarray(rho, dtype=float)
    gram_z = np.asarray(gram_z, dtype=float)
    m = z_bracket.shape[0]
    if len(mats) != m:
        raise ValueError("need one representation matrix per z basis vector")
    nv = mats.shape[1]
    scale = np.abs(mats).max()
    if np.abs(mats + mats.transpose(0, 2, 1)).max() > DEFAULT_TOL / 10 * scale:
        raise ValueError("representation matrices must be skew")
    # sum_u c[s,t,u] rho_u = [rho_s, rho_t], quadratic in rho: tested with
    # rho and the bracket divided by the largest entry of rho
    unit, bracket = (mats / scale, z_bracket / scale) if scale else (mats, z_bracket)
    prod = np.einsum("sab,tbc->stac", unit, unit)
    image = np.einsum("stu,uac->stac", bracket, unit)
    residual = np.abs(image - prod + prod.transpose(1, 0, 2, 3)).max()
    if residual > DEFAULT_TOL:
        raise ValueError("rho is not a representation of the bracket on z")
    if nullspace(_unit_scaled(mats.reshape(-1, nv))).shape[1] > 0:
        raise ValueError("representation matrices share a kernel")
    # ad-invariance of gram_z: <[[u,v]],w> + <v,[[u,w]]> = 0
    ad_pair = np.einsum("stu,uw->stw", z_bracket, gram_z)
    if (np.abs(ad_pair + ad_pair.transpose(0, 2, 1)).max()
            > DEFAULT_TOL * np.abs(ad_pair).max()):
        raise ValueError("inner product on z is not ad-invariant")
    n = nv + m
    c = np.zeros((n, n, n))
    # g([x,y], w_s) = (rho_s)_{ba} pins the z components of [e_a, e_b]
    ginv = np.linalg.inv(gram_z)
    c[:nv, :nv, nv:] = np.einsum("ts,sba->abt", ginv, mats)
    gram = np.zeros((n, n))
    gram[:nv, :nv] = np.eye(nv)
    gram[nv:, nv:] = gram_z
    names = [f"e{i + 1}" for i in range(nv)] + [f"z{t + 1}" for t in range(m)]
    return MetricLieAlgebra(n, names, c, gram, name="rep")


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    dim: int
    builder: Optional[Callable[[], MetricLieAlgebra]]
    expected: Optional[tuple] = None        # (dimK2, dimK3)

    @property
    def buildable(self):
        return self.builder is not None

    def build(self):
        if self.builder is None:
            raise ValueError(f"{self.name}: no construction shipped")
        return replace(self.builder(), name=self.name)


# The classification algebras by name.  A placeholder, whose construction
# the literature leaves to an external list of isomorphism classes, has no
# builder.  A builder looks its constructors up in the module globals when it
# runs, so a patched module attribute is the one called.
_REGISTRY = {entry.name: entry for entry in (
    CatalogEntry("R2+h3", 5, lambda: direct_sum([euclidean(2), heisenberg(1)]), (1, 1)),
    CatalogEntry("R3+h3", 6, lambda: direct_sum([euclidean(3), heisenberg(1)]), (3, 2)),
    CatalogEntry("h3C", 6, lambda: complex_heisenberg(), (1, 0)),
    CatalogEntry("R+h3C", 7,
                 lambda: direct_sum([euclidean(1), complex_heisenberg()]), (1, 0)),
    CatalogEntry("R2+h5", 7, lambda: direct_sum([euclidean(2), heisenberg(2)]), (1, 1)),
    CatalogEntry("R2+N5#2", 7, None), CatalogEntry("R2+N5#3", 7, None),
    CatalogEntry("R2+(h3+h3)", 8,
                 lambda: direct_sum([euclidean(2), heisenberg(1), heisenberg(1)]),
                 (1, 2)),
    CatalogEntry("R2+n32", 8,
                 lambda: direct_sum([euclidean(2), free_two_step_3()]), (1, 1)),
    CatalogEntry("R2+N6#3", 8, None), CatalogEntry("R2+N6#4", 8, None),
    CatalogEntry("R2+N6#5", 8, None), CatalogEntry("R2+N6#6", 8, None),
    CatalogEntry("R2+N6#7", 8, None),
    CatalogEntry("h3", 3, lambda: heisenberg(1), (0, 1)),
    CatalogEntry("R+h3", 4, lambda: direct_sum([euclidean(1), heisenberg(1)]), (0, 1)),
    CatalogEntry("h5", 5, lambda: heisenberg(2), (0, 1)),
    CatalogEntry("h3+h3", 6,
                 lambda: direct_sum([heisenberg(1), heisenberg(1)]), (0, 2)),
    CatalogEntry("R+h5", 6, lambda: direct_sum([euclidean(1), heisenberg(2)]), (0, 1)),
    CatalogEntry("n32", 6, lambda: free_two_step_3(), (0, 1)),
)}

_LIST2 = ("R2+h3", "R3+h3", "h3C", "R+h3C", "R2+h5", "R2+N5#2", "R2+N5#3",
          "R2+(h3+h3)", "R2+n32", "R2+N6#3", "R2+N6#4", "R2+N6#5", "R2+N6#6",
          "R2+N6#7")
_LIST3 = ("h3", "R+h3", "R2+h3", "h5", "R3+h3", "h3+h3", "R+h5", "n32")

# The parametric families by constructor name (called through the module
# globals), with the keyword each reads, if any, and its default.
_PARAMETRIC = {"heisenberg": {"l": 1}, "complex_heisenberg": {"lam": 1.0},
               "free_two_step_3": {}, "euclidean": {"d": 1}}


def classification_lists():
    """The two low-dimensional classification lists, for Killing 2-forms and
    3-forms; an algebra on both lists is one shared entry."""
    return [_REGISTRY[n] for n in _LIST2], [_REGISTRY[n] for n in _LIST3]


def catalog_names():
    """All names resolvable through `build`, parametric builders included."""
    return list(_PARAMETRIC) + [name for name, entry in _REGISTRY.items()
                                if entry.buildable]


def parameters(name):
    """The keywords `build(name, ...)` reads, with their defaults."""
    if name not in _PARAMETRIC and name not in _REGISTRY:
        raise KeyError(f"unknown catalog name: {name}")
    return dict(_PARAMETRIC.get(name, {}))


def build(name, **params) -> MetricLieAlgebra:
    """Resolve a catalog name with keywords of `parameters(name)`.  Another
    keyword or a placeholder raises ValueError, an unknown name KeyError."""
    defaults = parameters(name)
    for key in params:
        if key not in defaults:
            raise ValueError(f"{name} takes no parameter {key}")
    if name not in _PARAMETRIC:
        return _REGISTRY[name].build()
    return globals()[name](**{**defaults, **params})
