"""Named constructors for the algebras used throughout the low-dimensional
classification, plus the two classification lists and the construction of
naturally-reductive-type algebras from compact Lie algebra representations.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import MetricLieAlgebra
from .errors import EmptySum, NotAdInvariant, TrivialSubrepresentation
from .linalg import DEFAULT_TOL, _unit_scaled, nullspace


def heisenberg(l: int) -> MetricLieAlgebra:
    """Real Heisenberg algebra of dimension 2l+1, identity metric."""
    if l < 1:
        raise ValueError("l must be >= 1")
    n = 2 * l + 1
    c = np.zeros((n, n, n))
    for i in range(l):
        c[2 * i, 2 * i + 1, n - 1] = 1.0
        c[2 * i + 1, 2 * i, n - 1] = -1.0
    names = [f"e{i + 1}" for i in range(n - 1)] + ["z"]
    return MetricLieAlgebra(n, names, c, np.eye(n), name=f"h{n}")


def complex_heisenberg(lam: float = 1.0) -> MetricLieAlgebra:
    """Real algebra underlying the complex Heisenberg algebra.

    Brackets [e1,e3] = z1 = -[e2,e4], [e2,e3] = z2 = [e1,e4]; the metric
    makes {e1..e4, z1/lam, z2/lam} orthonormal.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    lam2 = float(lam) * float(lam)      # float ** would raise OverflowError
    if not np.isfinite(lam2):
        raise ValueError(f"lambda squared is not finite: {lam!r}")
    n = 6
    c = np.zeros((n, n, n))
    for i, j, k, v in [(0, 2, 4, 1.0), (1, 3, 4, -1.0), (1, 2, 5, 1.0), (0, 3, 5, 1.0)]:
        c[i, j, k] = v
        c[j, i, k] = -v
    gram = np.diag([1.0, 1.0, 1.0, 1.0, lam2, lam2])
    names = ["e1", "e2", "e3", "e4", "z1", "z2"]
    return MetricLieAlgebra(n, names, c, gram, name=f"h3C(lam={lam:g})")


def free_two_step_3() -> MetricLieAlgebra:
    """Free 2-step nilpotent algebra on 3 generators, identity metric."""
    n = 6
    c = np.zeros((n, n, n))
    for i, j, k in [(0, 1, 3), (0, 2, 4), (1, 2, 5)]:
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    names = [f"e{i + 1}" for i in range(n)]
    return MetricLieAlgebra(n, names, c, np.eye(n), name="n32")


def euclidean(d: int) -> MetricLieAlgebra:
    """Abelian algebra of dimension d with the standard inner product."""
    if d < 0:
        raise ValueError("dimension must be non-negative")
    return MetricLieAlgebra(
        d, [f"a{i + 1}" for i in range(d)], np.zeros((d, d, d)), np.eye(d),
        name=f"R{d}",
    )


def direct_sum(parts, name="") -> MetricLieAlgebra:
    """Block-diagonal direct sum of metric Lie algebras."""
    parts = list(parts)
    if not parts:
        raise EmptySum("direct sum of no algebras")
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
    # sum_u c[s,t,u] rho_u = [rho_s, rho_t], quadratic in rho
    prod = np.einsum("sab,tbc->stac", mats, mats)
    image = np.einsum("stu,uac->stac", z_bracket, mats)
    residual = np.abs(image - prod + prod.transpose(1, 0, 2, 3)).max()
    if residual > DEFAULT_TOL * scale ** 2:
        raise ValueError("rho is not a representation of the bracket on z")
    if nullspace(_unit_scaled(mats.reshape(-1, nv))).shape[1] > 0:
        raise TrivialSubrepresentation("representation matrices share a kernel")
    # ad-invariance of gram_z: <[[u,v]],w> + <v,[[u,w]]> = 0
    ad_pair = np.einsum("stu,uw->stw", z_bracket, gram_z)
    if (np.abs(ad_pair + ad_pair.transpose(0, 2, 1)).max()
            > DEFAULT_TOL * np.abs(ad_pair).max()):
        raise NotAdInvariant("inner product on z is not ad-invariant")
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
        alg = self.builder()
        return MetricLieAlgebra(
            alg.dim, list(alg.basis_names), alg.structure_constants, alg.gram,
            name=self.name,
        )


def _h3():
    return heisenberg(1)


def _h5():
    return heisenberg(2)


def _sum(*builders):
    def make():
        return direct_sum([b() for b in builders])
    return make


def classification_lists():
    """The two low-dimensional classification lists.

    Entries whose construction the literature leaves to an external list of
    isomorphism classes are emitted as placeholders with no builder.
    """
    r = euclidean
    list2 = [
        CatalogEntry("R2+h3", 5, _sum(lambda: r(2), _h3), expected=(1, 1)),
        CatalogEntry("R3+h3", 6, _sum(lambda: r(3), _h3), expected=(3, 2)),
        CatalogEntry("h3C", 6, complex_heisenberg, expected=(1, 0)),
        CatalogEntry("R+h3C", 7, _sum(lambda: r(1), complex_heisenberg),
                     expected=(1, 0)),
        CatalogEntry("R2+h5", 7, _sum(lambda: r(2), _h5), expected=(1, 1)),
        CatalogEntry("R2+N5#2", 7, None),
        CatalogEntry("R2+N5#3", 7, None),
        CatalogEntry("R2+(h3+h3)", 8, _sum(lambda: r(2), _h3, _h3),
                     expected=(1, 2)),
        CatalogEntry("R2+n32", 8, _sum(lambda: r(2), free_two_step_3),
                     expected=(1, 1)),
        CatalogEntry("R2+N6#3", 8, None),
        CatalogEntry("R2+N6#4", 8, None),
        CatalogEntry("R2+N6#5", 8, None),
        CatalogEntry("R2+N6#6", 8, None),
        CatalogEntry("R2+N6#7", 8, None),
    ]
    list3 = [
        CatalogEntry("h3", 3, _h3, expected=(0, 1)),
        CatalogEntry("R+h3", 4, _sum(lambda: r(1), _h3), expected=(0, 1)),
        CatalogEntry("R2+h3", 5, _sum(lambda: r(2), _h3), expected=(1, 1)),
        CatalogEntry("h5", 5, _h5, expected=(0, 1)),
        CatalogEntry("R3+h3", 6, _sum(lambda: r(3), _h3), expected=(3, 2)),
        CatalogEntry("h3+h3", 6, _sum(_h3, _h3), expected=(0, 2)),
        CatalogEntry("R+h5", 6, _sum(lambda: r(1), _h5), expected=(0, 1)),
        CatalogEntry("n32", 6, free_two_step_3, expected=(0, 1)),
    ]
    return list2, list3


def catalog_names():
    """All names resolvable through `build`, parametric builders included."""
    names = ["heisenberg", "complex_heisenberg", "free_two_step_3", "euclidean"]
    seen = set(names)
    for lst in classification_lists():
        for entry in lst:
            if entry.buildable and entry.name not in seen:
                names.append(entry.name)
                seen.add(entry.name)
    return names


def build(name, lam=1.0, l=1, d=1) -> MetricLieAlgebra:
    """Resolve a catalog name (parametric builders honor lam / l / d)."""
    if name == "heisenberg":
        return heisenberg(l)
    if name == "complex_heisenberg":
        return complex_heisenberg(lam)
    if name == "free_two_step_3":
        return free_two_step_3()
    if name == "euclidean":
        return euclidean(d)
    for lst in classification_lists():
        for entry in lst:
            if entry.name == name and entry.buildable:
                return entry.build()
    raise KeyError(f"unknown catalog name: {name}")
