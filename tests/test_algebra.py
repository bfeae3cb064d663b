"""Validation, adapted frames, the j-map and the Levi-Civita connection."""
import numpy as np
import pytest

from nilkilling import (
    MetricLieAlgebra,
    adapted_frame,
    complex_heisenberg,
    direct_sum,
    euclidean,
    free_two_step_3,
    heisenberg,
    j_trace_form,
    levi_civita,
    nabla_matrix,
    decompose,
    validate,
)
from nilkilling.algebra import rotate_constants
from nilkilling.errors import NotSkew

from helpers import koszul_nabla

CATALOG = [
    heisenberg(1),
    heisenberg(2),
    complex_heisenberg(1.0),
    complex_heisenberg(2.0),
    free_two_step_3(),
    direct_sum([euclidean(2), heisenberg(1)]),
]


def test_validate_h3_ok():
    assert validate(heisenberg(1)).ok


def test_validate_antisymmetry_violation():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = 1.0  # should be -1
    L = MetricLieAlgebra(3, ["e1", "e2", "e3"], c, np.eye(3))
    report = validate(L)
    assert not report.ok
    assert any("antisymmetry" in v for v in report.violations)
    with pytest.raises(NotSkew):
        adapted_frame(L)


def test_validate_three_step_violation():
    # [e1,e2] = e3, [e1,e3] = e4 is 3-step: [[e1,e2],e1] != 0
    c = np.zeros((4, 4, 4))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    c[0, 2, 3] = 1.0
    c[2, 0, 3] = -1.0
    L = MetricLieAlgebra(4, ["e1", "e2", "e3", "e4"], c, np.eye(4))
    report = validate(L)
    assert any("2-step" in v for v in report.violations)


@pytest.mark.parametrize("entry", [validate, adapted_frame, decompose])
def test_zero_dimensional_algebra_refused(entry):
    with pytest.raises(ValueError, match="algebra dimension must be positive"):
        entry(euclidean(0))


def test_validate_indefinite_gram():
    L = heisenberg(1)
    bad = MetricLieAlgebra(3, list(L.basis_names), L.structure_constants,
                           np.diag([1.0, 1.0, -1.0]))
    assert any("definite" in v for v in validate(bad).violations)


def _spans_equal(a, b):
    return (np.linalg.matrix_rank(np.concatenate([a, b], axis=1))
            == np.linalg.matrix_rank(a) == np.linalg.matrix_rank(b))


def center_and_commutator(L):
    """The centre (z-block) and the commutator (z-block minus a_indices) of
    the adapted frame, as user-coordinate columns; both are checked against
    their definitions: the centre is annihilated by every ad map, and the
    commutator is the span of all brackets."""
    F = adapted_frame(L)
    z = F.frame[:, list(F.z_indices)]
    comm = F.frame[:, [i for i in F.z_indices if i not in F.a_indices]]
    for i in range(L.dim):
        assert np.abs(L.ad_matrix(i) @ z).max(initial=0.0) < 1e-12
    brackets = L.structure_constants.reshape(-1, L.dim).T
    if comm.shape[1]:
        assert _spans_equal(comm, brackets)
    else:
        assert not np.any(brackets)
    return F, z, comm


def test_center_commutator_h3():
    _, z, comm = center_and_commutator(heisenberg(1))
    assert z.shape[1] == 1 and comm.shape[1] == 1
    # both are the e3 axis
    for v in (z[:, 0], comm[:, 0]):
        assert abs(abs(v[2]) - 1.0) < 1e-12
        assert np.abs(v[:2]).max() < 1e-12


def test_center_commutator_r2_h3():
    _, z, comm = center_and_commutator(direct_sum([euclidean(2), heisenberg(1)]))
    assert z.shape[1] == 3 and comm.shape[1] == 1


def test_center_commutator_complex_heisenberg():
    _, z, comm = center_and_commutator(complex_heisenberg(1.0))
    assert z.shape[1] == 2 and comm.shape[1] == 2


def test_center_commutator_abelian():
    F, z, comm = center_and_commutator(euclidean(3))
    assert F.nv == 0 and F.nz == len(F.a_indices) == 3
    assert comm.shape[1] == 0


def test_adapted_frame_h3():
    L = heisenberg(1)
    F = adapted_frame(L)
    assert F.nv == 2 and F.nz == 1 and F.a_indices == ()
    # j(e3) maps e1 -> e2, e2 -> -e1
    j = F.j_matrices[0]
    assert np.allclose(j @ np.array([1.0, 0.0]), [0.0, 1.0])
    assert np.allclose(j @ np.array([0.0, 1.0]), [-1.0, 0.0])


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_adapted_frame_complex_heisenberg(lam):
    L = complex_heisenberg(lam)
    F = adapted_frame(L)
    assert F.nv == 4 and F.nz == 2
    for jt in F.j_matrices:
        assert np.allclose(jt @ jt, -lam ** 2 * np.eye(4), atol=1e-12)


def test_adapted_frame_abelian_kernel():
    F = adapted_frame(direct_sum([euclidean(1), heisenberg(1)]))
    assert len(F.a_indices) == 1
    t = F.a_indices[0] - F.nv
    assert np.abs(F.j_matrices[t]).max() < 1e-12


def test_frame_is_gram_orthonormal():
    for L in CATALOG:
        F = adapted_frame(L)
        assert np.allclose(F.frame.T @ L.gram @ F.frame, np.eye(L.dim),
                           atol=1e-10)


def test_j_matrices_skew_and_no_common_kernel():
    for L in CATALOG:
        F = adapted_frame(L)
        active = [F.j_matrices[t - F.nv] for t in F.z_indices
                  if t not in F.a_indices]
        for jt in F.j_matrices:
            assert np.abs(jt + jt.T).max() < 1e-10
        if F.nv and active:
            stacked = np.concatenate(active, axis=0)
            s = np.linalg.svd(stacked, compute_uv=False)
            assert s.min() > 1e-9


def test_rotate_constants_matches_einsum():
    rng = np.random.default_rng(3)
    c = rng.normal(size=(5, 5, 5))
    cols, dual = rng.normal(size=(5, 3)), rng.normal(size=(5, 4))
    ref = np.einsum("ia,jb,ijk,kc->abc", cols, cols, c, dual)
    assert np.abs(rotate_constants(c, cols, dual) - ref).max() < 1e-12


def test_levi_civita_h3_table():
    L = heisenberg(1)
    F = adapted_frame(L)
    e = np.eye(3)
    assert np.allclose(levi_civita(F, e[:, 0], e[:, 1]), [0, 0, 0.5])
    assert np.allclose(levi_civita(F, e[:, 0], e[:, 2]), [0, -0.5, 0])
    assert np.allclose(levi_civita(F, e[:, 2], e[:, 2]), [0, 0, 0])


def test_levi_civita_matches_raw_koszul():
    rng = np.random.default_rng(7)
    for L in CATALOG:
        F = adapted_frame(L)
        for _ in range(100):
            x = rng.normal(size=L.dim)
            y = rng.normal(size=L.dim)
            assert np.allclose(levi_civita(F, x, y), koszul_nabla(F, x, y),
                               atol=1e-12)


def test_connection_metric_compatible_and_torsion_free():
    rng = np.random.default_rng(11)
    for L in CATALOG:
        F = adapted_frame(L)
        c = F.constants
        for _ in range(20):
            u, v, w = rng.normal(size=(3, L.dim))
            duv = levi_civita(F, u, v)
            duw = levi_civita(F, u, w)
            assert abs(duv @ w + v @ duw) < 1e-10
            br = np.einsum("i,j,ijk->k", u, v, c)
            assert np.abs(duv - levi_civita(F, v, u) - br).max() < 1e-10


def test_nabla_matrix_is_skew():
    rng = np.random.default_rng(3)
    for L in CATALOG:
        F = adapted_frame(L)
        y = rng.normal(size=L.dim)
        m = nabla_matrix(F, y)
        assert np.abs(m + m.T).max() < 1e-12


def test_j_trace_form_h3():
    L = heisenberg(1)
    assert np.allclose(j_trace_form(adapted_frame(L)), [[-2.0]])


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 3.0])
def test_j_trace_form_complex_heisenberg(lam):
    L = complex_heisenberg(lam)
    assert np.allclose(j_trace_form(adapted_frame(L)),
                       -4.0 * lam ** 2 * np.eye(2), atol=1e-9)


def test_j_trace_form_abelian_direction_zero():
    L = direct_sum([euclidean(1), heisenberg(1)])
    F = adapted_frame(L)
    jt = j_trace_form(F)
    t = F.a_indices[0] - F.nv
    assert np.abs(jt[t, :]).max() < 1e-12
    assert np.abs(jt[:, t]).max() < 1e-12


def test_json_round_trip():
    for L in CATALOG:
        data = L.to_json()
        back = MetricLieAlgebra.from_json(data)
        assert np.allclose(back.structure_constants, L.structure_constants)
        assert np.allclose(back.gram, L.gram)
        assert back.to_json() == data


def test_save_load(tmp_path):
    L = complex_heisenberg(2.0)
    path = tmp_path / "alg.json"
    L.save(path)
    back = MetricLieAlgebra.load(path)
    assert np.allclose(back.gram, L.gram)
    assert np.allclose(back.structure_constants, L.structure_constants)
