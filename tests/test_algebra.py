"""Validation, adapted frames, the j-map and the Levi-Civita connection."""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from nilkilling import (
    AdaptedFrame,
    Form,
    MetricLieAlgebra,
    adapted_frame,
    complex_heisenberg,
    decompose,
    direct_sum,
    euclidean,
    free_two_step_3,
    heisenberg,
    j_trace_form,
    killing_nullspace_brute,
    levi_civita,
    nabla_form,
    nabla_matrix,
    validate,
)
from nilkilling import algebra, catalog
from nilkilling.algebra import connection, rotate_constants
from nilkilling.errors import InvalidAlgebra

from helpers import change_user_basis, koszul_nabla, random_spd_metric, with_metric

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
    with pytest.raises(InvalidAlgebra, match="invalid algebra: antisymmetry"):
        adapted_frame(L)


def _h3_h3_r(skew_defect, g):
    """h3 + h3 + R with [b0,b1] = b2 and [b3,b4] = b6, b5 spanning R, plus
    c[4,3,5] = skew_defect with c[3,4,5] = 0, and Gram diag(1,1,1,1,1,g,1)."""
    c = np.zeros((7, 7, 7))
    for i, j, k in ((0, 1, 2), (3, 4, 6)):
        c[i, j, k], c[j, i, k] = 1.0, -1.0
    c[4, 3, 5] = skew_defect
    return MetricLieAlgebra(7, [f"b{i}" for i in range(7)], c,
                            np.diag([1.0, 1.0, 1.0, 1.0, 1.0, g, 1.0]))


@pytest.mark.parametrize("g", [1e6, 1e8])
def test_what_validation_accepts_is_decomposed(g):
    # antisymmetric only to within tol, so validation accepts it; the
    # pipeline reads its antisymmetric part, the algebra with c[4,3,5] = 0,
    # where a j-map read off the raw constants would not be skew
    L, exact = _h3_h3_r(9e-10, g), _h3_h3_r(0.0, g)
    assert validate(L).ok

    def answers(M):
        dec, F = decompose(M), adapted_frame(M)
        return (dec.killing_dimensions(),
                [(f.frame.nv, f.frame.nz) for f in dec.factors],
                [killing_nullspace_brute(M, F, k).dim for k in (2, 3)])

    assert answers(L) == answers(exact) == (
        (0, 2, 1, 0, 2), [(2, 1), (2, 1)], [0, 2])


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


def test_validate_reads_the_double_bracket_in_blocks():
    # 20 h3 + R (n = 61): the whole n^4 double-bracket table would be
    # 111 MB; the 3-step bracket [b60, b59] = b0 sits in the last block
    L = direct_sum([heisenberg(1)] * 20 + [euclidean(1)])
    tracemalloc.start()
    try:
        assert validate(L).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    c = L.structure_constants.copy()
    c[60, 59, 0], c[59, 60, 0] = 1.0, -1.0
    three_step = MetricLieAlgebra(61, L.basis_names, c, L.gram)
    assert validate(three_step).violations == [
        "2-step: [[x,y],w] != 0 for some basis triple"]


@pytest.mark.parametrize("build", [
    lambda: MetricLieAlgebra(0, [], np.zeros((0, 0, 0)), np.zeros((0, 0))),
    lambda: euclidean(0),
], ids=["MetricLieAlgebra", "euclidean"])
def test_zero_dimensional_algebra_refused(build):
    # the type holds the rule, so no zero-dimensional algebra exists to check
    with pytest.raises(ValueError, match="algebra dimension must be positive"):
        build()


@pytest.mark.parametrize("where", ["constants", "gram"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_entry_is_a_violation(where, value):
    L = heisenberg(1)
    c, g = L.structure_constants.copy(), np.eye(3)
    if where == "constants":
        c[0, 1, 2], c[1, 0, 2] = value, -value
    else:
        g[2, 2] = value
    bad = MetricLieAlgebra(3, list(L.basis_names), c, g)
    assert validate(bad).violations == [
        ("structure constants" if where == "constants" else "gram")
        + " has a non-finite entry"]
    with pytest.raises(InvalidAlgebra, match="non-finite"):
        adapted_frame(bad)


def test_validate_indefinite_gram():
    L = heisenberg(1)
    bad = MetricLieAlgebra(3, list(L.basis_names), L.structure_constants,
                           np.diag([1.0, 1.0, -1.0]))
    assert validate(bad).violations == ["gram not positive definite"]


def test_ill_conditioned_gram_names_the_condition_number():
    # h3C(1e5) has Gram diag(1, 1, 1, 1, 1e10, 1e10): positive definite,
    # but past the 1/tol conditioning cap
    L = complex_heisenberg(1e5)
    assert validate(L).violations == [
        "gram condition number 1e+10 exceeds 1/tol = 1e+09"]
    with pytest.raises(InvalidAlgebra, match="gram condition number"):
        adapted_frame(L)
    assert validate(complex_heisenberg(3e4)).ok


@pytest.mark.parametrize("L", [
    heisenberg(2),
    complex_heisenberg(2.0),
    direct_sum([euclidean(2), heisenberg(1)]),
    direct_sum([euclidean(1), free_two_step_3()]),
], ids=lambda L: L.name)
def test_adapted_frame_makes_two_rank_decisions(monkeypatch, L):
    # the centre and ker j; v is the centre's complement, and the image of
    # j is read off the SVD that decides ker j
    shapes = []

    def recording(solve):
        def record(a, tol):
            shapes.append(np.shape(a))
            return solve(a, tol)
        return record

    for name in ("nullspace", "_row_and_null_space"):
        monkeypatch.setattr(algebra, name, recording(getattr(algebra, name)))
    F = adapted_frame(L)
    n, nv, nz = L.dim, F.nv, F.nz
    assert shapes == [(n * n, n), (nv * nv, nz)]


@pytest.mark.parametrize("L", [
    heisenberg(2),
    with_metric(complex_heisenberg(2.0),
                random_spd_metric(6, np.random.default_rng(3))),
    direct_sum([euclidean(1), free_two_step_3()]),
    euclidean(3),
], ids=lambda L: L.name)
def test_adapted_frame_reads_the_metric_through_one_factor(monkeypatch, L):
    # one Cholesky factor of the Gram matrix and one complete QR give both
    # the z-block and v = z^perp
    calls = []
    for name in ("cholesky", "qr"):
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kw):
            calls.append(_name)
            return _original(*args, **kw)
        monkeypatch.setattr(np.linalg, name, counted)
    adapted_frame(L)
    assert sorted(calls) == ["cholesky", "qr"]


def _spans_equal(a, b):
    return (np.linalg.matrix_rank(np.concatenate([a, b], axis=1))
            == np.linalg.matrix_rank(a) == np.linalg.matrix_rank(b))


def center_and_commutator(L):
    """The centre (z-block) and the commutator (z-block minus the last na) of
    the adapted frame, as user-coordinate columns; both are checked against
    their definitions: the centre is annihilated by every ad map, and the
    commutator is the span of all brackets."""
    F = adapted_frame(L)
    z = F.frame[:, F.nv:]
    comm = F.frame[:, F.nv:F.n - F.na]
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
    assert F.nv == 0 and F.nz == F.na == 3
    assert comm.shape[1] == 0


def test_adapted_frame_h3():
    L = heisenberg(1)
    F = adapted_frame(L)
    assert F.nv == 2 and F.nz == 1 and F.na == 0
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
    assert F.na == 1
    t = F.nz - F.na
    assert np.abs(F.j_matrices[t]).max() < 1e-12


def test_frame_layout_is_two_integers():
    # v is the first nv frame vectors, ker j the last na; the j-maps are a
    # view of the constants, not a copy
    names = [f.name for f in dataclasses.fields(AdaptedFrame)]
    assert names == ["frame", "constants", "nv", "na"]
    F = adapted_frame(direct_sum([euclidean(1), heisenberg(1)]))
    assert (F.n, F.nv, F.nz, F.na) == (4, 2, 2, 1)
    assert np.shares_memory(F.j_matrices, F.constants)
    assert np.array_equal(F.j_matrices, F.constants[:2, :2, 2:].transpose(2, 1, 0))


def test_frame_is_gram_orthonormal():
    rng = np.random.default_rng(5)
    for L in CATALOG + [with_metric(L, random_spd_metric(L.dim, rng))
                        for L in CATALOG]:
        F = adapted_frame(L)
        assert np.allclose(F.frame.T @ L.gram @ F.frame, np.eye(L.dim),
                           atol=1e-10)


@pytest.mark.parametrize("name", catalog.catalog_names())
def test_frame_order_survives_a_round_off_gram_change(name):
    # user axes that project with equal norm are tied pivots; a tie takes
    # the lowest user index, so a symmetric Gram change at the round-off
    # level cannot permute the frame columns
    L = catalog.build(name)
    frame = adapted_frame(L).frame
    for seed in range(20):
        e = np.random.default_rng(seed).normal(size=(L.dim, L.dim)) * 1e-15
        moved = adapted_frame(with_metric(L, L.gram + (e + e.T) / 2)).frame
        assert np.abs(moved - frame).max() < 1e-9, seed


def test_j_matrices_skew_and_no_common_kernel():
    for L in CATALOG:
        F = adapted_frame(L)
        active = list(F.j_matrices[:F.nz - F.na])
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


def _scrambled_r2_h3():
    """R^2 + h3 in a rotated user basis with an SPD metric: the frame
    constants of its abelian directions are pure round-off."""
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    L = change_user_basis(direct_sum([euclidean(2), heisenberg(1)]), q)
    return with_metric(L, random_spd_metric(5, rng))


CONNECTION_CASES = CATALOG + [_scrambled_r2_h3()]


def test_levi_civita_matches_raw_koszul():
    rng = np.random.default_rng(7)
    for L in CONNECTION_CASES:
        F = adapted_frame(L)
        for _ in range(100):
            x = rng.normal(size=L.dim)
            y = rng.normal(size=L.dim)
            assert np.allclose(levi_civita(F, x, y), koszul_nabla(F, x, y),
                               atol=1e-12)
        eye = np.eye(L.dim)
        for a, slice_a in enumerate(connection(F)):
            want = np.array([koszul_nabla(F, eye[a], eye[b]) for b in range(L.dim)]).T
            assert np.allclose(slice_a, want, atol=1e-12)


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
    for L in CONNECTION_CASES:
        F = adapted_frame(L)
        y = rng.normal(size=L.dim)
        m = nabla_matrix(F, y)
        assert np.abs(m + m.T).max() < 1e-12
        G = connection(F)
        assert G.shape == (L.dim,) * 3
        assert np.array_equal(G, -G.transpose(0, 2, 1))


def test_nabla_matrix_refuses_a_vector_of_the_wrong_shape():
    L = heisenberg(1)
    F = adapted_frame(L)
    with pytest.raises(ValueError, match=r"vector must have shape \(3,\), got \(2,\)"):
        nabla_form(L, F, np.ones(2), Form.basis(3, 2, (0, 1)))
    with pytest.raises(ValueError, match=r"vector must have shape \(3,\), got \(4,\)"):
        levi_civita(F, np.ones(4), np.ones(3))


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
    t = F.nz - F.na
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
