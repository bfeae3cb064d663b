"""Decomposition, complex structures, natural reductivity, dimension formulas."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilkilling import (
    MetricLieAlgebra,
    adapted_frame,
    compatible_metric,
    complex_heisenberg,
    decompose,
    direct_sum,
    euclidean,
    find_complex_structure,
    free_two_step_3,
    heisenberg,
    j_trace_form,
    killing_dimensions,
    naturally_reductive_type,
    structured_killing,
    transform,
)
from nilkilling import structure
from nilkilling.catalog import build, catalog_names
from nilkilling.linalg import DEFAULT_TOL, _unit_scaled, nullspace, span_distance

from helpers import (
    change_user_basis,
    commutant_system_reference,
    full_intertwiners,
    random_spd_metric,
    random_two_step,
    with_metric,
)

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])
# the reference complex structure: e1->e2, e3->e4, z1->z2
J_REF = np.kron(np.eye(3), ROT)


def assert_intertwiners(mats, F):
    """Frobenius-orthonormal symmetric maps with S[x,y] = [Sx,y]."""
    flat = np.array([m.ravel() for m in mats])
    assert np.abs(flat @ flat.T - np.eye(len(mats))).max() < 1e-10
    c = F.constants
    for m in mats:
        assert np.abs(m - m.T).max() < 1e-10
        s_bracket = np.einsum("pk,abk->abp", m, c)
        bracket_s = np.einsum("ca,cbp->abp", m, c)
        assert np.abs(s_bracket - bracket_s).max() < 1e-10


def factor_algebra(factor):
    """The factor as an algebra in its own orthonormal basis."""
    p = factor.dim
    return MetricLieAlgebra(p, [f"f{i}" for i in range(p)],
                            factor.frame.constants, np.eye(p))


def assert_factor_frames_match(dec):
    """Each factor frame equals the adapted frame built from scratch."""
    for factor in dec.factors:
        ff, ref = factor.frame, adapted_frame(factor_algebra(factor))
        assert np.abs(ff.frame - ref.frame).max() < 1e-10
        assert (ff.nv, ff.nz) == (ref.nv, ref.nz)
        assert ff.na == ref.na == 0
        assert len(ff.j_matrices) == len(ref.j_matrices)
        for a, b in zip(ff.j_matrices, ref.j_matrices):
            assert np.abs(a - b).max() < 1e-10


def test_commutant_h3_is_identity_line():
    L = heisenberg(1)
    F = adapted_frame(L)
    mats = structure._solve_intertwiners(F.constants, F.nv, DEFAULT_TOL,
                                         symmetric=True)
    assert len(mats) == 1
    m = mats[0]
    assert np.abs(m - (np.trace(m) / 3) * np.eye(3)).max() < 1e-10


def test_commutant_h3_h3_two_dimensional():
    L = direct_sum([heisenberg(1), heisenberg(1)])
    F = adapted_frame(L)
    mats = structure._solve_intertwiners(F.constants, F.nv, DEFAULT_TOL,
                                         symmetric=True)
    assert len(mats) == 2
    assert_intertwiners(mats, F)


def test_commutant_complex_heisenberg_irreducible():
    L = complex_heisenberg(1.0)
    F = adapted_frame(L)
    mats = structure._solve_intertwiners(F.constants, F.nv, DEFAULT_TOL,
                                         symmetric=True)
    assert len(mats) == 1
    assert_intertwiners(mats, F)


def assert_same_intertwiners(F):
    """The graded solve spans the same space as the full reference."""
    for symmetric in (True, False):
        graded = structure._solve_intertwiners(F.constants, F.nv, 1e-9,
                                               symmetric)
        full = full_intertwiners(F.constants, 1e-9, symmetric)
        assert len(graded) == len(full)
        if graded:
            flat_g = np.array([m.ravel() for m in graded]).T
            flat_f = np.array([m.ravel() for m in full]).T
            assert span_distance(flat_g, flat_f) < 1e-8


# (nv, nz) of one summand: nz at most dim so(nv)
SUMMAND = st.integers(2, 5).flatmap(
    lambda nv: st.tuples(st.just(nv), st.integers(1, min(3, nv * (nv - 1) // 2))))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(summands=st.lists(SUMMAND, min_size=1, max_size=3),
       flat=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_graded_intertwiners_match_full_solve(summands, flat, seed):
    rng = np.random.default_rng(seed)
    # at most 16 dimensions: the full reference system stays <= 4096 x 136
    dims = np.cumsum([nv + nz for nv, nz in summands])
    parts = [random_two_step(nv, nz, rng, scale=rng.uniform(0.5, 2.0))
             for (nv, nz), n in zip(summands, dims) if n + flat <= 16]
    if flat:
        parts.append(euclidean(flat))
    L = direct_sum(parts)
    q, _ = np.linalg.qr(rng.normal(size=(L.dim, L.dim)))
    Ls = change_user_basis(L, q)
    assert_same_intertwiners(adapted_frame(Ls))
    for factor in decompose(Ls).factors:
        assert_same_intertwiners(factor.frame)


def test_decompose_solves_graded_systems(monkeypatch):
    # R^2 + h3C(1) + h3C(2): the 12-dim block has pv = 8, pz = 4, so
    # 8^2 * 4 equations in 8*9/2 + 4*5/2 unknowns (1728 x 78 ungraded)
    shapes = []
    solve = structure.nullspace

    def recording(a, tol):
        shapes.append(np.shape(a))
        return solve(a, tol)

    monkeypatch.setattr(structure, "nullspace", recording)
    L = direct_sum([euclidean(2), complex_heisenberg(1.0),
                    complex_heisenberg(2.0)])
    dec = decompose(L)
    assert dec.killing_dimensions()[:2] == (3, 0)
    assert (256, 46) in shapes
    assert max(r * c for r, c in shapes) == 256 * 46


def _top_block(F):
    """Constants of the block ker j is split off from, and its v-dimension."""
    m = F.n - F.na
    return F.constants[:m, :m, :m], F.nv


def assert_commutant_matches_reference(F):
    """The graded solve on the top block spans the nullspace of the
    bracket-by-bracket reference system, symmetric and skew."""
    block, pv = _top_block(F)
    for symmetric in (True, False):
        solved = structure._solve_intertwiners(block, pv, 1e-9, symmetric)
        system, basis = commutant_system_reference(block, pv, symmetric)
        null = nullspace(_unit_scaled(system), 1e-9)
        ref = np.array([b.ravel() for b in basis]).T @ null
        assert len(solved) == ref.shape[1]
        if solved:
            flat = np.array([m.ravel() for m in solved]).T
            assert span_distance(flat, ref) <= 1e-12


@pytest.mark.parametrize("parts", [((2, 1),), ((3, 2),), ((5, 3),),
                                   ((4, 2), (2, 1)), ((3, 3), (3, 1))], ids=str)
def test_commutant_matches_bracket_by_bracket_reference(parts):
    rng = np.random.default_rng(43)
    L = direct_sum([random_two_step(nv, nz, rng) for nv, nz in parts])
    q, _ = np.linalg.qr(rng.normal(size=(L.dim, L.dim)))
    assert_commutant_matches_reference(adapted_frame(change_user_basis(L, q)))


@pytest.mark.parametrize("name", [n for n in catalog_names() if n != "euclidean"])
def test_catalog_commutants_match_bracket_by_bracket_reference(name):
    assert_commutant_matches_reference(adapted_frame(build(name)))


SWEEP_PARTS = {
    "R1": lambda: euclidean(1), "R2": lambda: euclidean(2),
    "R3": lambda: euclidean(3), "h3": lambda: heisenberg(1),
    "h5": lambda: heisenberg(2), "h7": lambda: heisenberg(3),
    "n32": free_two_step_3, "h3C(0.5)": lambda: complex_heisenberg(0.5),
    "h3C(1)": lambda: complex_heisenberg(1.0),
    "h3C(2)": lambda: complex_heisenberg(2.0),
}
# the distinct orthogonal sums of the benchmark's structure sweep (n 5..14)
SWEEP_SUMS = [
    "R2+h3", "R1+h5", "h3+h3", "R3+h3", "R1+h3C(1)", "R1+n32", "R2+h5",
    "R2+h3C(2)", "h3+h5", "R2+n32", "R2+h3+h3", "R3+h3+h3", "h3+n32",
    "R2+h7", "h3+h3C(0.5)", "R1+h3+h5", "h5+h5", "h3+h3+h5", "R3+n32+h3",
    "R2+h5+h5", "R2+h3C(1)+h3C(2)",
]


@pytest.mark.parametrize("name", catalog_names() + SWEEP_SUMS)
def test_commutant_dimension_is_factor_count(name):
    """The certificate `decompose` relies on: once ker j is split off, the
    symmetric commutant has one dimension per factor, and each factor's own
    commutant is the identity line (the solve `decompose` skips)."""
    rng = np.random.default_rng(47)
    if name in SWEEP_SUMS:
        L = direct_sum([SWEEP_PARTS[part]() for part in name.split("+")])
    else:
        L = build(name)
    q, _ = np.linalg.qr(rng.normal(size=(L.dim, L.dim)))
    spd = with_metric(L, random_spd_metric(L.dim, rng))
    for M in (change_user_basis(L, q), change_user_basis(spd, q)):
        dec = decompose(M)
        block, pv = _top_block(dec.frame)
        comm = structure._solve_intertwiners(block, pv, 1e-9, symmetric=True)
        assert len(comm) == len(dec.factors)
        for factor in dec.factors:
            ff = factor.frame
            assert len(structure._solve_intertwiners(
                ff.constants, ff.nv, DEFAULT_TOL, symmetric=True)) == 1


def test_decompose_r2_h3():
    dec = decompose(direct_sum([euclidean(2), heisenberg(1)]))
    assert dec.d == 2
    assert [f.dim for f in dec.factors] == [3]


def test_decompose_free_two_step_irreducible():
    dec = decompose(free_two_step_3())
    assert dec.d == 0
    assert [f.dim for f in dec.factors] == [6]


def test_decompose_scrambled_h3_h5():
    rng = np.random.default_rng(23)
    L = direct_sum([heisenberg(1), heisenberg(2)])
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    dec = decompose(change_user_basis(L, q))
    assert dec.d == 0
    assert sorted(f.dim for f in dec.factors) == [3, 5]
    assert_factor_frames_match(dec)


def test_decompose_idempotent():
    for L in [direct_sum([heisenberg(1), heisenberg(1)]),
              direct_sum([euclidean(2), complex_heisenberg(1.0)])]:
        dec = decompose(L)
        assert_factor_frames_match(dec)
        for factor in dec.factors:
            again = decompose(factor_algebra(factor))
            assert again.d == 0 and len(again.factors) == 1


def test_isometry_invariance():
    rng = np.random.default_rng(29)
    for L in [complex_heisenberg(2.0), free_two_step_3(),
              direct_sum([euclidean(2), heisenberg(1), heisenberg(2)])]:
        q, _ = np.linalg.qr(rng.normal(size=(L.dim, L.dim)))
        Ls = change_user_basis(L, q)
        assert killing_dimensions(L) == killing_dimensions(Ls)
        d0 = decompose(L)
        d1 = decompose(Ls)
        assert sorted(f.dim for f in d0.factors) == sorted(
            f.dim for f in d1.factors)
        s0 = np.linalg.eigvalsh(j_trace_form(adapted_frame(L)))
        s1 = np.linalg.eigvalsh(j_trace_form(adapted_frame(Ls)))
        assert np.allclose(np.sort(s0), np.sort(s1), atol=1e-8)


# irreducible summands of the scrambled sums below (n <= 14); each factor
# is a joint eigenspace of the symmetric commutant
FACTORS = [lambda: heisenberg(1), lambda: heisenberg(2), free_two_step_3,
           lambda: complex_heisenberg(1.0), lambda: complex_heisenberg(2.0)]


def _defined_answers(L):
    """What a decomposition defines: the dimensions, each factor's flags and
    g-orthogonal projector in user coordinates, and the structured Killing
    spans in user coordinates."""
    dec = decompose(L)
    frame = dec.frame.frame
    factors = []
    for f in dec.factors:
        b = frame @ f.columns
        key = (f.dim, f.frame.nv, f.has_complex_structure, f.naturally_reductive)
        factors.append((key, b @ b.T @ L.gram))
    to_frame = np.linalg.inv(frame)
    spans = []
    for k in (2, 3):
        forms = structured_killing(dec, k).basis
        m = np.array([transform(w, to_frame).vec for w in forms]).T
        spans.append(np.linalg.qr(m)[0] if forms else None)
    return dec.killing_dimensions(), factors, spans


@settings(derandomize=True, deadline=None, max_examples=25)
@given(picks=st.lists(st.integers(0, len(FACTORS) - 1), min_size=2, max_size=2),
       flat=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_factor_answers_survive_rounding_level_metric_change(picks, flat, seed):
    """Factor bases are defined only up to rotation within the factor, so
    only the projectors, flags and Killing spans are compared."""
    rng = np.random.default_rng(seed)
    parts = [FACTORS[i]() for i in picks] + ([euclidean(flat)] if flat else [])
    L = direct_sum(parts)
    p = np.linalg.qr(rng.normal(size=(L.dim, L.dim)))[0] * rng.uniform(0.5, 2.0, L.dim)
    Ls = change_user_basis(L, p)
    e = rng.normal(size=(L.dim, L.dim))
    e = (e + e.T) * (1e-15 * np.abs(Ls.gram).max() / np.abs(e + e.T).max())
    dims0, factors0, spans0 = _defined_answers(Ls)
    dims1, factors1, spans1 = _defined_answers(with_metric(Ls, Ls.gram + e))
    assert dims0 == dims1
    assert sorted(k for k, _ in factors0) == sorted(k for k, _ in factors1)
    for key, proj in factors0:
        assert min(np.abs(proj - other).max()
                   for k, other in factors1 if k == key) < 1e-10
    for a, b in zip(spans0, spans1):
        assert (a is None) == (b is None)
        if a is not None:
            assert span_distance(a, b) < 1e-10


@pytest.mark.parametrize("parts", [("h3C", "n32"), ("n32", "h3C"),
                                   ("h3", "h3C", "n32")], ids="+".join)
def test_factor_order_survives_a_round_off_basis_change(parts):
    """The factors are ordered by size and then by their projector, not by
    an eigenvector whose sign and in-factor basis `eigh` picks, so a 1e-14
    change of a scrambled basis keeps the order of equal-size factors."""
    build = {"h3": lambda: heisenberg(1), "n32": free_two_step_3,
             "h3C": lambda: complex_heisenberg(1.0)}
    L = direct_sum([build[part]() for part in parts])
    for seed in range(20):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(L.dim, L.dim)))
        e = 1e-14 * rng.normal(size=(L.dim, L.dim))
        dec0, dec1 = (decompose(change_user_basis(L, b)) for b in (q, q + e))
        assert ([(f.dim, f.has_complex_structure) for f in dec0.factors]
                == [(f.dim, f.has_complex_structure) for f in dec1.factors])
        for f0, f1 in zip(dec0.factors, dec1.factors):
            b0, b1 = dec0.frame.frame @ f0.columns, dec1.frame.frame @ f1.columns
            assert np.abs(b0 @ b0.T - b1 @ b1.T).max() < 1e-10


def test_complex_structure_complex_heisenberg():
    L = complex_heisenberg(1.0)
    j = find_complex_structure(adapted_frame(L))
    assert j is not None
    assert np.allclose(j @ j, -np.eye(6), atol=1e-9)
    assert min(np.abs(j - J_REF).max(), np.abs(j + J_REF).max()) < 1e-9


def test_complex_structure_absent():
    for L in [heisenberg(1), free_two_step_3()]:
        assert find_complex_structure(adapted_frame(L)) is None


def test_naturally_reductive_h3():
    cb = naturally_reductive_type(adapted_frame(heisenberg(1)))
    assert cb is not None
    assert np.abs(cb).max() < 1e-12


def test_naturally_reductive_free_two_step_is_so3():
    L = free_two_step_3()
    cb = naturally_reductive_type(adapted_frame(L))
    assert cb is not None
    # Killing form of the compact bracket must be negative definite (so(3))
    ads = [cb[s].T for s in range(3)]
    kf = np.array([[np.trace(ads[s] @ ads[t]) for t in range(3)]
                   for s in range(3)])
    assert np.linalg.eigvalsh(kf).max() < -1e-6


def test_naturally_reductive_complex_heisenberg_fails():
    L = complex_heisenberg(1.0)
    assert naturally_reductive_type(adapted_frame(L)) is None


def test_killing_dimensions_examples():
    assert killing_dimensions(direct_sum([euclidean(3), heisenberg(1)]))[:2] == (3, 2)
    assert killing_dimensions(direct_sum([heisenberg(1), heisenberg(1)]))[:2] == (0, 2)
    assert killing_dimensions(direct_sum([euclidean(2), heisenberg(1)]))[:2] == (1, 1)


def test_mutual_exclusion_flags():
    rng = np.random.default_rng(31)
    for L in [heisenberg(1), complex_heisenberg(1.0), free_two_step_3()]:
        for _ in range(5):
            Lr = with_metric(L, random_spd_metric(L.dim, rng))
            for f in decompose(Lr).factors:
                assert not (f.has_complex_structure and f.naturally_reductive)


def test_g_lambda_family_separation():
    specs = {}
    for lam in (0.5, 1.0, 2.0):
        L = complex_heisenberg(lam)
        jt = j_trace_form(adapted_frame(L))
        assert np.allclose(jt, -4.0 * lam ** 2 * np.eye(2), atol=1e-9)
        specs[lam] = jt
    pairs = [(0.5, 1.0), (1.0, 2.0), (0.5, 2.0)]
    for a, b in pairs:
        assert np.abs(specs[a] - specs[b]).max() >= 1.0


def test_compatible_metric_identity():
    L = complex_heisenberg(1.0)
    out = compatible_metric(L, J_REF, np.eye(6))
    assert np.allclose(out.gram, 2.0 * np.eye(6))
    assert np.allclose(J_REF.T @ out.gram @ J_REF, out.gram)


def test_compatible_metric_diag():
    L = complex_heisenberg(1.0)
    h = np.diag([1.0, 2.0, 1.0, 1.0, 1.0, 1.0])
    out = compatible_metric(L, J_REF, h)
    assert np.allclose(J_REF.T @ out.gram @ J_REF, out.gram, atol=1e-12)


def test_compatible_metric_random_keeps_killing_two_forms():
    rng = np.random.default_rng(37)
    L = complex_heisenberg(1.0)
    for _ in range(10):
        h = random_spd_metric(6, rng)
        out = compatible_metric(L, J_REF, h)
        assert killing_dimensions(out)[0] >= 1


def test_compatible_metric_rejects_bad_j():
    L = complex_heisenberg(1.0)
    with pytest.raises(ValueError, match=r"J\^2 != -Id"):
        compatible_metric(L, np.eye(6), np.eye(6))
    skew = np.kron(np.diag([1.0, 1.0, -1.0]), ROT)  # squares to -Id
    with pytest.raises(ValueError, match="J is not bi-invariant"):
        compatible_metric(L, skew, np.eye(6))


@pytest.mark.parametrize("name", ["R2+h3+h3", "h3+h5", "R2+h3C(1)+h3C(2)"])
def test_commutant_basis_is_one_read_only_object_per_shape(name):
    rng = np.random.default_rng(53)
    L = direct_sum([SWEEP_PARTS[part]() for part in name.split("+")])
    q, _ = np.linalg.qr(rng.normal(size=(L.dim, L.dim)))
    F = adapted_frame(change_user_basis(L, q))
    block, pv = _top_block(F)
    pz = block.shape[0] - pv
    structure._commutant_basis.cache_clear()
    # the first solve of a shape builds its basis, the second reuses it;
    # both span the commutant of the per-call reference construction
    for _ in range(2):
        assert_commutant_matches_reference(F)
    for symmetric in (True, False):
        basis = structure._commutant_basis(pv, pz, symmetric)
        assert structure._commutant_basis(pv, pz, symmetric) is basis
        with pytest.raises(ValueError):
            basis[0, 0, 0] = 1.0
    assert structure._commutant_basis.cache_info().currsize == 2


def test_same_block_shapes_reuse_index_sets(monkeypatch):
    built = []
    triu = np.triu_indices

    def counting(*args, **kwargs):
        built.append(args)
        return triu(*args, **kwargs)

    structure._commutant_basis.cache_clear()
    monkeypatch.setattr(np, "triu_indices", counting)
    L = direct_sum([heisenberg(1), heisenberg(2)])
    decompose(L)
    assert built
    del built[:]
    q, _ = np.linalg.qr(np.random.default_rng(31).normal(size=(8, 8)))
    decompose(change_user_basis(L, q))
    assert built == []


def test_cluster_splits_only_at_consecutive_gaps():
    # gap = 10 * tol * scale = 0.05: the steps 0.96 -> 1.08 stay under
    # it although the chain spans 0.12, the tie at 3.0 is one cluster, and
    # the input order is not the sorted order
    vals = np.array([5.0, 1.0, 1.04, 3.0, 0.96, 3.0, 1.08])
    clusters = structure._cluster(vals, 1e-3, 5.0)
    assert [sorted(c.tolist()) for c in clusters] == [[1, 2, 4, 6], [3, 5], [0]]
    assert vals[clusters[0]].tolist() == [0.96, 1.0, 1.04, 1.08]
    # a unit-size element that vanishes on the cluster: its values there
    # are round-off, far apart relative to each other but all under the
    # gap that the whole element sets
    roundoff = np.array([3e-17, -1e-17, 0.0, 2e-17, -4e-17])
    assert len(structure._cluster(roundoff, 1e-9, 1.0)) == 1
