"""Catalog constructors, classification lists, the exact Killing dimensions."""
import tracemalloc

import numpy as np
import pytest

from nilkilling import (
    MetricLieAlgebra,
    adapted_frame,
    catalog,
    classification_lists,
    complex_heisenberg,
    decompose,
    direct_sum,
    euclidean,
    free_two_step_3,
    heisenberg,
    j_trace_form,
    killing_dimensions,
    killing_nullspace_brute,
    structured_killing,
    validate,
)

from helpers import (
    commuting_planes,
    exact_killing_dimension,
    exact_killing_operator,
    exact_null_vector,
    frame_form_to_user,
    from_representation,
    integer_commutant_system,
    rank_mod_p,
    so3_matrices,
)

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def test_heisenberg_family():
    h3 = heisenberg(1)
    assert h3.dim == 3 and validate(h3).ok
    h5 = heisenberg(2)
    assert h5.dim == 5
    for l in (1, 2, 3):
        F = adapted_frame(heisenberg(l))
        assert F.nz == 1


def test_heisenberg_rejects_bad_l():
    with pytest.raises(ValueError):
        heisenberg(0)


def test_complex_heisenberg_params():
    for lam in (1.0, 2.0):
        L = complex_heisenberg(lam)
        assert validate(L).ok
        jt = j_trace_form(adapted_frame(L))
        assert np.allclose(jt, -4.0 * lam ** 2 * np.eye(2), atol=1e-9)
    with pytest.raises(ValueError):
        complex_heisenberg(0.0)
    for lam in (float("nan"), float("inf"), 1e300):
        with pytest.raises(ValueError):
            complex_heisenberg(lam)


def test_complex_heisenberg_dimensions():
    for lam in (0.5, 1.0, 2.0):
        assert killing_dimensions(complex_heisenberg(lam))[:2] == (1, 0)


def test_free_two_step_shape():
    L = free_two_step_3()
    F = adapted_frame(L)
    assert (F.nv, F.nz) == (3, 3)
    assert killing_dimensions(L)[:2] == (0, 1)


def test_euclidean_refuses_an_unallocatable_size_at_once():
    # the 10^18-entry table is refused before a million basis names exist;
    # numpy reports the refused request itself to tracemalloc, so the peak
    # is that request plus what was really allocated
    refused = 8 * 10**18
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="allocate"):
            euclidean(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - refused < 2**20


@pytest.mark.parametrize("d", [0, -1, -10**6])
def test_euclidean_refuses_a_non_positive_dimension_by_the_algebra_rule(d):
    # before the d^3 table: numpy would refuse a negative shape in its own words
    with pytest.raises(ValueError, match="^algebra dimension must be positive$"):
        euclidean(d)


def test_direct_sum_and_euclidean():
    L = direct_sum([euclidean(3), heisenberg(1)])
    assert L.dim == 6 and validate(L).ok
    assert decompose(L).d == 3
    with pytest.raises(ValueError, match="direct sum of no algebras"):
        direct_sum([])


def test_from_representation_so3_gives_free_two_step():
    L = from_representation(so3_matrices())
    assert validate(L).ok
    F = adapted_frame(L)
    for t, rho in enumerate(so3_matrices()):
        assert np.allclose(F.j_matrices[t], rho, atol=1e-10)
    assert killing_dimensions(L)[:2] == killing_dimensions(free_two_step_3())[:2]
    ref = np.linalg.eigvalsh(j_trace_form(adapted_frame(free_two_step_3())))
    got = np.linalg.eigvalsh(j_trace_form(F))
    assert np.allclose(np.sort(got), np.sort(ref), atol=1e-9)


def test_from_representation_rotation_gives_h3():
    L = from_representation([ROT])
    assert np.allclose(L.structure_constants,
                       heisenberg(1).structure_constants)
    assert np.allclose(L.gram, np.eye(3))


def test_from_representation_two_rotations_gives_h3_h3():
    rho1 = np.zeros((4, 4)); rho1[:2, :2] = ROT
    rho2 = np.zeros((4, 4)); rho2[2:, 2:] = ROT
    L = from_representation([rho1, rho2])
    dec = decompose(L)
    assert dec.d == 0
    assert sorted(f.dim for f in dec.factors) == [3, 3]
    assert killing_dimensions(L)[:2] == (0, 2)


def test_classification_lists_shape():
    list2, list3 = classification_lists()
    assert len(list2) == 14 and len(list3) == 8
    names2 = [entry.name for entry in list2]
    assert "R2+h3" in names2
    assert [e.name for e in list3 if e.dim == 6] == ["R3+h3", "h3+h3", "R+h5",
                                                    "n32"]


def test_classification_entries_have_killing_forms():
    list2, list3 = classification_lists()
    for degree, entries in ((2, list2), (3, list3)):
        for entry in entries:
            if not entry.buildable:
                continue
            alg = entry.build()
            assert validate(alg).ok
            dims = killing_dimensions(alg)[:2]
            assert dims[degree - 2] >= 1
            if entry.expected:
                assert dims == entry.expected


def test_catalog_json_round_trip():
    for L in [heisenberg(2), complex_heisenberg(0.5), free_two_step_3(),
              direct_sum([euclidean(2), heisenberg(1)])]:
        data = L.to_json()
        assert MetricLieAlgebra.from_json(data).to_json() == data


def test_classification_lists_share_their_entries():
    list2, list3 = classification_lists()
    by_name = {entry.name: entry for entry in list2}
    shared = [entry.name for entry in list3 if entry.name in by_name]
    assert shared == ["R2+h3", "R3+h3"]
    for entry in list3:
        if entry.name in by_name:
            assert entry is by_name[entry.name]
    # each call hands out fresh lists of the same entries
    again = classification_lists()
    assert again[0] is not list2 and again[0] == list2
    assert all(a is b for a, b in zip(again[1], list3))


def test_catalog_names_pinned():
    assert catalog.catalog_names() == [
        "heisenberg", "complex_heisenberg", "free_two_step_3", "euclidean",
        "R2+h3", "R3+h3", "h3C", "R+h3C", "R2+h5", "R2+(h3+h3)", "R2+n32",
        "h3", "R+h3", "h5", "h3+h3", "R+h5", "n32",
    ]


def test_build_names_each_classification_algebra():
    for entries in classification_lists():
        for entry in entries:
            if entry.buildable:
                alg = catalog.build(entry.name)
                assert (alg.name, alg.dim) == (entry.name, entry.dim)
            else:
                with pytest.raises(ValueError,
                                   match="no construction shipped"):
                    catalog.build(entry.name)
    with pytest.raises(KeyError, match="unknown catalog name: nope"):
        catalog.build("nope")


def test_registry_builders_call_the_module_constructors(monkeypatch):
    # a builder looks its constructors up when it runs, so a patched module
    # attribute (as the benchmark tracer patches them) sees every call
    calls = []
    for fname in ("heisenberg", "complex_heisenberg", "free_two_step_3",
                  "euclidean", "direct_sum"):
        def counting(*args, _f=getattr(catalog, fname), _name=fname, **kw):
            calls.append(_name)
            return _f(*args, **kw)
        monkeypatch.setattr(catalog, fname, counting)
    for name, want in (("h3C", ["complex_heisenberg"]),
                       ("R+h3C", ["euclidean", "complex_heisenberg",
                                  "direct_sum"]),
                       ("n32", ["free_two_step_3"]),
                       ("R2+(h3+h3)", ["euclidean", "heisenberg",
                                       "heisenberg", "direct_sum"])):
        calls.clear()
        assert catalog.build(name).name == name
        assert calls == want, name


# the one keyword each parametric name reads, and the algebra it builds at 2;
# every other name reads none
DECLARED = {"heisenberg": ("l", "h5"),
            "complex_heisenberg": ("lam", "h3C(lam=2)"),
            "euclidean": ("d", "R2")}


@pytest.mark.parametrize("name", catalog.catalog_names())
def test_build_takes_only_the_declared_keyword(name):
    for key in ("lam", "l", "d"):
        if DECLARED.get(name, (None,))[0] == key:
            assert catalog.build(name, **{key: 2}).name == DECLARED[name][1]
        else:
            with pytest.raises(ValueError, match=f"takes no parameter {key}$"):
                catalog.build(name, **{key: 2})


def test_build_defaults_and_refusals():
    with pytest.raises(ValueError, match="h3 takes no parameter l"):
        catalog.build("h3", l=5)
    assert catalog.build("heisenberg").name == "h3"
    assert catalog.build("euclidean").name == "R1"
    assert catalog.build("complex_heisenberg").name == "h3C(lam=1)"
    with pytest.raises(KeyError, match="unknown catalog name: nope"):
        catalog.build("nope", l=2)


def test_parametric_builders_call_the_module_constructors(monkeypatch):
    # as for the registry: a patched module attribute sees every call
    calls = []
    for fname in DECLARED:
        def counting(_f=getattr(catalog, fname), _name=fname, **kw):
            calls.append((_name, kw))
            return _f(**kw)
        monkeypatch.setattr(catalog, fname, counting)
    assert catalog.build("heisenberg", l=2).dim == 5
    assert catalog.build("euclidean").dim == 1
    assert calls == [("heisenberg", {"l": 2}), ("euclidean", {"d": 1})]


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
def test_complex_heisenberg_refuses_a_non_finite_lambda(lam):
    with pytest.raises(ValueError, match="lambda must be a finite number"):
        complex_heisenberg(lam)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", catalog.catalog_names())
def test_catalog_killing_dimension_certified_exactly(name, k):
    # every catalog entry at its defaults has the identity metric and
    # integer brackets, so `exact_killing_operator` is an integer multiple M
    # of the Killing operator.  Its nullity over the rationals is at most
    # the exact dimension, C(n,k) - rank_p, and at least the number of
    # independent exact integer null vectors; the structured forms, scaled
    # to integers, are such vectors, so where the two counts meet the
    # dimension is certified with no float decision
    L = catalog.build(name)
    op = exact_killing_operator(L, k)
    dec = decompose(L)
    forms = structured_killing(dec, k).basis
    vectors = np.array([exact_null_vector(frame_form_to_user(dec.frame, w))
                        for w in forms], dtype=np.int64).reshape(len(forms), op.shape[1])
    assert not np.any(op @ vectors.T)
    assert rank_mod_p(vectors) == len(forms)
    assert exact_killing_dimension(L, k, len(forms)) == len(forms)
    assert killing_nullspace_brute(L, adapted_frame(L), k).dim == len(forms)


def _unimodular(n, rng):
    """A seeded integer matrix of determinant 1, with its integer inverse."""
    low = np.tril(rng.integers(-1, 2, size=(n, n)), -1) + np.eye(n, dtype=int)
    up = np.triu(rng.integers(-1, 2, size=(n, n)), 1) + np.eye(n, dtype=int)
    p = low @ up
    inv = np.round(np.linalg.inv(p)).astype(int)
    assert np.array_equal(p @ inv, np.eye(n, dtype=int))
    return p, inv


# beyond the catalog: the one naturally reductive factor with a plane centre
REFEREE_EXTRAS = {"commuting-planes": commuting_planes}


@pytest.mark.parametrize("name", [name for name in catalog.catalog_names()
                                  if catalog.build(name).dim >= 3]
                         + list(REFEREE_EXTRAS))
def test_exact_dimension_referees_both_solvers(name):
    # in the basis with columns P, a unimodular integer matrix, the brackets
    # stay integers, and the Gram matrix P^T M P is dense: isometric to the
    # catalog entry for its own metric M, and another metric for a random
    # integer SPD M.  Every input is exact, and no float inverse enters (as
    # in `change_user_basis`), so the exact dimension referees the
    # structured and brute solvers at each of 3 seeded basis changes
    L = REFEREE_EXTRAS[name]() if name in REFEREE_EXTRAS else catalog.build(name)
    n = L.dim
    plain = killing_dimensions(L)[:2]
    rng = np.random.default_rng(14)
    for _ in range(3):
        p, inv = _unimodular(n, rng)
        c = np.einsum("ia,jb,ijk,ck->abc", p, p, L.structure_constants, inv)
        a = rng.integers(-2, 3, size=(n, n))
        for metric in (L.gram, a.T @ a + np.eye(n)):
            M = MetricLieAlgebra(n, list(L.basis_names), c, p.T @ metric @ p)
            structured = killing_dimensions(M)[:2]
            if metric is L.gram:
                assert structured == plain
            F = adapted_frame(M)
            for k, dim in zip((2, 3), structured):
                assert exact_killing_dimension(M, k, dim) == dim, (k, metric)
                assert killing_nullspace_brute(M, F, k).dim == dim, (k, metric)

# two sums of identical factors beyond the catalog
FACTOR_COUNT_SUMS = {
    "n32+n32+h3+h3": lambda: direct_sum([free_two_step_3(), free_two_step_3(),
                                         heisenberg(1), heisenberg(1)]),
    "h3+h3+h3": lambda: direct_sum([heisenberg(1)] * 3),
}


@pytest.mark.parametrize("name", catalog.catalog_names() + list(FACTOR_COUNT_SUMS))
def test_factor_count_certified_exactly(name):
    # once ker j is split off, the symmetric commutant's dimension is the
    # factor count.  Its integer system has nullity over the rationals at
    # most the count of unknowns minus rank_p, and at least the number of
    # independent exact null vectors; twice each factor's projector, which
    # is an integer matrix here, is one.  Where the two meet, the factor
    # count is certified, and d is the count of basis vectors of ker j
    L = FACTOR_COUNT_SUMS[name]() if name in FACTOR_COUNT_SUMS else catalog.build(name)
    system, pairs, kerj = integer_commutant_system(L)
    dec = decompose(L)
    vectors = []
    for f in dec.factors:
        b = dec.frame.frame @ f.columns
        proj = np.round(2 * b @ b.T)
        assert np.abs(2 * b @ b.T - proj).max() < 1e-9
        coef = np.array([proj[i, j] / (1 + (i == j)) for i, j in pairs])
        rebuilt = np.zeros_like(proj)
        for (i, j), cf in zip(pairs, coef):
            rebuilt[i, j] += cf
            rebuilt[j, i] += cf
        assert np.array_equal(rebuilt, proj)
        vectors.append(coef.astype(np.int64))
    vectors = np.array(vectors, dtype=np.int64).reshape(len(dec.factors), len(pairs))
    assert not np.any(system @ vectors.T)
    assert rank_mod_p(vectors) == len(dec.factors)
    assert len(pairs) - rank_mod_p(system) == len(dec.factors)
    assert dec.d == kerj.size
