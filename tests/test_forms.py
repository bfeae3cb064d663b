"""Exterior algebra: wedge, contraction, derivations, differential, bigrading."""
import itertools
import json
from math import comb

import numpy as np
import pytest

from nilkilling import (
    Form,
    adapted_frame,
    bigrade,
    complex_heisenberg,
    contract,
    direct_sum,
    euclidean,
    free_two_step_3,
    heisenberg,
    lie_diff,
    nabla_form,
    oneform,
    skew_extend,
    transform,
    wedge,
)
from nilkilling import forms
from nilkilling.catalog import build, catalog_names

from helpers import (
    perm_sign,
    random_form,
    random_skew,
    random_spd_metric,
    random_two_step,
    torsion_free_d,
    with_metric,
)

CATALOG = [
    heisenberg(1),
    heisenberg(2),
    complex_heisenberg(1.0),
    free_two_step_3(),
]


def e(n, i):
    return np.eye(n)[:, i]


def test_wedge_basis():
    out = wedge(oneform(e(4, 0)), oneform(e(4, 1)))
    assert np.array_equal(out.vec, Form.basis(4, 2, (0, 1)).vec)
    assert np.array_equal(out.vec, -Form.basis(4, 2, (1, 0)).vec)
    assert out.norm() == 1.0


def test_wedge_alternating():
    a = oneform(e(4, 0))
    assert wedge(a, a).norm() == 0.0


def test_wedge_even_degree_commutes():
    a = wedge(oneform(e(4, 0)), oneform(e(4, 1)))
    b = wedge(oneform(e(4, 2)), oneform(e(4, 3)))
    assert np.allclose(wedge(a, b).vec, wedge(b, a).vec)


def test_wedge_graded_anticommutes():
    rng = np.random.default_rng(0)
    a, b = random_form(5, 1, rng), random_form(5, 2, rng)
    assert np.allclose(wedge(a, b).vec, (-1) ** (1 * 2) * wedge(b, a).vec)


def test_wedge_degree_overflow():
    with pytest.raises(ValueError, match="wedge degree 4 exceeds dimension 3"):
        wedge(random_form(3, 2, np.random.default_rng(0)),
              random_form(3, 2, np.random.default_rng(1)))


def test_lie_diff_refuses_a_top_degree_form():
    L = heisenberg(1)
    with pytest.raises(ValueError, match="differential of a top-degree form"):
        lie_diff(L, adapted_frame(L), Form.basis(3, 3, (0, 1, 2)))


def test_contract_basics():
    w12 = wedge(oneform(e(3, 0)), oneform(e(3, 1)))
    assert np.allclose(contract(e(3, 0), w12).vec, oneform(e(3, 1)).vec)
    assert contract(e(3, 2), w12).norm() == 0.0
    vol = Form.basis(3, 3, (0, 1, 2))
    out = contract(e(3, 1), vol)
    assert np.allclose(out.vec, -Form.basis(3, 2, (0, 2)).vec)


@pytest.mark.parametrize("x", [[1, 0, 0, 5, 7], [1, 0]])
def test_contract_rejects_wrong_length(x):
    # a too-long vector used to lose its trailing entries silently
    with pytest.raises(ValueError, match=r"shape \(3,\)"):
        contract(x, Form(3, 1, [1, 2, 3]))


def test_contract_squares_to_zero():
    rng = np.random.default_rng(5)
    w = random_form(6, 3, rng)
    x = rng.normal(size=6)
    assert contract(x, contract(x, w)).norm() < 1e-12


def test_contract_anti_derivation():
    rng = np.random.default_rng(6)
    a, b = random_form(6, 2, rng), random_form(6, 3, rng)
    x = rng.normal(size=6)
    lhs = contract(x, wedge(a, b))
    rhs = wedge(contract(x, a), b) + wedge(a, contract(x, b))
    assert (lhs - rhs).norm() < 1e-10


def test_skew_extend_dual_action():
    # f sends e1 to e2: the action on the dual 1-form follows suit
    L = heisenberg(1)
    F = adapted_frame(L)
    f = np.zeros((3, 3))
    f[:2, :2] = F.j_matrices[0]
    out = skew_extend(f, oneform(e(3, 0)))
    assert np.allclose(out.vec, oneform(e(3, 1)).vec)


def test_skew_extend_kills_volume():
    rng = np.random.default_rng(2)
    f = random_skew(4, rng)
    vol = Form.basis(4, 4, (0, 1, 2, 3))
    assert skew_extend(f, vol).norm() < 1e-10


def test_skew_extend_zero_map():
    assert skew_extend(np.zeros((4, 4)), random_form(4, 2,
                       np.random.default_rng(1))).norm() == 0.0


def test_skew_extend_rejects_non_skew():
    with pytest.raises(ValueError, match="endomorphism is not skew-symmetric"):
        skew_extend(np.eye(3), oneform(e(3, 0)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_skew_extend_rejects_non_finite(value):
    # nan > bound is False, so the skew comparison alone lets these through
    f = np.zeros((3, 3))
    f[0, 1], f[1, 0] = value, -value
    for bad in (f, np.full((3, 3), value)):
        with pytest.raises(ValueError, match="non-finite"):
            skew_extend(bad, oneform(e(3, 0)))


@pytest.mark.parametrize("size", [4, 2])
def test_skew_extend_rejects_wrong_shape(size):
    f = random_skew(size, np.random.default_rng(3))
    with pytest.raises(ValueError, match=r"shape \(3, 3\)"):
        skew_extend(f, oneform(e(3, 0)))


def test_skew_extend_derivation_and_commutator():
    rng = np.random.default_rng(9)
    n = 5
    f, g = random_skew(n, rng), random_skew(n, rng)
    a, b = random_form(n, 2, rng), random_form(n, 2, rng)
    lhs = skew_extend(f, wedge(a, b))
    rhs = wedge(skew_extend(f, a), b) + wedge(a, skew_extend(f, b))
    assert (lhs - rhs).norm() < 1e-9
    comm = f @ g - g @ f
    lhs2 = skew_extend(comm, a)
    rhs2 = skew_extend(f, skew_extend(g, a)) - skew_extend(g, skew_extend(f, a))
    assert (lhs2 - rhs2).norm() < 1e-9


@pytest.mark.parametrize("n", range(1, 8))
def test_skew_extend_matches_perm_sign_reference(n):
    # (f omega)_t = sum_j sum_b f[t_j, b] omega(t with leg j replaced by b),
    # omega(legs) = perm_sign(legs) omega_sorted(legs), at every degree
    rng = np.random.default_rng(n)
    f = random_skew(n, rng)
    for k in range(n + 1):
        omega = random_form(n, k, rng)
        index = {t: i for i, t in enumerate(itertools.combinations(range(n), k))}

        def value(legs):
            sign = perm_sign(legs)
            return sign * omega.vec[index[tuple(sorted(legs))]] if sign else 0.0

        want = [sum(f[m, b] * value(t[:j] + (b,) + t[j + 1:])
                    for j, m in enumerate(t) for b in range(n))
                for t in itertools.combinations(range(n), k)]
        err = np.abs(skew_extend(f, omega).vec - want).max()
        assert err <= 1e-12 * np.abs(f).max() * omega.norm(), (k, err)


def test_derivations_make_no_wedge_call(monkeypatch):
    # skew_extend and lie_diff are one product over the wedge table each,
    # not one wedge per leg
    L = heisenberg(2)
    F = adapted_frame(L)
    rng = np.random.default_rng(31)
    calls = []
    wedge_once = forms.wedge

    def counted(*args):
        calls.append(args)
        return wedge_once(*args)

    monkeypatch.setattr(forms, "wedge", counted)
    for k in range(6):
        omega = random_form(5, k, rng)
        skew_extend(random_skew(5, rng), omega)
        if k < 5:
            lie_diff(L, F, omega)
    assert calls == []


@pytest.mark.parametrize("n", range(1, 9))
def test_derivation_matrix_columns_are_the_derivations_of_basis_forms(n):
    # degree 1: a skew endomorphism's action; degree 2: the differential
    rng = np.random.default_rng(n)
    L = with_metric(random_two_step(n - n // 3, n // 3, rng), random_spd_metric(n, rng))
    for degree, images in ((1, random_skew(n, rng).T),
                           (2, forms._d_images(adapted_frame(L)))):
        for k in range(n):
            mat = forms._derivation_matrix(images, degree, k)
            assert mat.shape == (comb(n, k + degree - 1), comb(n, k))
            for t, row in enumerate(np.eye(comb(n, k))):
                want = forms._derive(images, degree, Form(n, k, row)).vec
                assert (mat[:, t] == want).all(), (degree, k, t)


def test_derivation_table_is_cached_read_only_and_sparse():
    # n = 11, k = 3: C(11, 2) (s, i) pairs, each meeting C(9, 2) images u
    table = forms._derivation_table(11, 2, 3)
    assert forms._derivation_table(11, 2, 3) is table
    for a in table:
        assert a.shape == (comb(11, 2) * 9 * comb(9, 2),)
        assert not a.flags.writeable


def test_lie_diff_h3_center_dual():
    L = heisenberg(1)
    F = adapted_frame(L)
    out = lie_diff(L, F, oneform(e(3, 2)))
    assert np.allclose(out.vec, -wedge(oneform(e(3, 0)), oneform(e(3, 1))).vec)


def test_perm_sign_is_the_permutation_determinant():
    for perm in itertools.permutations(range(5)):
        assert perm_sign(perm) == round(np.linalg.det(np.eye(5)[list(perm)]))
    assert perm_sign((3, 1, 3)) == 0


@pytest.mark.parametrize("k, l", [(k, l) for k in range(7) for l in range(7 - k)])
def test_wedge_table_matches_perm_sign(k, l):
    # every entry: e^s ^ e^t = perm_sign(s + t) e^sorted(s + t)
    target, sign = forms._wedge_table(6, k, l)
    assert target.shape == sign.shape == (comb(6, k), comb(6, l))
    assert not target.flags.writeable and not sign.flags.writeable
    merged = list(itertools.combinations(range(6), k + l))
    for a, s in enumerate(itertools.combinations(range(6), k)):
        for b, t in enumerate(itertools.combinations(range(6), l)):
            assert sign[a, b] == perm_sign(s + t), (s, t)
            if sign[a, b]:
                assert merged[target[a, b]] == tuple(sorted(s + t)), (s, t)


@pytest.mark.parametrize("legs", [(2, 0), (3, 1, 0), (1, 3, 0, 2), (4, 2, 0, 3, 1),
                                  (1, 1), (0, 2, 0), (3, 1, 2, 1)])
def test_basis_and_coeff_follow_perm_sign(legs):
    n, k = 5, len(legs)
    sign = perm_sign(legs)
    unit = np.zeros(comb(n, k))
    if sign:
        basis = list(itertools.combinations(range(n), k))
        unit[basis.index(tuple(sorted(legs)))] = sign
    assert np.array_equal(Form.basis(n, k, legs).vec, unit)
    for perm in itertools.permutations(legs):
        assert np.array_equal(Form.basis(n, k, perm).vec,
                              perm_sign(perm) * sign * unit)


@pytest.mark.parametrize("legs", [(0, 5), (-1, 2), (1,), (0, 1, 2)])
def test_basis_rejects_bad_legs(legs):
    # a negative leg must not wrap around to the last frame index
    with pytest.raises(ValueError, match="legs"):
        Form.basis(5, 2, legs)


def test_degree_zero_derivations_vanish():
    L = heisenberg(2)
    F = adapted_frame(L)
    rng = np.random.default_rng(22)
    const = Form(5, 0, [2.5])
    for out, degree in ((skew_extend(random_skew(5, rng), const), 0),
                        (nabla_form(L, F, rng.normal(size=5), const), 0),
                        (lie_diff(L, F, const), 1)):
        assert out.degree == degree and not out.vec.any()


def test_lie_diff_v_duals_closed():
    for L in CATALOG:
        F = adapted_frame(L)
        for i in range(F.nv):
            assert lie_diff(L, F, oneform(e(L.dim, i))).norm() < 1e-12


def test_lie_diff_squares_to_zero():
    rng = np.random.default_rng(12)
    for L in CATALOG:
        F = adapted_frame(L)
        n = L.dim
        for _ in range(50):
            k = int(rng.integers(1, n - 1))
            w = random_form(n, k, rng)
            assert lie_diff(L, F, lie_diff(L, F, w)).norm() < 1e-10


@pytest.mark.parametrize("name", catalog_names())
def test_lie_diff_matches_torsion_free_d(name):
    # d = sum_i e^i ^ nabla_{e_i}, with nabla from the raw Koszul formula
    L = build(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    for M in (L, with_metric(L, random_spd_metric(L.dim, rng))):
        F = adapted_frame(M)
        scale = np.abs(F.constants).max()
        for k in range(1, M.dim):
            w = random_form(M.dim, k, rng)
            diff = (lie_diff(M, F, w) - torsion_free_d(F, w)).norm()
            assert diff <= 1e-12 * w.norm() * scale, (k, diff)


def test_nabla_form_h3_volume_legs_cancel():
    L = heisenberg(1)
    F = adapted_frame(L)
    w = wedge(oneform(e(3, 0)), oneform(e(3, 1)))
    assert nabla_form(L, F, e(3, 2), w).norm() < 1e-12


def test_nabla_form_vanishes_on_abelian_kernel():
    L = direct_sum([euclidean(1), heisenberg(1)])
    F = adapted_frame(L)
    rng = np.random.default_rng(4)
    y = np.zeros(4)
    y[F.n - F.na] = 1.0
    for k in (1, 2, 3):
        assert nabla_form(L, F, y, random_form(4, k, rng)).norm() < 1e-12


def test_nabla_form_degree_zero():
    L = heisenberg(1)
    F = adapted_frame(L)
    assert nabla_form(L, F, e(3, 0), Form(3, 0, [2.0])).norm() == 0.0


def test_nabla_form_metric_compatible():
    rng = np.random.default_rng(13)
    for L in CATALOG:
        F = adapted_frame(L)
        n = L.dim
        for _ in range(20):
            k = int(rng.integers(1, n))
            a, b = random_form(n, k, rng), random_form(n, k, rng)
            y = rng.normal(size=n)
            da, db = nabla_form(L, F, y, a), nabla_form(L, F, y, b)
            assert abs(da.vec @ b.vec + a.vec @ db.vec) < 1e-9


@pytest.mark.parametrize("omega, eta", [
    # the 1-dim coefficient was broadcast over all four legs
    (Form(4, 2, np.arange(1, 7.0)), Form(1, 1, [1.0])),
    # the 7-dim 0-form doubled the 4-dim form
    (Form(4, 2, np.arange(1, 7.0)), Form(7, 0, [2.0])),
    # numpy's broadcast error
    (Form(4, 1, np.ones(4)), Form(3, 1, np.ones(3))),
], ids=["R1", "R7", "R3"])
def test_wedge_refuses_forms_of_different_dimensions(omega, eta):
    with pytest.raises(ValueError, match="dimensions 4 and %d differ" % eta.n):
        wedge(omega, eta)


def test_sum_and_bigrade_refuse_a_form_of_another_dimension():
    with pytest.raises(ValueError, match="dimensions 3 and 5 differ"):
        bigrade(adapted_frame(heisenberg(1)), Form(5, 2, np.ones(10)), 1)
    with pytest.raises(ValueError, match="dimensions 3 and 4 differ"):
        Form(3, 1, np.ones(3)) + Form(4, 1, np.ones(4))
    with pytest.raises(ValueError, match="incompatible forms"):
        Form(3, 1, np.ones(3)) - Form(3, 2, np.ones(3))


def test_bigrade_h3():
    L = heisenberg(1)
    F = adapted_frame(L)
    mixed = wedge(oneform(e(3, 0)), oneform(e(3, 2)))
    assert (bigrade(F, mixed, 1) - mixed).norm() == 0.0
    assert bigrade(F, mixed, 2).norm() == 0.0


def test_bigrade_completeness():
    rng = np.random.default_rng(14)
    for L in CATALOG:
        F = adapted_frame(L)
        w = random_form(L.dim, 3, rng)
        total = Form(L.dim, 3)
        for l in range(4):
            total = total + bigrade(F, w, l)
        assert (total - w).norm() < 1e-14


def test_transform_identity_and_wedge_compat():
    rng = np.random.default_rng(15)
    w = random_form(5, 2, rng)
    assert (transform(w, np.eye(5)) - w).norm() < 1e-14
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    a, b = random_form(5, 1, rng), random_form(5, 2, rng)
    lhs = transform(wedge(a, b), q)
    rhs = wedge(transform(a, q), transform(b, q))
    assert (lhs - rhs).norm() < 1e-10
    # pullback along an orthogonal map preserves the norm
    assert abs(transform(w, q).norm() - w.norm()) < 1e-10


def test_transform_rectangular_matches_minors():
    # a factor-to-ambient shaped map: forms on R^4 pulled back to R^7
    rng = np.random.default_rng(18)
    m = rng.normal(size=(4, 7))
    for k in range(4):
        w = random_form(4, k, rng)
        out = transform(w, m)
        assert (out.n, out.degree) == (7, k)
        ref = [sum(c * np.linalg.det(m[np.ix_(t, s)]) for t, c in w.terms())
               for s in itertools.combinations(range(7), k)]
        assert np.abs(out.vec - ref).max() < 1e-12


def test_form_json_round_trip():
    # the CLI's form output: terms in leg order, coefficients at or below
    # 1e-15 dropped, the rest equal to the coefficient vector
    rng = np.random.default_rng(16)
    w = random_form(6, 3, rng)
    w.vec[[0, 5, 19]] = 0.0, 1e-15, -1e-15
    out = w.to_json()
    assert out["degree"] == 3
    kept = [i for i, c in enumerate(w.vec) if abs(c) > 1e-15]
    assert len(kept) == comb(6, 3) - 3
    legs = list(itertools.combinations(range(6), 3))
    assert out["terms"] == [{"indices": list(legs[i]), "coeff": w.vec[i]}
                            for i in kept]
    assert json.loads(json.dumps(out)) == out
