"""Killing equation: residuals, the brute-force oracle, structured solvers."""
import tracemalloc
from math import comb

import numpy as np
import pytest

from nilkilling import (
    Form,
    bigrade,
    catalog,
    adapted_frame,
    complex_heisenberg,
    direct_sum,
    euclidean,
    free_two_step_3,
    heisenberg,
    is_parallel,
    killgen_residuals,
    killing_nullspace_brute,
    killing_residual,
    nabla_matrix,
    oneform,
    decompose,
    solve_killing2,
    solve_killing3,
    structured_killing,
    transform,
    wedge,
)
from nilkilling import algebra, forms, killing
from nilkilling.errors import WorkingSetTooLarge
from nilkilling.forms import basis_tuples
from nilkilling.linalg import DEFAULT_TOL, span_distance

from helpers import (
    brute_reference,
    contract_reference,
    killing_operator_reference,
    koszul_covariant,
    polarized_reference,
    quaternionic_heisenberg,
    random_form,
    random_spd_metric,
    spin1_spin2_algebra,
    spin2_algebra,
    torsion_free_d,
    with_metric,
)


def e(n, i):
    return np.eye(n)[:, i]


def test_residual_h3_volume_is_killing():
    L = heisenberg(1)
    F = adapted_frame(L)
    vol = Form.basis(3, 3, (0, 1, 2))
    assert killing_residual(F, vol) < 1e-12


def test_residual_h3_mixed_two_form_is_not():
    L = heisenberg(1)
    F = adapted_frame(L)
    w = wedge(oneform(e(3, 0)), oneform(e(3, 2)))
    assert killing_residual(F, w) > 1e-3


def test_residual_abelian_forms_are_killing():
    L = euclidean(4)
    F = adapted_frame(L)
    for k in (1, 2, 3):
        w = Form.basis(4, k, tuple(range(k)))
        assert killing_residual(F, w) < 1e-14


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_brute_complex_heisenberg_k2(lam):
    L = complex_heisenberg(lam)
    space = killing_nullspace_brute(L, adapted_frame(L), 2)
    assert space.dim == 1


def test_brute_h3_k2_empty():
    L = heisenberg(1)
    assert killing_nullspace_brute(L, adapted_frame(L), 2).dim == 0


def test_brute_abelian_top_degree():
    # a 0-form and a top-degree form have one basis form, an identity row,
    # and past the top degree there is none
    for L, k, dim in [(euclidean(3), 3, 1), (heisenberg(1), 0, 1),
                      (heisenberg(1), 3, 1), (heisenberg(1), 4, 0)]:
        assert killing_nullspace_brute(L, adapted_frame(L), k).dim == dim, (L.name, k)


def test_brute_basis_passes_residual():
    for L in [heisenberg(1), complex_heisenberg(1.0), free_two_step_3(),
              direct_sum([euclidean(2), heisenberg(1)])]:
        F = adapted_frame(L)
        for k in (2, 3):
            for w in killing_nullspace_brute(L, F, k).basis:
                assert killing_residual(F, w) < 1e-9


def test_killgen_zero_on_killing_form():
    L = heisenberg(1)
    F = adapted_frame(L)
    vol = Form.basis(3, 3, (0, 1, 2))
    table = killgen_residuals(F, vol)
    assert max(table.values()) < 1e-12


def test_killgen_flags_alpha1_component():
    # a 3-form with one v-leg and two z-legs violates the third family at l=0
    L = complex_heisenberg(1.0)
    F = adapted_frame(L)
    w = Form.basis(6, 3, (0, 4, 5))
    table = killgen_residuals(F, w)
    assert table[("pp3", 0)] > 1e-3


def test_killgen_flags_bad_two_form():
    # alpha2 rotating only the (e1, e2) plane does not anticommute with j(z)
    L = complex_heisenberg(1.0)
    F = adapted_frame(L)
    w = Form.basis(6, 2, (0, 1))
    table = killgen_residuals(F, w)
    assert table[("pp3", 1)] > 1e-3


def test_killgen_one_forms_h3():
    # the dual of the central z is Killing, the dual of e1 is not
    L = heisenberg(1)
    F = adapted_frame(L)
    central = killgen_residuals(F, oneform(e(3, 2)))
    assert sorted(central) == [("pp1", 0), ("pp2", 0), ("pp3", 0)]
    assert max(central.values()) < 1e-12
    assert max(killgen_residuals(F, oneform(e(3, 0))).values()) > 1e-3


def test_killgen_reads_every_pair_of_frame_vectors():
    # only P(e_a, e_b) with a != b in v sees this form fail: its values
    # P(x, x), P(z, z) and P(x, z) all vanish
    L = heisenberg(2)
    F = adapted_frame(L)
    w = Form.basis(5, 3, (0, 1, 4))
    assert killing_residual(F, w) == pytest.approx(0.25)
    assert max(killgen_residuals(F, w).values()) > 1e-3


def test_killgen_consistent_with_residual():
    rng = np.random.default_rng(21)
    L = complex_heisenberg(1.0)
    F = adapted_frame(L)
    for k in (2,) * 10 + (1, 3, 4) * 4:
        w = Form(6, k, rng.normal(size=comb(6, k)))
        table = killgen_residuals(F, w)
        assert sorted(table) == sorted((fam, l) for fam in ("pp1", "pp2", "pp3")
                                       for l in range(k))
        killing = killing_residual(F, w) < 1e-9 * max(1.0, w.norm())
        assert (max(table.values()) < 1e-8 * max(1.0, w.norm())) == killing


def test_solve_killing2_r2_h3():
    space, dec = solve_killing2(direct_sum([euclidean(2), heisenberg(1)]))
    assert space.dim == 1
    # the single form comes from the abelian block
    assert not any(f.has_complex_structure for f in dec.factors)


def test_solve_killing2_complex_heisenberg_data():
    L = complex_heisenberg(1.0)
    space, dec = solve_killing2(L)
    flagged = [f for f in dec.factors if f.has_complex_structure]
    assert space.dim == 1 and len(flagged) == 1
    J, pv = flagged[0].J, flagged[0].frame.nv
    a2, a0 = J[:pv, :pv], 3.0 * J[pv:, pv:]
    assert np.allclose(a2 @ a2, -np.eye(4), atol=1e-9)
    assert np.allclose(a0 @ a0, -9.0 * np.eye(2), atol=1e-9)
    # the component equation: j(alpha0 z) = 3 alpha2 j(z) = -3 j(z) alpha2
    F = adapted_frame(L)
    for t in range(2):
        lhs = sum(a0[s, t] * F.j_matrices[s] for s in range(2))
        assert np.allclose(lhs, 3.0 * a2 @ F.j_matrices[t], atol=1e-9)
        assert np.allclose(lhs, -3.0 * F.j_matrices[t] @ a2, atol=1e-9)


def test_solve_killing2_h5_empty():
    space, dec = solve_killing2(heisenberg(2))
    assert space.dim == 0
    assert not any(f.has_complex_structure for f in dec.factors)


def test_solve_killing3_h3():
    space, dec = solve_killing3(heisenberg(1))
    assert space.dim == 1
    assert sum(f.naturally_reductive for f in dec.factors) == 1


def test_solve_killing3_free_two_step():
    space, dec = solve_killing3(free_two_step_3())
    assert space.dim == 1
    # gamma: the part of the form with all legs in z
    assert bigrade(dec.frame, space.basis[0], 0).norm() > 0.1


def test_solve_killing3_complex_heisenberg_empty():
    space, dec = solve_killing3(complex_heisenberg(1.0))
    assert space.dim == 0
    assert not any(f.naturally_reductive for f in dec.factors)


def test_structured_matches_brute_spans():
    for L in [heisenberg(1), complex_heisenberg(1.0), free_two_step_3(),
              direct_sum([euclidean(3), heisenberg(1)])]:
        F = adapted_frame(L)
        for k, solver in ((2, solve_killing2), (3, solve_killing3)):
            brute = killing_nullspace_brute(L, F, k)
            structured, _ = solver(L)
            assert brute.dim == structured.dim
            if brute.dim:
                qa, _ = np.linalg.qr(brute.matrix())
                qb, _ = np.linalg.qr(structured.matrix())
                assert span_distance(qa, qb) < 1e-9


def test_is_parallel():
    L = complex_heisenberg(1.0)
    F = adapted_frame(L)
    alpha = killing_nullspace_brute(L, F, 2).basis[0]
    assert not is_parallel(F, alpha)

    h3 = heisenberg(1)
    F3 = adapted_frame(h3)
    assert is_parallel(F3, Form.basis(3, 3, (0, 1, 2)))

    flat = euclidean(3)
    Ff = adapted_frame(flat)
    assert is_parallel(Ff, Form.basis(3, 2, (0, 1)))


def test_degree_one_killing_vector_condition():
    for L in [heisenberg(1), complex_heisenberg(1.0),
              direct_sum([euclidean(2), heisenberg(1)])]:
        F = adapted_frame(L)
        n = L.dim
        space = killing_nullspace_brute(L, F, 1)
        eye = np.eye(n)
        for w in space.basis:
            sharp = w.vec
            for a in range(n):
                for b in range(n):
                    val = eye[:, b] @ (nabla_matrix(F, eye[:, a]) @ sharp)
                    val += eye[:, a] @ (nabla_matrix(F, eye[:, b]) @ sharp)
                    assert abs(val) < 1e-9
        # parallel central duals (the abelian kernel) are Killing 1-forms
        mat = space.matrix()
        for t in range(n - F.na, n):
            dual = eye[:, t]
            proj = mat @ (mat.T @ dual) if space.dim else np.zeros(n)
            assert np.abs(proj - dual).max() < 1e-9


def _count_calls(monkeypatch, name):
    """Record the calls of `name` made through any nilkilling module."""
    calls = []
    for module in (algebra, forms, killing):
        if hasattr(module, name):
            def counted(*args, _original=getattr(module, name), **kwargs):
                calls.append(name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return calls


def test_brute_reads_one_connection_and_no_per_form_differential(monkeypatch):
    L = heisenberg(2)
    F = adapted_frame(L)
    names = ("lie_diff", "connection", "nabla_matrix", "contract", "wedge",
             "skew_extend", "_skew_map", "_d_images")
    calls = {name: _count_calls(monkeypatch, name) for name in names}

    def counts():
        got = tuple(len(calls[name]) for name in names)
        for made in calls.values():
            del made[:]
        return got

    omega = Form.basis(5, 3, (0, 1, 4))
    counts()
    killing_nullspace_brute(L, F, 3)
    # d of every basis form is one scatter, and each of the 5 connection
    # slices is checked skew once, not once per basis form
    assert counts() == (0, 1, 0, 0, 0, 0, 5, 1)
    # the residual's one differential is read off the frame constants
    # directly, not through lie_diff
    killing_residual(F, omega)
    got = counts()
    assert got[:2] + got[5:] == (0, 1, 5, 5, 1)
    is_parallel(F, omega)
    got = counts()
    assert got[:2] + got[5:] == (0, 1, 5, 5, 0)


def _reference_cases():
    """Catalog entries, the oracle ladder's sparse sums, random metrics."""
    algebras = [catalog.build(name) for name in catalog.catalog_names()]
    algebras += [heisenberg(l) for l in range(1, 6)]
    algebras += [complex_heisenberg(lam) for lam in (0.5, 1.0, 2.0)]
    algebras += [direct_sum([euclidean(3), heisenberg(1), heisenberg(1)]),
                 direct_sum([free_two_step_3(), heisenberg(2)])]
    rng = np.random.default_rng(11)
    for L in [heisenberg(1), heisenberg(2), complex_heisenberg(1.0),
              free_two_step_3(), direct_sum([euclidean(2), heisenberg(1)])]:
        algebras.append(with_metric(L, random_spd_metric(L.dim, rng)))
    return {L.name: L for L in algebras}


REFERENCE_CASES = _reference_cases()


@pytest.mark.parametrize("name", list(REFERENCE_CASES))
def test_brute_matches_full_operator_reference(name):
    L = REFERENCE_CASES[name]
    F = adapted_frame(L)
    for k in range(1, min(L.dim, 4 if L.dim <= 9 else 3) + 1):
        got = killing_nullspace_brute(L, F, k)
        want = brute_reference(F, k, DEFAULT_TOL)
        assert got.dim == len(want), (name, k)
        if got.dim:
            qa, _ = np.linalg.qr(got.matrix())
            qb, _ = np.linalg.qr(np.array([w.vec for w in want]).T)
            assert span_distance(qa, qb) < 1e-12, (name, k)
        if got.dim == 1:
            assert np.abs(got.basis[0].vec - want[0].vec).max() < 1e-12, (name, k)


def test_brute_working_set_is_one_block_pair(monkeypatch):
    # n32 + h5: n = 11, C(11, 3) = 165; the full stack would be 1815 x 165
    L = direct_sum([free_two_step_3(), heisenberg(2)])
    F = adapted_frame(L)
    seen = {"nullspace": [], "qr": []}

    def recorder(name, original):
        def record(a, *args, **kwargs):
            seen[name].append(np.shape(a))
            return original(a, *args, **kwargs)
        return record

    monkeypatch.setattr(killing, "nullspace",
                        recorder("nullspace", killing.nullspace))
    monkeypatch.setattr(np.linalg, "qr", recorder("qr", np.linalg.qr))
    assert killing_nullspace_brute(L, F, 3).dim == 2
    assert len(seen["nullspace"]) == 1 and seen["qr"]
    cells = [int(np.prod(s)) for shapes in seen.values() for s in shapes]
    assert max(cells) <= 2 * 165 ** 2


def test_brute_refuses_a_request_past_the_budget_before_allocating():
    # h19 at degree 6: C(19,6) = 27132 basis forms; the estimate is 5x the
    # C(n,k)^2 + C(n,k) C(n,k+1) floats of the forms and their differentials
    L = heisenberg(9)
    F = adapted_frame(L)
    need = 5 * 8 * (comb(19, 6) ** 2 + comb(19, 6) * comb(19, 7))
    assert need > killing.BRUTE_BUDGET_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(WorkingSetTooLarge, match="78.4 GiB") as info:
            killing_nullspace_brute(L, F, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(info.value, MemoryError)
    assert peak < 2**16


def test_structured_forms_are_normalized():
    # unit norm, first coefficient above 1e-10 in magnitude positive
    for name in catalog.catalog_names():
        L = catalog.build(name)
        for solver in (solve_killing2, solve_killing3):
            space, _ = solver(L)
            for form in space.basis:
                assert abs(form.norm() - 1.0) < 1e-12, name
                lead = form.vec[np.abs(form.vec) > 1e-10]
                assert lead[0] > 0, name


def _parity_cases():
    rng = np.random.default_rng(23)
    cases = []
    for L in [direct_sum([free_two_step_3(), heisenberg(2)]),
              direct_sum([complex_heisenberg(1.0), heisenberg(1)]),
              catalog.build("R3+h3")]:
        cases += [L, with_metric(L, random_spd_metric(L.dim, rng))]
    return {L.name: L for L in cases}


PARITY_CASES = _parity_cases()


@pytest.mark.parametrize("name", list(PARITY_CASES))
def test_killing_operator_splits_by_v_leg_parity(name):
    # nabla_x moves the number l of v-legs by 1 for x in v and keeps it for
    # x in z; e_a -| d moves it by 1 or 2 alike, so row (a, S) meets only
    # columns T with l(T) = l(S) + [a in v] mod 2
    L = PARITY_CASES[name]
    F = adapted_frame(L)
    n = F.n
    for k in (2, 3, 4):
        op = killing_operator_reference(F, k)
        legs = (np.array(basis_tuples(n, k)) < F.nv).sum(axis=1)
        rows = np.tile(legs, n) + np.repeat(np.arange(n) < F.nv, len(legs))
        cross = (rows[:, None] - legs[None, :]) % 2 == 1
        assert np.abs(op[cross]).max() <= 1e-12 * np.abs(op).max(), (name, k)


def _killgen_reference(F, omega):
    """killgen_residuals read off `polarized_reference`, bigrade by counting legs."""
    pol = polarized_reference(F, omega)
    v, z = range(F.nv), range(F.nv, F.n)
    families = {"pp1": [pol[a, b] for a in v for b in v if a <= b],
                "pp2": [pol[s, t] for s in z for t in z if s <= t],
                "pp3": [2.0 * pol[a, t] for a in v for t in z]}
    vlegs = np.array([sum(i < F.nv for i in t)
                      for t in basis_tuples(F.n, omega.degree - 1)])
    return {(name, l): max((np.linalg.norm(p.vec[vlegs == l]) for p in ps), default=0.0)
            for l in range(omega.degree) for name, ps in families.items()}


@pytest.mark.parametrize("name", list(PARITY_CASES))
def test_killing_checks_match_the_per_pair_polarized_reference(name):
    # random forms of degree 1-4 and, where the abelian block has room,
    # pullbacks of forms on it, which are parallel; every residual is
    # bilinear in the constants and omega, which sets the relative scale
    L = PARITY_CASES[name]
    dec = decompose(L)
    F = dec.frame
    rng = np.random.default_rng(31)
    for k in (1, 2, 3, 4):
        cases = [(random_form(F.n, k, rng), False)]
        if k <= dec.d:
            cases.append((transform(random_form(dec.d, k, rng), dec.abelian.T), True))
        for w, parallel in cases:
            scale = np.abs(F.constants).max() * w.norm()
            table, ref = killgen_residuals(F, w), _killgen_reference(F, w)
            assert list(table) == list(ref)
            assert all(abs(table[key] - ref[key]) <= 1e-12 * scale for key in ref), k
            nablas = [koszul_covariant(F, x, w) for x in np.eye(F.n)]
            d_w = torsion_free_d(F, w)
            defect = max((nab - (1.0 / (k + 1)) * contract_reference(a, d_w)).norm()
                         for a, nab in enumerate(nablas))
            assert abs(killing_residual(F, w) - defect) <= 1e-12 * scale, k
            worst = max(nab.norm() for nab in nablas)
            assert is_parallel(F, w) == parallel == (worst <= DEFAULT_TOL * scale), k


def test_structured_forms_have_even_v_legs():
    # the abelian block lies in z, and each factor's form has 2 or 0 v-legs
    for name in catalog.catalog_names():
        dec = decompose(catalog.build(name))
        for k in (2, 3):
            for form in structured_killing(dec, k).basis:
                for l in range(1, k + 1, 2):
                    assert not bigrade(dec.frame, form, l).vec.any(), (name, k, l)


def _brute_parity_cases():
    """Catalog entries and the oracle ladder's sums, one with a random metric."""
    sums = [direct_sum([euclidean(3), heisenberg(1), heisenberg(1)]),
            direct_sum([free_two_step_3(), heisenberg(2)])]
    sums.append(with_metric(sums[0], random_spd_metric(9, np.random.default_rng(29))))
    cases = {name: catalog.build(name) for name in catalog.catalog_names()}
    return cases | {L.name: L for L in sums}


BRUTE_PARITY_CASES = _brute_parity_cases()


@pytest.mark.parametrize("name", list(BRUTE_PARITY_CASES))
def test_brute_forms_have_even_v_legs(name):
    # by the structure theorem every Killing 2- and 3-form is a sum of forms
    # with 0 or 2 v-legs, so the oracle's odd bigrades vanish
    L = BRUTE_PARITY_CASES[name]
    F = adapted_frame(L)
    for k in (2, 3):
        for form in killing_nullspace_brute(L, F, k).basis:
            for l in range(1, k + 1, 2):
                assert bigrade(F, form, l).norm() <= 1e-12, (k, l)


@pytest.mark.parametrize("build, n", [(quaternionic_heisenberg, 7),
                                      (spin2_algebra, 8),
                                      (spin1_spin2_algebra, 11)])
def test_representation_ladder_brute_matches_structured(build, n):
    # irreducible, naturally reductive, with a 3-dim centre: K2 = 0, K3 = 1
    L = build()
    assert L.dim == n
    dec = decompose(L)
    assert dec.d == 0 and len(dec.factors) == 1
    for k, want in ((2, 0), (3, 1)):
        structured = structured_killing(dec, k)
        brute = killing_nullspace_brute(L, dec.frame, k)
        assert brute.dim == structured.dim == want, k
        if want:
            qa, _ = np.linalg.qr(brute.matrix())
            qb, _ = np.linalg.qr(structured.matrix())
            assert span_distance(qa, qb) < 1e-9
