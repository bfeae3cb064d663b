"""Acceptance suite: the nine headline guarantees, one pass/fail line each."""
import numpy as np

from nilkilling import (
    adapted_frame,
    bigrade,
    complex_heisenberg,
    contract,
    decompose,
    direct_sum,
    euclidean,
    find_complex_structure,
    free_two_step_3,
    heisenberg,
    j_trace_form,
    killing_nullspace_brute,
    killing_residual,
    lie_diff,
    nabla_form,
    naturally_reductive_type,
    skew_extend,
    solve_killing2,
    solve_killing3,
    wedge,
)
from nilkilling.linalg import span_distance

from helpers import (
    beta_coefficients,
    change_user_basis,
    kill2_residual,
    random_form,
    random_skew,
    random_spd_metric,
    with_metric,
)


def _run(number, description, body):
    try:
        body()
    except Exception as exc:
        print(f"\n[criterion {number}] FAIL - {description} ({exc})")
        raise
    print(f"\n[criterion {number}] PASS - {description}")


def _catalog():
    return [
        heisenberg(1),
        heisenberg(2),
        complex_heisenberg(1.0),
        free_two_step_3(),
        direct_sum([euclidean(2), heisenberg(1)]),
        direct_sum([euclidean(3), heisenberg(1)]),
        direct_sum([heisenberg(1), heisenberg(1)]),
        direct_sum([euclidean(1), heisenberg(2)]),
        direct_sum([euclidean(1), complex_heisenberg(1.0)]),
    ]


def _both_dims(L, k):
    brute = killing_nullspace_brute(L, adapted_frame(L), k)
    structured, _ = (solve_killing2 if k == 2 else solve_killing3)(L)
    return brute, structured


def test_criterion_1_dimension_table():
    table = [
        (heisenberg(1), (0, 1)),
        (heisenberg(2), (0, 1)),
        (complex_heisenberg(1.0), (1, 0)),
        (complex_heisenberg(2.0), (1, 0)),
        (complex_heisenberg(0.5), (1, 0)),
        (free_two_step_3(), (0, 1)),
        (direct_sum([euclidean(2), heisenberg(1)]), (1, 1)),
        (direct_sum([euclidean(3), heisenberg(1)]), (3, 2)),
        (direct_sum([heisenberg(1), heisenberg(1)]), (0, 2)),
        (direct_sum([euclidean(1), heisenberg(2)]), (0, 1)),
        (direct_sum([euclidean(1), complex_heisenberg(1.0)]), (1, 0)),
    ]

    def body():
        for L, expected in table:
            for k in (2, 3):
                brute, structured = _both_dims(L, k)
                assert brute.dim == expected[k - 2], (L.name, k, brute.dim)
                assert structured.dim == expected[k - 2], (L.name, k)

    _run(1, "dimension-formula table, brute and structured solvers", body)


def test_criterion_2_oracle_equivalence_random_metrics():
    rng = np.random.default_rng(0)

    def body():
        for L in _catalog():
            for _ in range(20):
                Lr = with_metric(L, random_spd_metric(L.dim, rng))
                for k in (2, 3):
                    brute, structured = _both_dims(Lr, k)
                    assert brute.dim == structured.dim, (L.name, k)
                    if brute.dim:
                        qa, _ = np.linalg.qr(brute.matrix())
                        qb, _ = np.linalg.qr(structured.matrix())
                        assert span_distance(qa, qb) <= 1e-8, (L.name, k)

    _run(2, "structured vs brute agreement on 20 random metrics per algebra",
         body)


def test_criterion_3_structure_theorem_properties():
    def body():
        for L in _catalog() + [complex_heisenberg(2.0)]:
            F = adapted_frame(L)
            for alpha in killing_nullspace_brute(L, F, 3).basis:
                assert bigrade(F, alpha, 1).norm() < 1e-9, L.name
                assert bigrade(F, alpha, 3).norm() < 1e-9, L.name
                B, res = beta_coefficients(F, alpha)
                assert res < 1e-8, (L.name, res)
                assert np.abs(B - B.T).max() < 1e-8, L.name
            for alpha in killing_nullspace_brute(L, F, 2).basis:
                assert bigrade(F, alpha, 1).norm() < 1e-9, L.name
                assert kill2_residual(F, alpha) <= 1e-8, L.name

    _run(3, "Killing 2-/3-form component equations (bigrades, kill2, beta)",
         body)


def test_criterion_4_complex_structure_pipeline():
    def body():
        L = complex_heisenberg(1.0)
        F = adapted_frame(L)
        J = find_complex_structure(F)
        assert J is not None
        assert np.abs(J @ J + np.eye(6)).max() <= 1e-9
        a2 = J[:4, :4]
        for jt in F.j_matrices:
            assert np.abs(a2 @ jt + jt @ a2).max() <= 1e-9
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        ref = np.kron(np.eye(3), rot)
        assert min(np.abs(J - ref).max(), np.abs(J + ref).max()) <= 1e-9
        alpha = killing_nullspace_brute(L, F, 2).basis[0]
        alpha = alpha * (1.0 / alpha.norm())
        eye = np.eye(6)
        worst = max(nabla_form(L, F, eye[:, a], alpha).norm()
                    for a in range(6))
        assert worst >= 0.1

    _run(4, "complex structure on the complex Heisenberg algebra", body)


def test_criterion_5_naturally_reductive_pipeline():
    def body():
        L = free_two_step_3()
        F = adapted_frame(L)
        cb = naturally_reductive_type(F)
        assert cb is not None
        ads = [cb[s].T for s in range(3)]
        kf = np.array([[np.trace(ads[s] @ ads[t]) for t in range(3)]
                       for s in range(3)])
        assert np.linalg.eigvalsh(kf).max() < 0.0
        space, data = solve_killing3(L)
        assert space.dim == 1
        assert killing_residual(F, space.basis[0]) <= 1e-9
        # j(gamma(z, z')) = 2 * lambda * [j(z), j(z')] with lambda = 1
        for s in range(3):
            for t in range(3):
                lhs = sum(2.0 * cb[s, t, u] * F.j_matrices[u]
                          for u in range(3))
                rhs = 2.0 * (F.j_matrices[s] @ F.j_matrices[t]
                             - F.j_matrices[t] @ F.j_matrices[s])
                assert np.abs(lhs - rhs).max() <= 1e-9

    _run(5, "naturally reductive structure of the free 2-step algebra", body)


def test_criterion_6_mutual_exclusion():
    rng = np.random.default_rng(1)

    def body():
        for L in _catalog():
            for _ in range(20):
                Lr = with_metric(L, random_spd_metric(L.dim, rng))
                for f in decompose(Lr).factors:
                    assert not (f.has_complex_structure
                                and f.naturally_reductive), L.name

    _run(6, "no factor is both complex and naturally reductive", body)


def test_criterion_7_decomposition_recovery():
    rng = np.random.default_rng(2)
    pool = {
        "h3": heisenberg(1),
        "h5": heisenberg(2),
        "h3C": complex_heisenberg(1.0),
        "n32": free_two_step_3(),
    }
    compositions = [
        ["h3", "h5"], ["h3", "h3C"], ["h3", "n32"], ["h5", "h3C"],
        ["h3", "h3", "h5"], ["R2", "h3", "h5"], ["R1", "h3C", "h3"],
        ["R3", "n32", "h3"], ["R2", "h3C"], ["R1", "h3", "h3"],
    ]

    def body():
        from nilkilling import killing_dimensions

        for trial in range(50):
            names = compositions[trial % len(compositions)]
            parts, d_expected, dims_expected = [], 0, []
            for nm in names:
                if nm.startswith("R"):
                    d = int(nm[1:])
                    parts.append(euclidean(d))
                    d_expected += d
                else:
                    parts.append(pool[nm])
                    dims_expected.append(pool[nm].dim)
            L = direct_sum(parts)
            q, _ = np.linalg.qr(rng.normal(size=(L.dim, L.dim)))
            Ls = change_user_basis(L, q)
            dec = decompose(Ls)
            assert dec.d == d_expected, names
            assert sorted(f.dim for f in dec.factors) == sorted(dims_expected)
            assert (killing_dimensions(L)[:2]
                    == killing_dimensions(Ls)[:2]), names

    _run(7, "50 scrambled direct sums decomposed back into their factors",
         body)


def test_criterion_8_isometry_invariant():
    def body():
        traces = {}
        for lam in (0.5, 1.0, 2.0, 3.0):
            L = complex_heisenberg(lam)
            jt = j_trace_form(adapted_frame(L))
            assert np.abs(jt + 4.0 * lam ** 2 * np.eye(2)).max() <= 1e-9
            traces[lam] = jt
        lams = sorted(traces)
        for i, a in enumerate(lams):
            for b in lams[i + 1:]:
                assert np.abs(traces[a] - traces[b]).max() >= 1.0

    _run(8, "j-trace invariant separates the g_lambda family", body)


def test_criterion_9_exterior_kernel_health():
    rng = np.random.default_rng(3)
    algebras = [heisenberg(1), heisenberg(2), complex_heisenberg(1.0),
                free_two_step_3()]

    def body():
        for L in algebras:
            F = adapted_frame(L)
            n = L.dim
            for _ in range(100):
                k = int(rng.integers(1, max(2, n - 1)))
                w = random_form(n, k, rng)
                if k <= n - 2:
                    assert lie_diff(L, F, lie_diff(L, F, w)).norm() <= 1e-10
                ka = int(rng.integers(1, n - k + 1)) if k < n else 0
                if ka and k + ka <= n:
                    eta = random_form(n, ka, rng)
                    x = rng.normal(size=n)
                    lhs = contract(x, wedge(w, eta))
                    rhs = (wedge(contract(x, w), eta)
                           + (-1) ** k * wedge(w, contract(x, eta)))
                    assert (lhs - rhs).norm() <= 1e-10
                    f = random_skew(n, rng)
                    lhs2 = skew_extend(f, wedge(w, eta))
                    rhs2 = (wedge(skew_extend(f, w), eta)
                            + wedge(w, skew_extend(f, eta)))
                    assert (lhs2 - rhs2).norm() <= 1e-10
                f, g = random_skew(n, rng), random_skew(n, rng)
                comm = f @ g - g @ f
                lhs3 = skew_extend(comm, w)
                rhs3 = (skew_extend(f, skew_extend(g, w))
                        - skew_extend(g, skew_extend(f, w)))
                assert (lhs3 - rhs3).norm() <= 1e-10
                y = rng.normal(size=n)
                eta2 = random_form(n, k, rng)
                dw = nabla_form(L, F, y, w)
                de = nabla_form(L, F, y, eta2)
                assert abs(dw.vec @ eta2.vec + w.vec @ de.vec) <= 1e-10

    _run(9, "exterior-algebra identities on 100 random instances per algebra",
         body)
