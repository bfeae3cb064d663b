"""The three benchmark workloads: task generators and their answer gates.

A workload turns a seeded generator into one *pass*: a list of tasks whose
composition is fixed and whose random contents (metrics, scrambles,
parameters, forms) come from the generator.  A task is one closed-loop call
sequence into the library plus the answer it must produce.

The library is always reached through module attributes
(``killing.killing_nullspace_brute(...)``), never through names bound here,
so that the traced run sees every call.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from math import comb
from typing import Callable

import numpy as np

from nilkilling import algebra, catalog, cli, forms, killing, linalg

TOL = linalg.DEFAULT_TOL
SPAN_TOL = 1e-8        # the CLI's own brute-vs-structured span check
IDENTITY_TOL = 1e-10   # exterior-algebra identities


@dataclass
class Task:
    label: str            # name of the input, e.g. "h7/dense0/k3"
    shape: tuple          # problem shape; the warm-up runs one task per shape
    n: int                # algebra dimension, used to pick the smoke subset
    run: Callable         # the timed library calls; returns the raw output
    check: Callable       # output -> (answer dict, list of problems)


# ---------------------------------------------------------------- algebras
#
# A composition is a tuple of parts: ("R", d) for a Euclidean block and
# ("h", l), ("h3C", lam), ("n32",) for the irreducible catalog factors.
# By the structure theorem each Heisenberg and n32 factor is naturally
# reductive (one Killing 3-form), each h3C(lam) carries a complex structure
# (one Killing 2-form), and the abelian block R^d adds C(d,2) and C(d,3).

def _part_dim(part):
    kind = part[0]
    if kind == "R":
        return part[1]
    if kind == "h":
        return 2 * part[1] + 1
    return 6


def comp_dim(comp):
    return sum(_part_dim(p) for p in comp)


def comp_name(comp):
    out = []
    for p in comp:
        if p[0] == "R":
            out.append(f"R{p[1]}")
        elif p[0] == "h":
            out.append(f"h{2 * p[1] + 1}")
        elif p[0] == "h3C":
            out.append(f"h3C({p[1]:g})")
        else:
            out.append("n32")
    return "+".join(out)


def expected_structure(comp):
    """d, sorted factor dims, (#complex, #naturally reductive), dimK2, dimK3."""
    d = sum(p[1] for p in comp if p[0] == "R")
    factors = sorted(_part_dim(p) for p in comp if p[0] != "R")
    r2 = sum(1 for p in comp if p[0] == "h3C")
    r3 = sum(1 for p in comp if p[0] in ("h", "n32"))
    return {"d": d, "factor_dims": factors, "r2": r2, "r3": r3,
            "dimK2": comb(d, 2) + r2, "dimK3": comb(d, 3) + r3}


def build_comp(comp):
    """Build a composition through the catalog (timed: the catalog layer)."""
    parts = []
    for p in comp:
        if p[0] == "R":
            parts.append(catalog.build("euclidean", d=p[1]))
        elif p[0] == "h":
            parts.append(catalog.build("heisenberg", l=p[1]))
        elif p[0] == "h3C":
            parts.append(catalog.build("complex_heisenberg", lam=p[1]))
        else:
            parts.append(catalog.build("free_two_step_3"))
    if len(parts) == 1:
        return parts[0]
    return catalog.direct_sum(parts)


def random_spd(n, rng):
    """The acceptance suite's random metric: A^T A + I/2 with Gaussian A."""
    a = rng.normal(size=(n, n))
    return a.T @ a + 0.5 * np.eye(n)


def with_gram(L, gram):
    return algebra.MetricLieAlgebra(L.dim, list(L.basis_names),
                                    L.structure_constants, gram,
                                    name=L.name + "/g")


def scramble(L, q):
    """Isometric copy of L in the user basis whose columns are q."""
    br = np.einsum("ia,jb,ijk->abk", q, q, L.structure_constants,
                   optimize=True)
    c_new = np.einsum("abk,kc->abc", br, np.linalg.inv(q).T, optimize=True)
    return algebra.MetricLieAlgebra(L.dim, list(L.basis_names), c_new,
                                    q.T @ L.gram @ q, name=L.name + "~")


# ------------------------------------------------------------ oracle-ladder

LADDER_SPARSE = [
    (("h", 1),), (("h", 2),), (("h", 3),), (("h", 4),), (("h", 5),),
    (("h3C", 0.5),), (("h3C", 1.0),), (("h3C", 2.0),), (("n32",),),
    (("R", 3), ("h", 1), ("h", 1)), (("n32",), ("h", 2)),
]
# (composition, random metrics per pass); dense metrics stop at n = 9.  The
# many small dense tasks make a pass at least 100 tasks, enough for a p90.
LADDER_DENSE = [
    ((("h", 1),), 10), ((("h", 2),), 10), ((("h3C", 1.0),), 10),
    ((("n32",),), 10), ((("h", 3),), 1), ((("R", 3), ("h", 1), ("h", 1)), 1),
]


def _oracle_task(comp, k, gram, label):
    n = comp_dim(comp)
    expected = expected_structure(comp) if gram is None else None

    def run():
        L = build_comp(comp)
        if gram is not None:
            L = with_gram(L, gram)
        F = algebra.adapted_frame(L, TOL)
        brute = killing.killing_nullspace_brute(L, F, k, TOL)
        structured, _ = (killing.solve_killing2 if k == 2
                         else killing.solve_killing3)(L, TOL)
        return brute.dim, structured.dim, cli._space_mismatch(brute, structured)

    def check(out):
        bdim, sdim, residual = out
        problems = []
        if bdim != sdim:
            problems.append(f"brute dim {bdim} != structured dim {sdim}")
        if residual > SPAN_TOL:
            problems.append(f"span residual {residual:.3e} > {SPAN_TOL:g}")
        if expected is not None:
            want = expected["dimK2" if k == 2 else "dimK3"]
            if bdim != want:
                problems.append(f"dim {bdim} != structure theorem {want}")
        return {"dim": bdim}, problems

    return Task(label, ("oracle", n, k), n, run, check)


def oracle_ladder(rng):
    tasks = []
    for comp in LADDER_SPARSE:
        for k in (2, 3):
            tasks.append(_oracle_task(comp, k, None,
                                      f"{comp_name(comp)}/id/k{k}"))
    for comp, count in LADDER_DENSE:
        n = comp_dim(comp)
        for i in range(count):
            gram = random_spd(n, rng)
            for k in (2, 3):
                tasks.append(_oracle_task(comp, k, gram,
                                          f"{comp_name(comp)}/dense{i}/k{k}"))
    return tasks


# ---------------------------------------------------------- structure-sweep

SWEEP = [
    # n = 5..8, eight times each per pass (independent scrambles), so that a
    # pass has at least 100 tasks, enough for a p90
    (("R", 2), ("h", 1)), (("R", 1), ("h", 2)), (("h", 1), ("h", 1)),
    (("R", 3), ("h", 1)), (("R", 1), ("h3C", 1.0)), (("R", 1), ("n32",)),
    (("R", 2), ("h", 2)), (("R", 2), ("h3C", 2.0)), (("h", 1), ("h", 2)),
    (("R", 2), ("n32",)), (("R", 2), ("h", 1), ("h", 1)),
    (("R", 3), ("h", 1), ("h", 1)),
] * 8 + [
    # n = 9..10
    (("h", 1), ("n32",)), (("R", 2), ("h", 3)), (("h", 1), ("h3C", 0.5)),
    (("R", 1), ("h", 1), ("h", 2)), (("h", 2), ("h", 2)),
    # n = 11..12
    (("h", 1), ("h", 1), ("h", 2)), (("R", 3), ("n32",), ("h", 1)),
    (("R", 2), ("h", 2), ("h", 2)),
    # n = 14
    (("R", 2), ("h3C", 1.0), ("h3C", 2.0)),
]


def _sweep_task(comp, q, label):
    n = comp_dim(comp)
    expected = expected_structure(comp)

    def run():
        L = scramble(build_comp(comp), q)
        report = algebra.validate(L, TOL)
        rec = cli.analyze_record(L, TOL)
        s2, _ = killing.solve_killing2(L, TOL)
        s3, _ = killing.solve_killing3(L, TOL)
        return report.ok, rec, s2.dim, s3.dim

    def check(out):
        ok, rec, k2, k3 = out
        factors = rec["factors"]
        got = {
            "d": rec["d"],
            "factor_dims": sorted(f["dim"] for f in factors),
            "r2": sum(1 for f in factors if f["complex"]),
            "r3": sum(1 for f in factors if f["nat_reductive"]),
            "dimK2": rec["dimK2"],
            "dimK3": rec["dimK3"],
        }
        problems = [] if ok else ["validate rejected the algebra"]
        problems += [f"{key} {got[key]} != {expected[key]}"
                     for key in expected if got[key] != expected[key]]
        if (k2, k3) != (expected["dimK2"], expected["dimK3"]):
            problems.append(f"structured solvers gave ({k2}, {k3})")
        return {"d": got["d"], "factors": got["factor_dims"],
                "dimK2": k2, "dimK3": k3}, problems

    return Task(label, ("sweep", n), n, run, check)


def structure_sweep(rng):
    tasks = []
    for i, comp in enumerate(SWEEP):
        n = comp_dim(comp)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        tasks.append(_sweep_task(comp, q, f"{comp_name(comp)}#{i}"))
    return tasks


# ---------------------------------------------------------------- cli-small

API_ALGEBRAS = [(("h", 1),), (("h", 2),), (("h", 3),), (("h3C", 1.0),),
                (("n32",),)]


def catalog_entries():
    """Buildable classification entries, one per name, with expected dims."""
    seen = {}
    for lst in catalog.classification_lists():
        for entry in lst:
            if entry.buildable and entry.name not in seen:
                seen[entry.name] = entry
    return list(seen.values())


def _cli_task(argv, n, expect):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def check(result):
        code, text = result
        if code != 0:
            return {"exit": code}, [f"exit code {code}"]
        rec = json.loads(text)
        return expect(rec)

    return Task(" ".join(argv), ("cli",) + tuple(argv[:1]), n, run, check)


def _expect_dims(k2, k3):
    def expect(rec):
        got = (rec["dimK2"], rec["dimK3"])
        problems = [] if got == (k2, k3) else [f"dims {got} != {(k2, k3)}"]
        return {"dimK2": got[0], "dimK3": got[1]}, problems
    return expect


def _expect_killing(want):
    def expect(rec):
        problems = []
        dims = (rec["brute_dim"], rec["structured_dim"])
        if dims != (want, want):
            problems.append(f"brute/structured dims {dims} != {want}")
        if not rec["dims_agree"] or rec["span_residual"] > SPAN_TOL:
            problems.append(f"span residual {rec['span_residual']:.3e}")
        return {"dim": dims[0]}, problems
    return expect


def _expect_tables(rec):
    problems, rows = [], 0
    for table in rec["tables"]:
        for row in table["rows"]:
            if row["skipped"]:
                continue
            rows += 1
            if not row["ok"] or row["computed"] != row["expected"]:
                problems.append(f"{row['name']}: {row['computed']} != "
                                f"{row['expected']}")
    return {"rows": rows}, problems


def _api_task(kind, comp, L, F, rng):
    """One exterior-algebra identity on seeded random forms."""
    n = F.n
    k = int(rng.integers(1, n - 1))
    w = forms.Form(n, k, rng.normal(size=comb(n, k)))
    ka = int(rng.integers(1, n - k + 1))
    eta = forms.Form(n, ka, rng.normal(size=comb(n, ka)))
    eta_k = forms.Form(n, k, rng.normal(size=comb(n, k)))
    x = rng.normal(size=n)
    a = rng.normal(size=(n, n))
    f = a - a.T

    if kind == "d_squared":
        def run():
            return forms.lie_diff(L, F, forms.lie_diff(L, F, w)).norm()
    elif kind == "contract_leibniz":
        def run():
            lhs = forms.contract(x, forms.wedge(w, eta))
            rhs = (forms.wedge(forms.contract(x, w), eta)
                   + (-1) ** k * forms.wedge(w, forms.contract(x, eta)))
            return (lhs - rhs).norm()
    elif kind == "skew_leibniz":
        def run():
            lhs = forms.skew_extend(f, forms.wedge(w, eta))
            rhs = (forms.wedge(forms.skew_extend(f, w), eta)
                   + forms.wedge(w, forms.skew_extend(f, eta)))
            return (lhs - rhs).norm()
    else:  # nabla_skew: nabla_y is skew for the form inner product
        def run():
            dw = forms.nabla_form(L, F, x, w)
            de = forms.nabla_form(L, F, x, eta_k)
            return abs(dw.vec @ eta_k.vec + w.vec @ de.vec)

    def check(res):
        ok = bool(res <= IDENTITY_TOL)
        return {"identity_holds": ok}, [] if ok else [f"residual {res:.3e}"]

    return Task(f"api:{kind}:{comp_name(comp)}:k{k}", ("api", kind, n), n,
                run, check)


def cli_small(rng):
    tasks = [_cli_task(["tables", "--json"], 8, _expect_tables)]
    for entry in catalog_entries():
        spec = f"catalog:{entry.name}"
        k2, k3 = entry.expected
        tasks.append(_cli_task(["analyze", spec, "--json"], entry.dim,
                               _expect_dims(k2, k3)))
        tasks.append(_cli_task(["decompose", spec, "--json"], entry.dim,
                               _expect_dims(k2, k3)))
        for k, want in ((2, k2), (3, k3)):
            tasks.append(_cli_task(
                ["killing", spec, "--method", "both", "--degree", str(k),
                 "--json"], entry.dim, _expect_killing(want)))
    # g_lambda sweep: every lambda keeps one complex factor, K2 = 1, K3 = 0
    for lam in np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=4)):
        spec, lam_arg = "catalog:complex_heisenberg", f"{lam:.6f}"
        tasks.append(_cli_task(["analyze", spec, "--lambda", lam_arg,
                                "--json"], 6, _expect_dims(1, 0)))
        tasks.append(_cli_task(["killing", spec, "--lambda", lam_arg,
                                "--method", "both", "--degree", "2",
                                "--json"], 6, _expect_killing(1)))
    for comp in API_ALGEBRAS:
        L = build_comp(comp)
        F = algebra.adapted_frame(L, TOL)
        for kind in ("d_squared", "contract_leibniz", "skew_leibniz",
                     "nabla_skew") * 2:
            tasks.append(_api_task(kind, comp, L, F, rng))
    return tasks


WORKLOADS = {
    "oracle-ladder": oracle_ladder,
    "structure-sweep": structure_sweep,
    "cli-small": cli_small,
}

SMOKE_MAX_N = 6


def make_pass(workload, seed, index, smoke=False):
    """(slot, task) pairs of pass `index` (0 is the warm-up pass), in seeded
    order.  A slot is the task's place in the workload's fixed composition,
    so the same slot of every pass is the same kind of problem."""
    rng = np.random.default_rng([seed, index])
    tasks = WORKLOADS[workload](rng)
    if smoke:
        tasks = [t for t in tasks if t.n <= SMOKE_MAX_N]
    order = rng.permutation(len(tasks))
    return [(int(i), tasks[i]) for i in order]
