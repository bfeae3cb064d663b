"""Answers do not change under a homothety or an isometric change of basis.

Scaling the brackets c -> s c and the metric g -> lam2 g are homotheties,
which map Killing forms to Killing forms, and an orthogonal change of user
basis is an isometry.  So the dimension formulas, the de Rham factors and
the brute oracle must give the answers of the unscaled algebra, and the
brute and structured spans must still agree.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from nilkilling import (
    MetricLieAlgebra,
    adapted_frame,
    catalog,
    decompose,
    direct_sum,
    killing_nullspace_brute,
    solve_killing2,
    solve_killing3,
)
from nilkilling.linalg import span_distance

from helpers import change_user_basis, random_two_step

BRUTE_MAX_N = 9
SUMMANDS = [(2, 1), (3, 1), (4, 1), (3, 2), (4, 2), (3, 3)]
LOG_SCALE = st.floats(-12.0, 12.0)


@st.composite
def algebras(draw):
    """A catalog algebra, or a sum of random 2-step algebras of dim <= 9."""
    if draw(st.booleans()):
        return catalog.build(draw(st.sampled_from(catalog.catalog_names())))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    summands = draw(st.lists(st.sampled_from(SUMMANDS), min_size=1, max_size=2)
                    .filter(lambda s: sum(nv + nz for nv, nz in s) <= BRUTE_MAX_N))
    return direct_sum([random_two_step(nv, nz, rng) for nv, nz in summands])


def _span(space):
    return np.linalg.qr(space.matrix())[0]


def answers(L):
    """Decomposition answers, and brute dims at k = 2, 3 with each brute
    span checked against the structured one."""
    dec = decompose(L)
    shape = (dec.killing_dimensions(),
             sorted((f.frame.nv, f.frame.nz, f.has_complex_structure,
                     f.naturally_reductive) for f in dec.factors))
    if L.dim > BRUTE_MAX_N:
        return shape, None
    F = adapted_frame(L)
    dims = []
    for k, solver in ((2, solve_killing2), (3, solve_killing3)):
        brute = killing_nullspace_brute(L, F, k)
        structured, _ = solver(L)
        assert brute.dim == structured.dim, (L.name, k)
        if brute.dim:
            assert span_distance(_span(brute), _span(structured)) < 1e-8
        dims.append(brute.dim)
    return shape, dims


@settings(derandomize=True, deadline=None, max_examples=30)
@given(L=algebras(), log_s=LOG_SCALE, log_lam2=LOG_SCALE,
       seed=st.integers(0, 2**32 - 1))
def test_answers_invariant_under_homothety_and_isometry(L, log_s, log_lam2, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(L.dim, L.dim)))
    scaled = MetricLieAlgebra(
        L.dim, list(L.basis_names), 10.0 ** log_s * L.structure_constants,
        10.0 ** log_lam2 * L.gram, name=L.name + "-scaled",
    )
    assert answers(change_user_basis(scaled, q)) == answers(L)
