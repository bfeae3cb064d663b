"""Answers do not change under a homothety or an isometric change of basis.

Scaling the brackets c -> s c and the metric g -> lam2 g are homotheties,
which map Killing forms to Killing forms, and an orthogonal change of user
basis is an isometry.  So the dimension formulas, the de Rham factors and
the brute oracle must give the answers of the unscaled algebra, and the
brute and structured spans must still agree.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilkilling import (
    MetricLieAlgebra,
    adapted_frame,
    catalog,
    decompose,
    direct_sum,
    killing_nullspace_brute,
    structured_killing,
    validate,
)
from nilkilling.errors import InvalidAlgebra
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
    for k in (2, 3):
        brute = killing_nullspace_brute(L, F, k)
        structured = structured_killing(dec, k)
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


EXTREME_NAMES = ["h3", "n32", "h3C", "h3+h3", "R2+(h3+h3)", "R+h5"]
EXTREME_SCALES = [1e-300, 1e-200, 1e-160, 1e160, 1e200, 1e300]


@pytest.mark.parametrize("s", EXTREME_SCALES)
@pytest.mark.parametrize("name", EXTREME_NAMES)
def test_answers_hold_at_extreme_bracket_scales(name, s):
    # every zero test quadratic in its data reads it unit-scaled, so no
    # product overflows or underflows, and every form comes out at norm 1
    L = catalog.build(name)
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(L.dim, L.dim)))
    scaled = change_user_basis(MetricLieAlgebra(
        L.dim, list(L.basis_names), s * L.structure_constants, L.gram,
        name=L.name + "-scaled"), q)
    assert answers(scaled) == answers(L)
    dec = decompose(scaled)
    for k in (2, 3):
        for form in structured_killing(dec, k).basis:
            assert abs(form.norm() - 1.0) < 1e-12


@pytest.mark.parametrize("s", [1e-300, 1e-200, 1.0, 1e160, 1e200])
def test_three_step_refused_at_every_scale(s):
    # [e0,e1] = s e2, [e0,e2] = s e3: the double bracket s^2 e3 neither
    # underflows to 0 nor overflows
    c = np.zeros((4, 4, 4))
    for i, j, k in ((0, 1, 2), (0, 2, 3)):
        c[i, j, k], c[j, i, k] = s, -s
    L = MetricLieAlgebra(4, ["e0", "e1", "e2", "e3"], c, np.eye(4))
    assert validate(L).violations == [
        "2-step: [[x,y],w] != 0 for some basis triple"]
    with pytest.raises(InvalidAlgebra, match="2-step"):
        adapted_frame(L)


@pytest.mark.parametrize("name, seed, peak", [("h3", None, 1.5e308),
                                              ("R+h5", 3, 1.7e308)],
                         ids=["h3-identity", "R+h5-random-spd"])
def test_answers_hold_for_a_gram_near_the_largest_float(name, seed, peak):
    # a metric homothety to a largest Gram entry near the largest float:
    # the positivity and conditioning checks read the unit-scaled Gram, so
    # its eigenvalues neither overflow nor fail to converge
    L = catalog.build(name)
    g = np.eye(L.dim)
    if seed is not None:        # a random SPD metric, exactly symmetric
        a = np.random.default_rng(seed).normal(size=(L.dim, L.dim))
        g = 0.5 * (a @ a.T) + 0.5 * (a @ a.T).T + L.dim * np.eye(L.dim)
    unscaled = MetricLieAlgebra(L.dim, list(L.basis_names),
                                L.structure_constants, g, name=name)
    huge = MetricLieAlgebra(L.dim, list(L.basis_names), L.structure_constants,
                            peak * (g / np.abs(g).max()), name=name + "-huge")
    assert validate(huge).ok
    assert answers(huge) == answers(unscaled)
