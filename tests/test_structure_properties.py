"""Structural properties the workbench relies on, checked with bounded
hypothesis runs.

- A rational rescaling of the metric leaves the bracket as it is and scales
  the pairing, so every axiom holds for lam * G exactly when it holds for G.
- A product certifies exactly when both factors do, in either factor order
  and with either sign on the second metric: restricted to one factor's
  block, the product is that factor.
- The graph of a morphism over the identity is isotropic in E1 x E2-bar
  exactly when the metric condition holds, so a verified morphism has an
  isotropic graph.
- The pullback along the identity morphism is the ambient structure.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from courantlab import linalg
from courantlab.bundles import BundleMorphism, TrivialBundle
from courantlab.courant_core import (
    CourantStructure,
    check_axioms,
    product_structure,
    scaled_structure,
    standard_structure,
)
from courantlab.morphisms import check_identity_base, graph_subbundle
from courantlab.polyexpr import PolyMap, Polynomial
from courantlab.pullback import PullbackProblem, construct

from conftest import so3_structure

bounded = settings(max_examples=20, deadline=None, database=None,
                   suppress_health_check=[HealthCheck.too_slow])
nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)


def _bent_bracket():
    """standard(1) with c_01^0 = 1: [[e_0, e_1]] + [[e_1, e_0]] != 0 fails (iii)."""
    s = standard_structure(1)
    return CourantStructure(s.bundle, s.anchor, s.metric, {(0, 1, 0): 1})


def _doubled_anchor():
    """Anchor [1, 1] on a hyperbolic plane over R^1: rho o D = 2, so the
    axioms fail on sections of degree 1 while every constant tuple passes."""
    one = Polynomial.constant(1, 1)
    return CourantStructure(TrivialBundle(1, 2, "E"), [[one, one]], [[0, 1], [1, 0]])


FACTORS = {
    "standard0": standard_structure(0),
    "standard1": standard_structure(1),
    "standard2": standard_structure(2),
    "so3": so3_structure(),
    "bent_bracket": _bent_bracket(),
    "doubled_anchor": _doubled_anchor(),
}
factors = st.sampled_from(sorted(FACTORS))


def _verdicts(s):
    report = check_axioms(s, degree_cap=1, n_random=0)
    return {name: check.passed for name, check in report.checks.items()}


PASSES = {name: all(_verdicts(s).values()) for name, s in FACTORS.items()}


def test_the_factor_pool_has_both_verdicts():
    assert PASSES == {"standard0": True, "standard1": True, "standard2": True,
                      "so3": True, "bent_bracket": False, "doubled_anchor": False}


@bounded
@given(factors, nonzero)
def test_rescaled_metric_keeps_every_axiom_verdict(name, lam):
    s = FACTORS[name]
    assert _verdicts(scaled_structure(s, lam)) == _verdicts(s)


@bounded
@given(factors, factors, st.booleans())
def test_product_certifies_iff_both_factors_do(first, second, flip):
    expected = PASSES[first] and PASSES[second]
    s1, s2 = FACTORS[first], FACTORS[second]
    for product in (product_structure(s1, s2, flip), product_structure(s2, s1, flip)):
        assert all(_verdicts(product).values()) == expected


@st.composite
def b_field_morphisms(draw):
    """(s, phi): lam * standard(n) and the fiber map (v, p) -> (v, p + B v),
    B = b(x) dx1 ^ dx2 for n = 2 (closed, as every 2-form on R^2) and B = 0
    for n = 1, with one entry then shifted by a constant that may be 0."""
    n = draw(st.integers(1, 2))
    s = scaled_structure(standard_structure(n), draw(nonzero))
    k = 2 * n
    matrix = [[Polynomial.constant(n, int(i == j)) for j in range(k)] for i in range(k)]
    if n == 2:
        small = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
        b = Polynomial(n, draw(st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2)), small, max_size=3)))
        matrix[2][1], matrix[3][0] = b, -b
    i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
    matrix[i][j] = matrix[i][j] + draw(st.sampled_from([0, 0, 1, Fraction(-1, 2)]))
    return s, BundleMorphism(s.bundle, s.bundle, PolyMap.identity(n), matrix)


def _graph_is_isotropic(s1, s2, phi) -> bool:
    """Gamma^T diag(G1, -G2) Gamma = 0 for the graph generators Gamma."""
    gamma = graph_subbundle(phi).fiber_generators
    metric = linalg.pmat_constant(product_structure(s1, s2, flip=True).metric,
                                  phi.source.base_dim)
    form = linalg.pmat_mul(linalg.pmat_transpose(gamma), linalg.pmat_mul(metric, gamma))
    return linalg.pmat_is_zero(form)


@bounded
@given(b_field_morphisms())
def test_graph_of_a_verified_morphism_is_isotropic(case):
    s, phi = case
    verdict = check_identity_base(s, s, phi, degree_cap=1)
    isotropic = _graph_is_isotropic(s, s, phi)
    assert isotropic == all(f.condition != "metric" for f in verdict.failures)
    if verdict.is_morphism:
        assert isotropic


def test_b_field_transforms_are_verified_morphisms():
    # the unperturbed family is not vacuous: x1 x2 dx1 ^ dx2 on lam * standard(2)
    s = scaled_structure(standard_structure(2), Fraction(-2, 3))
    b = Polynomial(2, {(1, 1): 1})
    one, zero = Polynomial.constant(2, 1), Polynomial(2)
    matrix = [[one, zero, zero, zero], [zero, one, zero, zero],
              [zero, b, one, zero], [-b, zero, zero, one]]
    phi = BundleMorphism(s.bundle, s.bundle, PolyMap.identity(2), matrix)
    assert check_identity_base(s, s, phi).is_morphism
    assert _graph_is_isotropic(s, s, phi)


@st.composite
def identity_pullback_ambients(draw):
    """lam * standard(n), or a product of two factors of the pool."""
    if draw(st.booleans()):
        return scaled_structure(standard_structure(draw(st.integers(0, 3))), draw(nonzero))
    return product_structure(FACTORS[draw(factors)], FACTORS[draw(factors)],
                             draw(st.booleans()))


@bounded
@given(identity_pullback_ambients())
def test_pullback_along_the_identity_is_the_ambient(s):
    pulled = construct(PullbackProblem(s, s.bundle, BundleMorphism.identity(s.bundle)))
    assert pulled == s
    assert pulled.metric_inverse == s.metric_inverse
