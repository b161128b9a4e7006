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
- Every morphism keeps its fiber matrix, and every structure its G, G^-1 and
  A, as the canonical sparse rows `linalg.sparse` forms from the dense
  views, whether they come from a scene, a builder, a composition or a
  pullback; a composite's fiber matrix is also the dense product.
"""

import json
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from courantlab import intrinsic, linalg
from courantlab.bundles import BundleMorphism, TrivialBundle, compose_morphisms
from courantlab.courant_core import (
    CourantStructure,
    check_axioms,
    product_structure,
    scaled_structure,
    standard_structure,
)
from courantlab.morphisms import check_identity_base, graph_subbundle
from courantlab.polyexpr import PolyMap, Polynomial, parse
from courantlab.pullback import PullbackProblem, construct
from courantlab.scene import load_scene

from conftest import reference_pmat_mul, so3_structure

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
    report = check_axioms(s, degree_cap=1)
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
    gamma = linalg.sparse(graph_subbundle(phi).fiber_generators)
    metric = linalg.sparse(product_structure(s1, s2, flip=True).metric)
    form = linalg.pmat_mul(linalg.pmat_transpose(gamma, phi.source.rank),
                           linalg.pmat_mul(metric, gamma))
    return not any(form)


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


# -- the rows every consumer reads ---------------------------------------------

# entries in x1, x2: scalars, zeros and a constant that cancel only after
# parsing, and polynomials
_ENTRIES = ["0", "1", "-1", "2", "3/2", "-1/3", "x1 - x1", "(x1 + 1)^2 - x1^2 - 2*x1",
            "x1", "x2", "x1*x2 - 1/2", "x1^2 + x2"]
_BUILDERS = ["splitting", "inclusion", "pontryagin", "identity", "constant"]


def _typed(rows):
    """Rows with each entry paired with its type: canonical means an int, a
    non-integral Fraction or a non-constant Polynomial, nothing else."""
    return [{j: (type(x), x) for j, x in row.items()} for row in rows]


def _matrix(draw, rows, cols, pool=_ENTRIES):
    return [[draw(st.sampled_from(pool)) for _ in range(cols)] for _ in range(rows)]


def _parsed(texts, n):
    return [[parse(t, [f"x{i + 1}" for i in range(n)]) for t in row] for row in texts]


@st.composite
def _scene_parts(draw, path):
    """(morphism, structure) loaded from a drawn scene over R^2: a morphism
    between bundles of rank 0-3 along a drawn base map, and a structure with
    a drawn anchor and a diagonal metric of nonzero rationals."""
    k1, k2, k = (draw(st.integers(0, 3)) for _ in range(3))
    diagonal = [str(draw(nonzero)) for _ in range(k)]
    scene = {
        "schema_version": 1,
        "bundles": {"A": {"base_dim": 2, "rank": k1}, "B": {"base_dim": 2, "rank": k2},
                    "C": {"base_dim": 2, "rank": k}},
        "courant_structures": {"s": {
            "bundle": "C", "anchor": _matrix(draw, 2, k),
            "metric": [[d if i == j else "0" for j in range(k)] for i, d in enumerate(diagonal)]}},
        "morphisms": {"phi": {"source": "A", "target": "B", "fiber_matrix": _matrix(draw, k2, k1),
                              "base_map": [draw(st.sampled_from(["x1", "x2", "x1^2", "0"]))
                                           for _ in range(2)]}},
    }
    path.write_text(json.dumps(scene))
    loaded = load_scene(path)
    return loaded.morphisms["phi"], loaded.structures["s"]


@st.composite
def _builder_morphisms(draw):
    n, m = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    kind = draw(st.sampled_from(_BUILDERS))
    if kind == "splitting":
        return intrinsic.splitting_composite(n, m)
    if kind == "inclusion":
        return intrinsic.inclusion_morphism(n, m)
    if kind == "pontryagin":
        return intrinsic.pontryagin_embedding(n, m)
    bundle = TrivialBundle(n, 2 * n + m)
    if kind == "identity":
        return BundleMorphism.identity(bundle)
    values = [0, 1, -1, Fraction(1, 2), Fraction(4, 2), "3/2", 0.25]
    return BundleMorphism.constant(bundle, bundle, _matrix(draw, bundle.rank, bundle.rank, values))


@st.composite
def _composites(draw):
    """(outer, inner) with polynomial fiber matrices, inner along a drawn
    base map R^1 -> R^2 or over the identity of R^2."""
    k1, k2, k3 = (draw(st.integers(0, 3)) for _ in range(3))
    outer = BundleMorphism(TrivialBundle(2, k2), TrivialBundle(2, k3), PolyMap.identity(2),
                           _parsed(_matrix(draw, k3, k2), 2))
    if draw(st.booleans()):
        base = PolyMap.from_exprs([draw(st.sampled_from(["x1", "x1^2", "1 - x1", "0"]))
                                   for _ in range(2)], ["x1"])
        fiber = _parsed(_matrix(draw, k2, k1, [e for e in _ENTRIES if "x2" not in e]), 1)
        return outer, BundleMorphism(TrivialBundle(1, k1), TrivialBundle(2, k2), base, fiber)
    return outer, BundleMorphism(TrivialBundle(2, k1), TrivialBundle(2, k2), PolyMap.identity(2),
                                 _parsed(_matrix(draw, k2, k1), 2))


@st.composite
def _pullback_structures(draw):
    """The structure a pullback constructs: along chi, along the Pontryagin
    embedding, or along the identity of a drawn ambient."""
    n, m = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["chi", "pontryagin", "identity"]))
    if kind == "chi":
        return construct(intrinsic._chi_problem(n, m, None), enforce_hypotheses=False)
    if kind == "pontryagin":
        phi = intrinsic.pontryagin_embedding(n, m)
        return construct(PullbackProblem(standard_structure(n + m), phi.source, phi))
    s = draw(identity_pullback_ambients())
    return construct(PullbackProblem(s, s.bundle, BundleMorphism.identity(s.bundle)))


def _assert_canonical_structure(s):
    g, g_inv, a = s.rows
    assert _typed(g) == _typed(linalg.sparse(s.metric))
    assert _typed(g_inv) == _typed(linalg.sparse(s.metric_inverse))
    assert _typed(a) == _typed(linalg.sparse(s.anchor))
    k = s.bundle.rank
    assert linalg.dense(g_inv, k) == (linalg.inverse(s.metric) if k else [])


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_stored_rows_are_the_sparse_rows_of_the_dense_views(tmp_path_factory, data):
    kind = data.draw(st.sampled_from(["scene", "builder", "composite", "standard", "pullback"]))
    if kind == "scene":
        path = tmp_path_factory.getbasetemp() / "rows_scene.json"
        phi, s = data.draw(_scene_parts(path))
        assert _typed(phi.fiber_rows) == _typed(linalg.sparse(phi.fiber_matrix))
        _assert_canonical_structure(s)
    elif kind == "builder":
        phi = data.draw(_builder_morphisms())
        assert _typed(phi.fiber_rows) == _typed(linalg.sparse(phi.fiber_matrix))
    elif kind == "composite":
        outer, inner = data.draw(_composites())
        phi = compose_morphisms(outer, inner)
        assert _typed(phi.fiber_rows) == _typed(linalg.sparse(phi.fiber_matrix))
        along = [[p.compose(inner.base_map) for p in row] for row in outer.fiber_matrix]
        assert phi.fiber_matrix == reference_pmat_mul(along, inner.fiber_matrix,
                                                      inner.source.rank, inner.source.base_dim)
    elif kind == "standard":
        n = data.draw(st.integers(0, 3))
        s = standard_structure(n)
        if data.draw(st.booleans()):
            s = scaled_structure(s, data.draw(nonzero))
        _assert_canonical_structure(s)
    else:
        _assert_canonical_structure(data.draw(_pullback_structures()))
