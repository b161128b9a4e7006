import json
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from courantlab import courant_core, linalg, morphisms
from courantlab.bundles import BundleMorphism, Section, TrivialBundle, compose_morphisms, related_section
from courantlab.courant_core import (
    CourantStructure,
    check_axioms,
    product_structure,
    scaled_structure,
    standard_structure,
)
from courantlab.intrinsic import _chi_problem, pontryagin_embedding
from courantlab.morphisms import (
    check_general_base,
    check_identity_base,
    graph_subbundle,
)
from courantlab.polyexpr import PolyMap, Polynomial, monomials_up_to, parse
from courantlab.pullback import construct

from conftest import (
    image_vanishing_multipliers,
    pmat_constant,
    least_failing_pair,
    lift_structure,
    lifted_morphism,
    random_section,
    recorded_structure_operations,
    tagged_generating_section,
)


def doubling_map(s):
    """Scale tangent by 2 and cotangent by 1/2 on the standard line."""
    return BundleMorphism.constant(
        s.bundle, s.bundle, [[2, 0], [0, Fraction(1, 2)]]
    )


class TestIdentityBase:
    def test_identity_is_morphism(self):
        s = standard_structure(2)
        verdict = check_identity_base(s, s, BundleMorphism.identity(s.bundle))
        assert verdict.is_morphism

    def test_metric_scaling_fails_exactly_metric_condition(self):
        # identity fiber map into the lambda=2 scaled structure:
        # P^T (2G) P - G = G, a nonzero metric defect matrix
        s1 = standard_structure(1)
        s2 = scaled_structure(s1, 2)
        verdict = check_identity_base(s1, s2, BundleMorphism.identity(s1.bundle))
        assert not verdict.is_morphism
        assert verdict.failed_conditions() == {"metric"}
        failure = verdict.failures[0]
        assert failure.defect == ["0", "1", "1", "0"]  # the matrix G, flattened

    def test_tangent_doubling_fails_anchor_condition(self):
        # the metric survives: P^T G P = G for P = diag(2, 1/2) and
        # hyperbolic G; the anchor does not: A2 P = [2 0] != [1 0] = A1
        s = standard_structure(1)
        verdict = check_identity_base(s, s, doubling_map(s))
        conditions = verdict.failed_conditions()
        assert "anchor" in conditions
        assert "metric" not in conditions
        anchor_failure = [f for f in verdict.failures if f.condition == "anchor"][0]
        assert anchor_failure.defect == ["1", "0"]

    def test_bracket_witness_decodes(self):
        s = standard_structure(1)
        verdict = check_identity_base(s, s, doubling_map(s))
        bracket_failures = [f for f in verdict.failures if f.condition == "bracket"]
        assert bracket_failures  # the doubled tangent scales [X,X'] quadratically
        witness = bracket_failures[0].witness
        f = Section.from_exprs(s.bundle, witness["f"])
        g = Section.from_exprs(s.bundle, witness["g"])
        phi = doubling_map(s)
        lhs = phi.apply(s.bracket(f, g))
        rhs = s.bracket(
            Section(s.bundle, phi.apply(f)), Section(s.bundle, phi.apply(g))
        )
        assert list(lhs) != list(rhs.coeffs)

    def test_composition_closure(self):
        # two commuting symplectic-style morphisms compose to a morphism
        s = standard_structure(2)
        b_field = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 3, 1, 0], [-3, 0, 0, 1]]
        b_field2 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, -1, 1, 0], [1, 0, 0, 1]]
        phi1 = BundleMorphism.constant(s.bundle, s.bundle, b_field)
        phi2 = BundleMorphism.constant(s.bundle, s.bundle, b_field2)
        assert check_identity_base(s, s, phi1).is_morphism
        assert check_identity_base(s, s, phi2).is_morphism
        assert check_identity_base(s, s, compose_morphisms(phi2, phi1)).is_morphism

    def test_rank_zero_target_fails_metric_condition(self):
        # P^T G2 P is the 2 x 2 zero matrix here, not 0 x 0, so it differs
        # from the hyperbolic metric of standard(1)
        s1 = standard_structure(1)
        point_bundle = TrivialBundle(1, 0)
        s2 = CourantStructure(point_bundle, [[]], [])
        phi = BundleMorphism(s1.bundle, point_bundle, PolyMap.identity(1), [])
        verdict = check_identity_base(s1, s2, phi)
        assert "metric" in verdict.failed_conditions()
        metric = next(f for f in verdict.failures if f.condition == "metric")
        assert metric.witness == {"fiber_pair": [0, 1]}
        assert metric.defect == ["0", "-1", "-1", "0"]

    def test_rank_zero_target_lists_the_anchor_condition(self):
        # A2 P is 1 x 2 and zero when P has no rows, so it differs from
        # A1 = [1 0] in entry (0, 0), over either base check
        s1 = standard_structure(1)
        point_bundle = TrivialBundle(1, 0)
        s2 = CourantStructure(point_bundle, [[]], [])
        phi = BundleMorphism(s1.bundle, point_bundle, PolyMap.identity(1), [],
                             retraction=PolyMap.identity(1))
        for check in (check_identity_base, check_general_base):
            verdict = check(s1, s2, phi)
            assert verdict.failed_conditions() == {"metric", "anchor"}
            anchor = next(f for f in verdict.failures if f.condition == "anchor")
            assert anchor.defect == ["-1", "0"]

    def test_requires_identity_base(self):
        s1 = standard_structure(1)
        s2 = standard_structure(2)
        phi = pontryagin_embedding(1, 1)
        with pytest.raises(ValueError):
            check_identity_base(s1, s2, phi)

    def test_isotropy_bridge(self):
        # when the metric condition holds, the graph is isotropic in the
        # flip product:
        # the pairing of graph sections vanishes along the diagonal
        s = standard_structure(1)
        phi = doubling_map(s)  # metric condition holds
        rng = random.Random(5)
        flipped = product_structure(s, s, flip=True)
        diag = PolyMap.from_exprs(["x1", "x1"], ["x1"])
        for _ in range(10):
            f = random_section(rng, s.bundle, 2)
            g = random_section(rng, s.bundle, 2)
            def graph_section(sec):
                image = phi.apply(sec)
                comps = [p.lift(2, 0) for p in sec.coeffs]
                comps += [p.lift(2, 0) for p in image]
                # coefficients of the first factor depend on x, of the second on y;
                # both pulled back to the source base via the block variables
                return Section(flipped.bundle, PolyMap(2, comps))
            pairing = flipped.pairing(graph_section(f), graph_section(g))
            assert pairing.compose(diag).is_zero()


class TestGeneralBase:
    def test_identity_reduces_to_identity_base(self):
        s = standard_structure(1)
        ident = BundleMorphism.identity(s.bundle)
        assert check_general_base(s, s, ident).is_morphism
        s2 = scaled_structure(s, 2)
        general = check_general_base(s, s2, ident)
        identity_verdict = check_identity_base(s, s2, ident)
        assert general.failed_conditions() == identity_verdict.failed_conditions() == {"metric"}

    @pytest.mark.parametrize("n, lam, fiber", [
        (1, 1, [[1, 0], [0, 1]]),
        (1, 2, [[1, 0], [0, 1]]),
        (1, 1, [[2, 0], [0, Fraction(1, 2)]]),
        (1, 1, [[1, 0], [1, 0]]),
        (1, -3, [[0, 1], [1, 2]]),
        (2, 1, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 3, 1, 0], [-3, 0, 0, 1]]),
        (2, Fraction(1, 2), [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]]),
    ], ids=["identity", "scaled", "doubling", "collapse", "swap", "b_field", "mixed"])
    def test_identity_base_agrees_in_both_checks(self, n, lam, fiber):
        # with the identity retraction the general-base check sees the same
        # conditions fail, the same bracket pair and the same bracket and
        # anchor defects; its metric pair (e_i, e_j) is the identity base's
        # fiber_pair (i, j), and its plain defect is -D_ij
        s1 = standard_structure(n)
        s2 = scaled_structure(s1, lam)
        phi = BundleMorphism.constant(s1.bundle, s2.bundle, fiber)
        assert phi.retraction == PolyMap.identity(n)
        for cap in (0, 1, 3):
            ident = {f.condition: f for f in check_identity_base(s1, s2, phi, cap).failures}
            general = {f.condition: f for f in check_general_base(s1, s2, phi, degree_cap=cap).failures}
            assert list(general) == list(ident)
            if "bracket" in ident:
                assert general["bracket"].witness == {
                    "f1": ident["bracket"].witness["f"], "f2": ident["bracket"].witness["g"],
                    "representatives": "retraction"}
                assert general["bracket"].defect == ident["bracket"].defect
            if "anchor" in ident:
                assert general["anchor"].to_json() == ident["anchor"].to_json()
            if "metric" in ident:
                i, j = ident["metric"].witness["fiber_pair"]
                frames = [Section.frame(s1.bundle, k).coeffs.to_strings() for k in (i, j)]
                assert general["metric"].witness == {
                    "f1": frames[0], "f2": frames[1], "representatives": "retraction"}
                entry = parse(ident["metric"].defect[i * 2 * n + j], s1.bundle.var_names())
                assert general["metric"].defect == [(-entry).to_string()]

    def test_pontryagin_embedding_verifies_on_retraction_family(self):
        s1 = standard_structure(1)
        s2 = standard_structure(2)
        verdict = check_general_base(s1, s2, pontryagin_embedding(1, 1))
        assert verdict.is_morphism

    def test_wiggling_representatives_break_bracket_condition(self):
        # representatives depending on y2 expose the bracket mismatch
        s1 = standard_structure(1)
        s2 = standard_structure(2)
        phi = pontryagin_embedding(1, 1)
        strict = check_general_base(s1, s2, phi, strict=True)
        assert not strict.is_morphism
        assert "bracket" in strict.failed_conditions()

    def test_strict_failure_is_a_matrix_failure_with_one_source_bracket(self, monkeypatch):
        # N = I - Jac(phi0) J_r(phi0) = diag(0, 1) keeps the z-row of the
        # anchor along the image: N A2(phi0) has the single entry (1, 1).
        # Stricter than one source bracket: the retraction verdict passes
        # from the frame tables, so no bracket is made at all
        s1 = standard_structure(1)
        s2 = standard_structure(2)
        made = []
        original = CourantStructure._bracket
        monkeypatch.setattr(CourantStructure, "_bracket",
                            lambda s, f, g: made.append(s) or original(s, f, g))
        verdict = check_general_base(s1, s2, pontryagin_embedding(1, 1), strict=True)
        assert made == []
        assert json.dumps(verdict.to_json(), sort_keys=True) == (
            '{"detail": "general-base criteria at degree cap 3", "failures": '
            '[{"condition": "bracket", "defect": ["0", "0", "0", "0", "0", "1", "0", "0"], '
            '"witness": {"entry": [1, 1], "representatives": "perturbed"}}], '
            '"is_morphism": false}'
        )

    def test_retraction_failure_reports_plain_defect(self):
        # doubling the tangent row of the Pontryagin embedding: [d_x, x d_x]
        # = d_x maps to 2 d_x, the doubled pair brackets to 4 d_x; and
        # <d_x, dx> = 1 against <2 d_x, dx> = 2.  The defects are those of
        # the decoded pair on plain sections, free of the sweep's tags.
        s1 = standard_structure(1)
        s2 = standard_structure(2)
        phi = pontryagin_embedding(1, 1)
        fiber = [list(row) for row in phi.fiber_matrix]
        fiber[0] = [2 * p for p in fiber[0]]
        doubled = BundleMorphism(phi.source, phi.target, phi.base_map, fiber,
                                 retraction=phi.retraction)
        verdict = check_general_base(s1, s2, doubled)
        assert json.dumps(verdict.to_json(), sort_keys=True) == (
            '{"detail": "general-base criteria at degree cap 3", "failures": ['
            '{"condition": "bracket", "defect": ["-2", "0", "0", "0"], '
            '"witness": {"f1": ["1", "0"], "f2": ["x1", "0"], '
            '"representatives": "retraction"}}, '
            '{"condition": "metric", "defect": ["-1"], '
            '"witness": {"f1": ["1", "0"], "f2": ["0", "1"], '
            '"representatives": "retraction"}}, '
            '{"condition": "anchor", "defect": ["1", "0", "0", "0"], '
            '"witness": {"entry": [0, 0]}}], "is_morphism": false}'
        )
        for failure in verdict.failures[:2]:
            f1, f2 = (Section.from_exprs(s1.bundle, failure.witness[key])
                      for key in ("f1", "f2"))
            g1, g2 = related_section(doubled, f1), related_section(doubled, f2)
            if failure.condition == "bracket":
                image = doubled.apply(s1.bracket(f1, f2))
                pulled = [p.compose(doubled.base_map) for p in s2.bracket(g1, g2).coeffs]
                plain = [(a - b).to_string() for a, b in zip(image, pulled)]
            else:
                plain = [(s1.pairing(f1, f2)
                          - s2.pairing(g1, g2).compose(doubled.base_map)).to_string()]
            assert failure.defect == plain

    def test_supplied_y2_dependent_pairs_break_bracket_condition(self):
        s1 = standard_structure(1)
        s2 = standard_structure(2)
        phi = pontryagin_embedding(1, 1)
        f1 = Section.from_exprs(s1.bundle, ["1", "0"])       # d/dx
        g1 = related_section(phi, f1)
        f2 = Section.from_exprs(s1.bundle, ["0", "1"])       # dx
        g2_wiggled = Section.from_exprs(
            s2.bundle, ["0", "0", "1 + x2*x1", "0"]          # dx + y2*x dx
        )
        from courantlab.bundles import check_related
        assert check_related(phi, f2, g2_wiggled)
        verdict = check_general_base(
            s1, s2, phi, pairs=[(f1, g1), (f2, g2_wiggled)]
        )
        assert "bracket" in verdict.failed_conditions()

    def test_unrelated_supplied_pair_is_input_error(self):
        s1 = standard_structure(1)
        s2 = standard_structure(2)
        phi = pontryagin_embedding(1, 1)
        f = Section.from_exprs(s1.bundle, ["1", "0"])
        not_related = Section.from_exprs(s2.bundle, ["0", "1", "0", "0"])
        with pytest.raises(ValueError, match="not phi-related"):
            check_general_base(s1, s2, phi, pairs=[(f, not_related)])

    def test_anchor_compatibility(self):
        # doubling the base map derivative breaks anchor compatibility
        s1 = standard_structure(1)
        s2 = standard_structure(1)
        phi = BundleMorphism(
            s1.bundle, s2.bundle,
            PolyMap.from_exprs(["2*x1"], ["x1"]),
            pmat_constant(linalg.identity(2), 1),
            retraction=PolyMap.from_exprs(["1/2*x1"], ["x1"]),
        )
        verdict = check_general_base(s1, s2, phi)
        assert "anchor" in verdict.failed_conditions()

    def test_rank_zero_source_vacuous(self):
        from courantlab.courant_core import CourantStructure
        empty = TrivialBundle(1, 0, "zero")
        s1 = CourantStructure(empty, [[]], [])
        s2 = standard_structure(1)
        phi = BundleMorphism(
            empty, s2.bundle, PolyMap.identity(1),
            [[] for _ in range(2)],
            retraction=PolyMap.identity(1),
        )
        assert check_general_base(s1, s2, phi).is_morphism

    def test_auto_needs_retraction(self):
        s1 = standard_structure(1)
        s2 = standard_structure(2)
        phi = pontryagin_embedding(1, 1)
        stripped = BundleMorphism(
            phi.source, phi.target, phi.base_map, phi.fiber_matrix
        )
        with pytest.raises(ValueError, match="retraction"):
            check_general_base(s1, s2, stripped)

    def test_verdicts_agree_across_retractions_for_morphisms(self):
        # operationalizes "any (and hence each)" on an honest morphism
        s1 = standard_structure(1)
        s2 = standard_structure(2)
        phi = pontryagin_embedding(1, 1)
        alt = BundleMorphism(
            phi.source, phi.target, phi.base_map, phi.fiber_matrix,
            retraction=PolyMap.from_exprs(["x1 + x2^2"], ["x1", "x2"]),
        )
        v1 = check_general_base(s1, s2, phi)
        v2 = check_general_base(s1, s2, alt)
        assert v1.is_morphism and v2.is_morphism


class TestGraphSubbundle:
    def test_identity_diagonal(self):
        s = standard_structure(1)
        graph = graph_subbundle(BundleMorphism.identity(s.bundle))
        assert graph.base_embedding == PolyMap.from_exprs(["x1", "x1"], ["x1"])

    def test_zero_fiber_map(self):
        b1 = TrivialBundle(1, 1, "E1")
        b2 = TrivialBundle(1, 1, "E2")
        phi = BundleMorphism.constant(b1, b2, [[0]])
        graph = graph_subbundle(phi)
        assert graph.fiber_generators[0][0] == Polynomial.constant(1, 1)
        assert graph.fiber_generators[1][0].is_zero()

    def test_cusp_graph_over_cuspidal_curve(self):
        source = TrivialBundle(1, 1, "line/R")
        target = TrivialBundle(2, 1, "line/R^2")
        phi = BundleMorphism(
            source, target,
            PolyMap.from_exprs(["x1^2", "x1^3"], ["x1"]),
            [[Polynomial.constant(1, 1)]],
        )
        graph = graph_subbundle(phi)
        assert graph.base_embedding == PolyMap.from_exprs(
            ["x1", "x1^2", "x1^3"], ["x1"]
        )


# -- cap invariance: degree 1 is the conditions' differential order ---------------

bounded = settings(max_examples=40, deadline=None, database=None,
                   suppress_health_check=[HealthCheck.too_slow])
small = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
nonzero = st.sampled_from([1, -1, 2, 3, Fraction(1, 2), Fraction(-1, 3)])


@st.composite
def polynomial_fiber_maps(draw):
    """(s, phi): standard(n) and a fiber map over the identity whose entries
    are polynomials of degree <= 1."""
    n = draw(st.integers(1, 2))
    s = standard_structure(n)
    k = 2 * n
    entry = st.dictionaries(st.tuples(*[st.integers(0, 1)] * n), small, max_size=2)
    matrix = [[Polynomial(n, draw(entry)) for _ in range(k)] for _ in range(k)]
    return s, BundleMorphism(s.bundle, s.bundle, PolyMap.identity(n), matrix)


@st.composite
def scaled_zero_sections(draw):
    """(s1, s2, phi): the zero-section embedding of lam1 * standard(n) into
    lam2 * standard(n + 1), tangent fibers scaled by a, cotangent by b."""
    n = draw(st.integers(1, 2))
    lam1, lam2, a, b = (draw(nonzero) for _ in range(4))
    s1 = scaled_structure(standard_structure(n), lam1)
    s2 = scaled_structure(standard_structure(n + 1), lam2)
    fiber = [[0] * (2 * n) for _ in range(2 * n + 2)]
    for i in range(n):
        fiber[i][i] = a
        fiber[n + 1 + i][n + i] = b
    fiber = [[Polynomial.constant(n, v) for v in row] for row in fiber]
    base = PolyMap(n, [Polynomial.variable(n, i) for i in range(n)] + [Polynomial(n)])
    retraction = PolyMap(n + 1, [Polynomial.variable(n + 1, i) for i in range(n)])
    return s1, s2, BundleMorphism(s1.bundle, s2.bundle, base, fiber, retraction)


def cap_free_reports(check, *args):
    """to_json() at caps 1, 2 and 3, as swept (order 1) and as a full sweep
    of each cap, with the cap number cut from the detail."""
    out = set()
    for order in (courant_core.SWEEP_ORDER, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(courant_core, "SWEEP_ORDER", order)
            for cap in (1, 2, 3):
                report = check(*args, degree_cap=cap).to_json()
                assert report["detail"].endswith(f"degree cap {cap}")
                report["detail"] = report["detail"][: -len(str(cap))]
                out.add(json.dumps(report, sort_keys=True))
    return out


@bounded
@given(polynomial_fiber_maps())
def test_identity_base_report_is_cap_invariant(case):
    s, phi = case
    assert len(cap_free_reports(check_identity_base, s, s, phi)) == 1


@bounded
@given(scaled_zero_sections())
def test_general_base_report_is_cap_invariant(case):
    assert len(cap_free_reports(check_general_base, *case)) == 1


def test_least_failing_pair_is_the_same_at_every_cap():
    # the full cap-2 and cap-3 sweeps also see the failing pair
    # ([x1, 0], [x1^2, 0]); the least pair, of degree 1, is reported at every cap
    s = standard_structure(1)
    phi = BundleMorphism.constant(s.bundle, s.bundle, [[1, 0], [1, 0]])
    assert len(cap_free_reports(check_identity_base, s, s, phi)) == 1
    bracket = check_identity_base(s, s, phi).failures[0]
    assert bracket.condition == "bracket"
    assert bracket.witness == {"f": ["x1", "0"], "g": ["1", "0"]}


# -- the metric condition against the tagged pairing sweep it replaced -----------


def reference_metric_failure(s1, s2, phi, degree_cap=3, seed=0, n_perturbations=0):
    """The general-base metric failure as the tagged pairing sweep found it.

    <fa, fb>_1 - <ga, gb>_2 o phi0 on the lifted tagged families, for the
    retraction representatives and then each perturbed variant (drawn as
    `check_general_base` draws them), decoded to the least failing pair.  A
    retraction witness carries the pair's plain defect, a perturbed one the
    tagged defect.  Returns the failure's JSON, or None.
    """
    n = s1.bundle.base_dim
    cap = degree_cap if n_perturbations > 0 else min(degree_cap, courant_core.SWEEP_ORDER)
    s1l, s2l = lift_structure(s1, 2), lift_structure(s2, 2)
    phil = lifted_morphism(phi, 2)
    fa = tagged_generating_section(s1.bundle, cap, 2, n)
    fb = tagged_generating_section(s1.bundle, cap, 2, n + 1)
    ga, gb = related_section(phil, fa), related_section(phil, fb)
    variants = [(ga, gb, "retraction")]
    multipliers = image_vanishing_multipliers(phil)
    rng = random.Random(seed)
    nn = s2l.bundle.base_dim
    for round_idx in range(n_perturbations if multipliers else 0):
        perturbed = []
        for g in (ga, gb):
            q = rng.choice(multipliers)
            w = random_section(rng, s2.bundle, 1, terms=1)
            perturbed.append(g + q * Section(s2l.bundle, PolyMap(nn, [p.lift(nn) for p in w])))
        variants.append((*perturbed, f"perturbation {round_idx}"))
    lifted_pairing = s1l.pairing(fa, fb)
    for gxa, gxb, label in variants:
        defect = [lifted_pairing - s2l.pairing(gxa, gxb).compose(phil.base_map)]
        pair = least_failing_pair(s1.bundle, cap, defect)
        if pair is None:
            continue
        f1, f2 = pair
        if label == "retraction":
            g1, g2 = related_section(phi, f1), related_section(phi, f2)
            shown = [(s1.pairing(f1, f2) - s2.pairing(g1, g2).compose(phi.base_map)).to_string()]
        else:
            shown = [p.to_string() for p in defect]
        return {"condition": "metric", "defect": shown,
                "witness": {"f1": f1.coeffs.to_strings(), "f2": f2.coeffs.to_strings(),
                            "representatives": label}}
    return None


@st.composite
def graph_embeddings(draw):
    """(s1, s2, phi): lam1 * standard(n) into lam2 * standard(n + 1) along the
    graph y_(n+1) = h(x), h of degree <= 1, with the retraction onto the
    first n coordinates.  The fiber map is a scaled zero-section embedding
    (tangent by a, cotangent by b), or a matrix of monomial entries of
    degree <= 1."""
    n = draw(st.integers(1, 2))
    lam1, lam2 = draw(nonzero), draw(nonzero)
    s1 = scaled_structure(standard_structure(n), lam1)
    s2 = scaled_structure(standard_structure(n + 1), lam2)
    exps = st.tuples(*[st.integers(0, 1)] * n)
    h = Polynomial(n, draw(st.dictionaries(exps, small, max_size=2)))
    if draw(st.booleans()):
        # half of these meet the metric condition: a * b * lam2 = lam1
        a = draw(nonzero)
        b = Fraction(lam1) / (a * lam2) if draw(st.booleans()) else draw(nonzero)
        fiber = [[Polynomial(n)] * (2 * n) for _ in range(2 * n + 2)]
        for i in range(n):
            fiber[i] = [Polynomial.constant(n, a if c == i else 0) for c in range(2 * n)]
            fiber[n + 1 + i] = [Polynomial.constant(n, b if c == n + i else 0)
                                for c in range(2 * n)]
    else:
        entry = st.dictionaries(exps, small, max_size=1)
        fiber = [[Polynomial(n, draw(entry)) for _ in range(2 * n)] for _ in range(2 * n + 2)]
    base = PolyMap(n, [Polynomial.variable(n, i) for i in range(n)] + [h])
    retraction = PolyMap(n + 1, [Polynomial.variable(n + 1, i) for i in range(n)])
    return s1, s2, BundleMorphism(s1.bundle, s2.bundle, base, fiber, retraction)


@settings(max_examples=25, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph_embeddings(), st.sampled_from([0, 1, 3]), st.sampled_from([0, 2]),
       st.integers(0, 3))
def test_metric_verdict_equals_the_tagged_pairing_sweep(case, cap, n_perturbations, seed):
    verdict = check_general_base(*case, degree_cap=cap, strict=n_perturbations > 0)
    metric = next((f.to_json() for f in verdict.failures if f.condition == "metric"), None)
    assert metric == reference_metric_failure(*case, cap, seed, n_perturbations)


# -- strict checking against the perturbed-variant sweep it replaced -------------


def reference_perturbed_variant_fails(s1, s2, phi, cap=1):
    """Whether a perturbed representative breaks the bracket condition, by the
    tagged sweep of the variants the sampler drew from, enumerated: the
    retraction representatives with one slot perturbed by q_a e_k, for every
    slot, every image-vanishing multiplier q_a and every constant target
    frame e_k."""
    n = s1.bundle.base_dim
    s1l, s2l, phil = lift_structure(s1, 2), lift_structure(s2, 2), lifted_morphism(phi, 2)
    fa, fb = (tagged_generating_section(s1.bundle, cap, 2, n + slot) for slot in (0, 1))
    ga, gb = related_section(phil, fa), related_section(phil, fb)
    image = phil.apply(s1l.bracket(fa, fb))
    for q in image_vanishing_multipliers(phil):
        for k in range(s2.bundle.rank):
            w = q * Section.frame(s2l.bundle, k)
            for gxa, gxb in ((ga + w, gb), (ga, gb + w)):
                bracket = [p.compose(phil.base_map) for p in s2l.bracket(gxa, gxb).coeffs]
                if any(not (a - b).is_zero() for a, b in zip(image, bracket)):
                    return True
    return False


def assert_strict_matches_the_variant_sweep(s1, s2, phi, cap=3):
    """The strict verdict is the retraction verdict plus, when that passes
    the bracket, a "perturbed" bracket failure iff some enumerated variant
    fails."""
    strict = check_general_base(s1, s2, phi, degree_cap=cap, strict=True)
    plain = check_general_base(s1, s2, phi, degree_cap=cap).to_json()
    perturbed = [f for f in strict.failures if f.witness.get("representatives") == "perturbed"]
    assert [f.to_json() for f in strict.failures if f not in perturbed] == plain["failures"]
    if "bracket" in {f["condition"] for f in plain["failures"]}:
        assert not perturbed
    else:
        assert bool(perturbed) == reference_perturbed_variant_fails(s1, s2, phi)
    return strict


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph_embeddings(), st.sampled_from([0, 1, 3]))
def test_strict_verdict_equals_the_perturbed_variant_sweep(case, cap):
    assert_strict_matches_the_variant_sweep(*case, cap)


INTRINSIC_SIZES = [(n, m) for n in range(4) for m in range(4 - n) if n + m >= 1]


@pytest.mark.parametrize("n, m", INTRINSIC_SIZES)
def test_strict_verdicts_of_the_intrinsic_arrows(n, m):
    problem = _chi_problem(n, m, None)
    chi = problem.morphism
    assert_strict_matches_the_variant_sweep(
        construct(problem, enforce_hypotheses=False), problem.ambient, chi)
    strict = assert_strict_matches_the_variant_sweep(
        standard_structure(n), problem.ambient, pontryagin_embedding(n, m))
    # tangent on image fibers, but not on the whole fiber once m >= 1
    assert strict.is_morphism == (m == 0 or n == 0)


def zero_section_into_a_line_extension(c):
    """standard(1) along x -> (x, 0) into R^2 x R^2 with anchor [[1, 0], [0, 0]],
    hyperbolic G and structure functions c: the anchor has no y2-row, so
    N A2(phi0) = 0 while q = y2 vanishes on the image."""
    s1 = standard_structure(1)
    s2 = CourantStructure(TrivialBundle(2, 2, "E"), [[1, 0], [0, 0]], [[0, 1], [1, 0]], c)
    base = PolyMap(1, [Polynomial.variable(1, 0), Polynomial(1)])
    retraction = PolyMap(2, [Polynomial.variable(2, 0)])
    phi = BundleMorphism(s1.bundle, s2.bundle, base,
                         pmat_constant(linalg.identity(2), 1), retraction)
    return s1, s2, phi


@pytest.mark.parametrize("c", [{}, {(0, 1, 0): parse("x2", ["x1", "x2"]),
                                    (1, 0, 0): parse("-x2", ["x1", "x2"])}],
                         ids=["c_zero", "c_x2"])
def test_strict_check_passes_with_nonempty_multipliers(c):
    case = zero_section_into_a_line_extension(c)
    assert image_vanishing_multipliers(case[2])
    assert assert_strict_matches_the_variant_sweep(*case).is_morphism


# -- the bracket condition against the degree-1 sweep ----------------------------


def reference_bracket_failure(s1, s2, phi, degree_cap, general):
    """The bracket failure as the degree-1 sweep finds it, whatever the frame
    identities say: the tagged families at cap min(degree_cap, SWEEP_ORDER),
    their image (identity base) or retraction (general base)
    representatives, the least failing pair and its plain defect.  Returns
    the failure's JSON, or None."""
    n = s1.bundle.base_dim
    cap = min(degree_cap, courant_core.SWEEP_ORDER)
    s1l, s2l, phil = lift_structure(s1, 2), lift_structure(s2, 2), lifted_morphism(phi, 2)
    fa, fb = (tagged_generating_section(s1.bundle, cap, 2, n + slot) for slot in (0, 1))

    def represent(m, f):
        return related_section(m, f) if general else Section(m.target, m.apply(f))

    def defect(m, s, t, f, g):
        image = m.apply(s.bracket(f, g))
        target = [p.compose(m.base_map) for p in t.bracket(represent(m, f), represent(m, g))]
        return [a - b for a, b in zip(image, target)]

    pair = least_failing_pair(s1.bundle, cap, defect(phil, s1l, s2l, fa, fb))
    if pair is None:
        return None
    f1, f2 = pair
    shown = [p.to_string() for p in defect(phi, s1, s2, f1, f2)]
    assert any(text != "0" for text in shown)
    w1, w2 = f1.coeffs.to_strings(), f2.coeffs.to_strings()
    witness = ({"f1": w1, "f2": w2, "representatives": "retraction"} if general
               else {"f": w1, "g": w2})
    return {"condition": "bracket", "defect": shown, "witness": witness}


def reference_verdict(check, s1, s2, phi, degree_cap):
    """`check`'s verdict JSON with the bracket from the degree-1 sweep."""
    general = check is check_general_base
    verdict = check(s1, s2, phi, degree_cap=degree_cap).to_json()
    failures = [f for f in verdict["failures"] if f["condition"] != "bracket"]
    bracket = reference_bracket_failure(s1, s2, phi, degree_cap, general)
    verdict["failures"] = ([bracket] if bracket else []) + failures
    verdict["is_morphism"] = not verdict["failures"]
    return verdict


def bumped(s, key, value):
    """s with value added to the structure function c_key."""
    c = dict(s.structure_functions)
    c[key] = c.get(key, Polynomial(s.bundle.base_dim)) + value
    return CourantStructure(s.bundle, s.anchor, s.metric, c)


@st.composite
def hidden_frame_arrows(draw):
    """(s1, s2, phi) over the identity of R^1 whose bracket defect the cap-0
    sweep cannot see unless the identities hold; each can fail just one:
      * the D-identity: the inclusion of a rank-1 bundle with G1 = [g] and
        no anchor into diag(g, h) with anchor [0 a], a != 0;
      * the metric condition: the identity of a rank-3 bundle with anchor
        [1 0 0] and G1 = hyperbolic + [g] into hyperbolic + [h], h != g;
      * the projected anchor: diag(c, 1/c) on g * standard(1), c != 1."""
    g = draw(nonzero)
    kind = draw(st.sampled_from(["d_identity", "metric", "anchor"]))
    if kind == "d_identity":
        line, plane = TrivialBundle(1, 1, "L"), TrivialBundle(1, 2, "M")
        a = draw(st.sampled_from([1, -2]))
        return (CourantStructure(line, [[0]], [[g]]),
                CourantStructure(plane, [[0, a]], [[g, 0], [0, draw(nonzero)]]),
                BundleMorphism.constant(line, plane, [[1], [0]]))
    if kind == "anchor":
        s = scaled_structure(standard_structure(1), g)
        c = Fraction(draw(st.sampled_from([2, -1, Fraction(1, 3)])))
        return s, s, BundleMorphism.constant(s.bundle, s.bundle, [[c, 0], [0, 1 / c]])
    h = g * draw(st.sampled_from([2, -1]))
    bundle = TrivialBundle(1, 3, "F")
    return (CourantStructure(bundle, [[1, 0, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, g]]),
            CourantStructure(bundle, [[1, 0, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, h]]),
            BundleMorphism.identity(bundle))


@st.composite
def gate_arrows(draw):
    """(check, s1, s2, phi) around the tensorial gate: graph embeddings of
    scaled standard(1-2); B-field maps (v, p) -> (a v, b p + B v) of scaled
    standard(1-2) (a = 1 in about half of them), checked over the identity
    in either mode or followed by a scaled zero-section embedding; and the
    hidden-frame arrows, in either mode, in half of the draws.  The target
    is bumped in half of the draws."""
    branch = draw(st.sampled_from(["graph", "b_field", "hidden", "hidden"]))
    if branch == "graph":
        s1, s2, phi = draw(graph_embeddings())
        check = check_general_base
    elif branch == "hidden":
        s1, s2, phi = draw(hidden_frame_arrows())
        check = draw(st.sampled_from([check_identity_base, check_general_base]))
    else:
        n = draw(st.integers(1, 2))
        s1 = s2 = scaled_structure(standard_structure(n), draw(nonzero))
        a = draw(st.one_of(st.just(1), nonzero))
        b = Fraction(1) / a if draw(st.booleans()) else draw(nonzero)
        exps = st.tuples(*[st.integers(0, 1)] * n)
        fiber = [[Polynomial.constant(n, (a if i < n else b) * (i == j)) for j in range(2 * n)]
                 for i in range(2 * n)]
        for i, j in itertools.combinations(range(n), 2):
            entry = Polynomial(n, draw(st.dictionaries(exps, small, max_size=2)))
            fiber[n + i][j], fiber[n + j][i] = entry, -entry
        identity = PolyMap.identity(n)
        phi = BundleMorphism(s1.bundle, s1.bundle, identity, fiber, identity)
        check = draw(st.sampled_from([check_identity_base, check_general_base]))
        if draw(st.booleans()):
            _, s2, embed = draw(scaled_zero_sections().filter(lambda c: c[0].bundle == s1.bundle))
            phi, check = compose_morphisms(embed, phi), check_general_base
    if draw(st.booleans()):
        k, nn = s2.bundle.rank, s2.bundle.base_dim
        key = tuple(draw(st.integers(0, k - 1)) for _ in range(3))
        value = draw(st.sampled_from([Polynomial.constant(nn, 1), Polynomial.constant(nn, -2),
                                      Polynomial.variable(nn, 0)]))
        s2 = bumped(s2, key, value)
    return check, s1, s2, phi


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(gate_arrows(), st.sampled_from([0, 1, 3]))
def test_verdict_equals_the_degree_1_sweep(case, cap):
    check, *arrow = case
    assert check(*arrow, degree_cap=cap).to_json() == reference_verdict(check, *arrow, cap)


@st.composite
def oracle_arrows(draw):
    """(check, s1, s2, phi): a polynomial fiber map over the identity, a
    scaled zero section or a graph embedding."""
    branch = draw(st.sampled_from(["fiber", "zero_section", "graph"]))
    if branch == "fiber":
        s, phi = draw(polynomial_fiber_maps())
        return check_identity_base, s, s, phi
    return (check_general_base,
            *draw(scaled_zero_sections() if branch == "zero_section" else graph_embeddings()))


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(oracle_arrows(), st.integers(0, 3), st.sampled_from([1, 3]))
def test_frame_table_verdict_equals_the_tagged_sweep(case, cap, order):
    # the closed forms against the tagged sweep of every pair of degree
    # <= min(cap, order), also when the sweep order is raised to 3
    check, *arrow = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(courant_core, "SWEEP_ORDER", order)
        assert check(*arrow, degree_cap=cap).to_json() == reference_verdict(check, *arrow, cap)


def test_failing_morphism_makes_no_bracket(monkeypatch):
    # every failing pair's defect is read from the Delta lines or from D, in
    # both base modes and at every cap, with no operation of either structure
    calls = recorded_structure_operations(monkeypatch)
    s1, s2 = standard_structure(1), standard_structure(2)
    phi = pontryagin_embedding(1, 1)
    fiber = [list(row) for row in phi.fiber_matrix]
    fiber[0] = [2 * p for p in fiber[0]]
    doubled = BundleMorphism(phi.source, phi.target, phi.base_map, fiber, phi.retraction)
    cases = [(check, s1, s1, doubling_map(s1)) for check in (check_identity_base, check_general_base)]
    cases += [(check_general_base, s1, s2, doubled),
              (check_general_base, s1, scaled_structure(s1, 2), BundleMorphism.identity(s1.bundle))]
    failed = set()
    for (check, *arrow), cap in itertools.product(cases, range(4)):
        verdict = check(*arrow, degree_cap=cap)
        failed |= {(f.condition, "f1" in f.witness or "f" in f.witness) for f in verdict.failures}
    assert {("bracket", True), ("metric", True)} <= failed and calls == []


def sorted_witness_order(rank, monos):
    """The reference order of the family pairs: every pair listed in tag
    order, then sorted stably by the larger degree of its members."""
    degrees = [sum(alpha) for alpha in monos]
    members = [(i, a) for i in range(rank) for a in range(len(monos))]
    return sorted(itertools.product(members, repeat=2),
                  key=lambda pair: max(degrees[pair[0][1]], degrees[pair[1][1]]))


@pytest.mark.parametrize("rank, n, cap", [(1, 0, 1), (2, 1, 0), (1, 1, 1), (2, 1, 1),
                                          (3, 2, 1), (2, 3, 1), (4, 3, 0), (4, 3, 1)])
def test_witness_order_is_the_sorted_reference(rank, n, cap):
    monos = monomials_up_to(n, cap)
    assert list(morphisms._witness_order(rank, monos)) == sorted_witness_order(rank, monos)


def test_the_pair_walk_lists_no_pairs_ahead():
    # rank 64 over R^64, the identity into the same metric with a zero
    # anchor: T = A1 != 0, so the walk passes the 64^2 frame pairs and
    # fails first on (e_0, x1 e_0); the sorted reference would hold all
    # (64 * 65)^2, about 17.5 million, pairs first
    n = k = 64
    metric = [[int(i == j) for j in range(k)] for i in range(k)]
    anchor = [[int(a == i == 0) for i in range(k)] for a in range(n)]
    bundle = TrivialBundle(n, k, "E")
    s1 = CourantStructure(bundle, anchor, metric)
    s2 = CourantStructure(bundle, [[0] * k for _ in range(n)], metric)
    phi = BundleMorphism.identity(bundle)
    tracemalloc.start()
    try:
        verdict = check_identity_base(s1, s2, phi, degree_cap=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2 ** 20
    bracket = verdict.failures[0]
    assert bracket.condition == "bracket" and bracket.witness == {
        "f": ["1"] + ["0"] * (k - 1), "g": ["x1"] + ["0"] * (k - 1)}


# -- the data kept on the morphism ----------------------------------------------


def kept_bracket_example():
    """(s1, targets, phi): diag(2, 1/2) on standard(1), into standard(1) and
    into standard(1) with c_00^0 = 1.  It fails the anchor condition; its
    bracket passes at cap 0 into standard(1) only, and its witnesses at
    cap 1 differ."""
    std = standard_structure(1)
    bumped = CourantStructure(std.bundle, std.anchor, std.metric, {(0, 0, 0): 1})
    return std, [std, bumped], doubling_map(std)


@pytest.mark.parametrize("check", [check_identity_base, check_general_base])
def test_kept_bracket_is_keyed_on_its_target_and_cap(check):
    # one morphism object, which keeps its induced metric and anchor along
    # the image, is checked into every target at caps 0 and 1, each case
    # right after every case; each verdict equals that on a fresh copy
    s1, targets, phi = kept_bracket_example()
    cases = [(s2, cap) for s2 in targets for cap in (0, 1)]
    expected = [
        check(s1, s2, BundleMorphism(phi.source, phi.target, phi.base_map, phi.fiber_matrix,
                                     phi.retraction), degree_cap=cap).to_json()
        for s2, cap in cases
    ]
    assert len({json.dumps(v) for v in expected}) == len(cases)
    for a, b in itertools.product(range(len(cases)), repeat=2):
        for k in (a, b):
            s2, cap = cases[k]
            assert check(s1, s2, phi, degree_cap=cap).to_json() == expected[k], (a, b)


# -- zero polynomials from cancellation -----------------------------------------


def b_transform(b: str):
    """(s, phi): standard(2) and its B-transform over the identity for
    B = b dx1 ^ dx2, with fiber matrix [[I, 0], [S, I]], S = [[0, b], [-b, 0]]."""
    s = standard_structure(2)
    entry = parse(b, ["x1", "x2"])
    fiber = [[Polynomial.constant(2, int(i == j)) for j in range(4)] for i in range(4)]
    fiber[2][1], fiber[3][0] = entry, -entry
    return s, BundleMorphism(s.bundle, s.bundle, PolyMap.identity(2), fiber, PolyMap.identity(2))


@pytest.mark.parametrize("b", ["x1", "x1*x2 - 3", "2*x2^2 + x1"])
def test_closed_b_transform_is_an_automorphism(b):
    # every 2-form on R^2 is closed, so e^B preserves the Dorfman bracket;
    # P^T G P = G holds through the cancellation b - b in its off-diagonal
    # entries, whose zero polynomials the kernel must drop (`_nonzero`)
    s, phi = b_transform(b)
    assert check_identity_base(s, s, phi).is_morphism
    assert check_general_base(s, s, phi).is_morphism
