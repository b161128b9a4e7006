import json
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from courantlab import linalg, morphisms
from courantlab.bundles import BundleMorphism, Section, TrivialBundle, compose_morphisms, related_section
from courantlab.courant_core import (
    CourantStructure,
    check_axioms,
    product_structure,
    random_section,
    scaled_structure,
    standard_structure,
)
from courantlab.intrinsic import pontryagin_embedding
from courantlab.morphisms import (
    check_general_base,
    check_identity_base,
    graph_subbundle,
)
from courantlab.polyexpr import PolyMap, Polynomial, parse


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
        strict = check_general_base(s1, s2, phi, n_perturbations=3)
        assert not strict.is_morphism
        assert "bracket" in strict.failed_conditions()

    def test_source_side_computed_once_for_all_representatives(self, monkeypatch):
        s1 = standard_structure(1)
        s2 = standard_structure(2)
        source_brackets = []
        original = CourantStructure.bracket

        def counting(self, a, b):
            if self.bundle.rank == s1.bundle.rank:
                source_brackets.append(1)
            return original(self, a, b)

        monkeypatch.setattr(CourantStructure, "bracket", counting)
        verdict = check_general_base(s1, s2, pontryagin_embedding(1, 1), n_perturbations=3)
        assert len(source_brackets) == 1
        assert json.dumps(verdict.to_json(), sort_keys=True) == (
            '{"detail": "general-base criteria at degree cap 3", "failures": '
            '[{"condition": "bracket", "defect": ["0", "0", "0", '
            '"-1/2*x1^3*x3^7 - 1/2*x1^2*x3^6 - 1/2*x1*x3^5 - 1/2*x3^4"], '
            '"witness": {"f1": ["1", "0"], "f2": ["0", "1"], '
            '"representatives": "perturbation 0"}}], "is_morphism": false}'
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
            linalg.pmat_constant(linalg.identity(2), 1),
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
    for order in (morphisms.SWEEP_ORDER, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(morphisms, "SWEEP_ORDER", order)
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
