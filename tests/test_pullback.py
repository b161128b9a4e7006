import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from courantlab import linalg
from courantlab import pullback as pullback_mod
from courantlab.cli import main
from courantlab.bundles import BundleMorphism, TrivialBundle, compose_morphisms
from courantlab.courant_core import (
    CourantStructure,
    check_axioms,
    scaled_structure,
    standard_structure,
)
from courantlab.intrinsic import pontryagin_embedding, splitting_composite
from courantlab.morphisms import check_general_base
from courantlab.polyexpr import PolyMap, Polynomial, parse
from courantlab.pullback import (
    PullbackProblem,
    _extended_frames,
    check_hypotheses,
    construct,
    extension_perturbation_test,
    rejection_condition,
    uniqueness_test,
    well_definedness_test,
)


def pontryagin_problem(n=1, m=1):
    phi = pontryagin_embedding(n, m)
    return PullbackProblem(standard_structure(n + m), phi.source, phi)


class TestProblemValidation:
    def test_retraction_required(self):
        s = standard_structure(1)
        phi = BundleMorphism(
            s.bundle, s.bundle, PolyMap.identity(1),
            linalg.pmat_constant(linalg.identity(2), 1),
        )
        with pytest.raises(ValueError, match="retraction"):
            PullbackProblem(s, s.bundle, phi)

    def test_rank_deficiency_detected(self):
        s = standard_structure(1)
        phi = BundleMorphism(
            s.bundle, s.bundle, PolyMap.identity(1),
            linalg.pmat_constant([[1, 0], [0, 0]], 1),
            retraction=PolyMap.identity(1),
        )
        with pytest.raises(ValueError, match="rank"):
            PullbackProblem(s, s.bundle, phi)


class TestHypotheses:
    def test_identity_all_pass(self):
        s = standard_structure(2)
        p = PullbackProblem(s, s.bundle, BundleMorphism.identity(s.bundle))
        assert check_hypotheses(p).all_passed

    def test_pontryagin_instance_all_pass(self):
        # anchor of the ambient structure is tangent to the zero section on
        # the included fibers: they have no fiber-direction component
        report = check_hypotheses(pontryagin_problem())
        assert report.anchor_tangent.passed
        assert report.pairing_nondegenerate.passed
        assert report.sections_involutive.passed

    def test_tangent_subbundle_degenerate(self):
        # purely tangent rank-2 subbundle of standard(2): P^T G P = 0
        amb = standard_structure(2)
        src = TrivialBundle(2, 2, "TM")
        matrix = [[1, 0], [0, 1], [0, 0], [0, 0]]
        phi = BundleMorphism.constant(src, amb.bundle, matrix)
        report = check_hypotheses(PullbackProblem(amb, src, phi))
        assert not report.pairing_nondegenerate.passed

    def test_splitting_composite_fails_anchor_tangency(self):
        # the invertible splitting sends port elements onto vertical tangent
        # directions, which leave the zero section: hypothesis (a) is false
        chi = splitting_composite(1, 1)
        p = PullbackProblem(standard_structure(2), chi.source, chi)
        report = check_hypotheses(p)
        assert not report.anchor_tangent.passed
        assert report.pairing_nondegenerate.passed
        assert report.sections_involutive.passed


class TestConstruct:
    def test_identity_returns_ambient(self):
        s = standard_structure(2)
        p = PullbackProblem(s, s.bundle, BundleMorphism.identity(s.bundle))
        assert construct(p) == s

    def test_scaled_ambient_identity(self):
        s = scaled_structure(standard_structure(1), Fraction(1, 3))
        p = PullbackProblem(s, s.bundle, BundleMorphism.identity(s.bundle))
        assert construct(p) == s

    def test_pontryagin_pullback_is_standard(self):
        p = pontryagin_problem()
        got = construct(p)
        assert got == standard_structure(1)
        assert check_axioms(got, n_random=20).all_passed

    def test_intrinsic_chain_instance_values(self):
        # A' = [1 0 0 0], block-hyperbolic pairing on (v,p,e,eps), c' = 0
        chi = splitting_composite(1, 1)
        p = PullbackProblem(standard_structure(2), chi.source, chi)
        got = construct(p, enforce_hypotheses=False)
        assert [[str(q) for q in row] for row in got.anchor] == [["1", "0", "0", "0"]]
        assert got.metric == linalg.mat(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        )
        assert not got.structure_functions
        assert check_axioms(got, n_random=20).all_passed

    def test_construct_raises_on_failed_hypotheses(self):
        chi = splitting_composite(1, 1)
        p = PullbackProblem(standard_structure(2), chi.source, chi)
        with pytest.raises(ValueError, match="anchor_tangent"):
            construct(p)

    def test_morphism_verifies_from_construction(self):
        p = pontryagin_problem()
        got = construct(p)
        verdict = check_general_base(got, p.ambient, p.morphism)
        assert verdict.is_morphism


class TestWellDefinedness:
    def test_same_retraction_trivially_stable(self):
        p = pontryagin_problem()
        assert well_definedness_test(p, p.morphism.retraction)

    def test_reparametrized_retraction(self):
        # r'(y) = y1 + y2^2 also inverts the zero section
        p = pontryagin_problem()
        alt = PolyMap.from_exprs(["x1 + x2^2"], ["x1", "x2"])
        assert well_definedness_test(p, alt)

    def test_genuinely_different_retraction(self):
        # r'(y) = y1 + y2 is a retraction too; tangency makes A' agree
        p = pontryagin_problem()
        alt = PolyMap.from_exprs(["x1 + x2"], ["x1", "x2"])
        assert well_definedness_test(p, alt)

    def test_invalid_retraction_rejected(self):
        p = pontryagin_problem()
        with pytest.raises(ValueError, match="retraction"):
            well_definedness_test(p, PolyMap.from_exprs(["x2"], ["x1", "x2"]))

    def test_extension_perturbations_stable_for_pontryagin(self):
        assert extension_perturbation_test(pontryagin_problem(), 3)

    def test_extension_perturbations_unstable_for_splitting_composite(self):
        # the honest failure: without anchor tangency the bracket read along
        # the image depends on the extension ([[d_z, (1+z) d_x]] = d_x != 0)
        chi = splitting_composite(1, 1)
        p = PullbackProblem(standard_structure(2), chi.source, chi)
        assert not extension_perturbation_test(p, 3)

    def test_identity_perturbations_trivial(self):
        s = standard_structure(1)
        p = PullbackProblem(s, s.bundle, BundleMorphism.identity(s.bundle))
        assert extension_perturbation_test(p, 2)


class TestUniqueness:
    def test_constructed_is_unique(self):
        p = pontryagin_problem()
        assert uniqueness_test(p, construct(p))

    def test_perturbed_structure_function_rejected_via_bracket(self):
        p = pontryagin_problem()
        base = construct(p)
        candidate = CourantStructure(
            base.bundle, base.anchor, base.metric,
            {(0, 1, 0): Polynomial.constant(1, 1)},
        )
        assert not uniqueness_test(p, candidate)
        condition, witness = rejection_condition(p, candidate)
        assert condition == "bracket" and witness

    def test_scaled_metric_rejected_via_metric(self):
        p = pontryagin_problem()
        base = construct(p)
        candidate = scaled_structure(base, 2)
        assert not uniqueness_test(p, candidate)
        condition, _ = rejection_condition(p, candidate)
        assert condition == "metric"

    def test_wrong_bundle_rejected(self):
        p = pontryagin_problem()
        with pytest.raises(ValueError, match="bundle"):
            uniqueness_test(p, standard_structure(2))


class TestFunctoriality:
    def test_two_step_pullback_matches_composite(self):
        # standard(1) -> standard(2) -> standard(3), zero sections all the way
        inner = pontryagin_embedding(1, 1)   # P(R^1) -> P(R^2)
        outer = pontryagin_embedding(2, 1)   # P(R^2) -> P(R^3)
        amb3 = standard_structure(3)
        composite = compose_morphisms(outer, inner)
        one_step = construct(PullbackProblem(amb3, composite.source, composite))
        middle = construct(PullbackProblem(amb3, outer.source, outer))
        two_step = construct(PullbackProblem(middle, inner.source, inner))
        assert one_step == two_step == standard_structure(1)


class TestFrameTable:
    """Each problem brackets its k^2 extended frame pairs exactly once."""

    DEMO = Path(__file__).resolve().parent.parent / "demos" / "scenes" / "oscillator.json"

    @staticmethod
    def frame_brackets(monkeypatch, base_dim, rank):
        """Record the plain brackets made in the ambient structure."""
        calls = []
        original = CourantStructure.bracket

        def counting(self, a, b):
            if (self.bundle.base_dim, self.bundle.rank) == (base_dim, rank):
                calls.append((tuple(a.coeffs.to_strings()), tuple(b.coeffs.to_strings())))
            return original(self, a, b)

        monkeypatch.setattr(CourantStructure, "bracket", counting)
        return calls

    @staticmethod
    def frame_pairs(problem):
        frames = [tuple(f.coeffs.to_strings()) for f in _extended_frames(problem)]
        return [(a, b) for a in frames for b in frames]

    def test_intrinsic_op_brackets_each_frame_pair_once(self, monkeypatch, capsys):
        n, m = 2, 1
        calls = self.frame_brackets(monkeypatch, n + m, 2 * (n + m))
        assert main(["intrinsic", "--n", str(n), "--m", str(m), "--json"]) == 1
        chi = splitting_composite(n, m)
        pairs = self.frame_pairs(PullbackProblem(standard_structure(n + m), chi.source, chi))
        assert len(pairs) == (2 * n + 2 * m) ** 2
        assert Counter(calls) == Counter(pairs)

    def test_alt_retraction_op_brackets_each_problem_once(self, monkeypatch, capsys):
        # two problems, the given retraction and the alternative one; the
        # zero section's constant fiber map gives both the same frames
        calls = self.frame_brackets(monkeypatch, 2, 4)
        assert main([
            "pullback", "--scene", str(self.DEMO), "--ambient", "standard2",
            "--morphism", "zero_section_embedding",
            "--alt-retraction", '["x1 + x2^2"]', "--json",
        ]) == 0
        pairs = self.frame_pairs(pontryagin_problem())
        assert len(pairs) == 4
        assert Counter(calls) == Counter(pairs * 2)

    def test_alt_retraction_op_checks_hypotheses_once_per_problem(self, monkeypatch, capsys):
        # the report, construct and the well-definedness test share one
        # check of each problem: the given one and the alternative
        calls = Counter()
        original = pullback_mod.check_hypotheses

        def counting(problem):
            calls[id(problem)] += 1
            return original(problem)

        monkeypatch.setattr(pullback_mod, "check_hypotheses", counting)
        argv = ["pullback", "--scene", str(self.DEMO), "--ambient", "standard2",
                "--morphism", "zero_section_embedding",
                "--alt-retraction", '["x1 + x2^2"]', "--json"]
        assert main(argv) == 0
        assert sorted(calls.values()) == [1, 1]
        payload = json.loads(capsys.readouterr().out)
        assert payload["well_defined"] and payload["hypotheses"]["anchor_tangent"]["status"] == "pass"

    def test_construct_builds_once(self):
        p = pontryagin_problem()
        assert construct(p) is construct(p) is construct(p, enforce_hypotheses=False)

    def test_failing_scan_stops_at_the_reported_pair(self, monkeypatch):
        # [[d_x, dx]] picks up d_z, which leaves the image of the zero
        # section: hypothesis (c) and construct report the same first pair
        # from one scan
        phi = pontryagin_embedding(1, 1)
        base = standard_structure(2)
        bumped = CourantStructure(base.bundle, base.anchor, base.metric,
                                  {(0, 2, 1): Polynomial.constant(2, 1)})
        p = PullbackProblem(bumped, phi.source, phi)
        report = check_hypotheses(p)
        assert not report.sections_involutive.passed
        i, j = report.sections_involutive.witness["frame_pair"]
        assert (i, j) == (0, 1)
        calls = self.frame_brackets(monkeypatch, 2, 4)
        with pytest.raises(ValueError, match=rf"frame bracket \({i},{j}\)"):
            construct(p, enforce_hypotheses=False)
        assert calls == []
