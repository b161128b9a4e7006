import json
import random
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
    random_polynomial,
    random_section,
    scaled_structure,
    standard_structure,
)
from courantlab.intrinsic import pontryagin_embedding, splitting_composite
from courantlab.morphisms import _image_vanishing_multipliers, check_general_base
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
from courantlab.scene import load_scene, structure_to_json


def pontryagin_problem(n=1, m=1):
    phi = pontryagin_embedding(n, m)
    return PullbackProblem(standard_structure(n + m), phi.source, phi)


def splitting_problem(n, m):
    chi = splitting_composite(n, m)
    return PullbackProblem(standard_structure(n + m), chi.source, chi)


class TestProblemValidation:
    def test_retraction_required(self):
        s = standard_structure(1)
        phi = BundleMorphism(
            s.bundle, s.bundle, PolyMap.identity(1),
            linalg.pmat_constant(linalg.identity(2), 1),
        )
        with pytest.raises(ValueError, match="retraction"):
            PullbackProblem(s, s.bundle, phi)

    def test_rank_deficiency_detected(self, tmp_path, capsys):
        # singular everywhere: P^T G P vanishes
        self.assert_rejected_by_pairing(
            tmp_path, capsys, ["1", "0", "0", "0"],
            {"induced_metric": [["0", "0"], ["0", "0"]]},
        )

    def test_rank_deficiency_at_one_point_detected(self, tmp_path, capsys):
        # singular only at x1 = 0: P^T G P = [[0, x1], [x1, 0]] is not constant
        self.assert_rejected_by_pairing(
            tmp_path, capsys, ["x1", "0", "0", "1"], {"entry": [0, 1]}
        )

    @staticmethod
    def assert_rejected_by_pairing(tmp_path, capsys, matrix, witness):
        # hypothesis (b) implies injectivity exactly: P v = 0 gives
        # G' v = P^T G P v = 0, and det G' is a nonzero constant
        s = standard_structure(1)
        fiber = [[parse(e, ["x1"]) for e in matrix[:2]], [parse(e, ["x1"]) for e in matrix[2:]]]
        phi = BundleMorphism(
            s.bundle, s.bundle, PolyMap.identity(1), fiber, retraction=PolyMap.identity(1),
        )
        p = PullbackProblem(s, s.bundle, phi)
        report = check_hypotheses(p)
        assert not report.pairing_nondegenerate.passed
        assert report.pairing_nondegenerate.witness == witness
        assert not report.sections_involutive.passed
        with pytest.raises(ValueError, match="pairing_nondegenerate"):
            construct(p)
        scene = tmp_path / "deficient.json"
        scene.write_text(json.dumps({
            "schema_version": 1,
            "bundles": {"P1": {"base_dim": 1, "rank": 2}},
            "courant_structures": {"s": {
                "bundle": "P1", "anchor": [["1", "0"]], "metric": [[0, 1], [1, 0]],
            }},
            "morphisms": {"phi": {
                "source": "P1", "target": "P1", "base_map": ["x1"],
                "fiber_matrix": [matrix[:2], matrix[2:]], "retraction": ["x1"],
            }},
        }))
        code = main(["pullback", "--scene", str(scene), "--ambient", "s",
                     "--morphism", "phi", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["hypotheses"]["pairing_nondegenerate"]["witness"] == witness
        assert "structure" not in payload


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
    """Each problem makes one bracket: its extended frames, summed with inert
    tags, on the tag-lifted ambient.  No plain frame pair is bracketed."""

    DEMO = Path(__file__).resolve().parent.parent / "demos" / "scenes" / "oscillator.json"

    @staticmethod
    def brackets(monkeypatch):
        """Record every bracket made, as (structure, f, g strings), and the
        tag-lifted ambients the pullback module builds."""
        calls, lifted = [], []
        original = CourantStructure.bracket
        original_lift = pullback_mod.lift_structure

        def counting(self, a, b):
            calls.append((self, tuple(a.coeffs.to_strings()), tuple(b.coeffs.to_strings())))
            return original(self, a, b)

        def recording(structure, extra):
            lifted.append(original_lift(structure, extra))
            return lifted[-1]

        monkeypatch.setattr(CourantStructure, "bracket", counting)
        monkeypatch.setattr(pullback_mod, "lift_structure", recording)
        return calls, lifted

    @staticmethod
    def frame_pairs(problem):
        frames = [tuple(f.coeffs.to_strings()) for f in _extended_frames(problem)]
        return [(a, b) for a in frames for b in frames]

    @staticmethod
    def tagged_frames(problem):
        """(sum_i t^i e^_i, sum_j s^j e^_j) as strings over N + 2 variables."""
        frames = _extended_frames(problem)
        nn = problem.ambient.bundle.base_dim + 2
        sums = []
        for tag in (nn - 2, nn - 1):
            t = Polynomial.variable(nn, tag)
            sums.append(tuple(
                sum((f[c].lift(nn) * t ** i for i, f in enumerate(frames)), Polynomial(nn)).to_string()
                for c in range(problem.ambient.bundle.rank)
            ))
        return tuple(sums)

    def assert_one_tagged_bracket_per_problem(self, calls, lifted, problems):
        assert len(lifted) == len(problems)
        on_lifted = [(f, g) for s, f, g in calls if any(s is l for l in lifted)]
        assert on_lifted == [self.tagged_frames(p) for p in problems]
        pairs = {pair for p in problems for pair in self.frame_pairs(p)}
        assert not [c for c in calls if c[1:] in pairs]

    def test_intrinsic_op_brackets_each_frame_pair_once(self, monkeypatch, capsys):
        # all k^2 pairs in one tagged bracket
        n, m = 2, 1
        calls, lifted = self.brackets(monkeypatch)
        assert main(["intrinsic", "--n", str(n), "--m", str(m), "--json"]) == 1
        chi = splitting_composite(n, m)
        problem = PullbackProblem(standard_structure(n + m), chi.source, chi)
        assert len(self.frame_pairs(problem)) == (2 * n + 2 * m) ** 2
        self.assert_one_tagged_bracket_per_problem(calls, lifted, [problem])

    def test_alt_retraction_op_brackets_each_problem_once(self, monkeypatch, capsys):
        # two problems, the given retraction and the alternative one; the
        # zero section's constant fiber map gives both the same frames
        calls, lifted = self.brackets(monkeypatch)
        assert main([
            "pullback", "--scene", str(self.DEMO), "--ambient", "standard2",
            "--morphism", "zero_section_embedding",
            "--alt-retraction", '["x1 + x2^2"]', "--json",
        ]) == 0
        problem = pontryagin_problem()
        assert len(self.frame_pairs(problem)) == 4
        self.assert_one_tagged_bracket_per_problem(calls, lifted, [problem, problem])

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
        # from one tagged bracket
        phi = pontryagin_embedding(1, 1)
        base = standard_structure(2)
        bumped = CourantStructure(base.bundle, base.anchor, base.metric,
                                  {(0, 2, 1): Polynomial.constant(2, 1)})
        p = PullbackProblem(bumped, phi.source, phi)
        calls, lifted = self.brackets(monkeypatch)
        report = check_hypotheses(p)
        assert not report.sections_involutive.passed
        i, j = report.sections_involutive.witness["frame_pair"]
        assert (i, j) == (0, 1)
        assert len(lifted) == 1
        assert [c[1:] for c in calls if c[0] is lifted[0]] == [self.tagged_frames(p)]
        calls.clear()
        with pytest.raises(ValueError, match=rf"frame bracket \({i},{j}\)"):
            construct(p, enforce_hypotheses=False)
        assert len(lifted) == 1
        assert calls == []


# -- the tagged frame table against the pairwise scan it replaced -------------


class TestWorkPerProblem:
    """Per-problem and per-morphism matrices are formed once, counted by
    wrapping the `linalg` helpers that form them."""

    @staticmethod
    def recorded(monkeypatch, name):
        """Every argument tuple passed to linalg.<name>; the tuples keep the
        arguments alive, so their ids stay distinct."""
        calls = []
        original = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args: calls.append(args) or original(*args))
        return calls

    @pytest.mark.parametrize("problem", [
        pontryagin_problem(1, 1), pontryagin_problem(2, 1), splitting_problem(2, 1),
    ], ids=["pontryagin_1_1", "pontryagin_2_1", "splitting_2_1"])
    def test_one_induced_metric_product_per_problem(self, monkeypatch, problem):
        # P^T G P is read by hypothesis (b), by both construct gates, by the
        # tagged solve and by the structure; P^T is taken for it once
        calls = self.recorded(monkeypatch, "pmat_transpose")
        check_hypotheses(problem)
        construct(problem, enforce_hypotheses=False)
        if problem.hypotheses.all_passed:
            construct(problem)
        fiber = problem.morphism.fiber_matrix
        assert [args[0] is fiber for args in calls].count(True) == 1

    @pytest.mark.parametrize("s1, s2, phi", [
        (standard_structure(1), standard_structure(2), pontryagin_embedding(1, 1)),
        (standard_structure(2), standard_structure(3), pontryagin_embedding(2, 1)),
        (scaled_structure(standard_structure(1), 2), standard_structure(2),
         pontryagin_embedding(1, 1)),
    ], ids=["pontryagin_1_1", "pontryagin_2_1", "scaled_source"])
    def test_general_base_check_composes_each_matrix_once(self, monkeypatch, s1, s2, phi):
        # both related sections of the sweep share one P(r(y))
        calls = self.recorded(monkeypatch, "pmat_compose")
        check_general_base(s1, s2, phi)
        pairs = Counter((id(a), id(inner)) for a, inner in calls)
        assert pairs and max(pairs.values()) == 1


def reference_solver(problem):
    """solve(vec) -> (c, residual): P c = vec through the projector, in n variables."""
    fiber = problem.morphism.fiber_matrix
    n = problem.source_bundle.base_dim
    pt_g = linalg.pmat_mul(
        linalg.pmat_transpose(fiber), linalg.pmat_constant(problem.ambient.metric, n)
    )
    induced = linalg.pmat_constant_value(linalg.pmat_mul(pt_g, fiber)) if pt_g else []
    g_inv = linalg.pmat_constant(linalg.inverse(induced) if induced else [], n)

    def solve(vec):
        half = linalg.pmat_vec(pt_g, vec, num_vars=n)
        coeffs = linalg.pmat_vec(g_inv, half, num_vars=n)
        reproduced = linalg.pmat_vec(fiber, coeffs, num_vars=n)
        return coeffs, [a - b for a, b in zip(reproduced, vec)]

    return solve


def reference_frame_table(problem):
    """(structure functions, witness) by the pairwise scan: each of the k^2
    extended frame pairs is bracketed, pulled back along phi0 and solved on
    its own, and the scan stops at the first pair that leaves the image."""
    solve = reference_solver(problem)
    frames = _extended_frames(problem)
    base_map = problem.morphism.base_map
    structure_functions = {}
    for i, ei in enumerate(frames):
        for j, ej in enumerate(frames):
            bracket = problem.ambient.bracket(ei, ej)
            coeffs, residual = solve([q.compose(base_map) for q in bracket.coeffs])
            if any(not q.is_zero() for q in residual):
                return structure_functions, {
                    "frame_pair": [i, j],
                    "residual": [q.to_string() for q in residual],
                }
            for h, c in enumerate(coeffs):
                if not c.is_zero():
                    structure_functions[(i, j, h)] = c
    return structure_functions, None


def reference_perturbation_verdict(problem, structure_functions, rounds, seed):
    """`extension_perturbation_test` by the pairwise scan, same draws."""
    multipliers = _image_vanishing_multipliers(problem.morphism)
    if not multipliers:
        return True
    rng = random.Random(seed)
    solve = reference_solver(problem)
    frames = _extended_frames(problem)
    zero = Polynomial(problem.source_bundle.base_dim)
    for _ in range(rounds):
        perturbed = [
            frame + rng.choice(multipliers) * random_section(rng, problem.ambient.bundle, 1, terms=1)
            for frame in frames
        ]
        for i, ei in enumerate(perturbed):
            for j, ej in enumerate(perturbed):
                bracket = problem.ambient.bracket(ei, ej)
                coeffs, _ = solve([q.compose(problem.morphism.base_map) for q in bracket.coeffs])
                for h, c in enumerate(coeffs):
                    if structure_functions.get((i, j, h), zero) != c:
                        return False
    return True


def assert_matches_reference(problem, seeds=(0, 1)):
    """The tagged table, its witness and the perturbation verdicts equal the
    pairwise scan's; returns the witness."""
    ref_functions, ref_witness = reference_frame_table(problem)
    functions, witness = problem._frame_table
    assert witness == ref_witness
    assert functions == ref_functions
    assert list(functions) == list(ref_functions)
    report = check_hypotheses(problem)
    assert report.sections_involutive.witness == ref_witness
    if witness is None:
        built = construct(problem, enforce_hypotheses=False)
        reference = CourantStructure(built.bundle, built.anchor, built.metric, ref_functions)
        assert (json.dumps(structure_to_json(built, "E"), sort_keys=True)
                == json.dumps(structure_to_json(reference, "E"), sort_keys=True))
        for seed in seeds:
            assert extension_perturbation_test(problem, 2, seed) == \
                reference_perturbation_verdict(problem, ref_functions, 2, seed)
    else:
        with pytest.raises(ValueError, match="frame bracket"):
            construct(problem, enforce_hypotheses=False)
    return witness


def isometry(n_base, big, beta, b_field):
    """[[I, beta], [B, I + B beta]] on R^2N over n_base variables: the
    B-transform after the beta-transform, an isometry of the hyperbolic
    pairing for skew B and beta."""
    def block(top_left, top_right, bottom_left, bottom_right):
        return [l + r for l, r in zip(top_left, top_right)] + \
            [l + r for l, r in zip(bottom_left, bottom_right)]
    ident = linalg.pmat_constant(linalg.identity(big), n_base)
    zero = linalg.pmat_constant(linalg.zeros(big, big), n_base)
    first = block(ident, beta, zero, ident)
    second = block(ident, zero, b_field, ident)
    return linalg.pmat_mul(second, first)


def random_problem(seed):
    """A problem with a non-constant fiber matrix, a nonlinear retraction
    x1 + c*(xN - b)^d and random ambient frame data.

    The base map is x -> (x, b).  The fiber is an isometry of the standard
    pairing (B- and beta-transforms with random polynomial entries) applied
    to the zero-section inclusion, so P^T G P stays constant.
    """
    rng = random.Random(seed)
    n = rng.choice([1, 2])
    big = n + 1
    std = standard_structure(big)
    anchor = [list(row) for row in std.anchor]
    if rng.random() < 0.3:
        anchor[rng.randrange(big)][rng.randrange(2 * big)] += random_polynomial(rng, big, 2, 2)
    functions = {
        tuple(rng.randrange(2 * big) for _ in range(3)): random_polynomial(rng, big, 2, 2)
        for _ in range(rng.choice([0, 0, 1, 3]))
    }
    ambient = CourantStructure(std.bundle, anchor, std.metric, functions)
    # transforms along the base keep the image involutive more often than
    # ones that couple the normal direction
    span = n if rng.random() < 0.5 else big

    def skew():
        out = [[Polynomial(n)] * big for _ in range(big)]
        if span >= 2:
            a, b = rng.sample(range(span), 2)
            entry = random_polynomial(rng, n, 2, 2)
            out[a][b], out[b][a] = entry, -entry
        return out

    inclusion = [[Polynomial.constant(n, 0)] * (2 * n) for _ in range(2 * big)]
    for a in range(n):
        inclusion[a][a] = Polynomial.constant(n, 1)
        inclusion[big + a][n + a] = Polynomial.constant(n, 1)
    fiber = linalg.pmat_mul(isometry(n, big, skew(), skew()), inclusion)
    shift = rng.choice([0, 1])
    base_map = PolyMap(n, [Polynomial.variable(n, a) for a in range(n)]
                       + [Polynomial.constant(n, shift)])
    names = [f"x{a + 1}" for a in range(big)]
    c = rng.choice(["2", "-1", "1/3"])
    d = rng.randint(1, 3)
    retraction = PolyMap.from_exprs(
        [f"x1 + {c}*(x{big} - {shift})^{d}"] + names[1:n], names
    )
    source = TrivialBundle(n, 2 * n, "P")
    phi = BundleMorphism(source, ambient.bundle, base_map, fiber, retraction)
    return PullbackProblem(ambient, source, phi)


def demo_problems():
    scene = load_scene(TestFrameTable.DEMO)
    for phi in scene.morphisms.values():
        for structure in scene.structures.values():
            if structure.bundle == phi.target:
                yield PullbackProblem(structure, phi.source, phi)
                alt = PolyMap(phi.target.base_dim, [
                    r + Polynomial.variable(phi.target.base_dim, phi.target.base_dim - 1) ** 2
                    for r in phi.retraction
                ])
                if alt.compose(phi.base_map) == phi.retraction.compose(phi.base_map):
                    yield PullbackProblem(structure, phi.source, BundleMorphism(
                        phi.source, phi.target, phi.base_map, phi.fiber_matrix, alt))


RANDOM_PROBLEMS = 32


class TestFrameTableReference:
    """The tagged frame table equals the pairwise scan it replaced."""

    @pytest.mark.parametrize("n, m", [
        (n, m) for n in range(5) for m in range(5 - n) if n + m >= 1
    ])
    def test_intrinsic_problems(self, n, m):
        chi = splitting_composite(n, m)
        assert_matches_reference(PullbackProblem(standard_structure(n + m), chi.source, chi))
        if n:
            assert_matches_reference(pontryagin_problem(n, m))

    def test_demo_scene_problems(self):
        problems = list(demo_problems())
        assert len(problems) >= 5
        for problem in problems:
            assert_matches_reference(problem)

    @pytest.mark.parametrize("seed", range(RANDOM_PROBLEMS))
    def test_random_problems(self, seed):
        assert_matches_reference(random_problem(seed))

    def test_random_problems_cover_every_outcome(self):
        # passing tables with non-constant fibers and nonzero structure
        # functions, failures after a nonempty partial table, and both
        # perturbation verdicts
        outcomes = set()
        for seed in range(RANDOM_PROBLEMS):
            p = random_problem(seed)
            functions, witness = reference_frame_table(p)
            if witness is not None:
                outcomes.add("fails after a partial table" if functions else "fails")
            elif functions and not linalg.pmat_is_constant(p.morphism.fiber_matrix):
                outcomes.add(("passes", reference_perturbation_verdict(p, functions, 2, 0)))
        assert outcomes == {"fails", "fails after a partial table",
                            ("passes", True), ("passes", False)}

    def test_least_of_several_failing_pairs(self):
        # d_x picks up d_z from [[d_x, dx]], dz from [[dx, d_x]] and d_z from
        # [[dx, dx]] (x2 * d_z): three pairs leave the image, and the least,
        # (0, 1), is the witness with its own residual
        phi = pontryagin_embedding(1, 1)
        base = standard_structure(2)
        functions = {
            (0, 2, 1): Polynomial.constant(2, 1),
            (2, 0, 3): parse("x1^2", ["x1", "x2"]),
            (2, 2, 1): parse("x1 + x2", ["x1", "x2"]),
        }
        p = PullbackProblem(
            CourantStructure(base.bundle, base.anchor, base.metric, functions),
            phi.source, phi,
        )
        pairs = []
        for i, ei in enumerate(_extended_frames(p)):
            for j, ej in enumerate(_extended_frames(p)):
                on_image = [q.compose(phi.base_map) for q in p.ambient.bracket(ei, ej).coeffs]
                if any(not r.is_zero() for r in reference_solver(p)(on_image)[1]):
                    pairs.append([i, j])
        assert pairs == [[0, 1], [1, 0], [1, 1]]
        witness = assert_matches_reference(p)
        assert witness == {"frame_pair": [0, 1], "residual": ["0", "-1", "0", "0"]}
