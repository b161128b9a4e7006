import random
from fractions import Fraction

import pytest

from courantlab import intrinsic, linalg, polyexpr, pullback
from courantlab.bundles import Section, TrivialBundle
from courantlab.courant_core import (
    CourantStructure,
    check_axioms,
    standard_structure,
)
from courantlab.intrinsic import (
    SplittingIso,
    build_intrinsic,
    canonical_splitting,
    pontryagin_embedding,
    splitting_composite,
    uniqueness_check,
)
from courantlab.polyexpr import PolyMap, Polynomial
from courantlab.pullback import PullbackProblem, construct, rejection_condition


class TestCanonicalSplitting:
    def test_m_zero_is_identity(self):
        iso = canonical_splitting(1, 0)
        assert [list(r) for r in iso.fiber_matrix] == linalg.identity(2)

    def test_n_zero_reorders_port_blocks(self):
        iso = canonical_splitting(0, 1)
        assert [list(r) for r in iso.fiber_matrix] == linalg.identity(2)

    def test_n1_m1_permutation(self):
        # fiber slots (v, p, e, eps) -> (v, e, p, eps): slot 2 and 3 swap
        iso = canonical_splitting(1, 1)
        matrix = [list(r) for r in iso.fiber_matrix]
        image = linalg.mat_vec(matrix, [Fraction(1), Fraction(2), Fraction(3), Fraction(4)])
        assert image == [1, 3, 2, 4]

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError, match="invertible"):
            SplittingIso(1, 0, [[1, 0], [1, 0]])


class TestBuildIntrinsic:
    def test_n1_m1_expected_structure(self):
        result = build_intrinsic(1, 1)
        s = result.structure
        assert [[str(q) for q in row] for row in s.anchor] == [["1", "0", "0", "0"]]
        # <(v,p,e,eps),(v',p',e',eps')> = p v' + p' v + eps e' + eps' e
        assert s.metric == linalg.mat(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        )
        assert not s.structure_functions
        assert check_axioms(s, n_random=20).all_passed

    def test_chain_verdicts(self):
        result = build_intrinsic(1, 1)
        assert result.chain_verdicts["inclusion"].is_morphism
        assert result.chain_verdicts["pontryagin_embedding"].is_morphism
        # the splitting composite cannot satisfy the anchor condition: its
        # invertible fiber map hits vertical tangent directions
        composite = result.chain_verdicts["splitting_composite"]
        assert not composite.is_morphism
        assert composite.failed_conditions() == {"anchor"}
        assert not result.hypotheses.anchor_tangent.passed
        assert result.notes

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_collapse_identity(self, n):
        result = build_intrinsic(n, 0)
        assert result.structure == standard_structure(n)
        assert all(v.is_morphism for v in result.chain_verdicts.values())

    def test_point_base(self):
        result = build_intrinsic(0, 1)
        s = result.structure
        assert s.bundle.base_dim == 0 and s.bundle.rank == 2
        assert s.anchor == []
        assert check_axioms(s, n_random=10).all_passed

    def test_restriction_reproduces_standard_data(self):
        # sections included from TM (+) T*M pair and bracket as in standard(n)
        rng = random.Random(6)
        result = build_intrinsic(2, 1)
        s = result.structure
        base = standard_structure(2)
        def include(sec):
            comps = list(sec.coeffs) + [Polynomial(2)] * 2
            return Section(s.bundle, PolyMap(2, comps))
        from courantlab.courant_core import random_section
        for _ in range(10):
            f = random_section(rng, base.bundle, 2)
            g = random_section(rng, base.bundle, 2)
            assert s.pairing(include(f), include(g)) == base.pairing(f, g)
            included_bracket = s.bracket(include(f), include(g))
            assert included_bracket == include(base.bracket(f, g))

    def test_port_block_is_flat(self):
        # constant sections supported in E (+) E* bracket to zero
        result = build_intrinsic(1, 2)
        s = result.structure
        for i in range(2, 6):
            for j in range(2, 6):
                fi = Section.frame(s.bundle, i)
                fj = Section.frame(s.bundle, j)
                assert s.bracket(fi, fj).is_zero()


class TestUniqueness:
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1)])
    def test_uniqueness_check(self, n, m):
        assert uniqueness_check(n, m)

    def test_uniqueness_check_constructs_the_pullback_once(self, monkeypatch):
        calls = []
        original = pullback.construct

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(pullback, "construct", counting)
        monkeypatch.setattr(intrinsic, "construct", counting)
        assert uniqueness_check(2, 1)
        assert len(calls) == 1

    def test_perturbed_candidates_rejected_with_names(self):
        chi = splitting_composite(1, 1)
        problem = PullbackProblem(standard_structure(2), chi.source, chi)
        base = construct(problem, enforce_hypotheses=False)
        perturbed = CourantStructure(
            base.bundle, base.anchor, base.metric,
            {(0, 1, 0): Polynomial.constant(1, 1)},
        )
        condition, witness = rejection_condition(problem, perturbed)
        assert condition == "bracket" and witness
        scaled = CourantStructure(
            base.bundle, base.anchor, linalg.mat_scale(base.metric, Fraction(2)),
            base.structure_functions,
        )
        condition, _ = rejection_condition(problem, scaled)
        assert condition == "metric"

    def test_constant_automorphism_of_ambient_gives_same_structure(self):
        # compose the splitting with a constant B-field isometry of TE (+) T*E:
        # (X, a) -> (X, a + i_X B) with B closed constant, an automorphism of
        # the standard structure; the constructed structure is unchanged
        n, m = 1, 1
        b_field = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 3, 1, 0], [-3, 0, 0, 1]]
        base = canonical_splitting(n, m)
        composed = linalg.mat_mul(linalg.mat(b_field),
                                  [list(r) for r in base.fiber_matrix])
        twisted = SplittingIso(n, m, composed)
        original = build_intrinsic(n, m).structure
        assert build_intrinsic(n, m, twisted).structure == original

    def test_non_isometry_twist_changes_metric(self):
        n, m = 1, 1
        stretch = [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        base = canonical_splitting(n, m)
        composed = linalg.mat_mul(linalg.mat(stretch),
                                  [list(r) for r in base.fiber_matrix])
        twisted = SplittingIso(n, m, composed)
        assert build_intrinsic(n, m, twisted).structure != build_intrinsic(n, m).structure


class TestPontryaginEmbedding:
    def test_composite_of_inclusion_and_splitting(self):
        phi = pontryagin_embedding(1, 1)
        assert phi.source.rank == 2 and phi.target.rank == 4
        assert phi.base_map == PolyMap.from_exprs(["x1", "0"], ["x1"])
        # fiber: (v, p) -> (v, 0, p, 0)
        image = [row[0] for row in phi.fiber_matrix]
        assert [str(q) for q in image] == ["1", "0", "0", "0"]
        image = [row[1] for row in phi.fiber_matrix]
        assert [str(q) for q in image] == ["0", "0", "1", "0"]


class TestWorkPerOp:
    """What one `intrinsic` op computes, counted by wrapping."""

    SIZES = [(0, 0), (1, 0), (1, 1), (2, 1), (3, 0), (1, 3)]

    @pytest.mark.parametrize("n, m", SIZES)
    def test_substitution_never_receives_a_constant(self, monkeypatch, n, m):
        # zero and constant polynomials return from compose unsubstituted
        seen = []
        original = polyexpr._substitute_monomials

        def recording(terms, *rest):
            seen.append(list(terms))
            return original(terms, *rest)

        monkeypatch.setattr(polyexpr, "_substitute_monomials", recording)
        result = build_intrinsic(n, m)
        intrinsic._uniqueness(result.structure, m)
        assert seen or n == 0
        assert not [keys for keys in seen if keys in ([], [0])]

    @pytest.mark.parametrize("n, m", SIZES)
    def test_determinants_only_for_raw_input(self, monkeypatch, n, m):
        # the splitting matrix is the one raw input: its invertibility is
        # checked, and hypothesis (b) reports the induced pairing's
        # determinant; the standard structures and the constructed one are
        # built from parts known to be nondegenerate
        sizes = []
        original = linalg.det
        monkeypatch.setattr(linalg, "det", lambda a: sizes.append(len(a)) or original(a))
        build_intrinsic(n, m)
        assert sizes == [2 * n + 2 * m] * 2
