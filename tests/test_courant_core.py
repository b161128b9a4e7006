import random
from fractions import Fraction

import numpy as np
import pytest

from courantlab import courant_core, linalg
from courantlab.bundles import LinearSubspace, Section, TrivialBundle
from courantlab.courant_core import (
    CourantStructure,
    check_axioms,
    check_leibniz,
    dirac_check,
    dorfman_bracket,
    lift_structure,
    product_structure,
    random_section,
    scaled_structure,
    standard_structure,
    tagged_generating_section,
    vf_bracket,
)
from courantlab.polyexpr import (
    MAX_EXPONENT,
    ExponentOverflowError,
    PolyMap,
    Polynomial,
    _unpack,
    parse,
)

from conftest import fd_partial


def so3_structure():
    """Quadratic Lie algebra over a point: so(3) with the Euclidean pairing."""
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}
    return CourantStructure(
        TrivialBundle(0, 3, "so3"),
        [],
        linalg.identity(3),
        {key: Polynomial.constant(0, v) for key, v in eps.items()},
    )


class TestStandardStructure:
    def test_n1_frame_data(self):
        s = standard_structure(1)
        assert s.bundle.rank == 2
        assert s.anchor[0][0] == Polynomial.constant(1, 1)
        assert s.anchor[0][1].is_zero()
        assert s.metric == linalg.mat([[0, 1], [1, 0]])
        assert not s.structure_functions
        # constant-frame Dorfman brackets all vanish (Cartan oracle route)
        for i in range(2):
            for j in range(2):
                fi = Section.frame(s.bundle, i)
                fj = Section.frame(s.bundle, j)
                assert dorfman_bracket(fi, fj).is_zero()

    def test_rank_zero(self):
        s = standard_structure(0)
        assert s.bundle.rank == 0
        assert check_axioms(s).all_passed

    def test_n2_signature(self):
        s = standard_structure(2)
        eigenvalues = np.linalg.eigvalsh(
            np.array([[float(v) for v in row] for row in s.metric])
        )
        assert sum(v > 0 for v in eigenvalues) == 2
        assert sum(v < 0 for v in eigenvalues) == 2


class TestScaledStructure:
    def test_identity_scaling(self):
        s = standard_structure(1)
        assert scaled_structure(s, 1) == s

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            scaled_structure(standard_structure(1), 0)

    @pytest.mark.parametrize("lam", [Fraction(2), Fraction(-1), Fraction(1, 3)])
    def test_axioms_pass(self, lam):
        s = scaled_structure(standard_structure(1), lam)
        assert check_axioms(s, n_random=20).all_passed


class TestPairing:
    def test_frozen_constant_example(self):
        # <(2,3),(4,5)> = 3*4 + 5*2 = 22: e(f') + e'(f) evaluated directly
        s = standard_structure(1)
        f = Section.from_constant(s.bundle, [2, 3])
        g = Section.from_constant(s.bundle, [4, 5])
        assert s.pairing(f, g) == Polynomial.constant(1, 22)

    def test_tangent_isotropy(self):
        s = standard_structure(2)
        f = Section.from_exprs(s.bundle, ["x1", "x2^2", "0", "0"])
        assert s.pairing(f, f).is_zero()

    def test_symmetry_randomized(self):
        rng = random.Random(23)
        s = standard_structure(2)
        for _ in range(20):
            f = random_section(rng, s.bundle, 3)
            g = random_section(rng, s.bundle, 3)
            assert s.pairing(f, g) == s.pairing(g, f)


class TestDorfmanBracket:
    def test_constant_sections_vanish(self):
        s = standard_structure(2)
        f = Section.from_constant(s.bundle, [1, 2, 3, 4])
        g = Section.from_constant(s.bundle, [5, 6, 7, 8])
        assert dorfman_bracket(f, g).is_zero()

    def test_vector_field_bracket_example(self):
        # [d1, x1 d2] = d2, cross-checked by finite differences
        s = standard_structure(2)
        f = Section.from_exprs(s.bundle, ["1", "0", "0", "0"])
        g = Section.from_exprs(s.bundle, ["0", "x1", "0", "0"])
        result = dorfman_bracket(f, g)
        assert result == Section.from_exprs(s.bundle, ["0", "1", "0", "0"])
        x = [parse("1", ["x1", "x2"]), parse("0", ["x1", "x2"])]
        y = [parse("0", ["x1", "x2"]), parse("x1", ["x1", "x2"])]
        points = ([Fraction(1), Fraction(2)], [Fraction(-1), Fraction(1, 2)],
                  [Fraction(0), Fraction(3)])
        for point in points:
            for j in range(2):
                expected = Fraction(0)
                for i in range(2):
                    expected += x[i].eval(point) * fd_partial(y[j], i, point)
                    expected -= y[i].eval(point) * fd_partial(x[j], i, point)
                assert vf_bracket(x, y)[j].eval(point) == expected

    def test_lie_derivative_example(self):
        # X = x2 d1 - x1 d2, alpha' = x1 dx1:
        # [[ (X,0), (0,alpha') ]] = (0, L_X alpha') = (0, x2 dx1 + x1 dx2),
        # assembled stepwise from the Cartan operators
        s = standard_structure(2)
        f = Section.from_exprs(s.bundle, ["x2", "-x1", "0", "0"])
        g = Section.from_exprs(s.bundle, ["0", "0", "x1", "0"])
        assert dorfman_bracket(f, g) == Section.from_exprs(
            s.bundle, ["0", "0", "x2", "x1"]
        )


class TestDerivedOperator:
    def test_constant_function(self):
        s = standard_structure(2)
        assert s.derived_operator(Polynomial.constant(2, 5)).is_zero()

    def test_frozen_example_against_linear_solve(self):
        # D(x1^2) on the standard line: solve <D, e_i> = rho(e_i)(x1^2)
        s = standard_structure(1)
        lam = parse("x1^2", ["x1"])
        rhs = [s.anchor_apply(Section.frame(s.bundle, i), lam) for i in range(2)]
        # per-monomial exact solve of G D = rhs (independent of derived_operator)
        exponents = sorted({e for p in rhs for e in p.terms})
        comps = [dict(), dict()]
        for exps in exponents:
            column = [p.terms.get(exps, Fraction(0)) for p in rhs]
            solution, farkas = linalg.solve_with_certificate(s.metric, column)
            assert farkas is None
            for h, value in enumerate(solution):
                if value:
                    comps[h][exps] = value
        oracle = Section(
            s.bundle, PolyMap(1, [Polynomial(1, c) for c in comps])
        )
        assert oracle == Section.from_exprs(s.bundle, ["0", "2*x1"])
        assert s.derived_operator(lam) == oracle

    def test_defining_identity_randomized(self):
        rng = random.Random(31)
        for n in (1, 2):
            s = standard_structure(n)
            for _ in range(50):
                lam = Polynomial(
                    n,
                    {tuple(rng.randint(0, 2) for _ in range(n)):
                     Fraction(rng.randint(-4, 4) or 1) for _ in range(3)},
                )
                section = random_section(rng, s.bundle, 2)
                lhs = s.pairing(s.derived_operator(lam), section)
                rhs = s.anchor_apply(section, lam)
                assert lhs == rhs


class TestBracket:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_oracle_equivalence(self, n):
        # 100 random pairs: structure-function expansion vs Cartan calculus
        rng = random.Random(100 + n)
        s = standard_structure(n)
        for _ in range(100):
            f = random_section(rng, s.bundle, 3)
            g = random_section(rng, s.bundle, 3)
            assert s.bracket(f, g) == dorfman_bracket(f, g)

    def test_frame_brackets_definitional(self):
        s = so3_structure()
        for i in range(3):
            for j in range(3):
                fi = Section.frame(s.bundle, i)
                fj = Section.frame(s.bundle, j)
                assert s.bracket(fi, fj) == s.frame_bracket(i, j)

    def test_everything_zero(self):
        bundle = TrivialBundle(1, 2, "flat")
        s = CourantStructure(
            bundle, [[Polynomial(1)] * 2], linalg.mat([[0, 1], [1, 0]])
        )
        f = Section.from_exprs(bundle, ["x1", "x1^2"])
        assert s.bracket(f, f).is_zero()


class TestCheckAxioms:
    @pytest.mark.parametrize("n", [1, 2])
    def test_standard_passes(self, n):
        assert check_axioms(standard_structure(n), n_random=20).all_passed

    def test_perturbed_structure_function_fails_iii_with_witness(self):
        s = standard_structure(1)
        bad = CourantStructure(
            s.bundle, s.anchor, s.metric, {(0, 1, 0): Polynomial.constant(1, 1)}
        )
        report = check_axioms(bad, n_random=5)
        assert not report.checks["iii"].passed
        witness = report.checks["iii"].witness
        assert witness is not None
        # re-verify the witness by independent expansion of axiom (iii)
        f = Section.from_exprs(s.bundle, witness["sections"][0])
        g = Section.from_exprs(s.bundle, witness["sections"][1])
        defect = (
            bad.bracket(f, g) + bad.bracket(g, f)
            - bad.derived_operator(bad.pairing(f, g))
        )
        assert not defect.is_zero()
        assert defect.coeffs.to_strings() == witness["defect"]

    def test_so3_passes(self):
        assert check_axioms(so3_structure(), n_random=20).all_passed

    def test_supplied_sections_are_used(self):
        s = standard_structure(1)
        extra = [Section.from_exprs(s.bundle, ["x1^2", "x1"])]
        assert check_axioms(s, sections=extra, n_random=10).all_passed

    def test_supplied_sections_above_the_cap_are_checked(self):
        # anchor [1, 1]: rho o D = A G^-1 A^T = 2, which no constant section sees
        bundle = TrivialBundle(1, 2, "E")
        one = Polynomial.constant(1, 1)
        s = CourantStructure(bundle, [[one, one]], [[0, 1], [1, 0]])
        assert check_axioms(s, degree_cap=0, n_random=20).all_passed
        extra = [Section.from_exprs(bundle, ["x1", "0"]), Section.from_exprs(bundle, ["0", "x1"])]
        report = check_axioms(s, sections=extra, degree_cap=0, n_random=20)
        failed = [name for name, check in report.checks.items() if not check.passed]
        assert failed
        for name in failed:
            assert report.checks[name].detail == "supplied-section tuple check failed"
            witness = report.checks[name].witness
            sections = [Section.from_exprs(bundle, texts) for texts in witness["sections"]]
            defect, is_zero = _plain_defect(s, name, sections)
            assert not is_zero and defect == witness["defect"]

    def test_tuples_are_drawn_from_supplied_sections_only(self):
        s = standard_structure(1)
        report = check_axioms(s, degree_cap=1, n_random=50)
        assert all(c.detail.endswith("; 0 random tuples") for c in report.checks.values())
        extra = [Section.from_exprs(s.bundle, ["x1^2", "x1"])]
        report = check_axioms(s, sections=extra, degree_cap=1, n_random=50)
        assert all(c.detail.endswith("; 50 random tuples") for c in report.checks.values())

    def test_report_serialization(self):
        report = check_axioms(standard_structure(1), n_random=5)
        payload = report.to_json()
        assert set(payload) == {"i", "ii", "iii"}
        assert all(entry["status"] == "pass" for entry in payload.values())


def _plain_defect(s, axiom, sections):
    """An axiom's defect on explicit sections, through the public operations."""
    if axiom == "i":
        f, g, h = sections
        d = s.bracket(f, s.bracket(g, h)) - s.bracket(s.bracket(f, g), h) \
            - s.bracket(g, s.bracket(f, h))
        return d.coeffs.to_strings(), d.is_zero()
    if axiom == "ii":
        f, g, h = sections
        d = s.anchor_apply(f, s.pairing(g, h)) - s.pairing(s.bracket(f, g), h) \
            - s.pairing(g, s.bracket(f, h))
        return [d.to_string()], d.is_zero()
    f, g = sections
    d = s.bracket(f, g) + s.bracket(g, f) - s.derived_operator(s.pairing(f, g))
    return d.coeffs.to_strings(), d.is_zero()


class TestPackedKeyOverflow:
    def test_high_degree_anchor_does_not_alias(self):
        # With 8-bit exponent fields, x1^256 carried into the first tag
        # variable's field, and witness decoding read a frame index of 2.
        bundle = TrivialBundle(1, 2, "E")
        x = parse("x1^256", ["x1"])
        s = CourantStructure(bundle, [[x, x]], [[0, 1], [1, 0]])
        report = check_axioms(s, degree_cap=1, n_random=0)
        failed = [name for name, check in report.checks.items() if not check.passed]
        assert failed
        for name in failed:
            witness = report.checks[name].witness
            sections = [Section.from_exprs(bundle, texts) for texts in witness["sections"]]
            defect, is_zero = _plain_defect(s, name, sections)
            assert not is_zero
            assert defect == witness["defect"]

    def test_passing_anchor_near_half_the_limit_certifies(self):
        # A = [x1^(MAX/2 + 1), 0]: A G^-1 A^T = 0 and the homomorphism holds,
        # so no bracket of degree-1 sections, where the square of the anchor
        # passes the limit, is formed
        bundle = TrivialBundle(1, 2, "E")
        x = Polynomial.monomial(1, (MAX_EXPONENT // 2 + 1,))
        s = CourantStructure(bundle, [[x, Polynomial(1)]], [[0, 1], [1, 0]])
        assert check_axioms(s, degree_cap=1, n_random=0).all_passed

    def test_sweep_beyond_the_exponent_limit_raises(self):
        bundle = TrivialBundle(1, 2, "E")
        x = Polynomial.monomial(1, (MAX_EXPONENT // 2 + 1,))
        s = CourantStructure(bundle, [[x, x]], [[0, 1], [1, 0]])
        with pytest.raises(ExponentOverflowError):
            check_axioms(s, degree_cap=1, n_random=0)


class TestTaggedSweepInternals:
    def test_tagged_bracket_matches_per_tuple_brackets(self):
        # the tagged bracket agrees with the per-tuple brackets, tag by tag
        s = standard_structure(1)
        lifted = lift_structure(s, 2)
        fa = tagged_generating_section(s.bundle, 1, 2, 1)
        fb = tagged_generating_section(s.bundle, 1, 2, 2)
        tagged = lifted.bracket(fa, fb)
        from courantlab.courant_core import decode_tag, monomial_frame_basis
        basis = monomial_frame_basis(s.bundle, 1)
        for b1 in range(len(basis)):
            for b2 in range(len(basis)):
                f = decode_tag(s.bundle, 1, b1)
                g = decode_tag(s.bundle, 1, b2)
                expected = s.bracket(f, g)
                # extract the (b1, b2) tag slice of the tagged bracket
                for comp in range(s.bundle.rank):
                    slice_terms = {
                        exps[:1]: coeff
                        for exps, coeff in tagged[comp].terms.items()
                        if exps[1] == b1 and exps[2] == b2
                    }
                    assert slice_terms == expected[comp].terms


class TestOperationOutputs:
    @pytest.mark.parametrize("lam", [Fraction(-2, 5), Fraction(1, 2), 3])
    def test_integral_coefficients_are_ints(self, lam):
        # G^-1 = G / lam^2 here, so D(<F, F'>) multiplies lam by 1 / lam:
        # an accumulation left unnormalised stores Fraction(1, 1)
        s = scaled_structure(standard_structure(2), lam)
        lifted = lift_structure(s, 2)
        f = tagged_generating_section(s.bundle, 1, 2, 2)
        g = tagged_generating_section(s.bundle, 1, 2, 3)
        pairing = lifted.pairing(f, g)
        outputs = [*lifted.bracket(f, g), pairing, lifted.anchor_apply(f, pairing),
                   *lifted.derived_operator(pairing)]
        stored = [c for p in outputs for c in p._packed.values()]
        assert any(type(c) is int for c in stored)
        assert all(type(c) is int or c.denominator != 1 for c in stored)

    def test_check_axioms_inverts_the_metric_once(self, monkeypatch):
        # the lifted structure of the sweep reuses the base's G^-1, also when a
        # failing axiom re-expands its witness on the base
        calls = []
        inverse = linalg.inverse
        monkeypatch.setattr(linalg, "inverse", lambda m: calls.append(1) or inverse(m))
        s = scaled_structure(standard_structure(2), Fraction(-2, 5))
        assert check_axioms(s, degree_cap=1).all_passed
        assert len(calls) == 1
        bad = CourantStructure(s.bundle, s.anchor, s.metric,
                               {(0, 1, 0): Polynomial.constant(2, 1)})
        assert not check_axioms(bad, degree_cap=1).all_passed
        assert len(calls) == 2


class TestCertificateCost:
    """How much bracketing `check_axioms` does, counted by wrapping the
    packed bracket: a pass at cap >= 1 brackets the cap-0 family only, and
    a structure that fails a frame identity runs the degree-1 sweep only."""

    @staticmethod
    def recorded(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or original(*args))
        return calls, original

    def test_passing_structure_makes_no_degree_1_bracket(self, monkeypatch):
        s = scaled_structure(standard_structure(3), Fraction(-2, 5))
        calls, _ = self.recorded(monkeypatch, CourantStructure, "_bracket")
        assert check_axioms(s, degree_cap=3, n_random=0).all_passed
        # every bracketed component is free of x1..x3: no tuple of degree 1
        keys = [key for _, f, g in calls for comp in (*f, *g) for key in comp]
        assert keys and not any(any(_unpack(key, 3)) for key in keys)

    def test_failing_identity_runs_the_degree_1_sweep_only(self, monkeypatch):
        base = scaled_structure(standard_structure(2), 3)
        s = CourantStructure(base.bundle, base.anchor, base.metric,
                             {(0, 1, 3): Fraction(3, 2)})
        brackets, _ = self.recorded(monkeypatch, CourantStructure, "_bracket")
        sweeps, sweep = self.recorded(monkeypatch, courant_core, "_sweep_axioms")
        assert not check_axioms(s, degree_cap=3, n_random=0).all_passed
        assert [cap for _, cap in sweeps] == [1]
        made = len(brackets)
        brackets.clear()
        sweep(s, 1)
        assert made == len(brackets)


class TestCheckLeibniz:
    def test_constant_scalar_degenerates_to_bilinearity(self):
        s = standard_structure(1)
        f = Section.from_exprs(s.bundle, ["x1", "1"])
        g = Section.from_exprs(s.bundle, ["x1^2", "x1"])
        lam = Polynomial.constant(1, 3)
        lhs = s.bracket(f, lam * g)
        rhs = lam * s.bracket(f, g) + s.anchor_apply(f, lam) * g
        assert lhs == rhs == 3 * s.bracket(f, g)

    def test_standard_rules_pass_and_variant_falsified(self):
        report = check_leibniz(standard_structure(2), n_samples=40)
        assert report.second_slot.passed
        assert report.two_sided.passed
        assert report.variant_falsified
        witness = report.variant_witness
        # re-verify the stored witness: the final-slot variant really breaks
        s = standard_structure(2)
        names = ["x1", "x2"]
        f = Section.from_exprs(s.bundle, witness["f"])
        g = Section.from_exprs(s.bundle, witness["g"])
        lam = parse(witness["lam"], names)
        mu = parse(witness["mu"], names)
        variant_rhs = (
            (lam * mu) * s.bracket(f, g)
            + lam * s.anchor_apply(f, mu) * g
            - (mu * s.anchor_apply(g, lam)) * g
            + (s.pairing(f, g) * mu) * s.derived_operator(lam)
        )
        assert s.bracket(lam * f, mu * g) != variant_rhs
        # while the corrected two-sided rule holds on the same data
        corrected_rhs = (
            (lam * mu) * s.bracket(f, g)
            + lam * s.anchor_apply(f, mu) * g
            - (mu * s.anchor_apply(g, lam)) * f
            + (s.pairing(f, g) * mu) * s.derived_operator(lam)
        )
        assert s.bracket(lam * f, mu * g) == corrected_rhs

    def test_anchorless_structure_cannot_falsify(self):
        report = check_leibniz(so3_structure(), n_samples=10)
        assert report.all_passed and not report.variant_falsified


class TestProductStructure:
    def test_flip_product_passes_axioms(self):
        s = standard_structure(1)
        flipped = product_structure(s, s, flip=True)
        assert flipped.bundle.rank == 4 and flipped.bundle.base_dim == 2
        assert flipped.metric[2][3] == -1
        assert check_axioms(flipped, n_random=20).all_passed

    def test_rank_zero_factor(self):
        s = standard_structure(1)
        trivial = CourantStructure(TrivialBundle(0, 0, "pt"), [], [])
        prod = product_structure(s, trivial)
        assert prod.bundle.rank == s.bundle.rank
        assert prod.metric == s.metric

    def test_factor_sections_bracket_as_in_factor(self):
        rng = random.Random(41)
        s1 = standard_structure(1)
        s2 = so3_structure()
        prod = product_structure(s1, s2)
        for _ in range(10):
            f1 = random_section(rng, s1.bundle, 2)
            g1 = random_section(rng, s1.bundle, 2)
            lift = lambda sec: Section(
                prod.bundle,
                PolyMap(1, [p.lift(1, 0) for p in sec.coeffs]
                        + [Polynomial(1)] * 3),
            )
            expected = s1.bracket(f1, g1)
            got = prod.bracket(lift(f1), lift(g1))
            assert list(got)[:2] == [p.lift(1, 0) for p in expected.coeffs]
            assert all(p.is_zero() for p in list(got)[2:])


class TestDiracCheck:
    def test_skew_graph_accepted(self):
        s = standard_structure(3)
        skew = [[0, 1, 2], [-1, 0, -1], [-2, 1, 0]]
        assert dirac_check(s, LinearSubspace.graph_of_matrix(skew))

    def test_symmetric_graph_rejected(self):
        s = standard_structure(2)
        assert not dirac_check(s, LinearSubspace.graph_of_matrix([[1, 0], [0, 1]]))

    def test_zero_subspace_not_maximal(self):
        s = standard_structure(1)
        assert not dirac_check(s, LinearSubspace(2, []))

    def test_odd_rank_errors(self):
        with pytest.raises(ValueError, match="odd rank"):
            dirac_check(so3_structure(), LinearSubspace(3, []))


def test_structure_validation():
    bundle = TrivialBundle(1, 2, "E")
    with pytest.raises(ValueError, match="symmetric"):
        CourantStructure(bundle, [[0, 0]], [[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="determinant"):
        CourantStructure(bundle, [[0, 0]], [[1, 0], [0, 0]])
    with pytest.raises(ValueError, match="anchor"):
        CourantStructure(bundle, [[0, 0], [0, 0]], [[0, 1], [1, 0]])
