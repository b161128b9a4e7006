import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from courantlab import courant_core, linalg
from courantlab.bundles import LinearSubspace, Section, TrivialBundle
from courantlab.courant_core import (
    SWEEP_ORDER,
    CourantStructure,
    check_axioms,
    check_leibniz,
    dirac_check,
    dorfman_bracket,
    monomial_frame_basis,
    product_structure,
    scaled_structure,
    standard_structure,
    vf_bracket,
)
from courantlab.polyexpr import (
    MAX_EXPONENT,
    ExponentOverflowError,
    PolyMap,
    Polynomial,
    _add_into,
    _checked,
    _deriv,
    _mul_into,
    _pack,
    _scaled,
    monomials_up_to,
    parse,
)

from conftest import (
    _plain_witness,
    decode_tag,
    fd_partial,
    lift_structure,
    random_section,
    recorded_structure_operations,
    reference_axiom_witness,
    so3_structure,
    tagged_generating_section,
)
from test_bracket_reference import Reference
from test_certificate_oracle import bumped_standards, leibniz_structures, perturbed_frame_data


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
        assert check_axioms(s).all_passed


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
                assert s.bracket(fi, fj).coeffs.outputs == tuple(
                    s.structure_functions.get((i, j, h), Polynomial(0)) for h in range(3))

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
        assert check_axioms(standard_structure(n)).all_passed

    def test_perturbed_structure_function_fails_iii_with_witness(self):
        s = standard_structure(1)
        bad = CourantStructure(
            s.bundle, s.anchor, s.metric, {(0, 1, 0): Polynomial.constant(1, 1)}
        )
        report = check_axioms(bad)
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
        assert check_axioms(so3_structure()).all_passed

    def test_a_failure_no_constant_section_sees_is_reported_at_cap_1(self):
        # anchor [1, 1]: rho o D = A G^-1 A^T = 2, which no constant section
        # sees; the cap-1 certificate is complete and names a witness
        bundle = TrivialBundle(1, 2, "E")
        one = Polynomial.constant(1, 1)
        s = CourantStructure(bundle, [[one, one]], [[0, 1], [1, 0]])
        assert check_axioms(s, degree_cap=0).all_passed
        report = check_axioms(s, degree_cap=1)
        failed = [name for name, check in report.checks.items() if not check.passed]
        assert failed
        for name in failed:
            witness = report.checks[name].witness
            sections = [Section.from_exprs(bundle, texts) for texts in witness["sections"]]
            assert witness == reference_axiom_witness(s, name, sections)

    def test_rank_zero_details_carry_no_suffix(self):
        report = check_axioms(standard_structure(0))
        assert report.all_passed
        for check in report.checks.values():
            assert check.detail == "rank-0 bundle: axioms hold vacuously"

    def test_report_serialization(self):
        report = check_axioms(standard_structure(1))
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
        report = check_axioms(s, degree_cap=1)
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
        assert check_axioms(s, degree_cap=1).all_passed

    def test_sweep_beyond_the_exponent_limit_raises(self):
        bundle = TrivialBundle(1, 2, "E")
        x = Polynomial.monomial(1, (MAX_EXPONENT // 2 + 1,))
        s = CourantStructure(bundle, [[x, x]], [[0, 1], [1, 0]])
        with pytest.raises(ExponentOverflowError):
            check_axioms(s, degree_cap=1)

    @staticmethod
    def near_the_limit():
        """Rank 2 over R^1 with A = [x1^(MAX - 1), x1]."""
        high = Polynomial.monomial(1, (MAX_EXPONENT - 1,))
        return CourantStructure(TrivialBundle(1, 2, "E"), [[high, Polynomial.variable(1, 0)]],
                                [[0, -1], [-1, 1]])

    def test_witness_near_the_limit_equals_its_plain_defect(self):
        # the defect of (i) on (e_0, e_1, x1 e_0), read from the slot tables,
        # is the one sympy's expansion and the plain bracket give: every
        # term of the plain expansion stays within the limit
        s = self.near_the_limit()
        check = check_axioms(s, degree_cap=1).checks["i"]
        assert check.witness["sections"] == [["1", "0"], ["0", "1"], ["x1", "0"]]
        assert check.witness["defect"] == [f"-{MAX_EXPONENT - 2}*x1^{MAX_EXPONENT - 1}", "0"]
        ref = Reference(s)
        f, g, h = (ref.section(Section.from_exprs(s.bundle, texts))
                   for texts in check.witness["sections"])
        nested = zip(ref.bracket(f, ref.bracket(g, h)), ref.bracket(ref.bracket(f, g), h),
                     ref.bracket(g, ref.bracket(f, h)))
        x1 = ref.x[0]
        assert [sympy.expand(a - b - c) for a, b, c in nested] == \
            [-(MAX_EXPONENT - 2) * x1 ** (MAX_EXPONENT - 1), 0]
        plain = _plain_witness(s, "i", [Section.from_exprs(s.bundle, texts)
                                        for texts in check.witness["sections"]])
        assert plain["defect"] == check.witness["defect"]

    def test_plain_expansion_past_the_limit_raises(self):
        # on (e_0, e_0, x1^2 e_0) the inner bracket 2 x1^MAX e_0 is at the
        # limit, and the outer one differentiates it against A_00, past it
        s = self.near_the_limit()
        e0, x1sq = (Section.from_exprs(s.bundle, [text, "0"]) for text in ("1", "x1^2"))
        assert s.bracket(e0, x1sq).coeffs.to_strings() == [f"2*x1^{MAX_EXPONENT}", "0"]
        with pytest.raises(ExponentOverflowError):
            _plain_witness(s, "i", [e0, e0, x1sq])

    @staticmethod
    def walked(anchor_exponent, c_exponent):
        """Hyperbolic rank 4 over R^2 with A_(x1, 2) = x2^a and c_01^2 = x2^c:
        (iii) and (ii) fail on frames, (i) holds on frame triples, and the
        walk of (i) reaches the slot-table entry H(e_0, e_1)^(x1) = x2^(a+c),
        a product of two checked factors, on (e_0, x1 e_0, e_1)."""
        zero = Polynomial(2)
        a, c = (Polynomial.monomial(2, (0, e)) for e in (anchor_exponent, c_exponent))
        metric = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        return CourantStructure(TrivialBundle(2, 4, "E"), [[zero, zero, a, zero], [zero] * 4],
                                metric, {(0, 1, 2): c})

    def test_walk_entry_at_the_limit_is_printed(self):
        s = self.walked(MAX_EXPONENT // 2, MAX_EXPONENT // 2 + 1)
        check = check_axioms(s, degree_cap=1).checks["i"]
        assert check.detail.endswith("from the slot tables of (i)")
        assert check.witness["sections"] == [["1", "0", "0", "0"], ["x1", "0", "0", "0"],
                                             ["0", "1", "0", "0"]]
        assert check.witness["defect"] == [f"x2^{MAX_EXPONENT}", "0", "0", "0"]

    @pytest.mark.parametrize("exponents", [
        (MAX_EXPONENT // 2 + 1, MAX_EXPONENT // 2 + 1),     # x2^(MAX + 1): the guard bit
        (MAX_EXPONENT, MAX_EXPONENT),   # x2^(2 MAX), which a shift by 2 would carry past it
    ], ids=["guard_bit", "carry"])
    def test_walk_entry_beyond_the_limit_raises(self, exponents):
        # every slot-table entry the walk sums is checked before its shift
        with pytest.raises(ExponentOverflowError):
            check_axioms(self.walked(*exponents), degree_cap=1)


class TestTaggedSweepInternals:
    def test_tagged_bracket_matches_per_tuple_brackets(self):
        # the tagged bracket agrees with the per-tuple brackets, tag by tag
        s = standard_structure(1)
        lifted = lift_structure(s, 2)
        fa = tagged_generating_section(s.bundle, 1, 2, 1)
        fb = tagged_generating_section(s.bundle, 1, 2, 2)
        tagged = lifted.bracket(fa, fb)
        from courantlab.courant_core import monomial_frame_basis
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
        # stricter than one inverse per structure: a scaled structure's
        # G^-1 is its base's, scaled, so it reduces nothing; the constructor
        # reduces G once, and no check reduces it again, also when an axiom
        # fails
        calls = []
        reduce = linalg._reduce
        monkeypatch.setattr(linalg, "_reduce",
                            lambda m, cols: calls.append(cols) or reduce(m, cols))
        s = scaled_structure(standard_structure(2), Fraction(-2, 5))
        assert check_axioms(s, degree_cap=1).all_passed
        assert calls == []
        bad = CourantStructure(s.bundle, s.anchor, s.metric,
                               {(0, 1, 0): Polynomial.constant(2, 1)})
        assert not check_axioms(bad, degree_cap=1).all_passed
        assert calls == [4]


class TestCertificateCost:
    """How much work the certificates do, counted by wrapping the packed
    operations and the metric checks: a pass at cap >= 1 is decided from
    the five frame identities with no bracket; a failure and its witness's
    defect are read from the frame tables with no bracket, pairing, anchor
    action or derived operator, also when (i) holds on every frame triple
    at a cap >= 1 and its slot tables decide it; no certificate lifts a
    structure, since the package keeps no lift; and none checks the metric
    again."""

    @staticmethod
    def recorded(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or original(*args))
        return calls, original

    @staticmethod
    def lifts():
        """Every lift a certificate forms: none can be, as the package keeps
        neither the lift nor the tagged families."""
        deleted = {"lift_structure", "_lifted", "tagged_generating_section"}
        assert not deleted & set(vars(courant_core))
        return []

    @pytest.mark.parametrize("s", [scaled_structure(standard_structure(3), Fraction(-2, 5)),
                                   so3_structure()], ids=["standard3_scaled", "so3"])
    @pytest.mark.parametrize("cap", [1, 3])
    def test_passing_structure_makes_no_bracket_and_no_lift(self, monkeypatch, s, cap):
        brackets, _ = self.recorded(monkeypatch, CourantStructure, "_bracket")
        lifts = self.lifts()
        assert check_axioms(s, degree_cap=cap).all_passed
        assert brackets == [] and lifts == []

    @staticmethod
    def bumped(n, lam, bump):
        base = scaled_structure(standard_structure(n), lam)
        return CourantStructure(base.bundle, base.anchor, base.metric, {bump: Fraction(3, 2)})

    def test_failing_structure_makes_no_bracket(self, monkeypatch):
        # (iii) and (ii) fail on frame tuples, and (i) on a frame triple or
        # not, at every cap
        calls = recorded_structure_operations(monkeypatch)
        lifts = self.lifts()
        cases = [(1, Fraction(-2, 5), (0, 1, 0)), (2, 3, (0, 1, 3)), (3, Fraction(-2, 5), (5, 0, 1))]
        for (n, lam, bump), cap in itertools.product(cases, range(4)):
            assert not check_axioms(self.bumped(n, lam, bump), degree_cap=cap).all_passed
        assert calls == [] and lifts == []

    def test_axiom_i_slot_tables_make_no_bracket(self, monkeypatch):
        # (ii) and (iii) fail on frame tuples and (i) holds on every frame
        # triple, so the slot tables of (i) decide it at degree 1 and its
        # witness's defect is the walk's sum; bumped standard(2) and
        # standard(3) at caps 1-3
        calls = recorded_structure_operations(monkeypatch)
        lifts = self.lifts()
        cases = [(2, 3, (0, 1, 3)), (3, Fraction(-2, 5), (0, 5, 1))]
        for (n, lam, bump), cap in itertools.product(cases, [1, 2, 3]):
            report = check_axioms(self.bumped(n, lam, bump), degree_cap=cap)
            assert [name for name, c in report.checks.items() if not c.passed] == \
                ["iii", "i", "ii"]
            assert report.checks["i"].detail.endswith("from the slot tables of (i)")
        assert calls == [] and lifts == []

    def test_leibniz_makes_no_lift(self, monkeypatch):
        lifts = self.lifts()
        assert check_leibniz(self.bumped(3, Fraction(-2, 5), (0, 1, 3))).variant_falsified
        assert not check_leibniz(so3_structure()).variant_falsified
        assert lifts == []

    @pytest.mark.parametrize("structure_functions", [None, {(0, 1, 3): Fraction(3, 2)}])
    def test_checks_never_revalidate_the_metric(self, monkeypatch, structure_functions):
        # the metric's symmetry and det G != 0 were checked when s was built;
        # the lifted structures of the sweeps share that metric unchecked
        base = scaled_structure(standard_structure(3), Fraction(-2, 5))
        s = CourantStructure(base.bundle, base.anchor, base.metric, structure_functions)
        dets, _ = self.recorded(monkeypatch, linalg, "det")
        symmetric, _ = self.recorded(monkeypatch, linalg, "is_symmetric")
        reductions, _ = self.recorded(monkeypatch, linalg, "_reduce")
        passed = check_axioms(s, degree_cap=3).all_passed
        assert passed == (structure_functions is None)
        check_leibniz(s)
        assert dets == [] and symmetric == [] and reductions == []


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
        report = check_leibniz(standard_structure(2))
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
        report = check_leibniz(so3_structure())
        assert report.all_passed and not report.variant_falsified


class TestProductStructure:
    def test_flip_product_passes_axioms(self):
        s = standard_structure(1)
        flipped = product_structure(s, s, flip=True)
        assert flipped.bundle.rank == 4 and flipped.bundle.base_dim == 2
        assert flipped.metric[2][3] == -1
        assert check_axioms(flipped).all_passed

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

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.data(), st.integers(1, 4), st.sampled_from([1, Fraction(-2, 5), 3]))
    def test_a_graph_is_dirac_iff_its_matrix_is_skew(self, data, k, lam):
        # oracle: (v, S v) and (w, S w) pair to lam v^T (S + S^T) w, so the
        # graph of S, of dimension k, is maximally isotropic iff S^T = -S
        entry = st.one_of(st.just(Fraction(0)),
                          st.fractions(min_value=-3, max_value=3, max_denominator=4))
        s = [[data.draw(entry) for _ in range(k)] for _ in range(k)]
        if data.draw(st.booleans()):        # skew, from the strict upper triangle
            s = [[s[i][j] if i < j else -s[j][i] if i > j else Fraction(0)
                  for j in range(k)] for i in range(k)]
        skew = all(s[i][j] == -s[j][i] for i in range(k) for j in range(k))
        structure = scaled_structure(standard_structure(k), lam)
        graph = LinearSubspace.graph_of_matrix(s)
        assert dirac_check(structure, graph) == skew
        # the dense sum over every entry, zeros included
        dense = [[sum((g * x for g, x in zip(row, u)), Fraction(0)) for row in structure.metric]
                 for u in graph.basis]
        isotropic = all(sum((a * b for a, b in zip(gu, v)), Fraction(0)) == 0
                        for gu in dense for v in graph.basis)
        assert (isotropic and graph.dim == k) == skew


def test_structure_validation():
    bundle = TrivialBundle(1, 2, "E")
    with pytest.raises(ValueError, match="symmetric"):
        CourantStructure(bundle, [[0, 0]], [[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="determinant"):
        CourantStructure(bundle, [[0, 0]], [[1, 0], [0, 0]])
    with pytest.raises(ValueError, match="anchor"):
        CourantStructure(bundle, [[0, 0], [0, 0]], [[0, 1], [1, 0]])


# -- the certificates' direct paths against the forms they replaced -------------
#
# `_leibniz_witness` prints its tuple from the frame index and forms its
# defect on packed term dicts, and `_axiom_i_witness` walks only the frame
# pairs its slot table holds.  The forms they replaced, a witness built from
# Sections and a Polynomial product and a walk over every tuple of the table,
# are kept here as the references, and every witness dict must equal theirs.


def reference_leibniz_witness(s):
    """`_leibniz_witness` built from Sections, Polynomials and a Polynomial
    product: the least failing tuple and x^beta A_aj (g - f)."""
    n, a = s.bundle.base_dim, s.rows[2]
    linear = monomials_up_to(n, SWEEP_ORDER)[1:]
    for j, beta in monomial_frame_basis(s.bundle, SWEEP_ORDER)[1:]:
        reached = [x for x in linear if j in a[x.index(1)]]
        if reached:
            break
    else:
        return None
    f, g = Section.frame(s.bundle, 0), Section.frame(s.bundle, j, Polynomial.monomial(n, beta))
    lam, mu = Polynomial.monomial(n, reached[0]), Polynomial.constant(n, 1)
    cross = g[j] * linalg.polynomial(a[reached[0].index(1)][j], n)   # rho(g)(lam), with mu = 1
    return {"f": f.coeffs.to_strings(), "g": g.coeffs.to_strings(),
            "lam": lam.to_string(), "mu": mu.to_string(),
            "defect": ((g - f) * cross).coeffs.to_strings()}


def reference_axiom_i_walk(s, c, lowered, rho_d, anomaly):
    """`_axiom_i_witness` stepping through every tuple of the first nonzero
    slot table in the witness order and skipping those whose frame pair the
    table does not hold."""
    n, k = s.bundle.base_dim, s.bundle.rank
    monos = monomials_up_to(n, SWEEP_ORDER)
    options = [[(None, _pack(alpha))] + ([(alpha.index(1), 0)] if any(alpha) else [])
               for alpha in monos]
    texts = [f"x{alpha.index(1) + 1}" if any(alpha) else "1" for alpha in monos]
    members = [(j, a) for j in range(k) for a in range(len(monos))]
    for i, table in enumerate(courant_core._slot_tables(s, c, lowered, rho_d, anomaly)):
        pairs = {key[:2] for key in table}
        for a1, ((j, a2), (m, a3)) in itertools.product(
                range(len(monos)) if table else (), itertools.product(members, repeat=2)):
            if (j, m) not in pairs:
                continue
            out = {}
            for choice in itertools.product(options[a1], options[a2], options[a3]):
                grads, keys = zip(*choice)
                for h, p in table.get((j, m, *grads), {}).items():
                    _add_into(out.setdefault(h, {}),
                              {key + sum(keys): cf for key, cf in _checked(p, n).items()})
            if any(out.values()):
                return courant_core._witness(
                    s, [courant_core._member(k, frame, texts[a])
                        for frame, a in ((i, a1), (j, a2), (m, a3))],
                    [out.get(h, {}) for h in range(k)], True)
        if table:
            raise RuntimeError("internal inconsistency: a nonzero slot table of (i) fails nowhere")
    return None


@st.composite
def anchored_structures(draw):
    """Frame data over R^1-R^3 of rank 1-4: a zero anchor, or entries drawn
    among zeros, constants, coordinates and polynomials of degree 2, column
    0 zero or not; a scaled hyperbolic or a diagonal metric; and up to two
    structure functions, constant or a coordinate."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    scale = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 5)])
    if k % 2 == 0 and draw(st.booleans()):
        lam = draw(scale)
        metric = [[lam if abs(i - j) == k // 2 else 0 for j in range(k)] for i in range(k)]
    else:
        metric = [[draw(scale) if i == j else 0 for j in range(k)] for i in range(k)]
    names = [f"x{a + 1}" for a in range(n)]
    entries = st.sampled_from(["0", "0", "0", "1", "-3/2", "x1", names[-1], f"2*{names[-1]}^2",
                               f"x1*{names[-1]} - 1"])
    zero = draw(st.integers(0, 4)) == 0
    anchor = [[parse("0" if zero else draw(entries), names) for _ in range(k)] for _ in range(n)]
    if draw(st.booleans()):              # column 0 zero: g = e_j with j > 0
        for row in anchor:
            row[0] = Polynomial(n)
    values = st.sampled_from([Fraction(3, 2), Fraction(-1), *(
        Polynomial.variable(n, a) for a in range(n))])
    functions = {draw(st.tuples(*[st.integers(0, k - 1)] * 3)): draw(values)
                 for _ in range(draw(st.integers(0, 2)))}
    return CourantStructure(TrivialBundle(n, k, "E"), anchor, metric, functions)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.one_of(anchored_structures(), leibniz_structures()))
def test_leibniz_witness_equals_the_polynomial_reference(s):
    # bumped and scaled standard(n), where g = x_n e_0, polynomial anchors,
    # anchors with column 0 zero, where g = e_j, and zero anchors
    assert courant_core._leibniz_witness(s) == reference_leibniz_witness(s)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.one_of(bumped_standards(), perturbed_frame_data(), anchored_structures()))
def test_axiom_i_walk_equals_the_all_pairs_reference(s):
    # the walk runs where (i) holds on every frame triple, as in
    # `check_axioms`; elsewhere the fifth identity names the witness
    c, lowered = courant_core._c_tables(s)
    if not any(courant_core._frame_jacobiator(s, c, lowered).values()):
        rho_d, anomaly = courant_core._anchor_tables(s)
        assert courant_core._axiom_i_witness(s, c, lowered, rho_d, anomaly) == \
            reference_axiom_i_walk(s, c, lowered, rho_d, anomaly)


def reference_anchor_tables(s):
    """`_anchor_tables` differentiating every anchor entry of column j along
    the row of every entry of column i, with no gradient index."""
    k = s.bundle.rank
    anchor, negated = s._frame_tables
    rho_d = {}
    for h, row in enumerate(s._dual_rows):
        for b, entry in anchor[h]:
            for a, dual in row:
                _mul_into(rho_d.setdefault((b, a), {}), *courant_core._ordered(entry, dual))
    anomaly = {}
    for i, j in itertools.combinations(range(k), 2):
        for first, second in ((anchor[i], anchor[j]), (negated[j], anchor[i])):
            for (a, entry), (b, target) in itertools.product(first, second):
                if d := _deriv(target, a):
                    courant_core._mul_at(anomaly, (j, i), b, entry, d)
                    courant_core._mul_at(anomaly, (i, j), b, _scaled(entry, -1), d)
    for (i, j, h), p in s.structure_functions.items():
        for b, target in anchor[h]:
            courant_core._mul_at(anomaly, (i, j), b, p._packed, target)
    return {key: p for key, p in rho_d.items() if p}, courant_core._pruned(anomaly)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.one_of(anchored_structures(), perturbed_frame_data(), bumped_standards()))
def test_anchor_tables_equal_the_reference_within_their_counted_work(s):
    # the count checked against MAX_TABLE_WORK bounds the products of
    # rho o D and [rho_i, rho_j] formed after it, and (n k)^2 bounds it;
    # the c-term, one product per entry of c and of its anchor column, is
    # not counted: the frame Jacobiator's loop over the same pairs runs first
    work, products = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(courant_core, "_within_work", lambda w, what: work.append(w))
        mp.setattr(courant_core, "_mul_into", lambda *args: (products.append(args),
                                                             _mul_into(*args)))
        tables = courant_core._anchor_tables(s)
    assert tables == reference_anchor_tables(s)
    anchor = s._frame_tables[0]
    c_term = sum(len(anchor[h]) for _, _, h in s.structure_functions)
    assert len(products) - c_term <= work[0] <= (s.bundle.base_dim * s.bundle.rank) ** 2


def test_leibniz_witness_makes_no_polynomial_product(monkeypatch):
    products = []
    monkeypatch.setattr(Polynomial, "__mul__", lambda *args: products.append(args))
    s = scaled_structure(standard_structure(3), Fraction(-2, 5))
    assert check_leibniz(s).variant_witness["g"] == ["x3", "0", "0", "0", "0", "0"]
    assert products == []
