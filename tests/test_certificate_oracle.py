"""The exact certificates against brute force through the public operations.

`check_axioms` decides each axiom from the frame tables, and axiom (i) on
the tuples of degree 1 from the slot tables of the five rules when (i)
holds on every frame triple while another frame identity fails; the
three-axiom tagged sweep it replaced is kept below as its reference, and
the degree-1 sweep of (i) in conftest (`reference_sweep_axiom_i`).  The morphism checks certify the bracket
condition with one tagged identity on lifted structures.  `check_leibniz`
passes the two Leibniz rules by the bracket's expansion and reads the
falsified variant's least failing tuple from the anchor matrix; the
four-slot sweep it replaced is kept below as its reference.  Every
certificate's witness is the least failing tuple in one order, which
`least_failing` restates and brute force checks; its defect, read from the
frame tables, is compared with the plain re-expansion in conftest.  These
tests recompute the verdicts the slow way, through `CourantStructure.bracket`,
`pairing`, `anchor_apply` and `derived_operator` on explicit sections: over
every tuple of the monomial frame family up to the degree cap, and over
seeded random draws at or below the cap, which the certificates imply.  The
sweep and these tests share the structure's one bracket;
`test_bracket_reference.py` checks that bracket against an independent sympy
expansion, which also tells apart a bracket that breaks a Leibniz rule.

Every certificate sweeps only the degree-1 family, which is complete
because each defect is of differential order <= 1 in each slot.  For the
axioms that rests on cancellations in the nested brackets of axiom (i);
`test_axiom_defects_are_first_order_in_every_slot` checks the order
directly on random frame data, where no axiom holds.  The axiom verdicts
come from five frame identities instead;
`test_verdicts_equal_the_degree_1_sweep` and
`test_statuses_equal_the_reference_sweeps` compare them with the tagged
sweeps on drawn frame data, and
`test_frame_jacobi_identity_equals_the_cap_0_sweep_of_axiom_i` compares
the fifth, axiom (i) on frame triples, with the cap-0 sweep.
"""
import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from courantlab.bundles import BundleMorphism, Section, TrivialBundle, related_section
from courantlab import linalg, morphisms
from courantlab.courant_core import (
    AxiomCheck,
    CourantStructure,
    LeibnizReport,
    _anchor_tables,
    _c_tables,
    _frame_jacobiator,
    _least_skew_failure,
    check_axioms,
    check_leibniz,
    monomial_frame_basis,
    scaled_structure,
    standard_structure,
)
from courantlab.intrinsic import pontryagin_embedding
from courantlab.morphisms import check_general_base, check_identity_base
from courantlab.polyexpr import Polynomial, PolyMap, _unpack, monomials_up_to, parse, poly_sum
from conftest import (
    decode_tag,
    lift_structure,
    random_polynomial,
    random_section,
    recorded_structure_operations,
    reference_axiom_witness,
    reference_pair_defect,
    reference_sweep_axiom_i,
    reference_variant_defect,
    so3_structure,
    tagged_generating_section,
)
from test_bracket_reference import Reference, to_sympy
from test_morphisms import graph_embeddings

ARITY = {"i": 3, "ii": 3, "iii": 2}


def axiom_defect(s, axiom, sections):
    if axiom == "i":
        f, g, h = sections
        return s.bracket(f, s.bracket(g, h)) - s.bracket(s.bracket(f, g), h) \
            - s.bracket(g, s.bracket(f, h))
    if axiom == "ii":
        f, g, h = sections
        return s.anchor_apply(f, s.pairing(g, h)) - s.pairing(s.bracket(f, g), h) \
            - s.pairing(g, s.bracket(f, h))
    f, g = sections
    return s.bracket(f, g) + s.bracket(g, f) - s.derived_operator(s.pairing(f, g))


def axiom_defect_vanishes(s, axiom, sections) -> bool:
    return axiom_defect(s, axiom, sections).is_zero()


def monomial_family(bundle, cap):
    n = bundle.base_dim
    return [
        Section.frame(bundle, i, Polynomial.monomial(n, alpha))
        for i, alpha in monomial_frame_basis(bundle, cap)
    ]


def bumped(base, bump):
    return CourantStructure(base.bundle, base.anchor, base.metric, {bump: Fraction(3, 2)})


STD1 = standard_structure(1)
STD2 = standard_structure(2)
SCALED1 = scaled_structure(STD1, Fraction(-2, 5))

ENUMERATED = [
    ("std1_cap2", STD1, 2),
    ("std2_cap0", STD2, 0),
    ("std2_cap1", STD2, 1),
    ("std1_scaled_cap1", SCALED1, 1),
    ("std1_bump010_cap1", bumped(SCALED1, (0, 1, 0)), 1),
    ("std1_bump011_cap1", bumped(SCALED1, (0, 1, 1)), 1),
    ("std1_bump101_cap1", bumped(SCALED1, (1, 0, 1)), 1),
    ("std1_bump110_cap1", bumped(SCALED1, (1, 1, 0)), 1),
    ("std2_bump013_cap0", bumped(STD2, (0, 1, 3)), 0),
]


@pytest.mark.parametrize("s, cap", [case[1:] for case in ENUMERATED],
                         ids=[case[0] for case in ENUMERATED])
def test_certificate_equals_enumeration(s, cap):
    report = check_axioms(s, degree_cap=cap)
    family = monomial_family(s.bundle, cap)
    for axiom, arity in ARITY.items():
        failing = [
            [sec.coeffs.to_strings() for sec in tup]
            for tup in itertools.product(family, repeat=arity)
            if not axiom_defect_vanishes(s, axiom, tup)
        ]
        check = report.checks[axiom]
        assert check.passed == (not failing), axiom
        if failing:
            assert check.witness["sections"] in failing, axiom


RANDOM_DRAWS = [
    ("std1_cap3", STD1, 3, 100),
    ("std2_cap2", STD2, 2, 50),
    ("std3_cap1", standard_structure(3), 1, 20),
    ("std2_scaled_cap1", scaled_structure(STD2, Fraction(1, 3)), 1, 30),
    ("std1_bump011_cap2", bumped(SCALED1, (0, 1, 1)), 2, 30),
]


@pytest.mark.parametrize("s, cap, draws", [case[1:] for case in RANDOM_DRAWS],
                         ids=[case[0] for case in RANDOM_DRAWS])
def test_random_draws_at_the_cap_agree_with_certificate(s, cap, draws):
    # the random phase check_axioms ran after its certificate, through the
    # plain path: a defect may only show on an axiom the certificate failed
    report = check_axioms(s, degree_cap=cap)
    rng = random.Random(0)
    pool = [random_section(rng, s.bundle, cap) for _ in range(draws)]
    failed = set()
    for _ in range(draws):
        f, g, h = (pool[rng.randrange(len(pool))] for _ in range(3))
        for axiom, slots in (("i", (f, g, h)), ("ii", (f, g, h)), ("iii", (f, g))):
            if not axiom_defect_vanishes(s, axiom, slots):
                failed.add(axiom)
    certified_failed = {name for name, c in report.checks.items() if not c.passed}
    assert failed <= certified_failed


def doubling_map(s):
    return BundleMorphism.constant(s.bundle, s.bundle, [[2, 0], [0, Fraction(1, 2)]])


def plain_identity_bracket_vanishes(s1, s2, phi, f, g) -> bool:
    lhs = phi.apply(s1.bracket(f, g))
    rhs = s2.bracket(Section(s2.bundle, phi.apply(f)), Section(s2.bundle, phi.apply(g)))
    return list(lhs) == list(rhs.coeffs)


IDENTITY_BASE = [
    ("identity", STD2, STD2, BundleMorphism.identity(STD2.bundle), set()),
    ("metric_scaling", STD1, scaled_structure(STD1, 2),
     BundleMorphism.identity(STD1.bundle), {"metric"}),
    ("doubling", STD1, STD1, doubling_map(STD1), {"bracket", "anchor"}),
]


@pytest.mark.parametrize("s1, s2, phi, expected", [case[1:] for case in IDENTITY_BASE],
                         ids=[case[0] for case in IDENTITY_BASE])
def test_identity_base_random_pairs_agree_with_verdict(s1, s2, phi, expected):
    verdict = check_identity_base(s1, s2, phi, degree_cap=3)
    assert verdict.failed_conditions() == expected
    rng = random.Random(0)
    found = set()
    for _ in range(20):
        f = random_section(rng, s1.bundle, 3)
        g = random_section(rng, s1.bundle, 3)
        if not plain_identity_bracket_vanishes(s1, s2, phi, f, g):
            found.add("bracket")
    assert found == expected & {"bracket"}


GENERAL_BASE = [
    ("identity", STD1, STD1, BundleMorphism.identity(STD1.bundle), set()),
    ("metric_scaling", STD1, scaled_structure(STD1, 2),
     BundleMorphism.identity(STD1.bundle), {"metric"}),
    ("doubling", STD1, STD1, doubling_map(STD1), {"bracket", "anchor"}),
    ("pontryagin_1_1", STD1, STD2, pontryagin_embedding(1, 1), set()),
]


@pytest.mark.parametrize("s1, s2, phi, expected", [case[1:] for case in GENERAL_BASE],
                         ids=[case[0] for case in GENERAL_BASE])
def test_general_base_random_related_pairs_agree_with_verdict(s1, s2, phi, expected):
    verdict = check_general_base(s1, s2, phi, degree_cap=3)
    assert verdict.failed_conditions() == expected
    rng = random.Random(0)
    found = set()
    for _ in range(10):
        f1 = random_section(rng, s1.bundle, 3)
        f2 = random_section(rng, s1.bundle, 3)
        g1 = related_section(phi, f1)
        g2 = related_section(phi, f2)
        image = phi.apply(s1.bracket(f1, f2))
        pulled = [p.compose(phi.base_map) for p in s2.bracket(g1, g2).coeffs]
        if list(image) != pulled:
            found.add("bracket")
        if s1.pairing(f1, f2) != s2.pairing(g1, g2).compose(phi.base_map):
            found.add("metric")
    assert found == expected & {"bracket", "metric"}


# -- morphism certificates at their differential order --------------------------


def identity_bracket_failures(s1, s2, phi, cap):
    """Failing (f, g) pairs of the identity-base bracket condition."""
    family = monomial_family(s1.bundle, cap)
    return [
        (f.coeffs.to_strings(), g.coeffs.to_strings())
        for f, g in itertools.product(family, repeat=2)
        if not plain_identity_bracket_vanishes(s1, s2, phi, f, g)
    ]


def related_pair_failures(s1, s2, phi, cap):
    """Failing (f1, f2) pairs of the bracket and metric conditions, with
    retraction-generated representatives."""
    family = monomial_family(s1.bundle, cap)
    related = [related_section(phi, f) for f in family]
    failing = {"bracket": [], "metric": []}
    for (f1, g1), (f2, g2) in itertools.product(zip(family, related), repeat=2):
        pair = (f1.coeffs.to_strings(), f2.coeffs.to_strings())
        image = phi.apply(s1.bracket(f1, f2))
        pulled = [p.compose(phi.base_map) for p in s2.bracket(g1, g2).coeffs]
        if list(image) != pulled:
            failing["bracket"].append(pair)
        if s1.pairing(f1, f2) != s2.pairing(g1, g2).compose(phi.base_map):
            failing["metric"].append(pair)
    return failing


def fiber_scaling(s, a):
    n = s.bundle.base_dim
    diag = [a] * n + [1 / Fraction(a)] * n
    return BundleMorphism.constant(
        s.bundle, s.bundle, [[diag[i] if i == j else 0 for j in range(2 * n)]
                             for i in range(2 * n)])


SCALED2 = scaled_structure(STD2, 3)

ORDER_CASES = [
    ("doubling", STD1, STD1, doubling_map(STD1)),
    ("fiber_scaling", SCALED2, SCALED2, fiber_scaling(SCALED2, Fraction(-3, 2))),
    ("lam_differ", SCALED1, scaled_structure(STD1, 3), BundleMorphism.identity(STD1.bundle)),
    ("zero_section", SCALED1, scaled_structure(STD2, Fraction(-2, 5)),
     pontryagin_embedding(1, 1)),
    ("pontryagin_1_1", STD1, STD2, pontryagin_embedding(1, 1)),
]


@pytest.mark.parametrize("s1, s2, phi", [case[1:] for case in ORDER_CASES],
                         ids=[case[0] for case in ORDER_CASES])
def test_default_cap_verdict_equals_cap2_enumeration(s1, s2, phi):
    # the checks sweep at degree 1, the conditions' differential order; the
    # cap-2 family sees every failure a cap-1 sweep must already catch
    failing = related_pair_failures(s1, s2, phi, 2)
    verdict = check_general_base(s1, s2, phi)
    for condition, pairs in failing.items():
        found = [f for f in verdict.failures if f.condition == condition]
        assert bool(found) == bool(pairs), condition
        if found:
            assert (found[0].witness["f1"], found[0].witness["f2"]) in pairs
    if phi.is_identity_base():
        pairs = identity_bracket_failures(s1, s2, phi, 2)
        found = [f for f in check_identity_base(s1, s2, phi).failures
                 if f.condition == "bracket"]
        assert bool(found) == bool(pairs)
        if found:
            assert (found[0].witness["f"], found[0].witness["g"]) in pairs


def test_doubling_bracket_passes_at_cap_0_and_fails_at_cap_1():
    # constant sections bracket to zero on both sides, so cap 0 is a bounded
    # claim; [d_x, x d_x] = d_x is the first failing pair, of degree 1
    phi = doubling_map(STD1)
    assert not identity_bracket_failures(STD1, STD1, phi, 0)
    assert not related_pair_failures(STD1, STD1, phi, 0)["bracket"]
    assert identity_bracket_failures(STD1, STD1, phi, 1)
    for cap, expected in ((0, set()), (1, {"bracket"})):
        for check in (check_identity_base, check_general_base):
            verdict = check(STD1, STD1, phi, degree_cap=cap)
            assert verdict.failed_conditions() & {"bracket"} == expected


# -- the Leibniz certificate ---------------------------------------------------


def leibniz_defects(s, f, g, lam, mu):
    """Rule 1, rule 2 and the final-slot variant, written out term by term."""
    rule1 = s.bracket(f, lam * g) - lam * s.bracket(f, g) - s.anchor_apply(f, lam) * g
    lhs = s.bracket(lam * f, mu * g)
    rest = (lhs - (lam * mu) * s.bracket(f, g) - lam * s.anchor_apply(f, mu) * g
            - (s.pairing(f, g) * mu) * s.derived_operator(lam))
    cross = mu * s.anchor_apply(g, lam)
    return rule1, rest + cross * f, rest + cross * g


def leibniz_failures(s, cap):
    """The failing (f, g, lam, mu) tuples of each identity, as witness strings."""
    n = s.bundle.base_dim
    sections = monomial_family(s.bundle, cap)
    functions = [Polynomial.monomial(n, alpha) for alpha in monomials_up_to(n, cap)]
    failing = ([], [], [])
    for f, g, lam, mu in itertools.product(sections, sections, functions, functions):
        for found, defect in zip(failing, leibniz_defects(s, f, g, lam, mu)):
            if not defect.is_zero():
                found.append((f.coeffs.to_strings(), g.coeffs.to_strings(),
                              lam.to_string(), mu.to_string()))
    return failing


def witness_arguments(s, w):
    names = s.bundle.var_names()
    return (Section.from_exprs(s.bundle, w["f"]), Section.from_exprs(s.bundle, w["g"]),
            parse(w["lam"], names), parse(w["mu"], names))


LEIBNIZ_ENUMERATED = [
    ("std1_scaled", SCALED1),
    ("std2_bump013", bumped(STD2, (0, 1, 3))),
]


@pytest.mark.parametrize("s", [case[1] for case in LEIBNIZ_ENUMERATED],
                         ids=[case[0] for case in LEIBNIZ_ENUMERATED])
def test_leibniz_certificate_equals_enumeration(s):
    report = check_leibniz(s)
    rule1, rule2, variant = leibniz_failures(s, 1)
    assert report.second_slot.passed == (not rule1)
    assert report.two_sided.passed == (not rule2)
    assert report.variant_falsified == bool(variant)
    assert "all smooth sections" in report.second_slot.detail
    w = report.variant_witness
    assert (w["f"], w["g"], w["lam"], w["mu"]) in variant
    defect = leibniz_defects(s, *witness_arguments(s, w))[2]
    assert not defect.is_zero() and defect.coeffs.to_strings() == w["defect"]


def test_leibniz_certificate_finds_a_dropped_derived_term(monkeypatch):
    # without sum_ij G_ij g_j D(f_i) the bracket still satisfies rule 1, since
    # that term is C-infinity-linear in g, but rule 2 loses <f,g> mu D(lam).
    # `check_leibniz` decides both rules by the expansion and so cannot see a
    # wrong implementation of it: the enumeration finds the failing tuples,
    # and the sympy reference bracket tells the mutant apart on them
    original = CourantStructure.bracket

    def mutated(self, f, g):
        out = original(self, f, g)
        for i, fi in enumerate(f):
            weight = sum((gj * self.metric[i][j] for j, gj in enumerate(g)),
                         Polynomial(self.bundle.base_dim))
            out = out - self.derived_operator(fi) * weight
        return out

    monkeypatch.setattr(CourantStructure, "bracket", mutated)
    rule1, rule2, _ = leibniz_failures(STD2, 1)
    assert not rule1 and rule2
    f, g, lam, mu = witness_arguments(STD2, dict(zip(("f", "g", "lam", "mu"), rule2[0])))
    ref = Reference(STD2)
    expected = ref.bracket(ref.section(lam * f), ref.section(mu * g))
    assert any(sympy.expand(to_sympy(p, ref.x) - e) != 0
               for p, e in zip(STD2.bracket(lam * f, mu * g), expected))


def test_leibniz_certificate_without_anchor():
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}
    so3 = CourantStructure(TrivialBundle(0, 3, "so3"), [], linalg.identity(3),
                           {key: Polynomial.constant(0, v) for key, v in eps.items()})
    report = check_leibniz(so3)
    assert report.all_passed
    assert not report.variant_falsified and report.variant_witness is None


def test_leibniz_certificate_at_cap_0_is_bounded():
    # constant lam has rho(g)(lam) = 0, so the variant coincides with rule 2;
    # the variant's claim is bounded, the rules' is not
    report = check_leibniz(STD2, degree_cap=0)
    assert report.all_passed and not report.variant_falsified
    assert report.variant_detail == "degree cap 0, decided at degree 0, scope constant sections only"
    assert report.second_slot.detail == report.two_sided.detail == (
        "holds by the bracket's expansion for all smooth sections at every cap")


# -- the four-slot tagged sweep it replaced, kept as the reference --------------
#
# `check_leibniz` as it was before it decided rules 1 and 2 by the bracket's
# expansion: all three defects are evaluated through the bracket on
# `lift_structure(s, 4)` with four tagged families, and each failing
# identity reports its least failing tuple.  The variant's witness and
# every verdict must be the same; only the rules' detail strings differ.


def reference_leibniz_defects(s, f, g, lam, mu):
    fg = s.bracket(f, g)
    rule1 = s.bracket(f, lam * g) - (lam * fg + s.anchor_apply(f, lam) * g)
    common = (
        (lam * mu) * fg
        + lam * s.anchor_apply(f, mu) * g
        + (s.pairing(f, g) * mu) * s.derived_operator(lam)
    )
    cross = mu * s.anchor_apply(g, lam)
    lhs = s.bracket(lam * f, mu * g)
    return rule1, lhs - (common - cross * f), lhs - (common - cross * g)


def reference_leibniz_witness(s, degree_cap, rule, defect):
    key = min((key for p in defect for key in p._packed), default=None)
    if key is None:
        return None
    n = s.bundle.base_dim
    tags = _unpack(key, n + 4)[n:]
    f, g = (decode_tag(s.bundle, degree_cap, t) for t in tags[:2])
    lam, mu = (decode_tag(TrivialBundle(n, 1), degree_cap, t)[0] for t in tags[2:])
    plain = reference_leibniz_defects(s, f, g, lam, mu)[rule]
    assert not plain.is_zero()
    witness = {"f": f.coeffs.to_strings(), "g": g.coeffs.to_strings(),
               "lam": lam.to_string(), "mu": mu.to_string(),
               "defect": plain.coeffs.to_strings()}
    if rule == 0:
        del witness["mu"]
    return witness


def reference_check_leibniz(s, degree_cap=2):
    cap = min(degree_cap, 1)              # every defect is of order <= 1 in each slot
    n = s.bundle.base_dim
    functions = TrivialBundle(n, 1)
    defects = reference_leibniz_defects(
        lift_structure(s, 4),
        tagged_generating_section(s.bundle, cap, 4, n),
        tagged_generating_section(s.bundle, cap, 4, n + 1),
        tagged_generating_section(functions, cap, 4, n + 2)[0],
        tagged_generating_section(functions, cap, 4, n + 3)[0],
    )
    witnesses = [reference_leibniz_witness(s, cap, rule, d) for rule, d in enumerate(defects)]
    scope = (f"every tuple of monomial frame sections and monomial functions of degree "
             f"<= {cap}, one tagged identity")
    reach = ("complete: order <= 1 in each argument, so all smooth arguments"
             if cap else "bounded: constant coefficients only")
    rules = [
        AxiomCheck(True, f"certified over {scope}; {reach}") if w is None
        else AxiomCheck(False, f"{name} failed on the least failing tuple of {scope}", w)
        for name, w in zip(("second-slot rule", "two-sided rule"), witnesses)
    ]
    return LeibnizReport(*rules, witnesses[2] is not None, witnesses[2], f"at degree {cap}")


def without_rule_details(report):
    out = report.to_json()
    for rule in ("second_slot_rule", "two_sided_rule", "final_slot_variant"):
        out[rule].pop("detail")
    return out


@st.composite
def leibniz_structures(draw):
    """Scaled standard(1-3), bumped or not, or the anchor-free so3."""
    n = draw(st.integers(0, 3))
    if n == 0:
        return so3_structure()
    s = scaled_structure(standard_structure(n), draw(st.sampled_from(
        [Fraction(v, d) for v in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 5)])))
    if draw(st.booleans()):
        s = bumped(s, draw(st.tuples(*[st.integers(0, 2 * n - 1)] * 3)))
    return s


def without_witness(report):
    out = without_rule_details(report)
    del out["final_slot_variant"]["witness"]
    return out


@settings(max_examples=25, deadline=None, database=None)
@given(leibniz_structures(), st.integers(0, 3))
def test_leibniz_report_equals_the_tagged_sweep(s, cap):
    # the sweep's witness was its least packed key; the report's is the least
    # failing tuple in the one witness order, which brute force checks in
    # `test_leibniz_witness_is_the_least_failing_tuple`
    report, reference = check_leibniz(s, degree_cap=cap), reference_check_leibniz(s, cap)
    assert without_witness(report) == without_witness(reference)
    # the rules hold at every cap; the variant is decided at min(cap, 1)
    for rule in ("second_slot", "two_sided"):
        assert getattr(report, rule).detail == (
            "holds by the bracket's expansion for all smooth sections at every cap")
    assert report.variant_detail == (
        f"degree cap {cap}, decided at degree {min(cap, 1)}, scope "
        + ("all smooth sections" if cap else "constant sections only"))


def test_leibniz_makes_no_bracket(monkeypatch):
    # the variant's witness and its defect rho(g)(lam) (g - f) are read from
    # the anchor matrix, with no operation of the structure
    calls = recorded_structure_operations(monkeypatch)
    for n in (1, 2, 3):
        s = scaled_structure(standard_structure(n), Fraction(-2, 5))
        for structure in (s, bumped(s, (0, 1, 2 * n - 1))):
            assert check_leibniz(structure).variant_falsified
    assert calls == []


# -- axiom certificates at differential order 1 ----------------------------------


def random_frame_data(rng, n, rank, anchor_degree=2, c_degree=1):
    """Frame data with polynomial anchor and structure functions and a
    random constant symmetric invertible metric; no axiom need hold.  The
    anchor is never zero.  Half the draws make the lowered structure
    functions totally skew, which (ii) and (iii) need (at rank 2 that
    leaves c = 0)."""
    bundle = TrivialBundle(n, rank, "random")
    pool = [0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 3)]
    while True:
        metric = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                metric[i][j] = metric[j][i] = rng.choice(pool)
        if linalg.det(linalg.mat(metric)) != 0:
            break
    anchor = [[random_polynomial(rng, n, anchor_degree, rng.randint(0, 2))
               for _ in range(rank)] for _ in range(n)]
    if all(p.is_zero() for row in anchor for p in row):
        anchor[0][0] = Polynomial.variable(n, 0) + 1
    lowered = {key: random_polynomial(rng, n, c_degree, rng.randint(0, 2))
               for key in itertools.product(range(rank), repeat=3)}
    if rng.random() < 0.5:
        lowered = {(i, j, l): sum((lowered[perm] * sign for perm, sign in (
            ((i, j, l), 1), ((j, l, i), 1), ((l, i, j), 1),
            ((j, i, l), -1), ((i, l, j), -1), ((l, j, i), -1))), Polynomial(n))
            for i, j, l in lowered}
    inverse = linalg.inverse(linalg.mat(metric))
    c = {(i, j, h): sum((lowered[(i, j, l)] * inverse[l][h] for l in range(rank)),
                        Polynomial(n))
         for i, j, h in itertools.product(range(rank), repeat=3)}
    return CourantStructure(bundle, anchor, metric, c)


def satisfies_first_order_identity(op, bundle) -> bool:
    """Whether op(x_a x_b e_i) = x_a op(x_b e_i) + x_b op(x_a e_i)
    - x_a x_b op(e_i) for every i and a <= b: true for a linear
    differential operator of order <= 1, false for one with a nonzero
    second-order part (order <= 2 here)."""
    n = bundle.base_dim
    x = [Polynomial.variable(n, a) for a in range(n)]
    one = Polynomial.constant(n, 1)
    for i in range(bundle.rank):
        at = {}
        for p in [one] + x:
            at[p] = op(Section.frame(bundle, i, p))
        for a in range(n):
            for b in range(a, n):
                lhs = op(Section.frame(bundle, i, x[a] * x[b]))
                rhs = x[a] * at[x[b]] + x[b] * at[x[a]] - (x[a] * x[b]) * at[one]
                if lhs != rhs:
                    return False
    return True


def slot_operators(s, rng):
    """For each axiom and slot, the defect as an operator on that slot, the
    other slots held at random sections of degree <= 2."""
    for axiom, arity in ARITY.items():
        fixed = [random_section(rng, s.bundle, 2) for _ in range(arity)]
        for slot in range(arity):
            def op(sec, axiom=axiom, slot=slot, fixed=fixed):
                args = list(fixed)
                args[slot] = sec
                return axiom_defect(s, axiom, args)
            yield f"{axiom}/{slot}", op


@pytest.mark.parametrize("seed", range(6))
def test_axiom_defects_are_first_order_in_every_slot(seed):
    # the fact the degree-1 sweep rests on: nesting two brackets in (i)
    # leaves no second-order part, for any frame data with constant G
    rng = random.Random(seed)
    s = random_frame_data(rng, n=1 + seed % 2, rank=2 + seed % 3 // 2)
    for name, op in slot_operators(s, rng):
        assert satisfies_first_order_identity(op, s.bundle), name
    # control: [[f,[[g,h]]]] alone carries f_i g_l rho_i rho_l h, second order in h
    f, g = (random_section(rng, s.bundle, 2) for _ in range(2))

    def control(h):
        return s.bracket(f, s.bracket(g, h))

    assert not satisfies_first_order_identity(control, s.bundle)


@pytest.mark.parametrize("seed", range(8))
def test_cap2_verdicts_equal_cap2_enumeration_on_random_frame_data(seed):
    # the certificate sweeps degree <= 1 only; brute force over every cap-2
    # tuple must agree on each axiom, and the witness must be a failing tuple
    rng = random.Random(100 + seed)
    n = 1 + seed % 2
    s = random_frame_data(rng, n, 2, anchor_degree=1 + seed % 2)
    report = check_axioms(s, degree_cap=2)
    family = monomial_family(s.bundle, 2)
    brackets = {(a, b): s.bracket(f, g) for (a, f), (b, g)
                in itertools.product(enumerate(family), repeat=2)}

    def defect(axiom, idx):
        tup = [family[a] for a in idx]
        if axiom == "iii":
            return axiom_defect(s, axiom, tup)
        (a, f), (b, g), (c, h) = zip(idx, tup)
        if axiom == "i":
            return (s.bracket(f, brackets[b, c]) - s.bracket(brackets[a, b], h)
                    - s.bracket(g, brackets[a, c]))
        return (s.anchor_apply(f, s.pairing(g, h)) - s.pairing(brackets[a, b], h)
                - s.pairing(g, brackets[a, c]))

    names = [sec.coeffs.to_strings() for sec in family]
    for axiom, arity in ARITY.items():
        check = report.checks[axiom]
        fails = any(not defect(axiom, idx).is_zero()
                    for idx in itertools.product(range(len(family)), repeat=arity))
        assert check.passed == (not fails), axiom
        if fails:
            idx = [names.index(sec) for sec in check.witness["sections"]]
            assert not defect(axiom, idx).is_zero(), axiom


# -- passes decided from frame identities ----------------------------------------


SCALES = [1, -1, 2, Fraction(1, 2), Fraction(-2, 5)]


def raised_form(form, metric, n):
    """Structure functions c_ij^h = sum_l c_ijl G^-1_lh of the totally skew
    constant 3-form with the given values on increasing triples."""
    inverse = linalg.inverse(linalg.mat(metric))
    c = {}
    for triple, value in form.items():
        for perm in itertools.permutations(range(3)):
            sign = -1 if perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)) else 1
            i, j, l = (triple[p] for p in perm)
            for h, entry in enumerate(inverse[l]):
                if value and entry:
                    c[(i, j, h)] = c.get((i, j, h), 0) + sign * value * entry
    return {key: Polynomial.constant(n, value) for key, value in c.items()}


@st.composite
def perturbed_frame_data(draw):
    """standard(n) with its metric scaled, or a random constant G with zero
    anchor, perturbed by anchor entries of degree <= 2, structure functions
    of degree <= 1 and a totally skew constant 3-form; n in {1, 2}, rank
    2-4.  On standard(2) an anchor perturbation may come as the skew pair
    A[a][3 - a] = p = -A[1 - a][2 + a], which keeps A G^-1 A^T = 0."""
    n = draw(st.sampled_from((1, 2)))
    scale = st.sampled_from(SCALES)

    def term(degree):
        return Polynomial(n, {draw(st.sampled_from(monomials_up_to(n, degree))): draw(scale)})

    if draw(st.booleans()):
        rank = 2 * n
        lam = draw(scale)
        metric = [[lam if abs(i - j) == n else 0 for j in range(rank)] for i in range(rank)]
        anchor = [[Polynomial.constant(n, int(i == a)) for i in range(rank)] for a in range(n)]
    else:
        rank = draw(st.integers(2, 4))
        metric = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                metric[i][j] = metric[j][i] = draw(st.sampled_from([0, 0, 1, -1, 2]))
        assume(linalg.det(linalg.mat(metric)) != 0)
        anchor = [[Polynomial(n)] * rank for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        p = term(2)
        if rank == 4 and n == 2 and draw(st.booleans()):
            a = draw(st.sampled_from((0, 1)))
            anchor[a][3 - a] = anchor[a][3 - a] + p
            anchor[1 - a][2 + a] = anchor[1 - a][2 + a] - p
        else:
            a, i = draw(st.integers(0, n - 1)), draw(st.integers(0, rank - 1))
            anchor[a][i] = anchor[a][i] + p
    c = {}
    if rank >= 3 and draw(st.booleans()):
        c = raised_form({triple: draw(st.sampled_from([0, 1, -1, 2]))
                         for triple in itertools.combinations(range(rank), 3)}, metric, n)
    for _ in range(draw(st.integers(0, 1))):
        key = tuple(draw(st.integers(0, rank - 1)) for _ in range(3))
        c[key] = c.get(key, Polynomial(n)) + term(1)
    return CourantStructure(TrivialBundle(n, rank, "E"), anchor, metric, c)


@settings(max_examples=200, deadline=None, database=None)
@given(st.one_of(perturbed_frame_data(), leibniz_structures()))
def test_dual_rows_equal_the_polynomial_products(s):
    # the rows of G^-1 A^T, summed on packed dicts, are the sums of
    # Polynomial products they replaced, term for term and in order
    n, k, ginv = s.bundle.base_dim, s.bundle.rank, s.metric_inverse
    reference = [[(a, entry._packed) for a, entry in (
        (a, poly_sum(n, (s.anchor[a][i] * ginv[h][i] for i in range(k) if ginv[h][i])))
        for a in range(n)) if not entry.is_zero()] for h in range(k)]
    assert s._dual_rows == reference
    assert [[list(p.items()) for _, p in row] for row in s._dual_rows] == \
        [[list(p.items()) for _, p in row] for row in reference]


# -- the three-axiom tagged sweep the frame tables replaced, kept as reference ---


def reference_sweep_axioms(s, degree_cap):
    """Which axioms fail, as the tagged sweep `check_axioms` ran before the
    frame tables decided failures: (iii) with both slots tagged, and (i) and
    (ii) with the first slot enumerated over the monomial family of degree
    <= degree_cap and the other two tagged, all on `lift_structure(s, 2)`."""
    n = s.bundle.base_dim
    lifted = lift_structure(s, 2)
    f2, f3 = (tagged_generating_section(s.bundle, degree_cap, 2, n + t) for t in (0, 1))
    failed = {"iii": not axiom_defect_vanishes(lifted, "iii", (f2, f3)), "i": False, "ii": False}
    for member in monomial_family(s.bundle, degree_cap):
        b = Section(lifted.bundle, PolyMap(n + 2, [p.lift(n + 2) for p in member]))
        for axiom in ("i", "ii"):
            failed[axiom] = failed[axiom] or not axiom_defect_vanishes(lifted, axiom, (b, f2, f3))
    return failed


def failed_axioms(report):
    return {name: not check.passed for name, check in report.checks.items()}


def frame_jacobi_holds(s):
    return not any(_frame_jacobiator(s, *_c_tables(s)).values())


def four_frame_identities_hold(s):
    """(iii), (ii), rho o D = 0 and the anchor homomorphism."""
    c, lowered = _c_tables(s)
    return (_least_skew_failure(c, (1, 0, 2), 2) is None
            and _least_skew_failure(lowered, (0, 2, 1), 3) is None
            and not any(_anchor_tables(s)))


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(perturbed_frame_data(), leibniz_structures()), st.integers(0, 3))
def test_statuses_equal_the_reference_sweeps(s, cap):
    assert failed_axioms(check_axioms(s, degree_cap=cap)) == \
        reference_sweep_axioms(s, min(cap, 1))
    assert without_witness(check_leibniz(s, degree_cap=cap)) == \
        without_witness(reference_check_leibniz(s, cap))


@settings(max_examples=40, deadline=None, database=None)
@given(perturbed_frame_data(), st.sampled_from((1, 2)))
def test_verdicts_equal_the_degree_1_sweep(s, cap):
    # every cap >= 1 reports the degree-1 verdicts, with the same witnesses
    report = check_axioms(s, degree_cap=cap)
    assert failed_axioms(report) == reference_sweep_axioms(s, 1)
    at_1 = check_axioms(s, degree_cap=1)
    for name, check in report.checks.items():
        assert check.witness == at_1.checks[name].witness, name


@settings(max_examples=300, deadline=None, database=None)
@given(perturbed_frame_data())
def test_frame_jacobi_identity_equals_the_cap_0_sweep_of_axiom_i(s):
    # the closed form of (i) on frame triples holds for any frame data, also
    # where the four other frame identities fail
    assert frame_jacobi_holds(s) == (not reference_sweep_axioms(s, 0)["i"])


# -- every witness is the least failing tuple in the one order ---------------------


def least_failing(families, fails):
    """The least tuple of family members on which `fails` holds, in the one
    witness order: by the largest coefficient degree of its members, then by
    member index, slot by slot; None if none fails.  `families` lists, per
    slot, (member, degree) pairs in tag order."""
    order = sorted(itertools.product(*(range(len(f)) for f in families)),
                   key=lambda t: (max(families[slot][i][1] for slot, i in enumerate(t)), t))
    for t in order:
        members = [families[slot][i][0] for slot, i in enumerate(t)]
        if fails(members):
            return members
    return None


def section_family(bundle, cap=1):
    return list(zip(monomial_family(bundle, cap),
                    (sum(alpha) for _, alpha in monomial_frame_basis(bundle, cap))))


def function_family(n, cap=1):
    return [(Polynomial.monomial(n, alpha), sum(alpha)) for alpha in monomials_up_to(n, cap)]


def least_axiom_tuple(s, axiom):
    least = least_failing([section_family(s.bundle)] * ARITY[axiom],
                          lambda t: not axiom_defect_vanishes(s, axiom, t))
    return least and [sec.coeffs.to_strings() for sec in least]


@st.composite
def small_structures(draw):
    """Drawn frame data and scaled, bumped standard(1-2) or so3: n * rank <= 8."""
    s = draw(st.one_of(perturbed_frame_data(), leibniz_structures()))
    assume(s.bundle.base_dim * s.bundle.rank <= 8)
    return s


@settings(max_examples=100, deadline=None, database=None)
@given(small_structures())
def test_axiom_witnesses_are_the_least_failing_tuples(s):
    # a passing status is the reference oracle's; a failing one is checked
    # up to its witness, every earlier tuple passing, and its defect and
    # component against the plain re-expansion
    for name, check in check_axioms(s, degree_cap=1).checks.items():
        if not check.passed:
            assert check.witness["sections"] == least_axiom_tuple(s, name), name
            sections = [Section.from_exprs(s.bundle, texts) for texts in check.witness["sections"]]
            assert check.witness == reference_axiom_witness(s, name, sections), name


@settings(max_examples=100, deadline=None, database=None)
@given(small_structures())
def test_leibniz_witness_is_the_least_failing_tuple(s):
    w = check_leibniz(s, degree_cap=1).variant_witness
    if w is not None:
        n = s.bundle.base_dim
        sections, functions = section_family(s.bundle), function_family(n)
        least = least_failing([sections, sections, functions, functions],
                              lambda t: not leibniz_defects(s, *t)[2].is_zero())
        f, g, lam, mu = least
        assert (w["f"], w["g"], w["lam"], w["mu"]) == \
            (f.coeffs.to_strings(), g.coeffs.to_strings(), lam.to_string(), mu.to_string())
        defect = reference_variant_defect(s, f, g, lam, mu)
        assert not defect.is_zero() and w["defect"] == defect.coeffs.to_strings()


@st.composite
def constant_fiber_maps(draw):
    """(s, P): a small structure and a constant fiber map of it to itself."""
    s = draw(small_structures())
    k = s.bundle.rank
    assume(k)
    entries = st.lists(st.sampled_from([0, 0, 1, -1, 2]), min_size=k, max_size=k)
    return s, draw(st.lists(entries, min_size=k, max_size=k))


@settings(max_examples=60, deadline=None, database=None)
@given(constant_fiber_maps())
def test_morphism_witness_is_the_least_failing_pair(case):
    s, matrix = case
    phi = BundleMorphism.constant(s.bundle, s.bundle, matrix)
    bracket = [f for f in check_identity_base(s, s, phi, degree_cap=1).failures
               if f.condition == "bracket"]
    least = least_failing([section_family(s.bundle)] * 2,
                          lambda t: not plain_identity_bracket_vanishes(s, s, phi, *t))
    assert bool(bracket) == (least is not None)
    if bracket:
        assert [bracket[0].witness["f"], bracket[0].witness["g"]] == \
            [sec.coeffs.to_strings() for sec in least]
        assert bracket[0].defect == reference_pair_defect(s, s, phi, "bracket", *least, False)


@settings(max_examples=60, deadline=None, database=None)
@given(graph_embeddings())
def test_general_base_witnesses_are_the_least_failing_pairs(case):
    # the bracket pair, with its retraction representatives, and the metric
    # pair (e_i, e_j) are each the least failing pair, with the defect of
    # the plain re-expansion
    s1, s2, phi = case
    family = section_family(s1.bundle)
    related = {id(f): related_section(phi, f) for f, _ in family}

    def defect(condition, f1, f2):
        g1, g2 = related[id(f1)], related[id(f2)]
        return morphisms._PAIR_DEFECTS[condition](s1, s2, phi, f1, f2, g1, g2)

    for failure in check_general_base(s1, s2, phi, degree_cap=1).failures:
        if failure.condition != "anchor":
            least = least_failing([family] * 2, lambda t: not all(
                p.is_zero() for p in defect(failure.condition, *t)))
            assert [failure.witness["f1"], failure.witness["f2"]] == \
                [sec.coeffs.to_strings() for sec in least]
            assert failure.defect == reference_pair_defect(s1, s2, phi, failure.condition,
                                                           *least, True)


def fails_only_axiom_i(s, cap=1):
    """The report fails (i) alone, with the least failing tuple as witness."""
    report = check_axioms(s, degree_cap=cap)
    failed = [name for name, check in report.checks.items() if not check.passed]
    return failed == ["i"] and report.checks["i"].witness["sections"] == least_axiom_tuple(s, "i")


def test_structure_failing_only_rho_d_fails_axiom_i():
    # anchor [1, 1] with c = 0: (ii), (iii), the homomorphism and (i) on frame
    # triples hold, but A G^-1 A^T = 2
    one = Polynomial.constant(1, 1)
    s = CourantStructure(TrivialBundle(1, 2, "E"), [[one, one]], [[0, 1], [1, 0]])
    assert not any(reference_sweep_axioms(s, 0).values())
    assert not four_frame_identities_hold(s)
    assert fails_only_axiom_i(s)


SCALED2_FRAC = scaled_structure(STD2, Fraction(-2, 5))


def skew_anchor_pair(s):
    # A[0][3] = x1 = -A[1][2]: A G^-1 A^T = (P + P^T) / lam = 0, but
    # [rho_0, rho_3] = [d_1, x1 d_1] = d_1 while c = 0
    x1 = Polynomial.variable(2, 0)
    anchor = [list(row) for row in s.anchor]
    anchor[0][3], anchor[1][2] = x1, -x1
    return CourantStructure(s.bundle, anchor, s.metric)


HOMOMORPHISM_ONLY = [
    ("skew_anchor_pair", skew_anchor_pair(SCALED2_FRAC)),
    # the 3-form e012 gives c_01^0 rho_0 = c_01^0 d_1 while [rho_0, rho_1] = 0
    ("skew_3_form", CourantStructure(SCALED2_FRAC.bundle, SCALED2_FRAC.anchor,
                                     SCALED2_FRAC.metric,
                                     raised_form({(0, 1, 2): 1}, SCALED2_FRAC.metric, 2))),
]


@pytest.mark.parametrize("s", [case[1] for case in HOMOMORPHISM_ONLY],
                         ids=[case[0] for case in HOMOMORPHISM_ONLY])
def test_structure_failing_only_the_homomorphism_fails_axiom_i(s):
    assert not any(reference_sweep_axioms(s, 0).values())
    assert not four_frame_identities_hold(s)
    assert fails_only_axiom_i(s, cap=2)


def test_structure_failing_only_jacobi_on_frame_triples_fails_axiom_i():
    # zero anchor, G = I and the 3-form e012 + e034: the four frame identities
    # hold, but the Jacobi identity of the constant c fails, which only the
    # fifth identity, (i) on frame triples, sees
    metric = linalg.identity(5)
    s = CourantStructure(TrivialBundle(1, 5, "E"), [[Polynomial(1)] * 5], metric,
                         raised_form({(0, 1, 2): 1, (0, 3, 4): 1}, metric, 1))
    assert four_frame_identities_hold(s)
    assert not frame_jacobi_holds(s)
    assert fails_only_axiom_i(s)


# -- axiom (i) on degree-1 tuples from the slot tables ----------------------------
#
# Where (i) holds on every frame triple while another frame identity fails,
# `check_axioms` reads (i) on the tuples of degree 1 from the slot tables of
# the module docstring's five rules; the tagged sweep it ran before is kept
# in conftest as `reference_sweep_axiom_i`.


@st.composite
def bumped_standards(draw):
    """Scaled standard(1-3) with one structure function c_ij^h bumped to a
    constant or a coordinate."""
    n = draw(st.integers(1, 3))
    s = scaled_structure(standard_structure(n), draw(st.sampled_from(SCALES)))
    bump = draw(st.tuples(*[st.integers(0, 2 * n - 1)] * 3))
    value = draw(st.sampled_from([Fraction(3, 2), Fraction(-1), *(
        Polynomial.variable(n, a) for a in range(n))]))
    return bumped(s, bump) if value == Fraction(3, 2) else CourantStructure(
        s.bundle, s.anchor, s.metric, {bump: value})


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(perturbed_frame_data(), bumped_standards()), st.integers(0, 3))
def test_axiom_i_slot_tables_equal_the_tagged_sweep(s, cap):
    # statuses as the reference sweeps give them, and at a cap >= 1 the
    # witness of (i) the tagged degree-1 sweep finds wherever (i) holds on
    # every frame triple; the frame tables' witnesses are unchanged code
    report = check_axioms(s, degree_cap=cap)
    assert failed_axioms(report) == reference_sweep_axioms(s, min(cap, 1))
    check = report.checks["i"]
    if cap and s.bundle.rank and frame_jacobi_holds(s):
        assert check.witness == reference_sweep_axiom_i(s)
        if check.witness is not None:
            assert check.detail.endswith("from the slot tables of (i)")


def jacobiator(s, f, g, h):
    return axiom_defect(s, "i", (f, g, h))


def anchor_anomaly(s, f, g, lam):
    """H(f, g)(lam) = rho([[f,g]])(lam) - [rho(f), rho(g)](lam)."""
    act = s.anchor_apply
    return act(s.bracket(f, g), lam) - act(f, act(g, lam)) + act(g, act(f, lam))


def k_operator(s, f, lam):
    """K_f(lam) = [[f, D(lam)]] - D(rho(f)(lam))."""
    return s.bracket(f, s.derived_operator(lam)) - s.derived_operator(s.anchor_apply(f, lam))


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(0, 10 ** 6))
def test_slot_rules_hold_for_any_frame_data(seed):
    # the five rules of the courant_core docstring, on polynomial frame data
    # where no axiom need hold, degree-1 sections and degree-2 lam, mu;
    # II and III are the (ii) and (iii) defects, expanded through the bracket
    rng = random.Random(seed)
    s = random_frame_data(rng, n=rng.choice((1, 2)), rank=rng.choice((2, 3)))
    f, g, h = (random_section(rng, s.bundle, 1) for _ in range(3))
    lam, mu = (random_polynomial(rng, s.bundle.base_dim, 2) for _ in range(2))
    pair, act, d = s.pairing, s.anchor_apply, s.derived_operator

    def ii(*t):
        return axiom_defect(s, "ii", t)

    def iii(*t):
        return axiom_defect(s, "iii", t)

    j = jacobiator(s, f, g, h)
    assert jacobiator(s, f, g, lam * h) == lam * j - anchor_anomaly(s, f, g, lam) * h
    assert jacobiator(s, f, lam * g, h) == (lam * j + anchor_anomaly(s, f, h, lam) * g
                                            + pair(g, h) * k_operator(s, f, lam)
                                            + ii(f, g, h) * d(lam))
    assert jacobiator(s, lam * f, g, h) == (
        lam * j - anchor_anomaly(s, g, h, lam) * f - pair(f, h) * k_operator(s, g, lam)
        + pair(f, g) * k_operator(s, h, lam) + act(h, lam) * iii(f, g)
        - pair(f, g) * iii(d(lam), h) - (ii(g, h, f) + pair(h, iii(f, g))) * d(lam))
    assert anchor_anomaly(s, f, lam * g, mu) == lam * anchor_anomaly(s, f, g, mu)
    assert anchor_anomaly(s, lam * f, g, mu) == (lam * anchor_anomaly(s, f, g, mu)
                                                 + pair(f, g) * act(d(lam), mu))
    assert k_operator(s, lam * f, mu) == lam * k_operator(s, f, mu) - act(d(mu), lam) * f
