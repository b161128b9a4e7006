"""The exact certificates against brute force through the public operations.

`check_axioms` certifies each axiom with one tagged polynomial identity,
computed on a lifted structure; the morphism checks certify the bracket and
metric conditions the same way on lifted structures, and `check_leibniz`
certifies the Leibniz rules with one tagged identity per rule.  These tests recompute
the verdicts the slow way, through `CourantStructure.bracket`, `pairing`,
`anchor_apply` and `derived_operator` on explicit sections: over every tuple
of the monomial frame family up to the degree cap, and over seeded random
draws at or below the cap, which the certificates imply.  The sweep and
these tests share the structure's one bracket; `test_bracket_reference.py`
checks that bracket against an independent sympy expansion.

Every certificate sweeps only the degree-1 family, which is complete
because each defect is of differential order <= 1 in each slot.  For the
axioms that rests on cancellations in the nested brackets of axiom (i);
`test_axiom_defects_are_first_order_in_every_slot` checks the order
directly on random frame data, where no axiom holds.  A passing axiom
report comes from frame identities and the cap-0 sweep instead;
`test_verdicts_equal_the_degree_1_sweep` compares it with the degree-1
sweep on drawn frame data.
"""
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from courantlab.bundles import BundleMorphism, Section, TrivialBundle, related_section
from courantlab import linalg
from courantlab.courant_core import (
    CourantStructure,
    _frame_identities_hold,
    _sweep_axioms,
    check_axioms,
    check_leibniz,
    monomial_frame_basis,
    random_polynomial,
    random_section,
    scaled_structure,
    standard_structure,
)
from courantlab.intrinsic import pontryagin_embedding
from courantlab.morphisms import check_general_base, check_identity_base
from courantlab.polyexpr import Polynomial, monomials_up_to, parse

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
    report = check_axioms(s, degree_cap=cap, n_random=0)
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
    report = check_axioms(s, degree_cap=cap, n_random=0)
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
    assert "complete" in report.second_slot.detail
    w = report.variant_witness
    assert (w["f"], w["g"], w["lam"], w["mu"]) in variant
    defect = leibniz_defects(s, *witness_arguments(s, w))[2]
    assert not defect.is_zero() and defect.coeffs.to_strings() == w["defect"]


def test_leibniz_certificate_finds_a_dropped_derived_term(monkeypatch):
    # without sum_ij G_ij g_j D(f_i) the bracket still satisfies rule 1, since
    # that term is C-infinity-linear in g, but rule 2 loses <f,g> mu D(lam)
    original = CourantStructure.bracket

    def mutated(self, f, g):
        out = original(self, f, g)
        for i, fi in enumerate(f):
            weight = sum((gj * self.metric[i][j] for j, gj in enumerate(g)),
                         Polynomial(self.bundle.base_dim))
            out = out - self.derived_operator(fi) * weight
        return out

    monkeypatch.setattr(CourantStructure, "bracket", mutated)
    report = check_leibniz(STD2)
    assert report.second_slot.passed
    assert not report.two_sided.passed
    w = report.two_sided.witness
    assert not leibniz_defects(STD2, *witness_arguments(STD2, w))[1].is_zero()
    rule1, rule2, _ = leibniz_failures(STD2, 1)
    assert not rule1 and (w["f"], w["g"], w["lam"], w["mu"]) in rule2


def test_leibniz_certificate_without_anchor():
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}
    so3 = CourantStructure(TrivialBundle(0, 3, "so3"), [], linalg.identity(3),
                           {key: Polynomial.constant(0, v) for key, v in eps.items()})
    report = check_leibniz(so3)
    assert report.all_passed
    assert not report.variant_falsified and report.variant_witness is None


def test_leibniz_certificate_at_cap_0_is_bounded():
    # constant lam has rho(g)(lam) = 0, so the variant coincides with rule 2
    report = check_leibniz(STD2, degree_cap=0)
    assert report.all_passed and not report.variant_falsified
    assert "bounded" in report.second_slot.detail
    assert "bounded" in report.two_sided.detail


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
    report = check_axioms(s, degree_cap=2, n_random=0)
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


@settings(max_examples=40, deadline=None, database=None)
@given(perturbed_frame_data(), st.sampled_from((1, 2)))
def test_verdicts_equal_the_degree_1_sweep(s, cap):
    report = check_axioms(s, degree_cap=cap, n_random=0)
    swept = _sweep_axioms(s, 1)
    for name, witness in swept.items():
        assert report.checks[name].passed == (witness is None), name
        assert report.checks[name].witness == witness, name


def fails_only_axiom_i(s, cap=1):
    """The report fails (i) alone, with the degree-1 sweep's witness."""
    report = check_axioms(s, degree_cap=cap, n_random=0)
    failed = [name for name, check in report.checks.items() if not check.passed]
    return failed == ["i"] and report.checks["i"].witness == _sweep_axioms(s, 1)["i"]


def test_structure_failing_only_rho_d_fails_axiom_i():
    # anchor [1, 1] with c = 0: (ii), (iii), the homomorphism and (i) on frame
    # triples hold, but A G^-1 A^T = 2
    one = Polynomial.constant(1, 1)
    s = CourantStructure(TrivialBundle(1, 2, "E"), [[one, one]], [[0, 1], [1, 0]])
    assert not any(_sweep_axioms(s, 0).values())
    assert not _frame_identities_hold(s)
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
    assert not any(_sweep_axioms(s, 0).values())
    assert not _frame_identities_hold(s)
    assert fails_only_axiom_i(s, cap=2)


def test_structure_failing_only_jacobi_on_frame_triples_fails_axiom_i():
    # zero anchor, G = I and the 3-form e012 + e034: the four frame identities
    # hold, but the Jacobi identity of the constant c fails, which only the
    # cap-0 sweep sees
    metric = linalg.identity(5)
    s = CourantStructure(TrivialBundle(1, 5, "E"), [[Polynomial(1)] * 5], metric,
                         raised_form({(0, 1, 2): 1, (0, 3, 4): 1}, metric, 1))
    assert _frame_identities_hold(s)
    assert fails_only_axiom_i(s)
