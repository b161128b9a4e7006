"""The exact certificates against brute force through the public operations.

`check_axioms` certifies each axiom with one tagged polynomial identity,
computed by the packed sweep; the morphism checks certify the bracket and
metric conditions the same way on lifted structures.  These tests recompute
the verdicts the slow way, through `CourantStructure.bracket`, `pairing`,
`anchor_apply` and `derived_operator` on explicit sections: over every tuple
of the monomial frame family up to the degree cap, and over seeded random
draws at or below the cap, which the certificates imply.
"""

import itertools
import random
from fractions import Fraction

import pytest

from courantlab.bundles import BundleMorphism, Section, related_section
from courantlab.courant_core import (
    CourantStructure,
    check_axioms,
    monomial_frame_basis,
    random_section,
    scaled_structure,
    standard_structure,
)
from courantlab.intrinsic import pontryagin_embedding
from courantlab.morphisms import check_general_base, check_identity_base
from courantlab.polyexpr import Polynomial

ARITY = {"i": 3, "ii": 3, "iii": 2}


def axiom_defect_vanishes(s, axiom, sections) -> bool:
    if axiom == "i":
        f, g, h = sections
        d = s.bracket(f, s.bracket(g, h)) - s.bracket(s.bracket(f, g), h) \
            - s.bracket(g, s.bracket(f, h))
    elif axiom == "ii":
        f, g, h = sections
        d = s.anchor_apply(f, s.pairing(g, h)) - s.pairing(s.bracket(f, g), h) \
            - s.pairing(g, s.bracket(f, h))
    else:
        f, g = sections
        d = s.bracket(f, g) + s.bracket(g, f) - s.derived_operator(s.pairing(f, g))
    return d.is_zero()


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
