"""Mutants of the certificate shortcuts, each killed by a named oracle.

Each row of MUTANTS replaces a private function of the package with a
mutated copy kept below, which drops one condition a shortcut rests on,
and names the oracle test of `test_certificate_oracle.py` that must fail
under it.  The oracle runs in-process on a fixed example, not on a
hypothesis search, so the table is deterministic; without the mutant the
same call passes.  A mutant is killed when the oracle's assertion fails or
the certificate's re-expansion finds an internal inconsistency.
"""

from fractions import Fraction

import pytest

from courantlab import courant_core, morphisms
from courantlab.bundles import Section
from courantlab.courant_core import CourantStructure, scaled_structure, standard_structure
from courantlab.polyexpr import _BITS, _unpack

import test_certificate_oracle as oracles

least_skew_failure = courant_core._least_skew_failure


def skew_failure_without_i_equals_j(table, mirror, arity):
    """(iii) read only off pairs i != j, as a loop over i < j would."""
    if mirror == (1, 0, 2):
        table = {key: entry for key, entry in table.items() if key[0] != key[1]}
    return least_skew_failure(table, mirror, arity)


def skew_failure_without_the_mirror(table, mirror, arity):
    """(ii) read only off the keys of the table, not their mirrors."""
    if mirror == (1, 0, 2):
        return least_skew_failure(table, mirror, arity)
    return min((key[:arity] for key, entry in table.items()
                if table.get(tuple(key[p] for p in mirror), {})
                != courant_core._scaled(entry, -1)), default=None)


def leibniz_witness_without_g_other_than_f(s):
    """`_leibniz_witness` with g drawn from every member, f among them."""
    n = s.bundle.base_dim
    linear = courant_core.monomials_up_to(n, 1)[1:]
    for j, beta in courant_core.monomial_frame_basis(s.bundle, 1):
        reached = [x for x in linear if not s.anchor[x.index(1)][j].is_zero()]
        if reached:
            break
    else:
        return None
    g = Section.frame(s.bundle, j, courant_core.Polynomial.monomial(n, beta))
    f, lam = Section.frame(s.bundle, 0), courant_core.Polynomial.monomial(n, reached[0])
    mu = courant_core.Polynomial.constant(n, 1)
    if courant_core._variant_defect(s, f, g, lam, mu).is_zero():
        raise RuntimeError("internal inconsistency: the Leibniz certificate flagged a "
                           "tuple whose plain defect vanishes")
    return {"f": f.coeffs.to_strings(), "g": g.coeffs.to_strings(), "lam": lam.to_string(),
            "mu": mu.to_string(), "defect": []}


def least_tuple_without_the_degree(bundle, degree_cap, defect, slots, fixed=()):
    """`_least_failing_tuple` ordering tuples by their tags alone."""
    n = bundle.base_dim
    tuples = [fixed + _unpack(key >> (_BITS * n), slots) for terms in defect for key in terms]
    least = min(tuples, default=None)
    return None if least is None else tuple(
        courant_core.decode_tag(bundle, degree_cap, t) for t in least)


def bumped(base, bump, value=Fraction(3, 2)):
    return CourantStructure(base.bundle, base.anchor, base.metric, {bump: value})


def inner(test):
    """The body of a hypothesis test, callable on a fixed example."""
    return test.hypothesis.inner_test


SCALED1 = scaled_structure(standard_structure(1), Fraction(-2, 5))

MUTANTS = {
    # name: (patches, oracle, fixed example)
    "iii_without_i_equals_j": (
        [(courant_core, "_least_skew_failure", skew_failure_without_i_equals_j)],
        oracles.test_certificate_equals_enumeration,
        (bumped(SCALED1, (1, 1, 0)), 1),    # (iii) fails on (e_1, e_1) only
    ),
    "ii_without_the_mirrored_triple": (
        [(courant_core, "_least_skew_failure", skew_failure_without_the_mirror)],
        inner(oracles.test_axiom_witnesses_are_the_least_failing_tuples),
        (bumped(SCALED1, (0, 1, 1)),),      # c_010 != 0, so (e_0, e_0, e_1) fails
    ),
    "leibniz_without_g_other_than_f": (
        [(courant_core, "_leibniz_witness", leibniz_witness_without_g_other_than_f)],
        inner(oracles.test_leibniz_witness_is_the_least_failing_tuple),
        (standard_structure(1),),           # anchor column 0 is nonzero
    ),
    "decoder_key_without_the_degree": (
        [(courant_core, "_least_failing_tuple", least_tuple_without_the_degree),
         (morphisms, "_least_failing_tuple", least_tuple_without_the_degree)],
        inner(oracles.test_morphism_witness_is_the_least_failing_pair),
        # (e_0, e_0) fails, and so does (e_0, x1 e_0) with the smaller tags
        ((bumped(standard_structure(1), (0, 0, 0), 1), [[0, 1], [0, 1]]),),
    ),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_oracle_passes_without_the_mutant(name):
    _, oracle, example = MUTANTS[name]
    oracle(*example)


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(monkeypatch, name):
    patches, oracle, example = MUTANTS[name]
    for module, attribute, mutant in patches:
        monkeypatch.setattr(module, attribute, mutant)
    with pytest.raises((AssertionError, RuntimeError)) as killed:
        oracle(*example)
    assert killed.type is AssertionError or "internal inconsistency" in str(killed.value)
