"""Mutants of the certificate shortcuts, each killed by a named oracle.

Each row of MUTANTS replaces a private function or constant of the package
with a mutated copy kept below, which drops one condition a shortcut rests
on, and names the oracle test of `test_certificate_oracle.py`,
`test_morphisms.py` or `test_pullback.py` that must fail under it.  The
oracle runs in-process on a fixed example, not on a hypothesis search, so
the table is deterministic; without the mutant the same call passes.  A
mutant is killed when the oracle's assertion fails or the certificate's
re-expansion finds an internal inconsistency.
"""

from fractions import Fraction

import pytest

from courantlab import courant_core, linalg, morphisms, pullback
from courantlab.bundles import BundleMorphism, Section, TrivialBundle
from courantlab.courant_core import CourantStructure, scaled_structure, standard_structure
from courantlab.intrinsic import pontryagin_embedding
from courantlab.polyexpr import _BITS, Polynomial, _unpack

import test_certificate_oracle as oracles
import test_morphisms
import test_pullback

least_skew_failure = courant_core._least_skew_failure
frame_jacobiator = courant_core._frame_jacobiator
metric_failure = morphisms._metric_failure
perturbed_failure = morphisms._perturbed_failure


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


def frame_jacobiator_without_the_d_term(s, c, lowered):
    """The fifth identity without its term -D(c_ijk)^l."""
    return frame_jacobiator(s, c, {})


def metric_failure_with_d_transposed(s1, s2, phi, general=False):
    """`_metric_failure` reporting the general-base pair of D's entry (j, i)."""
    failure = metric_failure(s1, s2, phi, general)
    if general and failure is not None:
        failure.witness["f1"], failure.witness["f2"] = failure.witness["f2"], failure.witness["f1"]
    return failure


def tensorial_without_the_d_identity(s1, s2, phi, a2, a2p, general=False):
    """The tensorial gate on the projected anchor Q P = A1 alone."""
    projected = a2p
    if general:
        projected = linalg.pmat_mul(phi.retraction_jacobian, a2p, s1.bundle.rank,
                                    s1.bundle.base_dim)
    return projected == s1.anchor


def perturbed_failure_on_image_fibers(phi, a2):
    """Strict checking on N A2(phi0) P, the anchor on image fibers only."""
    return perturbed_failure(phi, linalg.pmat_mul(a2, phi.fiber_matrix, phi.source.rank,
                                                  phi.source.base_dim))


def tangency_defect_on_whole_fibers(p):
    """Hypothesis (a) read as N A(phi0), the anchor on whole fibers."""
    phi = p.morphism
    return linalg.pmat_mul(phi.image_complement, phi.anchor_along_image(p.ambient.anchor)[0])


def tagged_bracket_keyed_without_the_structure(s2, phi, cap, general=False):
    """`tagged_bracket` kept on the cap and the base mode alone."""
    return phi.kept_bracket((cap, general),
                            lambda: morphisms._target_side(s2, phi, cap, general))


def tagged_bracket_keyed_without_the_cap(s2, phi, cap, general=False):
    """`tagged_bracket` kept on the target structure and the base mode alone."""
    return phi.kept_bracket((s2, general),
                            lambda: morphisms._target_side(s2, phi, cap, general))


def bumped(base, bump, value=Fraction(3, 2)):
    return CourantStructure(base.bundle, base.anchor, base.metric, {bump: value})


def inner(test):
    """The body of a hypothesis test, callable on a fixed example."""
    return test.hypothesis.inner_test


SCALED1 = scaled_structure(standard_structure(1), Fraction(-2, 5))


def doubled_tangent_row():
    """(s1, s2, phi): Pontryagin(1, 1) with its tangent row doubled, so that
    D = P^T G2 P - G1 = [[0, 1], [1, 0]] is first nonzero at (0, 1)."""
    phi = pontryagin_embedding(1, 1)
    fiber = [list(row) for row in phi.fiber_matrix]
    fiber[0] = [2 * p for p in fiber[0]]
    return (standard_structure(1), standard_structure(2),
            BundleMorphism(phi.source, phi.target, phi.base_map, fiber, phi.retraction))


def hidden_d_identity():
    """(check, s1, s2, phi): a line with G1 = [1] and no anchor included into
    diag(1, 1) with anchor [0 1]; only the D-identity fails, and the bracket
    fails on (x1 e_0, e_0) but on no frame pair."""
    line, plane = TrivialBundle(1, 1, "L"), TrivialBundle(1, 2, "M")
    return (morphisms.check_identity_base, CourantStructure(line, [[0]], [[1]]),
            CourantStructure(plane, [[0, 1]], [[1, 0], [0, 1]]),
            BundleMorphism.constant(line, plane, [[1], [0]]))


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
    "sweep_order_0": (
        [(courant_core, "SWEEP_ORDER", 0), (morphisms, "SWEEP_ORDER", 0)],
        oracles.test_doubling_bracket_passes_at_cap_0_and_fails_at_cap_1,
        (),                                 # [d_x, x d_x] = d_x fails at degree 1 only
    ),
    "metric_witness_from_d_transposed": (
        [(morphisms, "_metric_failure", metric_failure_with_d_transposed)],
        inner(test_morphisms.test_metric_verdict_equals_the_tagged_pairing_sweep),
        (doubled_tangent_row(), 1, 0, 0),   # the least failing pair is (e_0, e_1)
    ),
    "tensorial_gate_without_the_d_identity": (
        [(morphisms, "_tensorial", tensorial_without_the_d_identity)],
        inner(test_morphisms.test_verdict_equals_the_degree_1_sweep),
        (hidden_d_identity(), 1),
    ),
    "fifth_identity_without_the_d_term": (
        [(courant_core, "_frame_jacobiator", frame_jacobiator_without_the_d_term)],
        inner(oracles.test_axiom_witnesses_are_the_least_failing_tuples),
        (bumped(SCALED1, (0, 1, 1), Polynomial.variable(1, 0)),),  # D(c_011) = D(x1) != 0
    ),
    "strict_check_on_image_fibers": (
        [(morphisms, "_perturbed_failure", perturbed_failure_on_image_fibers)],
        test_morphisms.TestGeneralBase().test_wiggling_representatives_break_bracket_condition,
        (),                                 # Pontryagin(1, 1): N A2(phi0) P = 0 != N A2(phi0)
    ),
    "extension_verdict_on_whole_fibers": (
        [(pullback, "_tangency_defect", tangency_defect_on_whole_fibers)],
        test_pullback.TestWellDefinedness().test_extension_perturbations_stable_for_pontryagin,
        (),                                 # Pontryagin(1, 1): N A(phi0) != 0 = N A(phi0) P
    ),
    "kept_bracket_key_without_the_structure": (
        [(morphisms, "tagged_bracket", tagged_bracket_keyed_without_the_structure)],
        test_morphisms.test_kept_bracket_is_keyed_on_its_target_and_cap,
        (morphisms.check_general_base,),    # standard(1) and a bumped copy at one cap
    ),
    "kept_bracket_key_without_the_cap": (
        [(morphisms, "tagged_bracket", tagged_bracket_keyed_without_the_cap)],
        test_morphisms.test_kept_bracket_is_keyed_on_its_target_and_cap,
        (morphisms.check_general_base,),    # the doubling map sweeps at caps 0 and 1
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
