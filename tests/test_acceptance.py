"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single [criterion N] PASS line once its assertions all
hold (pytest shows the lines with -s or on failure).  Everything symbolic
is compared with zero tolerance; only the simulator criteria carry float
tolerances, and those are the stated ones.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from courantlab import linalg
from courantlab.bundles import (
    BundleMorphism,
    LinearSubspace,
    NonExistenceCertificate,
    Section,
    TrivialBundle,
    related_section,
)
from courantlab.courant_core import (
    CourantStructure,
    check_axioms,
    check_leibniz,
    dirac_check,
    dorfman_bracket,
    random_section,
    scaled_structure,
    standard_structure,
)
from courantlab.intrinsic import (
    build_intrinsic,
    pontryagin_embedding,
    splitting_composite,
    uniqueness_check,
)
from courantlab.morphisms import check_general_base, check_identity_base
from courantlab.phsim import (
    InputSignal,
    PHSystem,
    dirac_structure_of,
    energy_balance,
    project_behavior,
    simulate_interaction,
    simulate_ph,
    simulate_poisson,
)
from courantlab.polyexpr import Polynomial, PolyMap, parse
from courantlab.pullback import (
    PullbackProblem,
    check_hypotheses,
    construct,
    extension_perturbation_test,
    rejection_condition,
    uniqueness_test,
    well_definedness_test,
)

SCENE = Path(__file__).resolve().parent.parent / "demos" / "scenes" / "oscillator.json"


def report(n, message):
    print(f"[criterion {n:2d}] PASS: {message}")


def oscillator():
    return PHSystem(
        [[0, 1], [-1, 0]], [[1], [0]],
        parse("1/2*x1^2 + 1/2*x2^2", ["x1", "x2"]), "oscillator",
    )


def test_criterion_01_axiom_certification():
    started = time.perf_counter()
    for n in (1, 2, 3):
        result = check_axioms(standard_structure(n), degree_cap=3,
                              n_random=100, seed=0)
        assert result.all_passed, f"standard({n}) failed an axiom"
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0, f"axiom certification took {elapsed:.1f}s"
    report(1, f"standard(1..3) certified at degree cap 3 in {elapsed:.1f}s: complete "
              f"for all smooth sections, every defect being first order in each "
              f"slot (zero tolerance)")


def test_criterion_02_bracket_oracle_equivalence():
    started = time.perf_counter()
    for n in (1, 2, 3):
        rng = random.Random(n)
        s = standard_structure(n)
        for _ in range(100):
            f = random_section(rng, s.bundle, 3)
            g = random_section(rng, s.bundle, 3)
            assert s.bracket(f, g) == dorfman_bracket(f, g)
    elapsed = time.perf_counter() - started
    assert elapsed <= 30.0
    report(2, f"Leibniz-expansion bracket equals the Cartan oracle on 3x100 "
              f"random pairs in {elapsed:.1f}s (exact)")


def test_criterion_03_scaled_structures():
    for lam in (Fraction(2), Fraction(-1), Fraction(1, 3)):
        for n in (1, 2):
            s = scaled_structure(standard_structure(n), lam)
            assert check_axioms(s, degree_cap=3, n_random=50, seed=0).all_passed
        s3 = scaled_structure(standard_structure(3), lam)
        for cap in (2, 3):
            certified = check_axioms(s3, degree_cap=cap, n_random=50, seed=0)
            assert certified.all_passed
    report(3, "scaled metrics (2, -1, 1/3) certified for n<=3 at cap 3, n=3 also "
              "at cap 2: complete for all smooth sections (exact)")


def test_criterion_04_leibniz_ledger():
    result = check_leibniz(standard_structure(2), n_samples=100, seed=0)
    assert result.second_slot.passed
    assert result.two_sided.passed
    assert result.variant_falsified and result.variant_witness is not None
    # the stored witness refutes the final-slot variant on re-expansion
    s = standard_structure(2)
    w = result.variant_witness
    f = Section.from_exprs(s.bundle, w["f"])
    g = Section.from_exprs(s.bundle, w["g"])
    lam, mu = parse(w["lam"], ["x1", "x2"]), parse(w["mu"], ["x1", "x2"])
    variant = (
        (lam * mu) * s.bracket(f, g)
        + lam * s.anchor_apply(f, mu) * g
        - (mu * s.anchor_apply(g, lam)) * g
        + (s.pairing(f, g) * mu) * s.derived_operator(lam)
    )
    assert s.bracket(lam * f, mu * g) != variant
    report(4, "both Leibniz rules certified by one tagged identity each, complete "
              "at cap 1; final-slot variant falsified with the decoded witness")


def test_criterion_05_identity_base_criterion():
    s1 = standard_structure(1)
    assert check_identity_base(s1, s1, BundleMorphism.identity(s1.bundle)).is_morphism
    scaling = check_identity_base(
        s1, scaled_structure(s1, 2), BundleMorphism.identity(s1.bundle)
    )
    assert scaling.failed_conditions() == {"metric"}
    metric_defect = scaling.failures[0].defect
    assert metric_defect == ["0", "1", "1", "0"] and any(d != "0" for d in metric_defect)
    doubling = check_identity_base(
        s1, s1,
        BundleMorphism.constant(s1.bundle, s1.bundle, [[2, 0], [0, Fraction(1, 2)]]),
    )
    assert "anchor" in doubling.failed_conditions()
    assert "metric" not in doubling.failed_conditions()
    anchor_defect = [f for f in doubling.failures if f.condition == "anchor"][0].defect
    assert anchor_defect == ["1", "0"]
    report(5, "identity passes; metric scaling fails exactly the metric "
              "condition with defect G; tangent doubling fails the anchor "
              "condition with defect [1 0]")


def test_criterion_06_cusp_nonexistence():
    source = TrivialBundle(1, 1, "line/R")
    target = TrivialBundle(2, 1, "line/R^2")
    phi = BundleMorphism(
        source, target,
        PolyMap.from_exprs(["x1^2", "x1^3"], ["x1"]),
        [[Polynomial.constant(1, 1)]],
    )
    f = Section.from_exprs(source, ["x1"])
    for cap in range(1, 9):
        certificate = related_section(phi, f, degree_cap=cap)
        assert isinstance(certificate, NonExistenceCertificate)
        assert certificate.verify()
    report(6, "g(x^2, x^3) = x infeasible for every degree cap 1..8; exact "
              "Farkas certificates emitted and re-verified")


def test_criterion_07_pullback_round_trip():
    # zero-section instance (n=1, m=1): the Pontryagin embedding
    phi = pontryagin_embedding(1, 1)
    problem = PullbackProblem(standard_structure(2), phi.source, phi)
    assert check_hypotheses(problem).all_passed
    structure = construct(problem)
    assert check_axioms(structure, n_random=50, seed=0).all_passed
    assert check_general_base(structure, problem.ambient, phi).is_morphism
    assert well_definedness_test(problem, PolyMap.from_exprs(["x1 + x2^2"], ["x1", "x2"]))
    assert well_definedness_test(problem, PolyMap.from_exprs(["x1 + x2"], ["x1", "x2"]))
    assert extension_perturbation_test(problem, n_perturbations=3, seed=0)
    # pullback along the identity
    s = standard_structure(2)
    ident = PullbackProblem(s, s.bundle, BundleMorphism.identity(s.bundle))
    assert check_hypotheses(ident).all_passed
    again = construct(ident)
    assert again == s
    assert check_axioms(again, n_random=20, seed=0).all_passed
    assert check_general_base(again, s, ident.morphism).is_morphism
    assert extension_perturbation_test(ident, n_perturbations=2, seed=0)
    report(7, "zero-section instance and identity pullback: hypotheses, axioms, "
              "morphism verdict, and well-definedness across retractions and "
              ">=2 extension perturbations, all exact")


def test_criterion_08_intrinsic_uniqueness():
    for n, m in ((1, 1), (2, 1)):
        result = build_intrinsic(n, m)
        assert check_axioms(result.structure, n_random=30, seed=0).all_passed
        assert result.chain_verdicts["inclusion"].is_morphism
        assert result.chain_verdicts["pontryagin_embedding"].is_morphism
        assert uniqueness_check(n, m, n_perturbations=5, seed=0)
        # every seeded perturbed candidate is rejected with a named condition
        chi = splitting_composite(n, m)
        problem = PullbackProblem(standard_structure(n + m), chi.source, chi)
        base = result.structure
        rng = random.Random(0)
        from courantlab.intrinsic import _perturbed_candidates
        rejected = 0
        for expected, candidate in _perturbed_candidates(base, 5, rng):
            rejection = rejection_condition(problem, candidate)
            assert rejection is not None, "perturbed candidate was not rejected"
            assert rejection[0] == expected
            rejected += 1
        assert rejected == 5
    report(8, "build_intrinsic(1,1) and (2,1) succeed and pass the axiom "
              "suite; uniqueness holds; 5+5 perturbed candidates rejected "
              "with named conditions (bracket/metric)")


def test_criterion_09_collapse_identity():
    for n in (1, 2, 3):
        assert build_intrinsic(n, 0).structure == standard_structure(n)
    report(9, "build_intrinsic(n, 0) equals standard_structure(n) exactly "
              "for n in {1,2,3}")


def test_criterion_10_behavior_embedding():
    started = time.perf_counter()
    system = oscillator()
    for u in (InputSignal.zero(1), InputSignal.constant([1]),
              InputSignal.from_exprs(["t"])):
        ph = simulate_ph(system, u, [1.0, 0.0], 1.0, 1e-3)
        inter = simulate_interaction(system, u, [1.0, 0.0], [0.0], 1.0, 1e-3)
        projected = project_behavior(inter)
        assert np.array_equal(inter.x, ph.x), "x marginal not bitwise equal"
        deviation = np.abs(projected.outputs - ph.outputs).max()
        assert deviation <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed <= 5.0
    report(10, f"projection matches the open output within 1e-12 and the x "
               f"marginal is bitwise equal, for u in {{0, 1, t}}, in {elapsed:.1f}s")


def test_criterion_11_conservation_passivity():
    system = oscillator()
    closed = simulate_poisson([[0, 1], [-1, 0]], system.hamiltonian,
                              [1.0, 0.0], 2 * math.pi, 1e-3)
    assert closed.energy_drift <= 1e-10
    u = InputSignal.constant([1])
    balance = energy_balance(simulate_ph(system, u, [1.0, 0.0], 1.0, 1e-3), u)
    assert balance.residual <= 1e-8
    inter = simulate_interaction(system, u, [1.0, 0.0], [0.0], 1.0, 1e-3)
    hu = 0.5 * (inter.x[:, 0] ** 2 + inter.x[:, 1] ** 2) + inter.states[:, 2]
    assert np.abs(hu - hu[0]).max() <= 1e-8

    def final_error(h):
        trajectory = simulate_ph(system, InputSignal.zero(1), [1.0, 0.0], 1.0, h)
        exact = np.array([math.cos(1.0), -math.sin(1.0)])
        return np.abs(trajectory.x[-1] - exact).max()

    factor = final_error(2e-3) / final_error(1e-3)
    assert 12 <= factor <= 20
    report(11, f"H drift {closed.energy_drift:.1e} <= 1e-10, balance residual "
               f"{balance.residual:.1e} <= 1e-8, interaction drift <= 1e-8, "
               f"RK4 halving factor {factor:.1f} in [12, 20]")


def test_criterion_12_dirac_check():
    system = oscillator()
    subspace, verdict = dirac_structure_of(system)
    assert verdict and subspace.dim == 3
    symmetric = LinearSubspace.graph_of_matrix([[1, 0, 0], [0, 2, 0], [0, 0, 1]])
    assert not dirac_check(standard_structure(3), symmetric)
    with pytest.raises(ValueError, match="skew"):
        PHSystem([[1, 0], [0, 0]], [[1], [0]],
                 parse("x1^2", ["x1", "x2"]))
    report(12, "interconnection graph accepted as Dirac; symmetric graph "
               "rejected; non-skew J stopped by the constructor")


def test_criterion_13_cli_determinism():
    commands = [
        ["axioms", "--structure", "standard2", "--seed", "0", "--json"],
        ["morphism", "--scene", str(SCENE), "--source", "standard1",
         "--target", "scaled2x", "--map", "metric_scaling_probe",
         "--seed", "0", "--json"],
        ["dirac", "--scene", str(SCENE), "--system", "oscillator", "--json"],
    ]
    for command in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "courantlab.cli", *command],
                capture_output=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1] and runs[0], f"non-deterministic: {command}"
        json.loads(runs[0])  # and it is valid JSON
    report(13, "repeated CLI runs with --seed 0 produce byte-identical JSON "
               "reports across three command families")
