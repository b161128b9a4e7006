"""Morphism verdicts around the bracket condition's tensorial gate, pinned.

The fixture holds, one line per probe, the `to_json()` of the auto-mode
verdict on an arrow at degree caps 0, 1 and 3.  The arrows sit on both
sides of the three matrix identities that make the bracket defect
tensorial (the metric condition, the projected anchor and the D-identity;
see the `morphisms` docstring):

  * the D-identity counterexample: metric and anchor hold, the D-identity
    fails, and the bracket passes at cap 0 but fails at caps 1 and 3 on
    (x1 e_1, e_1) with defect [0, 1];
  * a metric failure on an anchor-free frame, where the other two
    identities hold and the bracket fails at caps 1 and 3 only;
  * projected-anchor failures: the fiber-scaling map over the identity,
    which meets the other two identities, and the scaled zero-section
    embedding;
  * B-field maps that pass, over the identity and along a zero section;
  * bumped targets, where every identity holds and the bracket fails on a
    frame pair;
  * Pontryagin embeddings with an altered fiber matrix.

Regenerate it only when an output change is intended:

    PYTHONPATH=src python tests/test_morphism_gate_golden.py > tests/data/morphism_gate_reports.jsonl
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from courantlab.bundles import BundleMorphism, TrivialBundle, compose_morphisms
from courantlab.courant_core import CourantStructure, scaled_structure, standard_structure
from courantlab.intrinsic import pontryagin_embedding
from courantlab.morphisms import check_general_base, check_identity_base
from courantlab.polyexpr import Polynomial, PolyMap, parse

FIXTURE = Path(__file__).resolve().parent / "data" / "morphism_gate_reports.jsonl"


def _poly(n, text):
    return parse(text, [f"x{i + 1}" for i in range(n)])


def d_identity_counterexample():
    line, plane = TrivialBundle(1, 1, "L"), TrivialBundle(1, 2, "M")
    s1 = CourantStructure(line, [[0]], [[1]])
    s2 = CourantStructure(plane, [[0, 1]], [[1, 0], [0, -1]])
    return s1, s2, BundleMorphism.constant(line, plane, [[1], [0]])


def metric_on_anchor_free_block():
    """The identity of a rank-3 bundle on R^1 whose third frame is anchor
    free, into the same frame data with that frame's square doubled."""
    bundle = TrivialBundle(1, 3, "F")
    hyperbolic = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    s1 = CourantStructure(bundle, [[1, 0, 0]], hyperbolic)
    s2 = CourantStructure(bundle, [[1, 0, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, 2]])
    return s1, s2, BundleMorphism.identity(bundle)


def fiber_scaling(n, lam, a):
    s = scaled_structure(standard_structure(n), lam)
    diag = [a] * n + [1 / Fraction(a)] * n
    matrix = [[diag[i] if i == j else 0 for j in range(2 * n)] for i in range(2 * n)]
    return s, s, BundleMorphism.constant(s.bundle, s.bundle, matrix)


def b_field(n, lam, entries):
    """e^B on lam * standard(n): (v, p) -> (v, p + B v), B antisymmetric
    with B[i][j] = entries[(i, j)] for i < j."""
    s = scaled_structure(standard_structure(n), lam)
    fiber = [[Polynomial.constant(n, int(i == j)) for j in range(2 * n)] for i in range(2 * n)]
    for (i, j), text in entries.items():
        fiber[n + i][j] = _poly(n, text)
        fiber[n + j][i] = -_poly(n, text)
    return s, s, BundleMorphism(s.bundle, s.bundle, PolyMap.identity(n), fiber,
                                PolyMap.identity(n))


def zero_section(n, lam1=1, lam2=1, a=1, b=1):
    """lam1 * standard(n) into lam2 * standard(n + 1) over x -> (x, 0),
    tangent fibers scaled by a and cotangent by b."""
    s1 = scaled_structure(standard_structure(n), lam1)
    s2 = scaled_structure(standard_structure(n + 1), lam2)
    matrix = [[0] * (2 * n) for _ in range(2 * n + 2)]
    for i in range(n):
        matrix[i][i] = a
        matrix[n + 1 + i][n + i] = b
    base = PolyMap(n, [Polynomial.variable(n, i) for i in range(n)] + [Polynomial(n)])
    retraction = PolyMap(n + 1, [Polynomial.variable(n + 1, i) for i in range(n)])
    return s1, s2, BundleMorphism.constant(s1.bundle, s2.bundle, matrix, base, retraction)


def zero_section_after_b_field():
    s1, _, b = b_field(2, -2, {(0, 1): "x1 - 3*x2^2"})
    _, s2, embed = zero_section(2, -2, -2)
    return s1, s2, compose_morphisms(embed, b)


def bumped(s, key, value):
    c = dict(s.structure_functions)
    c[key] = c.get(key, Polynomial(s.bundle.base_dim)) + _poly(s.bundle.base_dim, value)
    return CourantStructure(s.bundle, s.anchor, s.metric, c)


def bumped_identity():
    s = standard_structure(2)
    return s, bumped(s, (1, 2, 3), "1"), BundleMorphism.identity(s.bundle)


def altered_pontryagin(n, m, changes, target=None):
    """The Pontryagin embedding of standard(n) into standard(n + m) with
    fiber entries replaced: changes maps (row, column) to an expression."""
    phi = pontryagin_embedding(n, m)
    fiber = [list(row) for row in phi.fiber_matrix]
    for (r, c), text in changes.items():
        fiber[r][c] = _poly(n, text)
    altered = BundleMorphism(phi.source, phi.target, phi.base_map, fiber, phi.retraction)
    return standard_structure(n), target or standard_structure(n + m), altered


# (name, identity base?, arrow)
ARROWS = [
    ("d_identity_counterexample", True, d_identity_counterexample()),
    ("metric_on_anchor_free_block", True, metric_on_anchor_free_block()),
    ("fiber_scaling_n2", True, fiber_scaling(2, 3, 2)),
    ("fiber_scaling_n1_frac", True, fiber_scaling(1, -1, Fraction(-1, 3))),
    ("zero_section_scaled_tangent", False, zero_section(1, 2, 2, a=2, b=Fraction(1, 2))),
    ("b_field_constant", True, b_field(2, -2, {(0, 1): "3"})),
    ("b_field_closed", True, b_field(2, 1, {(0, 1): "x1 + x2^2"})),
    ("b_field_open", True, b_field(3, 1, {(0, 1): "x3"})),
    ("zero_section_after_b_field", False, zero_section_after_b_field()),
    ("bumped_identity", True, bumped_identity()),
    ("pontryagin", False, altered_pontryagin(2, 1, {})),
    ("pontryagin_bumped_target", False,
     altered_pontryagin(1, 1, {}, bumped(standard_structure(2), (0, 2, 0), "x1"))),
    ("pontryagin_vertical_tangent", False, altered_pontryagin(1, 1, {(1, 0): "x1"})),
    ("pontryagin_vertical_cotangent", False, altered_pontryagin(1, 1, {(3, 0): "x1"})),
    ("pontryagin_constant_vertical", False, altered_pontryagin(2, 1, {(5, 1): "2"})),
    ("pontryagin_cotangent_scaled", False, altered_pontryagin(2, 1, {(3, 2): "2"})),
    ("pontryagin_sheared", False, altered_pontryagin(1, 1, {(2, 1): "x1^2"})),
]
PROBES = [(name, cap) for name, _, _ in ARROWS for cap in (0, 1, 3)]


def probe_line(index: int) -> str:
    name, identity, arrow = ARROWS[index // 3]
    cap = PROBES[index][1]
    check = check_identity_base if identity else check_general_base
    verdict = check(*arrow, degree_cap=cap)
    return json.dumps({"probe": f"{name}_cap{cap}", "verdict": verdict.to_json()},
                      sort_keys=True)


EXPECTED = FIXTURE.read_text().splitlines() if FIXTURE.exists() else []


def test_fixture_covers_every_probe():
    assert [json.loads(line)["probe"] for line in EXPECTED] == \
        [f"{name}_cap{cap}" for name, cap in PROBES]


def test_d_identity_counterexample_is_pinned():
    # passes at cap 0; fails the bracket at caps 1 and 3 on (x1 e_1, e_1)
    verdicts = [json.loads(line)["verdict"] for line in EXPECTED[:3]]
    assert verdicts[0]["is_morphism"]
    for verdict in verdicts[1:]:
        [failure] = verdict["failures"]
        assert failure["condition"] == "bracket"
        assert failure["witness"] == {"f": ["x1"], "g": ["1"]}
        assert failure["defect"] == ["0", "1"]


@pytest.mark.parametrize("index", range(len(PROBES)),
                         ids=[f"{name}_cap{cap}" for name, cap in PROBES])
def test_gate_verdict_bytes(index):
    assert probe_line(index) == EXPECTED[index]


if __name__ == "__main__":
    for index in range(len(PROBES)):
        print(probe_line(index))
