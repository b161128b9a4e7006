"""Seeded op generators and their known answers.

A workload is a fixed mix of slots.  Each slot fixes the sizes of its op
(n, m, degree cap, sample count, T and h); the seed only draws values
(metric scales, bump positions and values, fiber scalings, retractions,
Hamiltonian and input coefficients, initial states and the CLI --seed).
So every seed does the same amount of work per slot, and a claim made on
one seed can be rechecked on another.

Every op carries its expected answer: the exit code and the per-axiom or
per-condition verdicts, each with a one-line mathematical reason.  The
answers follow from the mathematics, not from recorded program output.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# fixed sizes shared by all simulate slots: T / h = 10_000 RK4 steps per op
SIM_T = 10.0
SIM_H = 1e-3
SIM_STEPS = 10_000


@dataclass
class Op:
    slot: str
    argv: list[str]                 # argv for courantlab.cli.main; SCENE marks the scene path
    scene: bytes | None             # canonical scene JSON, written to disk before the op
    sizes: dict                     # the slot's fixed sizes (never drawn from the seed)
    expect: dict                    # {"exit": int, <verdict>: value, ...}
    reasons: dict                   # one-line mathematical reason per expected entry
    check: str                      # name of the output checker in CHECKERS
    data: dict = field(default_factory=dict)   # drawn values the checker needs
    partner: str | None = None      # slot whose output this op is compared against


SCENE = "@SCENE@"


# -- value draws ---------------------------------------------------------------


def _integral_scale(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 4, 5]))


def _fractional_scale(rng: random.Random) -> Fraction:
    while True:
        value = Fraction(rng.choice([-7, -5, -3, -2, -1, 1, 2, 3, 5, 7]),
                         rng.choice([2, 3, 5, 7]))
        if value.denominator > 1:
            return value


def _nonzero_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))


def _q(value: Fraction) -> str:
    return str(Fraction(value))


# -- scene fragments -------------------------------------------------------------


def _bundle(n: int) -> dict:
    return {"base_dim": n, "rank": 2 * n}


def _standard(n: int, lam: Fraction, bump=None) -> dict:
    """scaled_structure(standard(n), lam), optionally with one c_ij^h bumped."""
    k = 2 * n
    spec = {
        "bundle": f"P{n}",
        "anchor": [["1" if i == a else "0" for i in range(k)] for a in range(n)],
        "metric": [[_q(lam) if abs(i - j) == n else "0" for j in range(k)]
                   for i in range(k)],
    }
    if bump is not None:
        (i, j, h), value = bump
        spec["structure_functions"] = {f"{i + 1},{j + 1},{h + 1}": _q(value)}
    return spec


def _diag(entries) -> list[list[str]]:
    size = len(entries)
    return [[_q(entries[i]) if i == j else "0" for j in range(size)] for i in range(size)]


def _scene(**sections) -> bytes:
    raw = {"schema_version": 1}
    raw.update({key: value for key, value in sections.items() if value})
    return (json.dumps(raw, sort_keys=True, indent=1) + "\n").encode()


def _seed_arg(rng: random.Random) -> list[str]:
    return ["--seed", str(rng.randrange(1_000_000))]


# -- certify: axioms and Leibniz on the standard(n) family ----------------------

_AXIOMS_PASS = {
    "i": "scaling G by lam != 0 leaves the bracket unchanged (G_ij D is "
         "lam-free), so Jacobi holds as for standard(n)",
    "ii": "both sides of (ii) scale by lam, and (ii) holds for standard(n)",
    "iii": "both sides of (iii) are lam-free, and (iii) holds for standard(n)",
}


def _axioms_scaled(n: int, cap: int, integral: bool):
    def make(rng: random.Random) -> Op:
        lam = _integral_scale(rng) if integral else _fractional_scale(rng)
        scene = _scene(bundles={f"P{n}": _bundle(n)},
                       courant_structures={"s": _standard(n, lam)})
        return Op(
            slot="", argv=["axioms", "--scene", SCENE, "--structure", "s",
                           "--degree-cap", str(cap), *_seed_arg(rng), "--json"],
            scene=scene, sizes={"n": n, "cap": cap},
            expect={"exit": 0, "i": "pass", "ii": "pass", "iii": "pass"},
            reasons={"exit": "all three axioms hold", **_AXIOMS_PASS},
            check="axioms",
        )
    return make


def _axioms_bumped(n: int, cap: int, row: int = 0):
    """The slot fixes the bumped row i, which sets where the certificate's
    sweep finds its first witness (row 0 exits after ~60 ms at n = 3, row 5
    after 140-230 ms); the seed draws j, h and the value."""
    def make(rng: random.Random) -> Op:
        k = 2 * n
        lam = _integral_scale(rng)
        index = (row, rng.randrange(k), rng.randrange(k))
        value = _nonzero_rational(rng)
        scene = _scene(bundles={f"P{n}": _bundle(n)},
                       courant_structures={"s": _standard(n, lam, (index, value))})
        return Op(
            slot="", argv=["axioms", "--scene", SCENE, "--structure", "s",
                           "--degree-cap", str(cap), *_seed_arg(rng), "--json"],
            scene=scene, sizes={"n": n, "cap": cap, "bump_row": row},
            expect={"exit": 1, "ii": "fail", "iii": "fail"},
            reasons={
                "exit": "axiom (iii) fails",
                "iii": "for constant frames [[e_i,e_j]] + [[e_j,e_i]] = c e_h "
                       "(2c e_h if i = j) != 0 while D<e_i,e_j> = 0",
                "ii": "take l paired with h: rho(e_i)<e_j,e_l> = 0 but "
                      "<[[e_i,e_j]],e_l> + <e_j,[[e_i,e_l]]> is c*lam or 2*c*lam",
            },
            check="axioms",
        )
    return make


_LEIBNIZ_REASONS = {
    "exit": "both rules hold",
    "second_slot_rule": "the bracket is defined by the two-sided Leibniz "
                        "expansion, so rule 1 holds for any frame data",
    "two_sided_rule": "rule 2 is that expansion itself, so it holds for any "
                      "frame data",
    "final_slot_variant": "the variant differs by mu rho(g)(lam) (f - g), which "
                          "random samples make nonzero when the anchor is nonzero",
}


def _leibniz(n: int, samples: int, integral: bool, bumped: bool):
    def make(rng: random.Random) -> Op:
        k = 2 * n
        lam = _integral_scale(rng) if integral else _fractional_scale(rng)
        bump = None
        if bumped:
            bump = ((rng.randrange(k), rng.randrange(k), rng.randrange(k)),
                    _nonzero_rational(rng))
        scene = _scene(bundles={f"P{n}": _bundle(n)},
                       courant_structures={"s": _standard(n, lam, bump)})
        return Op(
            slot="", argv=["leibniz", "--scene", SCENE, "--structure", "s",
                           "--samples", str(samples), *_seed_arg(rng), "--json"],
            scene=scene, sizes={"n": n, "samples": samples},
            expect={"exit": 0, "second_slot_rule": "pass", "two_sided_rule": "pass",
                    "final_slot_variant": "falsified"},
            reasons=_LEIBNIZ_REASONS,
            check="leibniz",
        )
    return make


# -- pipeline: intrinsic, morphisms, pullback, dirac ----------------------------


def _intrinsic(n: int, m: int, cap: int):
    def make(rng: random.Random) -> Op:
        if m:
            expect = {"exit": 1, "inclusion": [], "pontryagin_embedding": [],
                      "splitting_composite": ["anchor"], "unique": True}
            reason_exit = "the splitting composite fails the anchor condition"
            reason_chi = ("chi's invertible fiber map hits a vertical tangent "
                          "direction the zero-section differential cannot produce")
        else:
            expect = {"exit": 0, "inclusion": [], "pontryagin_embedding": [],
                      "splitting_composite": [], "unique": True}
            reason_exit = "for m = 0 every arrow is the identity of standard(n)"
            reason_chi = "for m = 0 chi is the identity of standard(n)"
        return Op(
            slot="", argv=["intrinsic", "--n", str(n), "--m", str(m),
                           "--degree-cap", str(cap), *_seed_arg(rng), "--json"],
            scene=None, sizes={"n": n, "m": m, "cap": cap},
            expect=expect,
            reasons={
                "exit": reason_exit,
                "inclusion": "the result restricts to standard(n) on TM + T*M",
                "pontryagin_embedding": "the zero-section embedding of standard(n) "
                                        "into standard(n+m) is a morphism",
                "splitting_composite": reason_chi,
                "unique": "every perturbation of c or G breaks the bracket or "
                          "metric condition against the ambient structure",
            },
            check="intrinsic",
        )
    return make


def _identity_map(n: int, fiber=None) -> dict:
    names = [f"x{i + 1}" for i in range(n)]
    return {"source": f"P{n}", "target": f"P{n}", "base_map": names,
            "fiber_matrix": fiber or _diag([1] * (2 * n)), "retraction": names}


def _morphism_scaled(n: int, target: str):
    """Identity map from lam1 * G to lam2 * G; target is "equal", "int" or "frac"."""
    def make(rng: random.Random) -> Op:
        lam1 = _integral_scale(rng)
        lam2 = lam1
        equal = target == "equal"
        while not equal and lam2 == lam1:
            lam2 = _fractional_scale(rng) if target == "frac" else _integral_scale(rng)
        scene = _scene(
            bundles={f"P{n}": _bundle(n)},
            courant_structures={"a": _standard(n, lam1), "b": _standard(n, lam2)},
            morphisms={"phi": _identity_map(n)},
        )
        if equal:
            expect = {"exit": 0, "failed": []}
            reasons = {"exit": "the identity of a structure is a morphism",
                       "failed": "P = I preserves anchor, metric and bracket"}
        else:
            expect = {"exit": 1, "failed": ["metric"]}
            reasons = {"exit": "the metric condition fails",
                       "failed": "P^T G2 P = lam2 G != lam1 G, while anchor and the "
                                 "lam-free bracket are preserved"}
        return Op(
            slot="", argv=["morphism", "--scene", SCENE, "--source", "a",
                           "--target", "b", "--map", "phi", *_seed_arg(rng), "--json"],
            scene=scene, sizes={"n": n}, expect=expect, reasons=reasons,
            check="morphism",
        )
    return make


def _morphism_fiber_scaling(n: int):
    def make(rng: random.Random) -> Op:
        lam = _integral_scale(rng)
        a = Fraction(1)
        while a == 1:
            a = _nonzero_rational(rng)
        scene = _scene(
            bundles={f"P{n}": _bundle(n)},
            courant_structures={"s": _standard(n, lam)},
            morphisms={"phi": _identity_map(n, _diag([a] * n + [1 / a] * n))},
        )
        return Op(
            slot="", argv=["morphism", "--scene", SCENE, "--source", "s",
                           "--target", "s", "--map", "phi", *_seed_arg(rng), "--json"],
            scene=scene, sizes={"n": n},
            expect={"exit": 1, "has": ["anchor"], "lacks": ["metric"]},
            reasons={"exit": "the anchor condition fails",
                     "has": "A P = [a I | 0] != [I | 0] since a != 1",
                     "lacks": "P^T G P = G because a * (1/a) = 1 on every paired block"},
            check="morphism",
        )
    return make


def _zero_section(n: int) -> dict:
    """Embedding P(R^n) -> P(R^(n+1)) over x -> (x, 0), retraction (x, z) -> x."""
    k, big = 2 * n, 2 * (n + 1)
    fiber = [["0"] * k for _ in range(big)]
    for a in range(n):
        fiber[a][a] = "1"
        fiber[n + 1 + a][n + a] = "1"
    names = [f"x{i + 1}" for i in range(n)]
    return {"source": f"P{n}", "target": f"P{n + 1}", "base_map": names + ["0"],
            "fiber_matrix": fiber, "retraction": names}


def _morphism_zero_section(n: int):
    def make(rng: random.Random) -> Op:
        lam = _integral_scale(rng)
        scene = _scene(
            bundles={f"P{n}": _bundle(n), f"P{n + 1}": _bundle(n + 1)},
            courant_structures={"a": _standard(n, lam), "b": _standard(n + 1, lam)},
            morphisms={"phi": _zero_section(n)},
        )
        return Op(
            slot="", argv=["morphism", "--scene", SCENE, "--source", "a",
                           "--target", "b", "--map", "phi", *_seed_arg(rng), "--json"],
            scene=scene, sizes={"n": n},
            expect={"exit": 0, "failed": []},
            reasons={"exit": "the zero-section embedding is a morphism",
                     "failed": "the Pontryagin embedding of standard(n) into "
                               "standard(n+1) is a morphism, and a common lam "
                               "scales both metrics alike"},
            check="morphism",
        )
    return make


def _pullback_alt(n: int):
    def make(rng: random.Random) -> Op:
        lam = _integral_scale(rng)
        scene = _scene(
            bundles={f"P{n}": _bundle(n), f"P{n + 1}": _bundle(n + 1)},
            courant_structures={"ambient": _standard(n + 1, lam)},
            morphisms={"phi": _zero_section(n)},
        )
        z = f"x{n + 1}"
        alt = [f"x{i + 1} + {_q(_nonzero_rational(rng))}*{z}^{rng.randint(1, 3)}"
               for i in range(n)]
        return Op(
            slot="", argv=["pullback", "--scene", SCENE, "--ambient", "ambient",
                           "--morphism", "phi", "--alt-retraction", json.dumps(alt),
                           *_seed_arg(rng), "--json"],
            scene=scene, sizes={"n": n},
            expect={"exit": 0, "hypotheses": "pass", "well_defined": True},
            reasons={"exit": "hypotheses hold and the construction is well defined",
                     "hypotheses": "the zero section is tangent to the anchor image, "
                                   "G restricts nondegenerately, frames are involutive",
                     "well_defined": "any r with r o phi0 = id agrees on the image, "
                                     "where the construction reads its data"},
            check="pullback",
        )
    return make


def _skew(rng: random.Random, size: int, pool) -> list[list[Fraction]]:
    out = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            value = Fraction(rng.choice(pool))
            out[i][j], out[j][i] = value, -value
    return out


def _rows(matrix) -> list[list[str]]:
    return [[_q(v) for v in row] for row in matrix]


def _dirac(n: int, m: int):
    def make(rng: random.Random) -> Op:
        jm = _skew(rng, n, [-2, -1, 0, 1, 2, Fraction(1, 2)])
        bm = [[Fraction(rng.choice([-1, 0, 1, 2])) for _ in range(m)] for _ in range(n)]
        system = {"n": n, "m": m, "J": _rows(jm), "B": _rows(bm),
                  "H": " + ".join(f"x{i + 1}^2" for i in range(n))}
        return Op(
            slot="", argv=["dirac", "--scene", SCENE, "--system", "sys", "--json"],
            scene=_scene(ph_systems={"sys": system}), sizes={"n": n, "m": m},
            expect={"exit": 0, "is_dirac": True, "dimension": n + m},
            reasons={"exit": "the interconnection graph is Dirac",
                     "is_dirac": "the graph of a skew map is maximally isotropic "
                                 "for the standard pairing",
                     "dimension": "a graph over R^(n+m) has dimension n+m"},
            check="dirac",
        )
    return make


# -- simulate: RK4 runs and the behavior projection -----------------------------


def _quadratic_system(rng: random.Random) -> dict:
    """Oscillator family: J = j [[0,1],[-1,0]], H = a/2 x1^2 + e x1 x2 + c/2 x2^2."""
    j = Fraction(rng.choice([1, 3, 2, 5]), 2)
    a = Fraction(rng.choice([2, 3, 4]), 2)
    c = Fraction(rng.choice([2, 3, 4]), 2)
    e = Fraction(rng.choice([-1, 0, 1]), 2)   # a*c - e^2 > 0: positive definite
    b = [Fraction(rng.choice([-2, -1, 1, 2]), 2), Fraction(rng.choice([-1, 0, 1]), 2)]
    return {
        "n": 2, "m": 1, "J": _rows([[0, j], [-j, 0]]), "B": [[_q(b[0])], [_q(b[1])]],
        "H": f"{_q(a / 2)}*x1^2 + {_q(e)}*x1*x2 + {_q(c / 2)}*x2^2",
        "coeffs": {"quad": [[a, e], [e, c]], "quart": [0, 0]},
    }


def _quartic_system(rng: random.Random) -> dict:
    """n = 4, m = 2: H = sum a_i/2 x_i^2 + b_i/4 x_i^4 with a_i, b_i > 0."""
    n, m = 4, 2
    jm = _skew(rng, n, [-2, -1, 1, 2])
    bm = [[Fraction(rng.choice([-1, 0, 1])) for _ in range(m)] for _ in range(n)]
    bm[0][0], bm[1][1] = Fraction(1), Fraction(1)
    a = [Fraction(rng.choice([1, 2, 3]), 2) for _ in range(n)]
    b = [Fraction(rng.choice([1, 2]), 4) for _ in range(n)]
    terms = [f"{_q(a[i] / 2)}*x{i + 1}^2 + {_q(b[i] / 4)}*x{i + 1}^4" for i in range(n)]
    quad = [[a[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    return {"n": n, "m": m, "J": _rows(jm), "B": _rows(bm), "H": " + ".join(terms),
            "coeffs": {"quad": quad, "quart": b}}


def _floats(rng: random.Random, count: int, lo: float, hi: float) -> list[str]:
    return [repr(round(rng.uniform(lo, hi), 6)) for _ in range(count)]


def _sim_op(kind: str, system: dict, u: list[tuple[Fraction, Fraction]], x0, z0,
            closed: bool) -> Op:
    coeffs = system.pop("coeffs")
    exprs = [f"{_q(c0)} + {_q(c1)}*t" for c0, c1 in u]
    scene = _scene(ph_systems={"sys": system}, inputs={"u": {"u": exprs}})
    # "--x0=..." keeps a leading minus sign from reading as an option
    argv = [kind, "--scene", SCENE, "--system", "sys", "--input", "u",
            "--x0=" + ",".join(x0)]
    if kind == "project":
        argv.append("--z0=" + ",".join(z0))
    argv += ["--T", repr(SIM_T), "--h", repr(SIM_H)]
    expect = {"exit": 0, "rows": SIM_STEPS + 1, "finite": True, "balance": True}
    reasons = {
        "exit": "a bounded run exits 0",
        "rows": "T / h = 10000 steps gives 10001 grid rows",
        "finite": "H is coercive and the input is bounded over [0, T]",
        "balance": "dH/dt = grad H^T J grad H + y^T u = y^T u because J is skew, "
                   "and the input keeps x where h = 1e-3 resolves the flow",
    }
    if closed:
        expect["conserved"] = True
        reasons["conserved"] = ("u = 0 and J skew make H a first integral; RK4 "
                                "drift at h = 1e-3 is far below 1e-8")
    if kind == "project":
        expect["x_bitwise"] = True
        expect["y_close"] = True
        reasons["x_bitwise"] = "z never feeds back into x, so the x stages are the same flops"
        reasons["y_close"] = "-dz/dt = B^T grad H(x) = y on the grid"
    data = {"n": system["n"], "m": system["m"],
            "quad": [[float(v) for v in row] for row in coeffs["quad"]],
            "quart": [float(v) for v in coeffs["quart"]],
            "u": [[float(c0), float(c1)] for c0, c1 in u]}
    return Op(slot="", argv=argv, scene=scene,
              sizes={"n": system["n"], "m": system["m"], "T": SIM_T, "h": SIM_H},
              expect=expect, reasons=reasons, check="trajectory", data=data)


def _simulate(family: str, closed: bool = False, project: bool = False):
    """One draw of (system, u, x0) per cycle, shared by a simulate/project pair.

    The quartic system's stiffness grows like |x|^2.  Driven by the
    quadratic family's input it can reach |x| ~ 10, where RK4 at h = 1e-3
    no longer resolves it and the power balance misses by ~1e-5.  At a
    tenth of that input, |x| stayed below 2.3 and the balance error below
    1e-10 on 1500 draws.  The linear family has no such regime.
    """
    divisor = 1 if family == "quadratic" else 10

    def make(rng: random.Random) -> Op:
        system = _quadratic_system(rng) if family == "quadratic" else _quartic_system(rng)
        m = system["m"]
        if closed:
            u = [(Fraction(0), Fraction(0))] * m
        else:
            u = [(Fraction(rng.choice([-2, -1, 1, 2]), 4 * divisor),
                  Fraction(rng.choice([-1, 1]), 20 * divisor))
                 for _ in range(m)]
        x0 = _floats(rng, system["n"], -1.0, 1.0)
        z0 = _floats(rng, m, -1.0, 1.0)
        return _sim_op("project" if project else "simulate", system, u, x0, z0, closed)

    return make


# -- the workloads ------------------------------------------------------------------

# Slot order is the closed-loop order within one cycle.  A slot's `key`
# draws its values; slots that share a key (a simulate/project pair) share
# one draw.
WORKLOADS = {
    # courant_core and polyexpr; no morphisms, pullback, intrinsic or phsim.
    "certify": [
        # Latency tiers, so that the median and the tail each fall inside one
        # tier rather than on a boundary between two: four light slots (bumps
        # exit early, short Leibniz ledgers), three middle ones (n = 1 axioms,
        # the n = 3 ledger), four heavy ones (n = 2, 3 axioms).
        ("axioms_n1_int_cap3", _axioms_scaled(1, 3, True), None),
        ("axioms_n2_int_cap2", _axioms_scaled(2, 2, True), None),
        ("axioms_n3_int_cap1", _axioms_scaled(3, 1, True), None),
        ("axioms_n1_frac_cap3", _axioms_scaled(1, 3, False), None),
        ("axioms_n2_frac_cap2", _axioms_scaled(2, 2, False), None),
        ("axioms_n3_frac_cap1", _axioms_scaled(3, 1, False), None),
        ("axioms_n2_bump_cap3", _axioms_bumped(2, 3), None),
        ("axioms_n3_bump_cap2", _axioms_bumped(3, 2), None),
        ("leibniz_n1_frac", _leibniz(1, 50, False, False), None),
        ("leibniz_n2_int", _leibniz(2, 10, True, False), None),
        ("leibniz_n3_bump", _leibniz(3, 15, True, True), None),
    ],
    # morphisms, pullback, intrinsic and the Fraction Polynomial path.
    # Six light slots (morphism, pullback and dirac checks), three middle ones
    # (n = 2 identity-base morphisms), six heavy ones (intrinsic): the median
    # falls in the middle tier.
    "pipeline": [
        ("intrinsic_1_1", _intrinsic(1, 1, 3), None),
        ("intrinsic_2_1", _intrinsic(2, 1, 3), None),
        ("intrinsic_2_2", _intrinsic(2, 2, 3), None),
        ("intrinsic_3_1", _intrinsic(3, 1, 3), None),
        ("intrinsic_2_0", _intrinsic(2, 0, 3), None),
        ("intrinsic_3_0", _intrinsic(3, 0, 3), None),
        ("morphism_n1_lam_differ_frac", _morphism_scaled(1, "frac"), None),
        ("morphism_n2_lam_differ_int", _morphism_scaled(2, "int"), None),
        ("morphism_n2_lam_differ_frac", _morphism_scaled(2, "frac"), None),
        ("morphism_n2_lam_equal", _morphism_scaled(2, "equal"), None),
        ("morphism_n2_fiber_scaling", _morphism_fiber_scaling(2), None),
        ("morphism_n1_zero_section", _morphism_zero_section(1), None),
        ("pullback_n1_alt_retraction", _pullback_alt(1), None),
        ("dirac_n3_m2", _dirac(3, 2), None),
        ("dirac_n2_m1", _dirac(2, 1), None),
    ],
    # phsim and CSV output; the exact kernel only compiles the gradient.
    "simulate": [
        ("simulate_quad_closed", _simulate("quadratic", closed=True), None),
        ("simulate_quad_open", _simulate("quadratic"), "quad_open"),
        ("project_quad_open", _simulate("quadratic", project=True), "quad_open"),
        ("simulate_quartic", _simulate("quartic"), "quartic"),
        ("project_quartic", _simulate("quartic", project=True), "quartic"),
    ],
}

# the slot a project op is compared against (its simulate twin, same draw)
PARTNERS = {"project_quad_open": "simulate_quad_open",
            "project_quartic": "simulate_quartic"}


def make_cycle(workload: str, seed: int, cycle: int) -> list[Op]:
    """The ops of one cycle; a pure function of (workload, seed, cycle)."""
    ops = []
    for slot, make, key in WORKLOADS[workload]:
        rng = random.Random(f"{workload}/{seed}/{cycle}/{key or slot}")
        op = make(rng)
        op.slot = slot
        op.partner = PARTNERS.get(slot)
        ops.append(op)
    return ops


def fingerprint(ops: list[Op]) -> tuple[bytes, list]:
    """(all generated bytes, per-slot sizes): the determinism check compares these."""
    blob = b"".join(
        (op.scene or b"") + json.dumps(op.argv).encode() for op in ops
    )
    return blob, [(op.slot, sorted(op.sizes.items())) for op in ops]


# -- checkers: compare an op's output with its expected answer -----------------------


def _axiom_verdicts(report: dict) -> dict:
    return {name: check["status"] for name, check in report["axioms"].items()}


def check_axioms(op: Op, out: str, others) -> dict:
    return _axiom_verdicts(json.loads(out))


def check_leibniz(op: Op, out: str, others) -> dict:
    report = json.loads(out)["report"]
    return {
        "second_slot_rule": report["second_slot_rule"]["status"],
        "two_sided_rule": report["two_sided_rule"]["status"],
        "final_slot_variant": report["final_slot_variant"]["status"],
    }


def _failed(verdict: dict) -> list[str]:
    return sorted({f["condition"] for f in verdict["failures"]})


def check_intrinsic(op: Op, out: str, others) -> dict:
    report = json.loads(out)
    actual = {name: _failed(v) for name, v in report["chain"]["chain_verdicts"].items()}
    actual["unique"] = report["unique"]
    return actual


def check_morphism(op: Op, out: str, others) -> dict:
    failed = _failed(json.loads(out)["verdict"])
    if "failed" in op.expect:
        return {"failed": failed}
    return {"has": [c for c in op.expect["has"] if c in failed],
            "lacks": [c for c in op.expect["lacks"] if c not in failed]}


def check_pullback(op: Op, out: str, others) -> dict:
    report = json.loads(out)
    statuses = {c["status"] for c in report["hypotheses"].values()}
    return {"hypotheses": "pass" if statuses == {"pass"} else "fail",
            "well_defined": report.get("well_defined")}


def check_dirac(op: Op, out: str, others) -> dict:
    report = json.loads(out)
    return {"is_dirac": report["is_dirac"], "dimension": report["dimension"]}


def _load_csv(text: str, n: int, m: int) -> np.ndarray:
    lines = text.splitlines()
    header = ["t"] + [f"x{i + 1}" for i in range(n)] + [f"y{i + 1}" for i in range(m)]
    if not lines or lines[0].split(",") != header:
        raise ValueError(f"unexpected CSV header {lines[:1]}")
    return np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)


def _hamiltonian(data: dict, x: np.ndarray) -> np.ndarray:
    quad = np.array(data["quad"])
    quart = np.array(data["quart"])
    return 0.5 * np.einsum("ti,ij,tj->t", x, quad, x) + 0.25 * (x ** 4) @ quart


def _input(data: dict, t: np.ndarray) -> np.ndarray:
    return np.stack([c0 + c1 * t for c0, c1 in data["u"]], axis=1)


def _simpson(values: np.ndarray, dt: float) -> float:
    """Composite Simpson rule; the grid has an even number of intervals."""
    return dt / 3 * (values[0] + values[-1] + 4 * values[1:-1:2].sum()
                     + 2 * values[2:-1:2].sum())


def check_trajectory(op: Op, out: str, others) -> dict:
    n, m = op.data["n"], op.data["m"]
    table = _load_csv(out, n, m)
    actual = {"rows": int(table.shape[0]), "finite": bool(np.isfinite(table).all())}
    t, x, y = table[:, 0], table[:, 1:1 + n], table[:, 1 + n:]
    h = _hamiltonian(op.data, x)
    if "conserved" in op.expect:
        actual["conserved"] = bool(np.abs(h - h[0]).max() <= 1e-8 * max(1.0, abs(h[0])))
    # power balance H(T) - H(0) = int_0^T y^T u dt, Simpson on the grid
    supplied = _simpson((y * _input(op.data, t)).sum(axis=1), t[1] - t[0])
    scale = 1.0 + abs(h[-1] - h[0]) + abs(supplied)
    actual["balance"] = bool(abs(h[-1] - h[0] - supplied) <= 1e-6 * scale)
    if op.partner is not None:
        twin = _load_csv(others[op.partner], n, m)
        same_grid = twin.shape == table.shape
        actual["x_bitwise"] = bool(same_grid and np.array_equal(twin[:, :1 + n], table[:, :1 + n]))
        actual["y_close"] = bool(same_grid and np.abs(twin[:, 1 + n:] - y).max() <= 1e-12)
    return actual


CHECKERS = {
    "axioms": check_axioms,
    "leibniz": check_leibniz,
    "intrinsic": check_intrinsic,
    "morphism": check_morphism,
    "pullback": check_pullback,
    "dirac": check_dirac,
    "trajectory": check_trajectory,
}


def mismatches(op: Op, exit_code: int, out: str, others, expect: dict | None = None) -> dict:
    """{entry: (expected, actual)} for every entry of the known answer that differs."""
    expect = op.expect if expect is None else expect
    actual = {"exit": exit_code}
    try:
        actual.update(CHECKERS[op.check](op, out, others))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        actual["output"] = f"unreadable: {exc!r}"
    wrong = {key: (value, actual.get(key)) for key, value in expect.items()
             if actual.get(key) != value}
    if "output" in actual:
        wrong["output"] = ("readable", actual["output"])
    return wrong


def corrupted(expect: dict) -> dict:
    """The known answer with its exit code flipped: the checker must flag it."""
    bad = dict(expect)
    bad["exit"] = 1 - expect["exit"]
    return bad
