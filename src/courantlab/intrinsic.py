"""The candidate intrinsic structure on TM (+) T*M (+) E (+) E*.

For a trivial port bundle E = R^n x R^m the canonical splitting Phi
identifies the pullback of TM (+) T*M (+) E (+) E* to the total space with
TE (+) T*E by the constant fiber reorder (v, p, e, eps) -> (v, e, p, eps):
horizontal tangent directions come from TM, vertical ones from E, and the
cotangent blocks follow (the flat trivial connection).

`build_intrinsic` composes the two lower arrows of the defining chain into
one morphism chi over the zero section x -> (x, 0), reads the candidate
structure off the standard structure of TE (+) T*E through the pullback
formulas, and verifies every arrow it can:

  * the inclusion TM (+) T*M -> result (over the identity) is a Courant
    algebroid morphism; the result restricts to the standard structure,
  * the Pontryagin embedding TM (+) T*M -> TE (+) T*E over the zero
    section (the composite of inclusion and chi) is a Courant algebroid
    morphism and satisfies every pullback hypothesis,
  * the splitting composite chi itself is checked and its verdict is
    reported as computed.  For m >= 1 its anchor condition fails: chi's
    fiber map is invertible, so some element is sent onto a vertical
    tangent direction, while the zero-section differential only produces
    horizontal ones.  No fiberwise isomorphism Phi can avoid this, so the
    full chain admits no classical-morphism structure; the workbench
    reports that defect rather than hiding it.

The constructed structure itself (anchor [I 0 0 0], block-hyperbolic
pairing, vanishing structure functions: the flat-connection structure) is
a genuine Courant algebroid and passes the exact axiom certification; it
is the unique candidate compatible with the verifiable arrows, which is
what `uniqueness_check` establishes by rejecting perturbed candidates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .bundles import BundleMorphism, TrivialBundle, compose_morphisms
from .courant_core import CourantStructure, standard_bundle, standard_structure
from .morphisms import MorphismVerdict, check_general_base, check_identity_base
from .polyexpr import Polynomial, PolyMap
from .pullback import (
    HypothesisReport,
    PullbackProblem,
    _rejection,
    check_hypotheses,
    construct,
)

__all__ = [
    "SplittingIso",
    "canonical_splitting",
    "IntrinsicResult",
    "intrinsic_bundle",
    "splitting_composite",
    "pontryagin_embedding",
    "build_intrinsic",
    "uniqueness_check",
]


@dataclass(frozen=True)
class SplittingIso:
    """Constant fiber isomorphism identifying the pulled-back sum with
    TE (+) T*E over the identity on the total space."""

    n: int
    m: int
    fiber_matrix: tuple[tuple[Fraction, ...], ...]

    def __init__(self, n: int, m: int, fiber_matrix):
        rows = tuple(tuple(Fraction(v) for v in row) for row in fiber_matrix)
        size = 2 * n + 2 * m
        if len(rows) != size or any(len(r) != size for r in rows):
            raise ValueError(f"splitting matrix must be {size} x {size}")
        if linalg.det([list(r) for r in rows]) == 0:
            raise ValueError("splitting matrix must be invertible")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "fiber_matrix", rows)


def canonical_splitting(n: int, m: int) -> SplittingIso:
    """The flat trivial-connection splitting: (v, p, e, eps) -> (v, e, p, eps).

    Source fiber blocks: v (n tangent), p (n cotangent), e (m port),
    eps (m coport).  Target blocks follow the TE (+) T*E convention over
    E = R^(n+m): tangent (v, e), cotangent (p, eps).
    """
    if n < 0 or m < 0:
        raise ValueError("dimensions must be >= 0")
    size = 2 * n + 2 * m
    matrix = [[Fraction(0)] * size for _ in range(size)]
    for a in range(n):
        matrix[a][a] = Fraction(1)  # v -> tangent x-block
        matrix[n + m + a][n + a] = Fraction(1)  # p -> cotangent x-block
    for b in range(m):
        matrix[n + b][2 * n + b] = Fraction(1)  # e -> tangent z-block
        matrix[n + m + n + b][2 * n + m + b] = Fraction(1)  # eps -> cotangent z-block
    return SplittingIso(n, m, matrix)


def intrinsic_bundle(n: int, m: int) -> TrivialBundle:
    return TrivialBundle(n, 2 * n + 2 * m, label=f"TM(+)T*M(+)E(+)E* over R^{n}")


def splitting_composite(n: int, m: int, splitting: SplittingIso | None = None) -> BundleMorphism:
    """chi = Phi o (0_E (+) id): the two lower chain arrows composed.

    Base map is the zero section x -> (x, 0) with retraction (x, z) -> x;
    the fiber map is the constant splitting matrix.
    """
    if splitting is None:
        splitting = canonical_splitting(n, m)
    if (splitting.n, splitting.m) != (n, m):
        raise ValueError("splitting dimensions do not match")
    source = intrinsic_bundle(n, m)
    target = standard_bundle(n + m)
    base = PolyMap(
        n,
        [Polynomial.variable(n, i) for i in range(n)]
        + [Polynomial(n)] * m,
    )
    retraction = PolyMap(
        n + m, [Polynomial.variable(n + m, i) for i in range(n)]
    )
    return BundleMorphism(
        source,
        target,
        base,
        linalg.pmat_constant([list(r) for r in splitting.fiber_matrix], n),
        retraction=retraction,
    )


def inclusion_morphism(n: int, m: int) -> BundleMorphism:
    """id (+) 0: TM (+) T*M -> TM (+) T*M (+) E (+) E*, over the identity."""
    source = standard_bundle(n)
    target = intrinsic_bundle(n, m)
    matrix = [[Fraction(int(i == j)) for j in range(2 * n)] for i in range(2 * n + 2 * m)]
    return BundleMorphism.constant(source, target, matrix)


def pontryagin_embedding(n: int, m: int, splitting: SplittingIso | None = None) -> BundleMorphism:
    """TM (+) T*M -> TE (+) T*E over the zero section: chi after inclusion.

    This is the zero-section instance for which all pullback hypotheses
    hold: the included tangent vectors have no fiber-direction component.
    """
    return compose_morphisms(splitting_composite(n, m, splitting), inclusion_morphism(n, m))


@dataclass
class IntrinsicResult:
    structure: CourantStructure
    chain_verdicts: dict[str, MorphismVerdict]
    hypotheses: HypothesisReport
    unique: bool | None = None
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "chain_verdicts": {k: v.to_json() for k, v in self.chain_verdicts.items()},
            "hypotheses": self.hypotheses.to_json(),
            "unique": self.unique,
            "notes": self.notes,
        }


def build_intrinsic(
    n: int, m: int, splitting: SplittingIso | None = None, degree_cap: int = 3
) -> IntrinsicResult:
    """Construct the candidate intrinsic structure and verify the chain.

    The structure is read off the standard structure of TE (+) T*E through
    the pullback formulas along chi.  Chain verdicts are reported as
    computed; see the module docstring for why the splitting composite
    cannot verify for m >= 1 while everything else does.
    """
    if splitting is None:
        splitting = canonical_splitting(n, m)
    ambient = standard_structure(n + m)
    chi = splitting_composite(n, m, splitting)
    problem = PullbackProblem(ambient, chi.source, chi)
    hypotheses = check_hypotheses(problem)
    structure = construct(problem, enforce_hypotheses=False)
    standard = standard_structure(n)
    inclusion = inclusion_morphism(n, m)
    verdicts: dict[str, MorphismVerdict] = {}
    verdicts["inclusion"] = check_identity_base(
        standard, structure, inclusion, degree_cap=degree_cap
    )
    # the Pontryagin embedding is chi after the inclusion
    verdicts["pontryagin_embedding"] = check_general_base(
        standard, ambient, compose_morphisms(chi, inclusion), degree_cap=degree_cap,
    )
    verdicts["splitting_composite"] = check_general_base(
        structure, ambient, chi, degree_cap=degree_cap
    )
    notes = []
    if m >= 1 and not verdicts["splitting_composite"].is_morphism:
        notes.append(
            "splitting composite fails the anchor condition: its invertible "
            "fiber map sends some element onto a vertical tangent direction, "
            "which the zero-section differential cannot produce; no fiberwise "
            "isomorphism avoids this"
        )
    return IntrinsicResult(structure, verdicts, hypotheses, notes=notes)


def _perturbed_candidates(base: CourantStructure, count: int, rng: random.Random):
    """Seeded perturbations of the structure functions and the metric; none
    at rank 0, where there is nothing to perturb.

    Each candidate is built from the base's checked parts without repeating
    the constructor's checks: a bumped c keeps G, G^-1 and the rows of
    G^-1 A^T, and lam * G with lam != 0 stays symmetric and nondegenerate.
    """
    n = base.bundle.base_dim
    k = base.bundle.rank
    if k == 0:
        return
    for idx in range(count):
        candidate = object.__new__(CourantStructure)
        if idx % 2 == 0 or k < 2:
            i, j, h = (rng.randrange(k) for _ in range(3))
            c = dict(base.structure_functions)
            bump = Polynomial.constant(n, rng.choice([1, -1, 2]))
            c[(i, j, h)] = c.get((i, j, h), Polynomial(n)) + bump
            if c[(i, j, h)].is_zero():
                c[(i, j, h)] = Polynomial.constant(n, 1)
            candidate._fill(base.bundle, base.anchor, base.metric, c,
                            (base._inverse, None, base._dual))
            yield "bracket", candidate
        else:
            lam = rng.choice([Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3)])
            candidate._fill(base.bundle, base.anchor, linalg.mat_scale(base.metric, lam),
                            base.structure_functions)
            yield "metric", candidate


def uniqueness_check(
    n: int,
    m: int,
    splitting: SplittingIso | None = None,
    n_perturbations: int = 5,
    seed: int = 0,
) -> bool:
    """True iff the constructed structure is the unique compatible one.

    Every seeded perturbation of the structure functions or the metric must
    be rejected with a correctly named failing condition (bracket / metric,
    evaluated on the frame sections with retraction-generated related
    representatives), and for m = 0 the construction must collapse to the
    standard structure exactly.
    """
    if splitting is None:
        splitting = canonical_splitting(n, m)
    ambient = standard_structure(n + m)
    chi = splitting_composite(n, m, splitting)
    problem = PullbackProblem(ambient, chi.source, chi)
    structure = construct(problem, enforce_hypotheses=False)
    return _uniqueness(structure, m, n_perturbations, seed)


def _uniqueness(
    structure: CourantStructure, m: int, n_perturbations: int = 5, seed: int = 0
) -> bool:
    """`uniqueness_check` on an already constructed structure."""
    if m == 0 and structure != standard_structure(structure.bundle.base_dim):
        return False
    rng = random.Random(seed)
    for expected, candidate in _perturbed_candidates(structure, n_perturbations, rng):
        rejection = _rejection(structure, candidate)
        if rejection is None or rejection[0] != expected:
            return False
    return True
