"""Classical Courant algebroid morphism checks.

A bundle morphism phi between Courant algebroids is tested against the
pointwise criteria that characterize classical morphisms (Li-Bland &
Meinrenken, IMRN 2009):

  over the identity base:
    (bracket)  phi o [[f,g]]_1 = [[phi o f, phi o g]]_2
    (metric)   P(x)^T G2 P(x) = G1
    (anchor)   A2(x) P(x) = A1(x)

  over a general base, via phi-related section pairs f ~ g:
    (bracket)  phi o [[f1,f2]]_1 = [[g1,g2]]_2 o phi0
    (metric)   <f1,f2>_1 = <g1,g2>_2 o phi0
    (anchor)   A2(phi0(x)) P(x) = Jac(phi0)(x) A1(x)

Each condition has one implementation, which both base modes call; the
identity base is the case phi0 = id, and there nothing is composed with the
identity map.  All checks are exact polynomial identities.

The anchor and metric conditions are matrix identities in both modes.  The
anchor defect is A2(phi0) P - Jac(phi0) A1.  The metric defect is
D = P^T G2 P - G1.  Over the identity base D is the condition itself.  Over
a general base the related pairs are the retraction representatives
g = P(r) f(r), and r o phi0 = id gives <g1,g2>_2 o phi0 = f1^T P^T G2 P f2,
so the pair's metric defect is -f1^T D f2.  On the tagged families of the
bracket sweep below (f = sum t^(i*M + a) x^alpha_a e_i, and likewise with s
and beta_b for the second slot) that defect reads

    - sum over i, j, a, b of t^(i*M + a) s^(j*M + b) x^(alpha_a + beta_b) D_ij(x),

and distinct family pairs own distinct tag monomials.  So a pair fails iff
its D_ij is nonzero, and the least failing pair in the degree-first order of
`_least_failing_pair` is the degree-0 pair (e_i, e_j), with (i, j) the
first nonzero entry of D in row-major order.  A perturbed representative
g + q*w has q o phi0 = 0, so every term the perturbation adds to <g1,g2>_2
carries a factor q and vanishes once composed with phi0: perturbations
never change the metric defect.  The general base therefore reports the
pair (e_i, e_j) with "representatives": "retraction" and its plain defect,
and strict representative checking re-checks only the bracket.

The bracket condition is certified over every pair of monomial frame
sections with tagged generating sections (see courant_core), and that
certificate is complete at degree 1: it covers every pair of smooth
sections.  The defect is a differential operator of order <= 1 in each
slot with polynomial coefficients, sum_beta a_beta d^beta with |beta| <= 1;
the retraction-generated representatives compose with r and, in the
condition, with phi0, and r o phi0 = id keeps the order at 1.  Applied to
x^alpha e_i the operator gives alpha! a_alpha plus terms with smaller beta,
so by induction on alpha it vanishes iff it vanishes on every x^alpha e_i
with |alpha| <= 1.  The check therefore sweeps the family at
min(degree_cap, SWEEP_ORDER), or at cap 0 when the three identities below
hold; otherwise an explicit cap 0 sweeps constant sections only and stays
a bounded claim.  The verdict's detail names the requested cap, which the
complete certificate covers.  A failing bracket reports its least failing
pair (see `_least_failing_pair`), which is the same at every cap >= 1.

When the defect is tensorial, the frame pairs decide it.  Write
Delta(f, g) = phi o [[f,g]]_1 - [[g_f, g_g]]_2 o phi0 for the auto-mode
representatives g_f = P(r) f(r) (P f over the identity base), and let
J_r = J_r(phi0(x)) and Q = J_r A2(phi0); over the identity base J_r = I
and phi0 = id.  For a function lam on the source base, the representative
of lam g is (lam o r) g_g, since g_g is formed pointwise at r(y).  Then
r o phi0 = id gives (lam o r) o phi0 = lam and g_g o phi0 = P g, and the
chain rule gives rho2(g_f)(lam o r) o phi0 = (Q P f) . grad(lam) and
D2(lam o r) o phi0 = G2^-1 Q^T grad(lam).  The Leibniz rules of both
brackets (see courant_core) therefore give

  Delta(f, lam g) - lam Delta(f,g) = ((A1 - Q P) f . grad(lam)) P g,
  Delta(lam f, g) - lam Delta(f,g) = -((A1 - Q P) g . grad(lam)) P f
      + <f,g>_1 P G1^-1 A1^T grad(lam)
      - (<g_f, g_g>_2 o phi0) G2^-1 Q^T grad(lam).

The metric condition makes <g_f, g_g>_2 o phi0 = f^T P^T G2 P g equal to
<f,g>_1.  The projected anchor Q P = A1 removes the anchor terms and turns
P G1^-1 A1^T into P G1^-1 P^T Q^T, so what is left vanishes iff the
D-identity Q (P G1^-1 P^T - G2^-1) = 0 holds (G1 and G2 are symmetric).
When the metric condition, the projected anchor and the D-identity hold,
Delta is C-infinity-linear in both slots, Delta(f, g) =
sum_ij f_i g_j Delta(e_i, e_j), and the bracket condition holds iff it
holds on every frame pair: the cap-0 sweep.  A failing frame pair is also
the least failing pair at every cap >= 1.  `_least_failing_pair` orders
pairs by their larger degree first, so every degree-0 pair precedes every
pair of degree 1, and among degree-0 pairs the tag i*M + 0 orders by the
frame index i at every cap.  The witness's plain defect is that of the
same pair.  So the cap-0 verdict is the degree-1 verdict, byte for byte.
`_tensorial` reads the identities off the matrices the other conditions
form: D = 0 is the metric verdict, A2(phi0) and A2(phi0) P are the anchor
condition's, and J_r(phi0) is kept on the morphism.  If an identity fails,
the degree-1 sweep runs.  Over the identity base the projected anchor is
the anchor condition; over a general base it is weaker, so chi, which
fails the anchor condition for m >= 1, still sweeps at cap 0.  (With the
metric condition, P G1^-1 A1^T = G2^-1 Q^T alone would imply Q P = A1;
with Q on both sides, as above, each of the three identities is needed.)

In auto mode the related pairs come from the morphism's retraction: the
constructive extension device g(y) = P(r(y)) f(r(y)).  That family is the
generating set the involutivity reduction works over, and certifying the
conditions on it is the default contract.  The characterization proper
quantifies over ANY related representatives g + h with h o phi0 = 0, and
representatives that wiggle off the image can break the bracket condition
even when the retraction family verifies (zero-section embeddings are the
canonical case: a related pair like (dx-section, extension + z*x*dx) picks
up an x*dz bracket component along the image).  Strict representative
checking (n_perturbations > 0) decides that quantifier by a matrix
identity.  The q_a = y_a - phi0(r(y))_a generate every function vanishing
on the image, so h = sum_a q_a w_a, and the rows of
N = I - Jac(phi0) J_r(phi0) are the gradients of the q_a along the image.
With q_a o phi0 = 0 the Leibniz rules give, along the image,
  in the second slot:  [[g_f, g_g + q_a w]] - [[g_f, g_g]] = (N A2(phi0) P f)_a w,
  in the first slot:   [[g_f + q_a w, g_g]] - [[g_f, g_g]]
                         = -(N A2(phi0) P g)_a w + <w, P g>_2 G2^-1 (N A2(phi0))^T e_a,
and every term of [[q_a w, q_b w']] carries a factor q, so the changes
add.  All of them vanish iff N A2(phi0) = 0 or P = 0: if N A2(phi0) P != 0
the second slot with w = e_k shows it, and otherwise the first slot's last
term is nonzero for some w, g and a unless P = 0 or N A2(phi0) = 0.  So
the strict bracket condition holds iff the retraction one does and
N A2(phi0) = 0 or P = 0; a failure is reported as a matrix failure at the
first nonzero entry of N A2(phi0), with "representatives": "perturbed".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import linalg
from .bundles import BundleMorphism, Section, TrivialBundle, check_related, related_section
from .courant_core import (
    MAX_FAMILY,
    SWEEP_ORDER,
    CourantStructure,
    _least_failing_tuple,
    lift_structure,
    tagged_generating_section,
)
from .polyexpr import Polynomial, PolyMap

__all__ = [
    "ConditionFailure",
    "MorphismVerdict",
    "check_identity_base",
    "check_general_base",
    "GraphSubbundle",
    "graph_subbundle",
]


@dataclass
class ConditionFailure:
    condition: str  # "bracket" | "metric" | "anchor"
    witness: dict
    defect: list[str]

    def to_json(self) -> dict:
        return {"condition": self.condition, "witness": self.witness, "defect": self.defect}


@dataclass
class MorphismVerdict:
    failures: list[ConditionFailure] = field(default_factory=list)
    detail: str = ""

    @property
    def is_morphism(self) -> bool:
        return not self.failures

    def failed_conditions(self) -> set[str]:
        return {f.condition for f in self.failures}

    def to_json(self) -> dict:
        return {
            "is_morphism": self.is_morphism,
            "failures": [f.to_json() for f in self.failures],
            "detail": self.detail,
        }


def _least_failing_pair(bundle: TrivialBundle, cap: int, defect: list[Polynomial]):
    """The least family pair (f, g) among a tagged defect's nonzero terms,
    in the one witness order of every certificate
    (`courant_core._least_failing_tuple`); None if the defect vanishes."""
    return _least_failing_tuple(bundle, cap, [p._packed for p in defect], 2)


def _first_nonzero(defect) -> tuple[int, int] | None:
    """The first nonzero entry (r, c) of a defect matrix, in row-major order."""
    return next(
        ((r, c) for r, row in enumerate(defect) for c, p in enumerate(row) if not p.is_zero()),
        None,
    )


def _matrix_failure(condition: str, key: str, defect) -> ConditionFailure | None:
    """A failure located at the first nonzero entry of a defect matrix."""
    where = _first_nonzero(defect)
    if where is None:
        return None
    return ConditionFailure(
        condition, {key: list(where)}, [p.to_string() for row in defect for p in row]
    )


_ORDER = {"bracket": 0, "metric": 1, "anchor": 2}


def _verdict(failures: list, detail: str) -> MorphismVerdict:
    """The verdict on the failures found, in bracket, metric, anchor order."""
    found = [f for f in failures if f is not None]
    found.sort(key=lambda f: _ORDER[f.condition])
    return MorphismVerdict(found, detail=detail)


def _validate(s1: CourantStructure, s2: CourantStructure, phi: BundleMorphism):
    if phi.source != s1.bundle:
        raise ValueError("morphism source does not match the first structure")
    if phi.target != s2.bundle:
        raise ValueError("morphism target does not match the second structure")


# -- the three conditions, one implementation each ------------------------------


def _image_section(phi: BundleMorphism, f: Section) -> Section:
    """P f, the identity-base representative of f."""
    return Section(phi.target, phi.apply(f))


def tagged_bracket(s2, phi, cap, general=False):
    """(phi lifted by two tags, the tagged families, [[g_a, g_b]]_2): the
    target side of the bracket sweep.

    The families fa and fb on phi's source, tagged by its last two lifted
    variables t and s, encode every pair of monomial frame sections of
    degree <= cap.  Over the identity base their representatives g_a and
    g_b are P fa and P fb, and the bracket is not composed with the
    identity map; otherwise they are the retraction representatives and the
    bracket is composed with phi0.  At cap 0, fa = sum_i t^i e_i, so over a
    general base g_a = sum_i t^i e^_i with the extended frames
    e^_i = P(r(y)) e_i: the bracket is also the tagged frame bracket of
    the pullback along phi (see pullback).  The result is kept on phi with
    s2, cap and the base mode (`BundleMorphism.kept_bracket`), so a
    pullback problem and a check into the same structure form it once.
    """
    return phi.kept_bracket((s2, cap, general),
                            lambda: _target_side(s2, phi, cap, general))


def _target_side(s2, phi, cap, general):
    """`tagged_bracket` without the kept result."""
    n, phil = phi.source.base_dim, phi.lifted(2)
    families = [tagged_generating_section(phi.source, cap, 2, n + slot) for slot in (0, 1)]
    represent = related_section if general else _image_section
    bracket = lift_structure(s2, 2).bracket(*(represent(phil, f) for f in families)).coeffs
    if general:
        bracket = [p.compose(phil.base_map) for p in bracket]
    return phil, families, list(bracket)


def _bracket_failure(s1, s2, phi, cap, general=False):
    """The bracket condition's least failing family pair, or None.

    The defect is phi o [[fa, fb]]_1 minus the target side
    (`tagged_bracket`), over every pair of monomial frame sections of
    degree <= cap at once.  The witness carries its plain defect,
    recomputed on explicit sections.
    """
    phil, (fa, fb), bracket = tagged_bracket(s2, phi, cap, general)
    defect = [a - b for a, b in zip(phil.apply(lift_structure(s1, 2).bracket(fa, fb)), bracket)]
    pair = _least_failing_pair(s1.bundle, cap, defect)
    if pair is None:
        return None
    f1, f2 = pair
    represent = related_section if general else _image_section
    shown = _plain_defect(s1, s2, phi, "bracket", f1, f2, represent(phi, f1), represent(phi, f2))
    w1, w2 = f1.coeffs.to_strings(), f2.coeffs.to_strings()
    witness = ({"f1": w1, "f2": w2, "representatives": "retraction"} if general
               else {"f": w1, "g": w2})
    return ConditionFailure("bracket", witness, shown)


def _perturbed_failure(phi, a2) -> ConditionFailure | None:
    """The strict bracket condition beyond the retraction family: the matrix
    N A2(phi0), unless P = 0 (see the module docstring)."""
    if linalg.pmat_is_zero(phi.fiber_matrix):
        return None
    failure = _matrix_failure("bracket", "entry", linalg.pmat_mul(phi.image_complement, a2))
    if failure is not None:
        failure.witness["representatives"] = "perturbed"
    return failure


def _metric_failure(s1, s2, phi, general=False) -> ConditionFailure | None:
    """The metric condition from its defect matrix D = P^T G2 P - G1.

    Over the identity base the failure is D itself, located at its first
    nonzero entry.  Over a general base that entry (i, j) names the least
    failing family pair (e_i, e_j) (see the module docstring), reported
    with its plain defect on the retraction representatives.
    """
    n = s1.bundle.base_dim
    defect = linalg.pmat_sub(phi.induced_metric(s2.metric), linalg.pmat_constant(s1.metric, n))
    if not general:
        return _matrix_failure("metric", "fiber_pair", defect)
    where = _first_nonzero(defect)
    if where is None:
        return None
    f1, f2 = (Section.frame(s1.bundle, i) for i in where)
    witness = {"f1": f1.coeffs.to_strings(), "f2": f2.coeffs.to_strings(),
               "representatives": "retraction"}
    return ConditionFailure("metric", witness, _plain_defect(
        s1, s2, phi, "metric", f1, f2, related_section(phi, f1), related_section(phi, f2)
    ))


def _along_image(s2, phi, general=False):
    """(A2(phi0), A2(phi0) P): the target anchor along the image and its
    product with the fiber matrix, which the anchor condition and the
    tensorial gate share.  Over a general base both are the morphism's
    kept pair; over the identity base A2 is not composed."""
    if general:
        return phi.anchor_along_image(s2.anchor)
    return s2.anchor, linalg.pmat_mul(s2.anchor, phi.fiber_matrix,
                                      phi.source.rank, phi.source.base_dim)


def _anchor_failure(s1, phi, a2p, general=False) -> ConditionFailure | None:
    """The anchor condition from its defect matrix A2(phi0) P - Jac(phi0) A1,
    given A2(phi0) P.  Over the identity base Jac(phi0) A1 is A1 itself."""
    ja1 = s1.anchor
    if general:
        ja1 = linalg.pmat_mul(phi.base_jacobian, ja1, s1.bundle.rank, s1.bundle.base_dim)
    return _matrix_failure("anchor", "entry", linalg.pmat_sub(a2p, ja1))


def _tensorial(s1, s2, phi, a2, a2p, general=False) -> bool:
    """The projected anchor Q P = A1 and the D-identity
    Q (P G1^-1 P^T - G2^-1) = 0, with Q = J_r(phi0(x)) A2(phi0).

    With the metric condition they make the bracket defect tensorial (see
    the module docstring).  Over the identity base J_r = I.
    """
    n = s1.bundle.base_dim
    projected, q = a2p, a2
    if general:
        jr = phi.retraction_jacobian
        projected = linalg.pmat_mul(jr, a2p, s1.bundle.rank, n)
        q = linalg.pmat_mul(jr, a2, s2.bundle.rank, n)
    if projected != s1.anchor:
        return False
    p_t = linalg.pmat_transpose(phi.fiber_matrix, s1.bundle.rank)
    source_side = linalg.pmat_mul(
        linalg.pmat_mul_constant(projected, s1.metric_inverse, n), p_t, s2.bundle.rank, n
    )
    return source_side == linalg.pmat_mul_constant(q, s2.metric_inverse, n)


def _auto_failures(s1, s2, phi, degree_cap, general=False, strict=False) -> list:
    """The three conditions in auto mode.  The bracket is swept at
    min(degree_cap, SWEEP_ORDER), or at cap 0 when the defect is tensorial;
    strict checking adds the perturbed representatives' matrix identity
    (see the module docstring)."""
    a2, a2p = _along_image(s2, phi, general)
    metric = _metric_failure(s1, s2, phi, general)
    tensorial = metric is None and _tensorial(s1, s2, phi, a2, a2p, general)
    bracket = _bracket_failure(s1, s2, phi, 0 if tensorial else min(degree_cap, SWEEP_ORDER),
                               general)
    if bracket is None and strict:
        bracket = _perturbed_failure(phi, a2)
    return [bracket, metric, _anchor_failure(s1, phi, a2p, general)]


# -- identity base --------------------------------------------------------------


def check_identity_base(
    s1: CourantStructure,
    s2: CourantStructure,
    phi: BundleMorphism,
    degree_cap: int = 3,
) -> MorphismVerdict:
    """Exact morphism verdict for a bundle morphism over the identity.

    The bracket condition is certified over every pair of monomial frame
    sections of degree <= min(degree_cap, SWEEP_ORDER), or of degree 0
    when the defect is tensorial, which is complete for all smooth
    sections at any cap >= 1 (see the module docstring); otherwise cap 0 is
    a bounded claim over constant sections.  The least failing pair is
    decoded from the certificate and its plain defect recomputed.  The
    metric and anchor conditions are matrix identities.  The detail names
    the requested cap.
    """
    _validate(s1, s2, phi)
    if s1.bundle.base_dim != s2.bundle.base_dim:
        raise ValueError("identity-base check needs equal base dimensions")
    if not phi.is_identity_base():
        raise ValueError("base map is not the identity")
    return _verdict(_auto_failures(s1, s2, phi, degree_cap),
                    f"identity-base criteria at degree cap {degree_cap}")


# -- general base ----------------------------------------------------------------


def _bracket_defect(s1, s2, phi, f1, f2, g1, g2) -> list[Polynomial]:
    """phi o [[f1,f2]]_1 - [[g1,g2]]_2 o phi0, componentwise."""
    return [
        a - b
        for a, b in zip(
            phi.apply(s1.bracket(f1, f2)),
            (p.compose(phi.base_map) for p in s2.bracket(g1, g2).coeffs),
        )
    ]


def _metric_defect(s1, s2, phi, f1, f2, g1, g2) -> list[Polynomial]:
    """<f1,f2>_1 - <g1,g2>_2 o phi0, as a one-entry list."""
    return [s1.pairing(f1, f2) - s2.pairing(g1, g2).compose(phi.base_map)]


_PAIR_DEFECTS = {"bracket": _bracket_defect, "metric": _metric_defect}


def _plain_defect(s1, s2, phi, condition, f1, f2, g1, g2) -> list[str]:
    """A decoded pair's plain defect on `condition`, re-verified nonzero."""
    defect = _PAIR_DEFECTS[condition](s1, s2, phi, f1, f2, g1, g2)
    if all(p.is_zero() for p in defect):
        raise RuntimeError(
            "internal inconsistency: the sweep flagged a pair whose "
            "plain defect vanishes"
        )
    return [p.to_string() for p in defect]


def check_general_base(
    s1: CourantStructure,
    s2: CourantStructure,
    phi: BundleMorphism,
    pairs="auto",
    degree_cap: int = 3,
    seed: int = 0,
    n_perturbations: int = 0,
) -> MorphismVerdict:
    """Exact morphism verdict over a general base via phi-related sections.

    pairs="auto" derives related sections from the morphism's retraction
    (required in that mode).  The bracket condition is then certified over
    every pair of monomial frame sections of degree
    <= min(degree_cap, SWEEP_ORDER), or of degree 0 when the defect is
    tensorial, with their retraction-generated representatives, the
    generating family the involutivity reduction rests on.  That is
    complete for all smooth sections at any cap >= 1 (see the module
    docstring); otherwise cap 0 is a bounded claim.  The least
    failing pair is decoded and reported with its plain defect, recomputed
    on explicit sections.  The metric and anchor conditions are matrix
    identities, as over the identity base: on the retraction
    representatives the metric condition is P^T G2 P = G1, and a failure
    reports the frame pair (e_i, e_j) of the first nonzero entry of the
    defect matrix.  The detail names the requested cap.

    n_perturbations > 0 turns on strict representative checking, the full
    "any (and hence each)" quantifier over representatives perturbed by
    terms that vanish on the image.  By the Leibniz rules it holds iff the
    retraction verdict does and N A2(phi0) = 0 or P = 0, with
    N = I - Jac(phi0) J_r(phi0): perturbing a slot by q_a w changes the
    bracket along the image by (N A2(phi0) P f)_a w in the second slot and
    by -(N A2(phi0) P g)_a w + <w, P g>_2 G2^-1 (N A2(phi0))^T e_a in the
    first (see the module docstring).  A strict failure reports the first
    nonzero entry of N A2(phi0) with "representatives": "perturbed".
    Perturbations never change the metric defect.  The count and seed are
    accepted for compatibility; nothing is drawn.  Zero-section embeddings
    generally fail the strict check even when they verify on the
    retraction family.

    Alternatively pass an explicit list of (source_section, target_section)
    pairs; pairs failing the relatedness equation are an input error, not a
    morphism failure.  Every ordered pair of supplied pairs is checked, so
    more than 16 of them (their square above MAX_FAMILY) raise ValueError.
    """
    _validate(s1, s2, phi)
    if pairs == "auto":
        if phi.retraction is None:
            raise ValueError("auto mode needs a morphism with a retraction")
        failures = _auto_failures(s1, s2, phi, degree_cap, True, n_perturbations > 0)
    else:
        checked = list(pairs)
        if len(checked) ** 2 > MAX_FAMILY:
            raise ValueError(f"too many supplied pairs: {len(checked)}, whose "
                             f"{len(checked) ** 2} ordered pairs exceed {MAX_FAMILY}")
        if not all(check_related(phi, f, g) for f, g in checked):
            raise ValueError(
                "supplied pair is not phi-related (input error, not a morphism failure)"
            )
        found: dict[str, ConditionFailure] = {}
        for (f1, g1), (f2, g2) in itertools.product(checked, repeat=2):
            for condition, defect_of in _PAIR_DEFECTS.items():
                if condition in found:
                    continue
                defect = defect_of(s1, s2, phi, f1, f2, g1, g2)
                if any(not p.is_zero() for p in defect):
                    found[condition] = ConditionFailure(
                        condition, {"f1": f1.coeffs.to_strings(), "f2": f2.coeffs.to_strings()},
                        [p.to_string() for p in defect],
                    )
        failures = [*found.values(),
                    _anchor_failure(s1, phi, _along_image(s2, phi, True)[1], True)]
    return _verdict(failures, f"general-base criteria at degree cap {degree_cap}")


# -- graph presentation ------------------------------------------------------------


@dataclass
class GraphSubbundle:
    """The graph of a morphism inside the product bundle.

    base_embedding: x -> (x, phi0(x)); fiber_generators: columns spanning
    {(e, P(x) e)} over each source base point.
    """

    source: TrivialBundle
    target: TrivialBundle
    base_embedding: PolyMap
    fiber_generators: list[list[Polynomial]]

    def to_json(self) -> dict:
        return {
            "base_embedding": self.base_embedding.to_strings(),
            "fiber_generators": [
                [p.to_string() for p in row] for row in self.fiber_generators
            ],
        }


def graph_subbundle(phi: BundleMorphism) -> GraphSubbundle:
    """Product-bundle presentation of graph(phi) over graph(phi0)."""
    n = phi.source.base_dim
    embedding = PolyMap(
        n,
        [Polynomial.variable(n, i) for i in range(n)]
        + list(phi.base_map.outputs),
    )
    top = linalg.pmat_constant(linalg.identity(phi.source.rank), n)
    generators = top + [list(row) for row in phi.fiber_matrix]
    return GraphSubbundle(phi.source, phi.target, embedding, generators)
