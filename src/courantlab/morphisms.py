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
min(degree_cap, SWEEP_ORDER); an explicit cap 0 sweeps constant sections
only and stays a bounded claim.  The verdict's detail names the requested
cap, which the complete certificate covers.  A failing bracket reports its
least failing pair (see `_least_failing_pair`), which is the same at every
cap >= 1.

In auto mode the related pairs come from the morphism's retraction: the
constructive extension device g(y) = P(r(y)) f(r(y)).  That family is the
generating set the involutivity reduction works over, and certifying the
conditions on it is the default contract.  The characterization proper
quantifies over ANY related representatives, and representatives that
wiggle off the image can break the bracket condition even when the
retraction family verifies (zero-section embeddings are the canonical
case: a related pair like (dx-section, extension + z*x*dx) picks up an
x*dz bracket component along the image).  Strict representative checking
is available through n_perturbations > 0, which re-checks the bracket on
representatives perturbed by image-vanishing terms.  A perturbed
representative g + q*w is affine, not linear, in the tagged family, so the
order argument does not reach it and that path sweeps at the requested cap.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from . import linalg
from .bundles import BundleMorphism, Section, TrivialBundle, check_related, related_section
from .courant_core import (
    SWEEP_ORDER,
    CourantStructure,
    decode_tag,
    lift_structure,
    random_section,
    tagged_generating_section,
)
from .polyexpr import Polynomial, PolyMap, monomials_up_to

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


# -- lifting helpers (inert tag variables, cf. courant_core) -------------------


def _lift_polymap(pm: PolyMap, extra: int) -> PolyMap:
    """Extend a base map by the identity on `extra` appended variables."""
    n = pm.num_inputs
    outs = [p.lift(n + extra, 0) for p in pm.outputs]
    outs += [Polynomial.variable(n + extra, n + i) for i in range(extra)]
    return PolyMap(n + extra, outs)


def _lift_morphism(phi: BundleMorphism, extra: int) -> BundleMorphism:
    src = TrivialBundle(phi.source.base_dim + extra, phi.source.rank, phi.source.label)
    tgt = TrivialBundle(phi.target.base_dim + extra, phi.target.rank, phi.target.label)
    n = phi.source.base_dim
    fiber = [[p.lift(n + extra, 0) for p in row] for row in phi.fiber_matrix]
    retraction = None
    if phi.retraction is not None:
        retraction = _lift_polymap(phi.retraction, extra)
    return BundleMorphism(src, tgt, _lift_polymap(phi.base_map, extra), fiber, retraction)


def _least_failing_pair(bundle: TrivialBundle, cap: int, defect: list[Polynomial]):
    """The least family pair (f, g) among a tagged defect's nonzero terms;
    None if the defect vanishes.

    Pairs are ordered by the larger coefficient degree, then by f's tag,
    then by g's; a tag i*M + a orders by frame index i, then by the index a
    in the graded `monomials_up_to` list.  So the least pair does not
    depend on term order, and when a pair of degree <= 1 fails it is the
    same pair at every cap >= 1.
    """
    n = bundle.base_dim
    degrees = [sum(alpha) for alpha in monomials_up_to(n, cap)]
    size = len(degrees)
    least = min(
        (
            (max(degrees[exps[n] % size], degrees[exps[n + 1] % size]),
             exps[n], exps[n + 1])
            for p in defect for exps in p.terms
        ),
        default=None,
    )
    if least is None:
        return None
    return tuple(decode_tag(bundle, cap, tag) for tag in least[1:])


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


def _bracket_failure(s1, s2, phi, cap, general=False, seed=0, n_perturbations=0):
    """The bracket condition's least failing family pair, or None.

    The two tagged families encode every pair of monomial frame sections of
    degree <= cap, and the source side phi o [[fa, fb]]_1 is formed once.
    Over the identity base the representatives are P fa and P fb and the
    target bracket is not composed with the identity map.  Otherwise they
    are the retraction representatives, then n_perturbations variants
    perturbed by image-vanishing terms q*w, each (q, w) drawn from
    random.Random(seed) in slot order; the first variant with a nonzero
    defect is reported.  A retraction witness carries its plain defect,
    recomputed on explicit sections; a perturbed one carries the tagged
    sweep's defect.
    """
    n = s1.bundle.base_dim
    s1l, s2l, phil = lift_structure(s1, 2), lift_structure(s2, 2), _lift_morphism(phi, 2)
    fa, fb = (tagged_generating_section(s1.bundle, cap, 2, n + slot) for slot in (0, 1))
    image = phil.apply(s1l.bracket(fa, fb))
    represent = related_section if general else _image_section
    ga, gb = represent(phil, fa), represent(phil, fb)
    variants = [(ga, gb, "retraction")]
    multipliers = _image_vanishing_multipliers(phil) if general and n_perturbations > 0 else []
    if multipliers:
        rng = random.Random(seed)
        nn = s2l.bundle.base_dim
        for round_idx in range(n_perturbations):
            perturbed = []
            for g in (ga, gb):
                q = rng.choice(multipliers)
                # w is drawn over the target's own variables: a tag variable
                # in w would shift the family pair its terms decode to
                w = random_section(rng, s2.bundle, 1, terms=1)
                w = Section(s2l.bundle, PolyMap(nn, [p.lift(nn) for p in w]))
                perturbed.append(g + q * w)
            variants.append((*perturbed, f"perturbation {round_idx}"))
    for gxa, gxb, label in variants:
        bracket = s2l.bracket(gxa, gxb).coeffs
        if general:
            bracket = [p.compose(phil.base_map) for p in bracket]
        defect = [a - b for a, b in zip(image, bracket)]
        pair = _least_failing_pair(s1.bundle, cap, defect)
        if pair is None:
            continue
        f1, f2 = pair
        if label == "retraction":
            shown = _plain_defect(s1, s2, phi, "bracket", f1, f2,
                                  represent(phi, f1), represent(phi, f2))
        else:
            shown = [p.to_string() for p in defect]
        w1, w2 = f1.coeffs.to_strings(), f2.coeffs.to_strings()
        witness = ({"f1": w1, "f2": w2, "representatives": label} if general
                   else {"f": w1, "g": w2})
        return ConditionFailure("bracket", witness, shown)
    return None


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


def _anchor_failure(s1, s2, phi, general=False) -> ConditionFailure | None:
    """The anchor condition from its defect matrix A2(phi0) P - Jac(phi0) A1.

    Over the identity base phi0 = id: A2 is not composed and Jac(phi0) A1
    is A1 itself.
    """
    n, k1 = s1.bundle.base_dim, s1.bundle.rank
    a2, ja1 = s2.anchor, s1.anchor
    if general:
        a2 = linalg.pmat_compose(a2, phi.base_map)
        ja1 = linalg.pmat_mul(phi.base_map.jacobian(), ja1, k1, n)
    defect = linalg.pmat_sub(linalg.pmat_mul(a2, phi.fiber_matrix, k1, n), ja1)
    return _matrix_failure("anchor", "entry", defect)


# -- identity base --------------------------------------------------------------


def check_identity_base(
    s1: CourantStructure,
    s2: CourantStructure,
    phi: BundleMorphism,
    degree_cap: int = 3,
) -> MorphismVerdict:
    """Exact morphism verdict for a bundle morphism over the identity.

    The bracket condition is certified over every pair of monomial frame
    sections of degree <= min(degree_cap, SWEEP_ORDER), which is complete
    for all smooth sections at any cap >= 1 (see the module docstring); cap
    0 is a bounded claim over constant sections.  The least failing pair is
    decoded from the certificate and its plain defect recomputed.  The
    metric and anchor conditions are matrix identities.  The detail names
    the requested cap.
    """
    _validate(s1, s2, phi)
    if s1.bundle.base_dim != s2.bundle.base_dim:
        raise ValueError("identity-base check needs equal base dimensions")
    if not phi.is_identity_base():
        raise ValueError("base map is not the identity")
    return _verdict([
        _bracket_failure(s1, s2, phi, min(degree_cap, SWEEP_ORDER)),
        _metric_failure(s1, s2, phi),
        _anchor_failure(s1, s2, phi),
    ], f"identity-base criteria at degree cap {degree_cap}")


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


def _image_vanishing_multipliers(phi: BundleMorphism) -> list[Polynomial]:
    """Components of q(y) = y - phi0(r(y)); each vanishes on the image."""
    r = phi.retraction
    composed = phi.base_map.compose(r)
    big = phi.target.base_dim
    out = []
    for a in range(big):
        q = Polynomial.variable(big, a) - composed[a]
        if not q.is_zero():
            out.append(q)
    return out


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
    <= min(degree_cap, SWEEP_ORDER) with their retraction-generated
    representatives, the generating family the involutivity reduction
    rests on.  That is complete for all smooth sections at any cap >= 1
    (see the module docstring); cap 0 is a bounded claim.  The least
    failing pair is decoded and reported with its plain defect, recomputed
    on explicit sections.  The metric and anchor conditions are matrix
    identities, as over the identity base: on the retraction
    representatives the metric condition is P^T G2 P = G1, and a failure
    reports the frame pair (e_i, e_j) of the first nonzero entry of the
    defect matrix.  The detail names the requested cap.

    n_perturbations > 0 turns on strict representative checking: the
    bracket is re-checked on representatives perturbed by terms that
    vanish on the image, drawn with the given seed; this is the full
    "any (and hence each)" quantifier.  Perturbations never change the
    metric defect (see the module docstring), so only the bracket is
    re-checked.  The perturbed representatives are affine in the tagged
    family, so the bracket then sweeps at the requested cap, and a failure
    on a perturbed variant reports the tagged sweep's defect.  Zero-section
    embeddings generally fail the strict check even when they verify on the
    retraction family; see the module docstring.

    Alternatively pass an explicit list of (source_section, target_section)
    pairs; pairs failing the relatedness equation are an input error, not a
    morphism failure.
    """
    _validate(s1, s2, phi)
    if pairs == "auto":
        if phi.retraction is None:
            raise ValueError("auto mode needs a morphism with a retraction")
        # perturbed representatives are affine in the family: no order argument
        cap = degree_cap if n_perturbations > 0 else min(degree_cap, SWEEP_ORDER)
        failures = [
            _bracket_failure(s1, s2, phi, cap, general=True, seed=seed,
                             n_perturbations=n_perturbations),
            _metric_failure(s1, s2, phi, general=True),
        ]
    else:
        checked = list(pairs)
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
        failures = list(found.values())
    failures.append(_anchor_failure(s1, s2, phi, general=True))
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
