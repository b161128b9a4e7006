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
so the pair's metric defect is -f1^T D f2.  On a pair of family members
(x^alpha e_i, x^beta e_j) that reads -x^(alpha + beta) D_ij, so the pair
fails iff D_ij is nonzero, and the least failing pair in the witness order
below is the frame pair (e_i, e_j), with (i, j) the first nonzero entry of
D in row-major order.  A perturbed representative g + q*w has q o phi0 = 0,
so every term the perturbation adds to <g1,g2>_2 carries a factor q and
vanishes once composed with phi0: perturbations never change the metric
defect.  The general base therefore reports the pair (e_i, e_j) with
"representatives": "retraction" and its plain defect, and strict
representative checking re-checks only the bracket.

The bracket condition is decided over the family of monomial frame
sections x^alpha e_i, and degree 1 is enough: the defect is a differential
operator of order <= 1 in each slot with polynomial coefficients,
sum_beta a_beta d^beta with |beta| <= 1; the retraction-generated
representatives compose with r and, in the condition, with phi0, and
r o phi0 = id keeps the order at 1.  Applied to x^alpha e_i the operator
gives alpha! a_alpha plus terms with smaller beta, so by induction on alpha
it vanishes iff it vanishes on every x^alpha e_i with |alpha| <= 1.  The
check therefore decides the family at min(degree_cap, SWEEP_ORDER), which
at any cap >= 1 covers every pair of smooth sections; an explicit cap 0
decides constant sections only and stays a bounded claim.  The verdict's
detail names the requested cap.  A failure reports the least failing pair
in the one witness order of every certificate (see courant_core): pairs
order by the larger coefficient degree of their members, then by the tags
i*M + a of their members slot by slot, a being alpha's place in the graded
`monomials_up_to` list.  So every frame pair precedes every pair of
degree 1, and the witness is the same at every cap >= 1.

The defect comes from the frame data in closed form, with no lift and no
bracket.  Write Delta(f, g) = phi o [[f,g]]_1 - [[g_f, g_g]]_2 o phi0 for
the representatives g_f = P(r) f(r) (P f over the identity base), and let
J_r = J_r(phi0(x)) and Q = J_r A2(phi0); over the identity base J_r = I
and phi0 = id.  For a function lam on the source base the representative
of lam g is (lam o r) g_g, since g_g is formed pointwise at r(y).  Then
r o phi0 = id gives (lam o r) o phi0 = lam and g_g o phi0 = P g, and the
chain rule gives rho2(g_f)(lam o r) o phi0 = (Q P f) . grad(lam) and
D2(lam o r) o phi0 = G2^-1 Q^T grad(lam).

  * The frame table.  For any frame data with constant symmetric G the
    expansion of the bracket (see courant_core) of the extended frames
    e^_i = P(r) e_i gives

      Gamma_ij := [[e^_i, e^_j]]_2 o phi0
                = sum_abh P_ai P_bj c2_ab^h(phi0) e_h + sum_l (Q P)_li d_l(P e_j)
                  - sum_l (Q P)_lj d_l(P e_i) + G2^-1 Q^T w_ij,
      (w_ij)_l = ((d_l P)^T G2 P)_ij,

    term by term: the c-term at the coefficients P_ai and P_bj, the two
    anchor terms by the chain rule, and sum_ab G2_ab P_bj D2(P_ai o r) o phi0
    with d_l(P_ai) for the derivative.  `frame_table` forms it from the
    nonzero factors only, so with c2 = 0 and P constant it is empty at
    once; the pullback reads the same table.  On frame pairs
    Delta_ij = sum_h c1_ij^h P e_h - Gamma_ij.
  * The degree-1 lines.  Write T = A1 - Q P, U = P G1^-1 A1^T,
    V = G2^-1 Q^T and W = P^T G2 P.  The Leibniz rules of both brackets,
    [[f, lam g]] = lam [[f,g]] + rho(f)(lam) g and
    [[lam f, g]] = lam [[f,g]] - rho(g)(lam) f + <f,g> D(lam), with the
    chain rule above and P D1(lam) = U grad(lam),
    <g_f, g_g>_2 o phi0 = f^T W g, give for a linear lam = x_a or x_b

      Delta(e_i, x_b e_j) = x_b Delta_ij + T_bi P e_j,
      Delta(x_a e_i, e_j) = x_a Delta_ij + R_aij,
          R_aij = -T_aj P e_i + (G1)_ij U e_a - W_ij V e_a,
      Delta(x_a e_i, x_b e_j) = x_a x_b Delta_ij + x_a T_bi P e_j + x_b R_aij,

    the first from the g-slot rule, the second from the f-slot rule, the
    third from the f-slot rule with g = x_b e_j and then the first line.
  * The pass identities.  Hence at cap >= 1 the bracket condition holds iff
    every Delta_ij, every T_bi P e_j and every R_aij vanishes: then the
    third line vanishes, and conversely the first two lines at Delta = 0
    read T_bi P e_j and R_aij.  Polynomials have no zero divisors, so
    T_bi P e_j = 0 for all (b, i, j) iff T = 0 or P = 0, and then
    R_aij = (G1)_ij U e_a - W_ij V e_a: the condition is Delta = 0,
    T = 0 or P = 0, and (G1)_ij U = W_ij V for every (i, j).  G1 is
    nonsingular, so some (G1)_i0j0 is nonzero, and the last identity says
    U = mu V with mu = W_i0j0 / (G1)_i0j0, and then (mu (G1)_ij - W_ij) V = 0,
    so W = mu G1 unless V = 0 (when U = 0 too).  With the metric condition
    W = G1 and mu = 1, so it reads U = V; with T = 0 as well, U =
    P G1^-1 P^T Q^T, and the identity is Q (P G1^-1 P^T - G2^-1) = 0.  So
    D = 0, Q P = A1 and that identity make Delta C-infinity-linear in both
    slots.  Over the identity base Q P = A1 is the anchor condition; over
    a general base it is weaker, so chi, which fails the anchor condition
    for m >= 1, still passes the bracket condition: the anchor of the
    structure pulled back along it is Q P by construction.

`_bracket_failure` decides the pass from the identities at the cap, and
on a failure enumerates the pairs of degree <= min(cap, 1) in the witness
order by the three lines, up to the first nonzero one.  Only that pair's
defect is recomputed through the plain brackets, on explicit sections, and
a vanishing plain defect is reported as an internal inconsistency.

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
from .courant_core import MAX_FAMILY, SWEEP_ORDER, CourantStructure
from .polyexpr import (
    Polynomial,
    PolyMap,
    _checked,
    _mul_into,
    _normalised,
    _product,
    _raw,
    _scaled,
    monomials_up_to,
    poly_sum,
)

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


def frame_table(s2, phi, q, qp, general=False) -> dict:
    """{(i, j): Gamma_ij} over the nonzero frame brackets of the
    representatives, Gamma_ij = [[P e_i, P e_j]]_2 o phi0, each a list of
    polynomials in the source variables, in closed form (see the module
    docstring); q and qp are Q = J_r(phi0) A2(phi0) and Q P.  Over the
    identity base c2 is not composed.  Only nonzero factors are multiplied,
    so with c2 = 0 and P constant the table is empty at once.
    """
    n, k1, p = phi.source.base_dim, phi.source.rank, phi.fiber_matrix
    terms = [_structure_terms(s2, phi, general)]
    if not linalg.pmat_is_constant(p):
        pt_g = phi.transposed_metric(s2.metric)
        v_t = linalg.pmat_mul_constant(q, s2.metric_inverse, n)
        for l in range(n):
            w = linalg.pmat_mul([[e.diff(l) for e in row] for row in pt_g], p, k1, n)
            terms += [_anchor_terms(qp[l], [[e.diff(l) for e in row] for row in p]),
                      _derived_terms(v_t[l], w)]
    cells: dict = {}
    for i, j, h, x, y in itertools.chain(*terms):
        _mul_into(cells.setdefault((i, j), [{} for _ in p])[h], x, y)
    return {pair: [_raw(n, _checked(_normalised(c), n)) for c in vec]
            for pair, vec in cells.items() if any(vec)}


def _structure_terms(s2, phi, general):
    """(i, j, h, x, y) with x y = P_ai P_bj c2_ab^h(phi0), over the nonzero P_ai and P_bj."""
    n, p = phi.source.base_dim, [[e._packed for e in row] for row in phi.fiber_matrix]
    for (a, b, h), c in s2.structure_functions.items():
        c = (c.compose(phi.base_map) if general else c)._packed
        yield from ((i, j, h, _product(x, y, n), c)
                    for i, x in enumerate(p[a]) if x for j, y in enumerate(p[b]) if y)


def _anchor_terms(qp_l, dp):
    """(i, j, h, x, y) with x y = (Q P)_li d_l(P e_j)_h, into Gamma_ij and
    negated into Gamma_ji, over the nonzero factors; dp = d_l P."""
    return ((*pair, h, x, d._packed) for i, qpli in enumerate(qp_l) if qpli._packed
            for h, row in enumerate(dp) for j, d in enumerate(row) if d._packed
            for pair, x in (((i, j), qpli._packed), ((j, i), _scaled(qpli._packed, -1))))


def _derived_terms(v_l, w):
    """(i, j, h, x, y) with x y = (G2^-1 Q^T)_hl (w_ij)_l over the nonzero
    factors, given row l of Q G2^-1 and w = (d_l P)^T G2 P."""
    return ((i, j, h, v._packed, wij._packed) for i, row in enumerate(w)
            for j, wij in enumerate(row) if wij._packed for h, v in enumerate(v_l) if v._packed)


def _frame_defects(s1, phi, gamma) -> dict:
    """{(i, j): Delta_ij} over the nonzero Delta_ij = sum_h c1_ij^h P e_h - Gamma_ij."""
    n, p = s1.bundle.base_dim, phi.fiber_matrix
    out = {pair: [-g for g in vec] for pair, vec in gamma.items()}
    for (i, j, h), c in s1.structure_functions.items():
        out[i, j] = [v + c * row[h] for v, row in zip(out.get((i, j), [Polynomial(n)] * len(p)), p)]
    return {pair: vec for pair, vec in out.items() if not all(v.is_zero() for v in vec)}


class _Tables:
    """What Delta on the pairs of degree <= 1 is read from (see the module
    docstring): P, G1, the nonzero Delta_ij, T = A1 - Q P, W = P^T G2 P,
    U^T = A1 G1^-1 P^T, V^T = Q G2^-1, and whether the metric condition
    W = G1 holds."""

    def __init__(self, s1, s2, phi, a2, a2p, metric_holds, general):
        n, k1, k2 = s1.bundle.base_dim, s1.bundle.rank, s2.bundle.rank
        q, qp = a2, a2p
        if general:
            jr = phi.retraction_jacobian
            q, qp = linalg.pmat_mul(jr, a2, k2, n), linalg.pmat_mul(jr, a2p, k1, n)
        self.p, self.g1, self.metric_holds = phi.fiber_matrix, s1.metric, metric_holds
        self.delta = _frame_defects(s1, phi, frame_table(s2, phi, q, qp, general))
        self.t, self.w = linalg.pmat_sub(s1.anchor, qp), phi.induced_metric(s2.metric)
        self.u_t = linalg.pmat_mul(linalg.pmat_mul_constant(s1.anchor, s1.metric_inverse, n),
                                   linalg.pmat_transpose(self.p, k1), k2, n)
        self.v_t = linalg.pmat_mul_constant(q, s2.metric_inverse, n)


def _degree_1_holds(d: _Tables) -> bool:
    """T = 0 or P = 0, and (G1)_ij U = W_ij V for every (i, j): with
    Delta = 0 on frame pairs, Delta vanishes on every pair of degree 1."""
    return (linalg.pmat_is_zero(d.t) or linalg.pmat_is_zero(d.p)) and _pairing_terms_agree(d)


def _pairing_terms_agree(d: _Tables) -> bool:
    """(G1)_ij U = W_ij V for every (i, j).  With (i0, j0) the first nonzero
    entry of G1 and mu = W_i0j0 / (G1)_i0j0, that is U = mu V, and W = mu G1
    unless V = 0; with the metric condition mu = 1 and it is U = V."""
    if d.metric_holds:
        return d.u_t == d.v_t
    i, j = next((i, j) for i, row in enumerate(d.g1) for j, v in enumerate(row) if v)
    mu = d.w[i][j] * (1 / d.g1[i][j])
    return d.u_t == [[mu * v for v in row] for row in d.v_t] and (linalg.pmat_is_zero(d.v_t) or all(
        w == mu * g for w_row, g_row in zip(d.w, d.g1) for w, g in zip(w_row, g_row)))


def _first_slot(d: _Tables, a, i, j) -> list[Polynomial]:
    """R_aij = -T_aj P e_i + (G1)_ij U e_a - W_ij V e_a."""
    return [d.g1[i][j] * u - d.t[a][j] * row[i] - d.w[i][j] * v
            for row, u, v in zip(d.p, d.u_t[a], d.v_t[a])]


def _fails(d: _Tables, monos, xs, pair) -> bool:
    """Whether Delta is nonzero on the family pair (x^alpha_a e_i,
    x^alpha_b e_j) of degree <= 1, pair = ((i, a), (j, b)), with the
    monomials xs[a] = x^alpha_a, by the lines of the module docstring."""
    (i, a), (j, b) = pair
    terms = [(xs[a] * xs[b], d.delta[i, j])] if (i, j) in d.delta else []
    if b:
        terms.append((xs[a] * d.t[monos[b].index(1)][i], [row[j] for row in d.p]))
    if a:
        terms.append((xs[b], _first_slot(d, monos[a].index(1), i, j)))
    return any(not poly_sum(len(monos[0]), (s * v[h] for s, v in terms)).is_zero()
               for h in range(len(d.p)))


def _witness_order(rank, monos):
    """Every family pair ((i, a), (j, b)) of members x^alpha_a e_i, in the
    one witness order: the larger degree first, then the tags i*M + a and
    j*M + b slot by slot.  The product lists the pairs in tag order, and
    the sort by degree is stable."""
    degrees = [sum(alpha) for alpha in monos]
    members = [(i, a) for i in range(rank) for a in range(len(monos))]
    return sorted(itertools.product(members, repeat=2),
                  key=lambda pair: max(degrees[pair[0][1]], degrees[pair[1][1]]))


def _bracket_failure(s1, s2, phi, cap, a2, a2p, metric_holds, general=False):
    """The bracket condition's failure at its least failing family pair of
    degree <= min(cap, 1), or None.

    The defect is decided from the frame tables (see the module docstring):
    at cap 0 it vanishes iff every Delta_ij does, at cap >= 1 iff also
    `_degree_1_holds`.  On a failure the pairs are enumerated in the
    witness order up to the first nonzero one, whose plain defect is
    recomputed on explicit sections.  A source of rank 0 has no pairs.
    """
    if not s1.bundle.rank:
        return None
    d = _Tables(s1, s2, phi, a2, a2p, metric_holds, general)
    if not d.delta and (not cap or _degree_1_holds(d)):
        return None
    n = s1.bundle.base_dim
    monos = monomials_up_to(n, min(cap, 1))
    xs = [Polynomial.monomial(n, alpha) for alpha in monos]
    pair = next((p for p in _witness_order(s1.bundle.rank, monos) if _fails(d, monos, xs, p)), None)
    if pair is None:
        raise RuntimeError("internal inconsistency: no pair of degree <= 1 fails")
    f1, f2 = (Section.frame(s1.bundle, i, xs[a]) for i, a in pair)
    return _pair_failure("bracket", s1, s2, phi, f1, f2, general)


def _pair_failure(condition, s1, s2, phi, f1, f2, general) -> ConditionFailure:
    """A failure witnessed by the family pair (f1, f2), with its plain
    defect on their representatives."""
    represent = related_section if general else _image_section
    shown = _plain_defect(s1, s2, phi, condition, f1, f2, represent(phi, f1), represent(phi, f2))
    w1, w2 = f1.coeffs.to_strings(), f2.coeffs.to_strings()
    witness = ({"f1": w1, "f2": w2, "representatives": "retraction"} if general
               else {"f": w1, "g": w2})
    return ConditionFailure(condition, witness, shown)


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
    return _pair_failure("metric", s1, s2, phi, f1, f2, True)


def _along_image(s2, phi, general=False):
    """(A2(phi0), A2(phi0) P): the target anchor along the image and its
    product with the fiber matrix, which the anchor condition and the
    bracket's frame tables share.  Over a general base both are the
    morphism's kept pair; over the identity base A2 is not composed."""
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


def _auto_failures(s1, s2, phi, degree_cap, general=False, strict=False) -> list:
    """The three conditions in auto mode.  The bracket is decided at
    min(degree_cap, SWEEP_ORDER) from the frame tables; strict checking
    adds the perturbed representatives' matrix identity (see the module
    docstring)."""
    a2, a2p = _along_image(s2, phi, general)
    metric = _metric_failure(s1, s2, phi, general)
    bracket = _bracket_failure(s1, s2, phi, min(degree_cap, SWEEP_ORDER), a2, a2p,
                               metric is None, general)
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

    The bracket condition is decided over every pair of monomial frame
    sections of degree <= min(degree_cap, SWEEP_ORDER), which is complete
    for all smooth sections at any cap >= 1; cap 0 is a bounded claim over
    constant sections.  The verdict comes from closed forms in the frame
    data, with no lift and no bracket (see the module docstring); only a
    failure's least failing pair has its plain defect recomputed.  The
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
            "internal inconsistency: the frame tables flagged a pair whose "
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
    (required in that mode).  The bracket condition is then decided over
    every pair of monomial frame sections of degree
    <= min(degree_cap, SWEEP_ORDER) with their retraction-generated
    representatives, the generating family the involutivity reduction
    rests on.  That is complete for all smooth sections at any cap >= 1;
    cap 0 is a bounded claim.  The verdict comes from closed forms in the
    frame data, the frame table Gamma of the extended frames and the
    degree-1 lines, with no lift and no bracket (see the module
    docstring).  The least failing pair is reported with its plain
    defect, recomputed on explicit sections.  The metric and anchor
    conditions are matrix identities, as over the identity base: on the
    retraction representatives the metric condition is P^T G2 P = G1, and
    a failure reports the frame pair (e_i, e_j) of the first nonzero entry
    of the defect matrix.  The detail names the requested cap.

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
