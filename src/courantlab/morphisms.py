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
D in row-major order.  The general base therefore reports the pair
(e_i, e_j) with "representatives": "retraction" and the defect -D_ij.

The bracket condition is decided over the family of monomial frame
sections x^alpha e_i, and degree 1 is enough: the defect is a differential
operator of order <= 1 in each slot with polynomial coefficients,
sum_beta a_beta d^beta with |beta| <= 1; the retraction-generated
representatives compose with r and, in the condition, with phi0, and
r o phi0 = id keeps the order at 1.  Applied to x^alpha e_i the operator
gives alpha! a_alpha plus terms with smaller beta, so by induction on alpha
it vanishes iff it vanishes on every x^alpha e_i with |alpha| <= 1.  The
check therefore decides the family at the degree
`courant_core._decided_scope` reads off the cap, 1 at any cap >= 1, which
covers every pair of smooth sections; an explicit cap 0 decides constant
sections only and stays a bounded claim.  The verdict's detail is that
function's scope clause, and the walk reads its members from
`courant_core._degree_1_members`.  A failure reports the least failing
pair in the one witness order of every certificate (see courant_core):
pairs order by the larger coefficient degree of their members, then by the
tags i*M + a of their members slot by slot, a being alpha's place in the
graded `monomials_up_to` list.  So every frame pair precedes every pair of
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

Every matrix above that one morphism phi and one target structure s2
determine, P, P^T G2, W, A2(phi0), A2(phi0) P, Jac(phi0), Q, Q P, V and the
frame table, is formed once, in the record `along_image` keeps on phi with
s2 (`AlongImage`); constant frame data stay exact scalars there (see
`linalg`).  A pullback problem into s2 and every check of phi into s2 read
that record.  A composite chi o i with i a coordinate inclusion over the
identity, as the Pontryagin embedding is, reads chi's record through the
columns i selects: P i, i^T P^T G2 and i^T W i are selections, and so is
its frame table, Gamma_ij of the composite being Gamma_(r_i r_j) of chi.
T = A1 - Q P and U read the source structure as well, and each check forms
them.

`_bracket_failure` decides the pass from the identities at the decided
degree, and on a failure sums Delta on the pairs of that degree in the
witness order from the three lines (`_pair_defect`), up to the first
nonzero one: the witness, whose defect is that sum.  The frame pairs are
walked only where some Delta_ij is nonzero.  No failure brackets
a section; `tests/conftest.py` keeps the recomputation of a pair's defect
through the plain brackets as the reference the oracles compare it with.

In auto mode the verdict quantifies over the related pairs the morphism's
retraction generates, g(y) = P(r(y)) f(r(y)), the family the involutivity
reduction works over.  Representatives perturbed off the image, g + h with
h o phi0 = 0, can still break the bracket condition where that family
verifies: the Pontryagin embedding of R^1 into R^2 passes, and a slot
perturbed by y2 e_k, for some target frame e_k, breaks it.  The quantifier
over every representative is left to the generalized-morphism verdict, a
Dirac structure in E1 x E2-bar supported on the graph of phi0.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property

from . import linalg
from .bundles import BundleMorphism, check_related
from .courant_core import CourantStructure, _decided_scope, _degree_1_members, _member, _packed
from .polyexpr import (
    Polynomial,
    _checked,
    _mul_into,
    _normalised,
    _product,
    _raw,
    _scaled,
    poly_sum,
)

__all__ = [
    "ConditionFailure",
    "MorphismVerdict",
    "check_identity_base",
    "check_general_base",
]

# the most supplied pairs of `check_general_base`, whose ordered pairs are
# each bracketed
MAX_PAIRS = 16


class ConditionFailure:
    def __init__(self, condition: str, witness: dict, defect: list[str]):
        # condition: "bracket" | "metric" | "anchor"
        self.condition, self.witness, self.defect = condition, witness, defect

    def to_json(self) -> dict:
        return {"condition": self.condition, "witness": self.witness, "defect": self.defect}


class MorphismVerdict:
    def __init__(self, failures: list[ConditionFailure] | None = None, detail: str = ""):
        self.failures, self.detail = [] if failures is None else failures, detail

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


def _first_nonzero(defect: list[dict]) -> tuple[int, int] | None:
    """The first nonzero entry (r, c) of a defect matrix in sparse rows, in
    row-major order."""
    return next(((r, min(row)) for r, row in enumerate(defect) if row), None)


def _matrix_failure(condition: str, key: str, defect: list[dict], cols: int):
    """A failure located at the first nonzero entry of a defect matrix in
    sparse rows with `cols` columns, or None; a scalar entry prints as the
    constant polynomial it equals."""
    where = _first_nonzero(defect)
    if where is None:
        return None
    return ConditionFailure(condition, {key: list(where)},
                            [str(x) for row in linalg.dense(defect, cols) for x in row])


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


class AlongImage:
    """What the morphism conditions and the pullback read of one morphism
    phi into one target structure s2, each matrix formed once (see the
    module docstring): P; P^T G2 and W = P^T G2 P; A2(phi0) and A2(phi0) P;
    Jac(phi0); Q = J_r(phi0) A2(phi0), Q P and V^T = Q G2^-1; and the frame
    table Gamma, formed on first read.  Matrices are sparse rows in
    canonical form (see `linalg`), read off phi's `fiber_rows` and s2's
    `rows` with no dense matrix converted, so constant frame data are exact
    scalars; composition along phi0 substitutes into polynomial entries
    only.  Over the identity base nothing is composed, Q is A2 and `jac` is
    None for the identity; without a retraction Q, Q P and V^T are None.
    T = A1 - Q P and U^T = A1 G1^-1 P^T read the source structure's rows
    too, and each check forms them (`_Lines`).
    """

    def __init__(self, s2, phi):
        self.s2, self.phi = s2, phi
        self.n, self.k1, self.k2 = phi.source.base_dim, phi.source.rank, phi.target.rank
        self.p = p = phi.fiber_rows
        g2, g2_inv, a2 = s2.rows
        self.pt_g = linalg.pmat_mul(linalg.pmat_transpose(p, self.k1), g2)
        self.w = linalg.pmat_mul(self.pt_g, p)
        if phi.is_identity_base():
            self.base_map = self.jac = None
            self.a2 = self.q = a2
        else:
            self.base_map = phi.base_map
            self.a2 = linalg.pmat_compose(a2, phi.base_map)
            self.jac = linalg.sparse(phi.base_map.jacobian())
            self.q = None if phi.retraction is None else linalg.pmat_mul(linalg.pmat_compose(
                linalg.sparse(phi.retraction.jacobian()), phi.base_map), self.a2)
        self.ap = linalg.pmat_mul(self.a2, p)
        self.qp = self.v_t = None
        if self.q is not None:
            self.qp = self.ap if self.q is self.a2 else linalg.pmat_mul(self.q, p)
            self.v_t = linalg.pmat_mul(self.q, g2_inv)

    def selected(self, phi, cols: list[int]) -> "AlongImage":
        """The record of the composite phi whose column c is column cols[c]
        of this record's morphism (`bundles.compose_morphisms`): P, P^T G2,
        W, A2(phi0) P and Q P are selected, and Gamma too once this record
        has formed it (Gamma_ij of the composite is Gamma_(cols[i] cols[j]));
        the rest is shared."""
        out = object.__new__(AlongImage)
        vars(out).update(vars(self), phi=phi, k1=len(cols))
        if "table" in vars(self):
            out.table = {(i, j): self.table[a, b] for i, a in enumerate(cols)
                         for j, b in enumerate(cols) if (a, b) in self.table}
        out.p, out.ap = _columns(self.p, cols), _columns(self.ap, cols)
        out.pt_g = [self.pt_g[c] for c in cols]
        out.w = _columns([self.w[c] for c in cols], cols)
        out.qp = None if self.qp is None else _columns(self.qp, cols)
        return out

    @cached_property
    def table(self) -> dict:
        """`frame_table` of this record, formed on first read."""
        return frame_table(self)

    def normal(self, a: list[dict], qa: list[dict]) -> list[dict]:
        """N a = a - Jac(phi0) J_r a, given qa = J_r a, for
        N = I - Jac(phi0) J_r(phi0): zero over the identity base."""
        return linalg.pmat_sub(a, qa if self.jac is None else linalg.pmat_mul(self.jac, qa))


def _columns(a: list[dict], cols: list[int]) -> list[dict]:
    """The sparse rows of a restricted to the columns cols, renumbered."""
    return [{c: row[j] for c, j in enumerate(cols) if j in row} for row in a]


def along_image(s2, phi) -> AlongImage:
    """The record of phi into the target structure s2, formed once and kept
    on phi with s2 until phi is read into another target; a composite that
    names outer columns in `_selection` selects them from outer's record."""
    kept = phi._along
    if kept is not None and kept[0] is s2:
        return kept[1]
    if phi._selection is not None:
        outer, cols = phi._selection
        record = along_image(s2, outer).selected(phi, cols)
    else:
        record = AlongImage(s2, phi)
    object.__setattr__(phi, "_along", (s2, record))
    return record


def _diff(a: list[dict], l: int) -> list[dict]:
    """d_l of every entry of sparse rows, the nonzero ones kept."""
    return [{j: d for j, d in ((j, x.diff(l)) for j, x in row.items() if type(x) is Polynomial)
             if not linalg.is_zero(d)} for row in a]


def frame_table(rec: AlongImage) -> dict:
    """{(i, j): Gamma_ij} over the nonzero frame brackets of the
    representatives, Gamma_ij = [[P e_i, P e_j]]_2 o phi0, each a list of
    polynomials in the source variables, in closed form from the record
    (see the module docstring).  Over the identity base c2 is not composed.
    Only nonzero factors are multiplied, so with c2 = 0 and P constant the
    table is empty at once.
    """
    n, p = rec.n, rec.p
    terms = [_structure_terms(rec)]
    if not linalg.pmat_is_constant(p):
        for l in range(n):
            w = linalg.pmat_mul(_diff(rec.pt_g, l), p)
            terms += [_anchor_terms(rec.qp[l], _diff(p, l)), _derived_terms(rec.v_t[l], w)]
    cells: dict = {}
    for i, j, h, x, y in itertools.chain(*terms):
        _mul_into(cells.setdefault((i, j), [{} for _ in p])[h], x, y)
    return {pair: [_raw(n, _checked(_normalised(c), n)) for c in vec]
            for pair, vec in cells.items() if any(vec)}


def _structure_terms(rec):
    """(i, j, h, x, y) with x y = P_ai P_bj c2_ab^h(phi0), over the nonzero P_ai and P_bj."""
    n, p = rec.n, [{i: _packed(x) for i, x in row.items()} for row in rec.p]
    for (a, b, h), c in rec.s2.structure_functions.items():
        c = (c if rec.base_map is None else c.compose(rec.base_map))._packed
        yield from ((i, j, h, _product(x, y, n), c)
                    for i, x in p[a].items() for j, y in p[b].items())


def _anchor_terms(qp_l: dict, dp: list[dict]):
    """(i, j, h, x, y) with x y = (Q P)_li d_l(P e_j)_h, into Gamma_ij and
    negated into Gamma_ji, over the nonzero factors; dp = d_l P."""
    return ((*pair, h, x, d._packed) for i, qpli in ((i, _packed(x)) for i, x in qp_l.items())
            for h, row in enumerate(dp) for j, d in row.items()
            for pair, x in (((i, j), qpli), ((j, i), _scaled(qpli, -1))))


def _derived_terms(v_l: dict, w: list[dict]):
    """(i, j, h, x, y) with x y = (G2^-1 Q^T)_hl (w_ij)_l over the nonzero
    factors, given row l of Q G2^-1 and w = (d_l P)^T G2 P."""
    return ((i, j, h, _packed(v), _packed(wij)) for i, row in enumerate(w)
            for j, wij in row.items() for h, v in v_l.items())


def _frame_defects(s1, p: list[dict], gamma) -> dict:
    """{(i, j): Delta_ij} over the nonzero Delta_ij = sum_h c1_ij^h P e_h - Gamma_ij."""
    n = s1.bundle.base_dim
    out = {pair: [-g for g in vec] for pair, vec in gamma.items()}
    for (i, j, h), c in s1.structure_functions.items():
        out[i, j] = [v + c * row.get(h, 0)
                     for v, row in zip(out.get((i, j), [Polynomial(n)] * len(p)), p)]
    return {pair: vec for pair, vec in out.items() if not all(v.is_zero() for v in vec)}


class _Lines:
    """What Delta on the pairs of degree <= 1 is read from (see the module
    docstring), in sparse rows: the record's P, W = P^T G2 P and
    V^T = Q G2^-1, with G1, the nonzero Delta_ij, T = A1 - Q P,
    U^T = A1 G1^-1 P^T and whether the metric condition W = G1 holds."""

    def __init__(self, s1, rec, metric_holds):
        self.p, self.w, self.v_t, self.metric_holds = rec.p, rec.w, rec.v_t, metric_holds
        self.g1, g1_inv, a1 = s1.rows
        self.delta = _frame_defects(s1, rec.p, rec.table)
        self.t = linalg.pmat_sub(a1, rec.qp)
        self.u_t = linalg.pmat_mul(linalg.pmat_mul(a1, g1_inv),
                                   linalg.pmat_transpose(rec.p, rec.k1))


def _degree_1_holds(d: _Lines) -> bool:
    """T = 0 or P = 0, and (G1)_ij U = W_ij V for every (i, j): with
    Delta = 0 on frame pairs, Delta vanishes on every pair of degree 1."""
    return (not any(d.t) or not any(d.p)) and _pairing_terms_agree(d)


def _pairing_terms_agree(d: _Lines) -> bool:
    """(G1)_ij U = W_ij V for every (i, j).  With (i0, j0) the first nonzero
    entry of G1 and mu = W_i0j0 / (G1)_i0j0, that is U = mu V, and W = mu G1
    unless V = 0; with the metric condition mu = 1 and it is U = V."""
    if d.metric_holds:
        return d.u_t == d.v_t
    i, j = _first_nonzero(d.g1)
    mu = d.w[i].get(j, 0) * (Fraction(1) / d.g1[i][j])

    def times_mu(a):
        return [{} if linalg.is_zero(mu) else {c: mu * x for c, x in row.items()} for row in a]

    return d.u_t == times_mu(d.v_t) and (not any(d.v_t) or d.w == times_mu(d.g1))


def _first_slot(d: _Lines, a, i, j) -> list:
    """R_aij = -T_aj P e_i + (G1)_ij U e_a - W_ij V e_a."""
    return [d.g1[i].get(j, 0) * d.u_t[a].get(h, 0) - d.t[a].get(j, 0) * row.get(i, 0)
            - d.w[i].get(j, 0) * d.v_t[a].get(h, 0) for h, row in enumerate(d.p)]


def _pair_defect(d: _Lines, members, xs, pair) -> list[Polynomial]:
    """Delta on the family pair (x^alpha_a e_i, x^alpha_b e_j) of degree
    <= 1, pair = ((i, a), (j, b)), with members[a] the a-th entry of
    `_degree_1_members` and xs[a] = x^alpha_a, component by component,
    summed from the lines of the module docstring."""
    (i, a), (j, b) = pair
    terms = [(xs[a] * xs[b], d.delta[i, j])] if (i, j) in d.delta else []
    if b:
        terms.append((xs[a] * d.t[members[b][0]].get(i, 0), [row.get(j, 0) for row in d.p]))
    if a:
        terms.append((xs[b], _first_slot(d, members[a][0], i, j)))
    return [poly_sum(xs[0].num_vars, (s * v[h] for s, v in terms)) for h in range(len(d.p))]


def _witness_order(rank, members, frames=True):
    """Every family pair ((i, a), (j, b)) of frame members x^alpha_a e_i,
    with `members` the monomials of degree <= 1 the walk visits, in the one
    witness order and one at a time: the frame pairs (a = b = 0), left out
    unless `frames`, then the pairs of degree 1, each in the order of the
    tags i*M + a and j*M + b slot by slot."""
    tags = [(i, a) for i in range(rank) for a in range(len(members))]
    if frames:
        yield from itertools.product([(i, 0) for i in range(rank)], repeat=2)
    yield from (pair for pair in itertools.product(tags, repeat=2) if pair[0][1] or pair[1][1])


def _bracket_failure(s1, s2, phi, smooth, metric_holds, general=False):
    """The bracket condition's failure at its least failing family pair of
    degree <= 1, or of degree 0 unless `smooth` (`_decided_scope`), or None.

    The defect is decided from the frame tables (see the module docstring):
    at degree 0 it vanishes iff every Delta_ij does, at degree 1 iff also
    `_degree_1_holds`.  On a failure Delta is summed from its lines on the
    pairs in the witness order, up to the first nonzero one, the witness
    with that defect; a frame pair's defect is its Delta_ij alone, so with
    every Delta_ij zero the walk starts at degree 1.  A source of rank 0
    has no pairs.
    """
    if not s1.bundle.rank:
        return None
    d = _Lines(s1, along_image(s2, phi), metric_holds)
    if not d.delta and (not smooth or _degree_1_holds(d)):
        return None
    n = s1.bundle.base_dim
    members = _degree_1_members(n)[:None if smooth else 1]   # cap 0: the constant alone
    xs = [_raw(n, {key: 1}) for _, key, _ in members]
    for pair in _witness_order(s1.bundle.rank, members, bool(d.delta)):
        defect = _pair_defect(d, members, xs, pair)
        if not all(x.is_zero() for x in defect):
            f1, f2 = (_member(s1.bundle.rank, i, members[a][2]) for i, a in pair)
            return _pair_failure("bracket", f1, f2, defect, general)
    raise RuntimeError("internal inconsistency: no pair of degree <= 1 fails")


def _pair_failure(condition, f1, f2, defect: list, general) -> ConditionFailure:
    """A failure witnessed by the family pair (f1, f2), printed frame
    members (`courant_core._member`), with its defect on their
    representatives, each entry a Polynomial or an exact scalar."""
    witness = ({"f1": f1, "f2": f2, "representatives": "retraction"} if general
               else {"f": f1, "g": f2})
    return ConditionFailure(condition, witness, [str(x) for x in defect])


def _metric_failure(s1, s2, phi, general=False) -> ConditionFailure | None:
    """The metric condition from its defect matrix D = P^T G2 P - G1.

    Over the identity base the failure is D itself, located at its first
    nonzero entry.  Over a general base that entry (i, j) names the least
    failing family pair (e_i, e_j) (see the module docstring), reported
    with its defect on the retraction representatives, -D_ij.
    """
    defect = linalg.pmat_sub(along_image(s2, phi).w, s1.rows[0])
    if not general:
        return _matrix_failure("metric", "fiber_pair", defect, s1.bundle.rank)
    where = _first_nonzero(defect)
    if where is None:
        return None
    i, j = where
    k = s1.bundle.rank
    return _pair_failure("metric", _member(k, i), _member(k, j), [-defect[i][j]], True)


def _anchor_failure(s1, s2, phi) -> ConditionFailure | None:
    """The anchor condition from its defect matrix A2(phi0) P - Jac(phi0) A1.
    Over the identity base Jac(phi0) A1 is A1."""
    rec, a1 = along_image(s2, phi), s1.rows[2]
    ja1 = a1 if rec.jac is None else linalg.pmat_mul(rec.jac, a1)
    return _matrix_failure("anchor", "entry", linalg.pmat_sub(rec.ap, ja1), s1.bundle.rank)


def _auto_failures(s1, s2, phi, smooth, general=False) -> list:
    """The three conditions in auto mode.  The bracket is decided from the
    frame tables at the degree `_decided_scope` read off the cap, 1 where
    `smooth`, else 0."""
    metric = _metric_failure(s1, s2, phi, general)
    bracket = _bracket_failure(s1, s2, phi, smooth, metric is None, general)
    return [bracket, metric, _anchor_failure(s1, s2, phi)]


# -- identity base --------------------------------------------------------------


def check_identity_base(
    s1: CourantStructure,
    s2: CourantStructure,
    phi: BundleMorphism,
    degree_cap: int = 3,
) -> MorphismVerdict:
    """Exact morphism verdict for a bundle morphism over the identity.

    The bracket condition is decided over every pair of monomial frame
    sections of the degree `_decided_scope` reads off the cap, which is
    complete for all smooth sections at any cap >= 1; cap 0 is a bounded
    claim over constant sections.  The verdict comes from closed forms in
    the frame data, with no lift and no bracket (see the module
    docstring), and so is a failure's least failing pair with its defect.  The metric and
    anchor conditions are matrix identities.  The detail names the
    requested cap, the degree decided and the scope (`_decided_scope`); a
    negative cap raises ValueError.
    """
    _validate(s1, s2, phi)
    if s1.bundle.base_dim != s2.bundle.base_dim:
        raise ValueError("identity-base check needs equal base dimensions")
    if not phi.is_identity_base():
        raise ValueError("base map is not the identity")
    smooth, scope = _decided_scope(degree_cap)
    return _verdict(_auto_failures(s1, s2, phi, smooth), f"identity-base criteria: {scope}")


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


def check_general_base(
    s1: CourantStructure,
    s2: CourantStructure,
    phi: BundleMorphism,
    pairs="auto",
    degree_cap: int = 3,
) -> MorphismVerdict:
    """Exact morphism verdict over a general base via phi-related sections.

    pairs="auto" derives related sections from the morphism's retraction
    (required in that mode).  The bracket condition is then decided over
    every pair of monomial frame sections of the degree `_decided_scope`
    reads off the cap, with their retraction-generated representatives,
    the generating family the involutivity reduction rests on;
    representatives perturbed off the image are left to the
    generalized-morphism verdict (see the module docstring).  That is
    complete for all smooth sections at any cap >= 1; cap 0 is a bounded
    claim.  The verdict comes from closed forms in the
    frame data, the frame table Gamma of the extended frames and the
    degree-1 lines, with no lift and no bracket (see the module
    docstring).  The least failing pair is reported with its defect,
    summed from the same lines.  The metric and anchor
    conditions are matrix identities, as over the identity base: on the
    retraction representatives the metric condition is P^T G2 P = G1, and
    a failure reports the frame pair (e_i, e_j) of the first nonzero entry
    of the defect matrix.  The detail names the requested cap, the degree
    decided and the scope (`_decided_scope`); a negative cap raises
    ValueError in auto mode.

    Alternatively pass an explicit list of (source_section, target_section)
    pairs; pairs failing the relatedness equation are an input error, not a
    morphism failure.  Every ordered pair of supplied pairs is checked, so
    more than MAX_PAIRS of them raise ValueError.  No cap is read then,
    and the detail names the supplied pairs instead.
    """
    _validate(s1, s2, phi)
    if pairs == "auto":
        if phi.retraction is None:
            raise ValueError("auto mode needs a morphism with a retraction")
        smooth, scope = _decided_scope(degree_cap)
        return _verdict(_auto_failures(s1, s2, phi, smooth, True),
                        f"general-base criteria: {scope}")
    checked = list(pairs)
    if len(checked) > MAX_PAIRS:
        raise ValueError(f"too many supplied pairs: {len(checked)}, more than {MAX_PAIRS}")
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
    return _verdict([*found.values(), _anchor_failure(s1, s2, phi)],
                    f"general-base criteria on the {len(checked)} supplied pairs, "
                    "scope those sections only")
