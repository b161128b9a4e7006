"""Courant algebroid structures on trivial bundles, checked exactly.

A structure is frame data on a trivial bundle of rank k over R^n:

  * anchor: an n x k polynomial matrix A(x); sections act on functions
    through the vector field rho(f) = A(x) f(x),
  * metric: a constant symmetric invertible k x k rational matrix G,
  * structure functions c_ij^h(x): the frame brackets
    [[e_i, e_j]] = sum_h c_ij^h e_h.

The bracket of arbitrary polynomial sections is defined by the two-sided
Leibniz expansion

  [[sum_i f_i e_i, sum_j g_j e_j]] =
      sum_ij ( f_i g_j [[e_i, e_j]] + f_i rho(e_i)(g_j) e_j
               - g_j rho(e_j)(f_i) e_i + G_ij g_j D(f_i) )

where D(lam) = G^-1 A^T grad(lam) is the derived operator, the unique
section with <D(lam), s> = rho(s)(lam).  On the standard structure this
expansion is validated against an independent Cartan-calculus oracle
(`dorfman_bracket`).

Axiom checking is exact.  The three axioms are multilinear over R in their
section slots, so verifying them on every tuple drawn from the family of
monomial-coefficient frame sections up to a degree cap certifies them for
all sections of coefficient degree up to that cap.  The checker does this
without enumerating tuples: each open slot is filled with one generating
section whose basis summands are tagged by powers of a fresh inert
variable.  Distinct tuples land on distinct tag monomials, which cannot
cancel, so a single polynomial identity per axiom is equivalent to the full
enumeration, and a nonzero term decodes back into an explicit witness
tuple.

Degree 1 is enough.  If, in one slot, a defect is a differential operator
of order <= 1 with polynomial coefficients, it vanishes on all smooth
arguments iff it vanishes on every x^alpha e_i with |alpha| <= 1: applied
to x^alpha it gives alpha! times its coefficient of order alpha plus terms
fixed by smaller alpha, so by induction every coefficient is zero.  Taking
the slots one at a time (the others held first on the family, then on
arbitrary sections) extends this to whole tuples.  Every certificate here
is of that kind, so each sweeps at cap min(degree_cap, SWEEP_ORDER) and is
complete for all smooth sections at any cap >= 1; an explicit cap 0 sweeps
constant sections only and stays a bounded claim.

The orders.  The bracket is first order in each slot, and axioms (ii) and
(iii) apply it once.  Axiom (i) nests two brackets, which allows order 2
per slot, but the second-order parts cancel for any frame data with
constant symmetric G, whether or not the axioms hold.  Write rho_i for
rho(e_i) and G h D f for sum_ij G_ij h_j D(f_i); D(lam) has the symbol
G^-1 A^T xi lam, so two operators below cancel when their second-order
symbols agree:
  * in h: f_i g_l rho_i rho_l h from [[f,[[g,h]]]] against
    g_l f_i rho_l rho_i h from [[g,[[f,h]]]], leaving the first-order
    [rho_i, rho_l] h;
  * in g: rho(f) rho(h) g from [[f,[[g,h]]]] against rho(h) rho(f) g from
    [[[[f,g]],h]], and rho(f)(G h D g) against G h D(rho(f) g), the same
    pair of sources;
  * in f: rho(h) rho(g) f from [[[[f,g]],h]] against rho(g) rho(h) f from
    [[g,[[f,h]]]]; of the D-terms, rho(h)(G g D f) against
    G h D(G g D f), both from [[[[f,g]],h]] (G symmetric), and
    G h D(rho(g) f) from [[[[f,g]],h]] against rho(g)(G h D f) from
    [[g,[[f,h]]]].

Passing structures are decided from the frame data (Liu, Weinstein & Xu
1997; Uchino 2002).  Write c_ijh = sum_l c_ij^l G_lh.  For any frame data
with constant symmetric G the expansion gives the rules
[[f, lam g]] = lam [[f,g]] + rho(f)(lam) g and
[[lam f, g]] = lam [[f,g]] - rho(g)(lam) f + <f,g> D(lam).
  * (ii) and (iii) are tensorial.  In [[f,g]] + [[g,f]] the anchor terms
    cancel and the D-terms add up to D<f,g>, D being a derivation, so the
    defect of (iii) is sum f_i g_j (c_ij^h + c_ji^h) e_h.  In
    <[[f,g]],h> + <g,[[f,h]]> the terms in rho(f)(g_j) and rho(f)(h_m)
    add up to rho(f)<g,h> (G is constant), and -rho(g)(f_i) <e_i,h> and
    rho(h)(f_i) <e_i,g> from one bracket cancel their partners from the
    other, so the defect of (ii) is -sum f_i g_j h_m (c_ijm + c_imj).
    Both are C-infinity-linear in every slot: (iii) holds iff
    c_ij^h + c_ji^h = 0 and (ii) iff c_ijh + c_ihj = 0.
  * The anomalies of (i).  Let J(f,g,h) be the defect of (i) and
    H(f,g) = rho([[f,g]]) - [rho(f), rho(g)], a vector field.  The rules
    give H(f, lam g) = lam H(f,g) and
    H(lam f, g) = lam H(f,g) + <f,g> rho(D(lam)), where rho o D acts on
    grad(lam) as the matrix A G^-1 A^T.  Expanding J with the rules, one
    slot at a time, and writing K_f(lam) = [[f, D(lam)]] - D(rho(f)(lam)):
      J(f, g, lam h) = lam J(f,g,h) - H(f,g)(lam) h,
      J(f, lam g, h) = lam J(f,g,h) + H(f,h)(lam) g + <g,h> K_f(lam),
      J(lam f, g, h) = lam J(f,g,h) - H(g,h)(lam) f - <f,h> K_g(lam)
                       + <f,g> K_h(lam).
    The last two lines use (ii) and (iii): without them the second also
    carries the (ii) defect times D(lam), and the third the (iii) defect
    of (f, g) times rho(h)(lam) and its pairing with h times D(lam); and
    (iii) turns [[D(lam), h]] into -K_h(lam).  By (ii),
    <K_f(lam), k> = -H(f,k)(lam).  So if A G^-1 A^T = 0, H is tensorial
    and vanishes iff H(e_i, e_j) = sum_h c_ij^h rho_h - [rho_i, rho_j]
    does, the anchor homomorphism; then K vanishes too, J is tensorial in
    every slot, and (i) holds iff it holds on every frame triple.
  * (i) on frame triples, in closed form.  The first rule with
    f = e_i, lam = c_jk^h, g = e_h gives [[e_i, [[e_j,e_k]]]] =
    sum_h c_jk^h [[e_i,e_h]] + sum_l rho_i(c_jk^l) e_l, and
    [[e_j, [[e_i,e_k]]]] likewise; the second with lam = c_ij^h, f = e_h,
    g = e_k gives [[[[e_i,e_j]], e_k]] = sum_h c_ij^h [[e_h,e_k]]
    - sum_l rho_k(c_ij^l) e_l + D(c_ijk), since
    sum_h G_hk D(c_ij^h) = D(c_ijk) for constant G.  So
      J(e_i,e_j,e_k)^l = sum_h (c_jk^h c_ih^l - c_ij^h c_hk^l - c_ik^h c_jh^l)
                         + rho_i(c_jk^l) + rho_k(c_ij^l) - rho_j(c_ik^l)
                         - D(c_ijk)^l
    for any frame data with constant symmetric G, and its vanishing for
    all i, j, k, l is the fifth frame identity: what the cap-0 sweep of
    (i) decides.  Every term has a factor c, so it holds when c = 0.
  * The converse.  If (i)-(iii) hold, the first line gives
    H(f,g)(lam) h = 0 for every lam and h, so H = 0 and the homomorphism
    holds; then H(lam f, g) = 0 leaves <f,g> rho(D(lam)) = 0, and some
    <e_i, e_j> = G_ij is nonzero, so A G^-1 A^T = 0.
Hence the three axioms hold for all smooth sections iff the five frame
identities hold, which is also what the degree-1 sweep decides.
`_certify_axioms` decides a pass that way, with no bracket, and runs the
degree-1 sweep only when some identity fails, to find witnesses.

The two Leibniz rules of the bracket above hold by the expansion, for
every structure the constructor accepts, so `check_leibniz` does not
evaluate them.  The falsified final-slot variant of the two-sided rule
then differs from it by mu rho(g)(lam) (g - f), with no bracket in it;
that defect is first order in each of f, g, lam and mu and is swept with
four tagged slots: f and g are generating sections, and lam and mu are
generating functions sum_a t^a x^alpha_a.  `tests/test_certificate_oracle.py`
checks the order-1 property of every axiom slot on random frame data.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .bundles import LinearSubspace, Section, TrivialBundle
from .polyexpr import (
    Polynomial,
    PolyMap,
    _BITS,
    _FIELD,
    _add_into,
    _checked,
    _coeff,
    _deriv,
    _mul_into,
    _normalised,
    _pack,
    _product,
    _raw,
    _scaled,
    _unpack,
    monomials_up_to,
    poly_sum,
)

__all__ = [
    "CourantStructure",
    "standard_structure",
    "standard_bundle",
    "scaled_structure",
    "product_structure",
    "dorfman_bracket",
    "vf_bracket",
    "d_oneform",
    "interior_oneform",
    "interior_twoform",
    "lie_derivative_oneform",
    "AxiomReport",
    "check_axioms",
    "check_degree_cap",
    "MAX_FAMILY",
    "SWEEP_ORDER",
    "LeibnizReport",
    "check_leibniz",
    "dirac_check",
    "random_section",
    "random_polynomial",
]


class CourantStructure:
    """Frame presentation (anchor, metric, structure functions) of a
    Courant algebroid structure on a trivial bundle.

    The constructor checks the shapes and the symmetry of G, and forms G^-1
    once: that reduction is its check that G is nonsingular, and the
    structure keeps the result as `metric_inverse`.  `pairing`,
    `anchor_apply`, `derived_operator` and `bracket` run on packed term
    dicts (see polyexpr) against tables formed on first use: the first call
    of any of them forms the anchor, metric and c_ij^h tables, and the first
    `bracket` or `derived_operator` forms the rows of G^-1 A^T.
    `lift_structure` forms them on the base and shares them, does not
    repeat the checks its base passed, and lifts a structure once per
    variable count.

    Every product runs its outer loop over the smaller factor and each
    operation's loop nest is fixed, so results have one term order; axiom
    witnesses depend on it (`_sweep_axioms`).
    """

    __slots__ = ("bundle", "anchor", "metric", "structure_functions",
                 "_inverse", "_frame", "_dual", "_lifts")

    def __init__(self, bundle: TrivialBundle, anchor, metric, structure_functions=None):
        n, k = bundle.base_dim, bundle.rank
        rows = [list(r) for r in anchor]
        if len(rows) != n or any(len(r) != k for r in rows):
            raise ValueError(f"anchor must be {n} x {k}")
        rows = [
            [p if isinstance(p, Polynomial) else Polynomial.constant(n, p) for p in r]
            for r in rows
        ]
        for r in rows:
            for p in r:
                if p.num_vars != n:
                    raise ValueError("anchor entries must use the base variables")
        g = linalg.mat(metric)
        if len(g) != k or any(len(r) != k for r in g):
            raise ValueError(f"metric must be {k} x {k}")
        if not linalg.is_symmetric(g):
            raise ValueError("metric must be symmetric")
        try:
            inverse = linalg.inverse(g)
        except ValueError:
            raise ValueError("metric must have nonzero determinant") from None
        c: dict[tuple[int, int, int], Polynomial] = {}
        for (i, j, h), p in (structure_functions or {}).items():
            if not (0 <= i < k and 0 <= j < k and 0 <= h < k):
                raise ValueError(f"structure function index {(i, j, h)} out of range")
            if not isinstance(p, Polynomial):
                p = Polynomial.constant(n, p)
            if p.num_vars != n:
                raise ValueError("structure functions must use the base variables")
            if not p.is_zero():
                c[(i, j, h)] = p
        self._fill(bundle, rows, g, c, (inverse, None, None))

    def _fill(self, bundle, anchor, metric, c, tables=(None, None, None)):
        """Set every slot from checked parts; `tables` holds G^-1 and the
        packed tables, or None for each table formed on first use.  The
        structure starts with no lifts."""
        for slot, value in zip(self.__slots__, (bundle, anchor, metric, c, *tables, {})):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value):
        raise AttributeError("CourantStructure is immutable")

    @property
    def metric_inverse(self):
        """G^-1: the constructor's, or formed on first use by a structure
        assembled without the constructor."""
        if self._inverse is None:
            object.__setattr__(self, "_inverse", linalg.inverse(self.metric))
        return self._inverse

    @property
    def _frame_tables(self):
        """(anchor, negated anchor, metric, grouped c), formed on first use:
        anchor[i] lists (a, A[a][i]) over the nonzero entries, and grouped c
        lists (i, j, [(h, c_ij^h), ...]) in `structure_functions` order, all
        as packed term dicts; the metric holds exact coefficients."""
        if self._frame is None:
            n, k = self.bundle.base_dim, self.bundle.rank
            anchor = [[(a, self.anchor[a][i]._packed) for a in range(n)
                       if not self.anchor[a][i].is_zero()] for i in range(k)]
            grouped: dict[tuple[int, int], list] = {}
            for (i, j, h), p in self.structure_functions.items():
                grouped.setdefault((i, j), []).append((h, p._packed))
            object.__setattr__(self, "_frame", (
                anchor,
                [[(a, _scaled(entry, -1)) for a, entry in row] for row in anchor],
                [[_coeff(v) for v in row] for row in self.metric],
                [(i, j, hs) for (i, j), hs in grouped.items()],
            ))
        return self._frame

    @property
    def _dual_rows(self):
        """Rows of G^-1 A^T as packed (a, entry) lists over the nonzero
        entries, formed on first use: D(lam)_h = sum_a dual[h][a] d_a lam."""
        if self._dual is None:
            n, k = self.bundle.base_dim, self.bundle.rank
            ginv = self.metric_inverse
            rows = ([(a, poly_sum(n, (self.anchor[a][i] * ginv[h][i]
                                      for i in range(k) if ginv[h][i]))._packed)
                     for a in range(n)] for h in range(k))
            object.__setattr__(self, "_dual", [[(a, p) for a, p in row if p] for row in rows])
        return self._dual

    def __eq__(self, other):
        if not isinstance(other, CourantStructure):
            return NotImplemented
        return (
            self.bundle == other.bundle
            and self.anchor == other.anchor
            and self.metric == other.metric
            and self.structure_functions == other.structure_functions
        )

    def __repr__(self):
        return (
            f"CourantStructure({self.bundle.label}, rank {self.bundle.rank} "
            f"over R^{self.bundle.base_dim})"
        )

    # -- the triple (rho, <.,.>, [[.,.]]) ---------------------------------

    def pairing(self, f: Section, g: Section) -> Polynomial:
        """<f, g>(x) = f(x)^T G g(x), exact."""
        return _raw(self.bundle.base_dim, self._pairing(self._terms(f), self._terms(g)))

    def anchor_apply(self, f: Section, fn: Polynomial) -> Polynomial:
        """rho(f) acting as a derivation on a base function."""
        return _raw(self.bundle.base_dim,
                    self._anchor_apply(self._terms(f), self._function_terms(fn)))

    def derived_operator(self, fn: Polynomial) -> Section:
        """D(fn): the unique section with <D(fn), s> = rho(s)(fn)."""
        return self._section(self._derived(self._function_terms(fn)))

    def bracket(self, f: Section, g: Section) -> Section:
        """The bracket of arbitrary sections via the Leibniz expansion."""
        return self._section(self._bracket(self._terms(f), self._terms(g)))

    def frame_bracket(self, i: int, j: int) -> Section:
        """[[e_i, e_j]] = sum_h c_ij^h e_h."""
        n, zero = self.bundle.base_dim, Polynomial(self.bundle.base_dim)
        return Section(self.bundle, PolyMap(n, [
            self.structure_functions.get((i, j, h), zero) for h in range(self.bundle.rank)
        ]))

    def _terms(self, f: Section) -> list[dict]:
        if f.bundle != self.bundle:
            raise ValueError("section does not live on this structure's bundle")
        return [p._packed for p in f.coeffs.outputs]

    def _function_terms(self, fn: Polynomial) -> dict:
        if fn.num_vars != self.bundle.base_dim:
            raise ValueError("function must use the base variables")
        return fn._packed

    def _section(self, comps: list[dict]) -> Section:
        nv = self.bundle.base_dim
        return Section(self.bundle, PolyMap(nv, [_raw(nv, p) for p in comps]))

    # The operations on packed term dicts: inputs are canonical and never
    # mutated, and every output is a new dict, normalised and checked once.

    def _finished(self, terms: dict) -> dict:
        return _checked(_normalised(terms), self.bundle.base_dim) if terms else terms

    def _pairing(self, f: list[dict], g: list[dict]) -> dict:
        nv = self.bundle.base_dim
        metric = self._frame_tables[2]
        out: dict = {}
        for i, fi in enumerate(f):
            for j, gj in enumerate(g):
                if fi and gj and metric[i][j]:
                    prod = _product(*_ordered(fi, gj), nv)
                    _mul_into(out, *_ordered(prod, {0: metric[i][j]}))
        return self._finished(out)

    def _anchor_apply(self, f: list[dict], p: dict) -> dict:
        nv = self.bundle.base_dim
        anchor = self._frame_tables[0]
        out: dict = {}
        for i, fi in enumerate(f):
            if not fi:
                continue
            for a, entry in anchor[i]:
                d = _deriv(p, a)
                if d:
                    _mul_into(out, *_ordered(_product(*_ordered(fi, entry), nv), d))
        return self._finished(out)

    def _derived(self, p: dict) -> list[dict]:
        out = [{} for _ in range(self.bundle.rank)]
        derivs: dict[int, dict] = {}
        for h, row in enumerate(self._dual_rows):
            for a, entry in row:
                if a not in derivs:
                    derivs[a] = _deriv(p, a)
                if derivs[a]:
                    _mul_into(out[h], *_ordered(derivs[a], entry))
        return [self._finished(q) for q in out]

    def _bracket(self, f: list[dict], g: list[dict]) -> list[dict]:
        nv = self.bundle.base_dim
        anchor, negated, metric, c_entries = self._frame_tables
        df: dict[int, list[dict]] = {}    # a -> the partials d_a of f's components
        dg: dict[int, list[dict]] = {}
        out = [{} for _ in f]
        # f_i rho(e_i)(g_j) e_j
        for i, fi in enumerate(f):
            if not fi:
                continue
            for a, entry in anchor[i]:
                if a not in dg:
                    dg[a] = [_deriv(gj, a) if gj else gj for gj in g]
                fie = _product(*_ordered(fi, entry), nv)
                for j, d in enumerate(dg[a]):
                    if d:
                        _mul_into(out[j], *_ordered(fie, d))
        # - g_j rho(e_j)(f_i) e_i
        for j, gj in enumerate(g):
            if not gj:
                continue
            for a, entry in negated[j]:
                if a not in df:
                    df[a] = [_deriv(fi, a) if fi else fi for fi in f]
                gje = _product(*_ordered(gj, entry), nv)
                for i, d in enumerate(df[a]):
                    if d:
                        _mul_into(out[i], *_ordered(gje, d))
        # f_i g_j [[e_i, e_j]]
        for i, j, hs in c_entries:
            fi, gj = f[i], g[j]
            if fi and gj:
                prod = _product(*_ordered(fi, gj), nv)
                for h, centry in hs:
                    _mul_into(out[h], *_ordered(prod, centry))
        # sum_ij G_ij g_j D(f_i)
        for i, fi in enumerate(f):
            if not fi:
                continue
            s: dict = {}
            for j, gj in enumerate(g):
                if metric[i][j] and gj:
                    _add_into(s, _scaled(gj, metric[i][j]))
            if not s:
                continue
            for h, row in enumerate(self._dual_rows):
                for a, entry in row:
                    if a not in df:
                        df[a] = [_deriv(fj, a) if fj else fj for fj in f]
                    d = df[a][i]
                    if d:
                        _mul_into(out[h], *_ordered(_product(*_ordered(s, entry), nv), d))
        return [self._finished(q) for q in out]


def _ordered(p: dict, q: dict) -> tuple[dict, dict]:
    """(p, q) with the smaller factor first: every product of the structure's
    operations runs its outer loop over the smaller factor."""
    return (q, p) if len(p) > len(q) else (p, q)


# -- constructors -------------------------------------------------------------


def standard_bundle(n: int) -> TrivialBundle:
    """The bundle TM (+) T*M over R^n that `standard_structure(n)` lives on."""
    return TrivialBundle(n, 2 * n, label=f"P(R^{n})")


def standard_structure(n: int) -> CourantStructure:
    """The standard structure on TM (+) T*M over R^n.

    Anchor [I | 0], hyperbolic pairing <(v,p),(v',p')> = p(v') + p'(v),
    vanishing frame brackets; the Dorfman bracket arises from the Leibniz
    expansion (see `dorfman_bracket` for the independent route).

    The hyperbolic G is symmetric and its own inverse, so the constructor's
    checks are not needed and G^-1 is a copy of G.
    """
    bundle = standard_bundle(n)
    anchor = [
        [Polynomial.constant(n, int(i == a)) for i in range(2 * n)]
        for a in range(n)
    ]
    metric = [
        [Fraction(int(abs(i - j) == n)) for j in range(2 * n)]
        for i in range(2 * n)
    ]
    s = object.__new__(CourantStructure)
    s._fill(bundle, anchor, metric, {}, ([row[:] for row in metric], None, None))
    return s


def scaled_structure(base: CourantStructure, lam) -> CourantStructure:
    """Same anchor and brackets, metric scaled by a nonzero rational."""
    lam = Fraction(lam)
    if lam == 0:
        raise ValueError("metric scale must be nonzero")
    return CourantStructure(
        base.bundle,
        base.anchor,
        linalg.mat_scale(base.metric, lam),
        base.structure_functions,
    )


def product_structure(
    s1: CourantStructure, s2: CourantStructure, flip: bool = False
) -> CourantStructure:
    """Block structure on the product base with metric diag(G1, +-G2).

    With flip=True the second metric is negated, which is the product used
    to test graphs of morphisms for isotropy.
    """
    n1, k1 = s1.bundle.base_dim, s1.bundle.rank
    n2, k2 = s2.bundle.base_dim, s2.bundle.rank
    n, k = n1 + n2, k1 + k2
    bundle = TrivialBundle(n, k, label=f"{s1.bundle.label}x{s2.bundle.label}")
    zero = Polynomial(n)
    anchor = [[zero] * k for _ in range(n)]
    for a in range(n1):
        for i in range(k1):
            anchor[a][i] = s1.anchor[a][i].lift(n, 0)
    for a in range(n2):
        for i in range(k2):
            anchor[n1 + a][k1 + i] = s2.anchor[a][i].lift(n, n1)
    sign = Fraction(-1 if flip else 1)
    metric = linalg.zeros(k, k)
    for i in range(k1):
        for j in range(k1):
            metric[i][j] = s1.metric[i][j]
    for i in range(k2):
        for j in range(k2):
            metric[k1 + i][k1 + j] = sign * s2.metric[i][j]
    c: dict[tuple[int, int, int], Polynomial] = {}
    for (i, j, h), p in s1.structure_functions.items():
        c[(i, j, h)] = p.lift(n, 0)
    for (i, j, h), p in s2.structure_functions.items():
        c[(k1 + i, k1 + j, k1 + h)] = p.lift(n, n1)
    return CourantStructure(bundle, anchor, metric, c)


def lift_structure(s: CourantStructure, extra: int) -> CourantStructure:
    """The same structure over a base with `extra` inert variables appended.

    The anchor gains zero rows for the new variables, so nothing ever
    differentiates along them: coefficients may mention them as formal
    constants.  Used by the exact certification sweeps.  Structures are
    immutable, so each is lifted once per `extra` and the lift is kept on it.
    """
    lifted = s._lifts.get(extra)
    if lifted is None:
        lifted = s._lifts[extra] = _lifted(s, extra)
    return lifted


def _lifted(s: CourantStructure, extra: int) -> CourantStructure:
    """`lift_structure` without the cache."""
    n, k = s.bundle.base_dim, s.bundle.rank
    nn = n + extra
    bundle = TrivialBundle(nn, k, label=s.bundle.label)
    anchor = linalg.pmat_lift(s.anchor, nn)
    anchor += [[Polynomial(nn)] * k for _ in range(extra)]
    c = {key: p.lift(nn, 0) for key, p in s.structure_functions.items()}
    # The base's metric passed the constructor's checks, so they are not
    # repeated.  Packed keys do not depend on the variable count and the new
    # anchor rows are zero, so G^-1 and the packed tables are the base's own.
    lifted = object.__new__(CourantStructure)
    lifted._fill(bundle, anchor, s.metric, c,
                 (s.metric_inverse, s._frame_tables, s._dual_rows))
    return lifted


# -- Cartan calculus on R^n: the independent oracle for the standard bracket --


def vf_bracket(x: Sequence[Polynomial], y: Sequence[Polynomial]) -> list[Polynomial]:
    """Lie bracket of vector fields: [X,Y]_j = sum_i X_i d_i Y_j - Y_i d_i X_j."""
    n = len(x)
    out = []
    for j in range(n):
        acc = Polynomial(n)
        for i in range(n):
            acc = acc + x[i] * y[j].diff(i) - y[i] * x[j].diff(i)
        out.append(acc)
    return out


def d_oneform(alpha: Sequence[Polynomial]) -> list[list[Polynomial]]:
    """Exterior derivative of a one-form: (d alpha)_ij = d_i a_j - d_j a_i."""
    n = len(alpha)
    return [[alpha[j].diff(i) - alpha[i].diff(j) for j in range(n)] for i in range(n)]


def interior_oneform(x: Sequence[Polynomial], alpha: Sequence[Polynomial]) -> Polynomial:
    """iota_X alpha = sum_i X_i a_i."""
    n = len(x)
    acc = Polynomial(n)
    for xi, ai in zip(x, alpha):
        acc = acc + xi * ai
    return acc


def interior_twoform(x: Sequence[Polynomial], omega) -> list[Polynomial]:
    """(iota_X omega)_j = sum_i X_i omega_ij."""
    n = len(x)
    out = []
    for j in range(n):
        acc = Polynomial(n)
        for i in range(n):
            acc = acc + x[i] * omega[i][j]
        out.append(acc)
    return out


def lie_derivative_oneform(
    x: Sequence[Polynomial], alpha: Sequence[Polynomial]
) -> list[Polynomial]:
    """Cartan's formula: L_X alpha = iota_X d(alpha) + d(iota_X alpha)."""
    contracted = interior_twoform(x, d_oneform(alpha))
    exact_part = interior_oneform(x, alpha).gradient()
    return [a + b for a, b in zip(contracted, exact_part)]


def dorfman_bracket(f: Section, g: Section) -> Section:
    """The Dorfman bracket on TM (+) T*M by explicit Cartan calculus.

    [[(X, alpha), (Y, beta)]] = ([X, Y], L_X beta - iota_Y d(alpha)).
    Sections are split into the first n (vector) and last n (covector)
    components.  This is computed step by step from the Cartan operators and
    never calls the structure-function expansion; it is the oracle the
    general bracket is tested against.
    """
    bundle = f.bundle
    if g.bundle != bundle or bundle.rank != 2 * bundle.base_dim:
        raise ValueError("dorfman_bracket needs two sections of TM (+) T*M")
    n = bundle.base_dim
    x, alpha = list(f)[:n], list(f)[n:]
    y, beta = list(g)[:n], list(g)[n:]
    vec = vf_bracket(x, y)
    lie = lie_derivative_oneform(x, beta)
    contraction = interior_twoform(y, d_oneform(alpha))
    form = [a - b for a, b in zip(lie, contraction)]
    return Section(bundle, PolyMap(n, vec + form))


# -- randomized sections -------------------------------------------------------


_COEFF_POOL = [
    Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(3),
    Fraction(-3), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3),
]


def random_polynomial(rng: random.Random, num_vars: int, degree: int,
                      terms: int = 3) -> Polynomial:
    monos = monomials_up_to(num_vars, degree)
    chosen = {}
    for _ in range(terms):
        chosen[rng.choice(monos)] = rng.choice(_COEFF_POOL)
    return Polynomial(num_vars, chosen)


def random_section(rng: random.Random, bundle: TrivialBundle, degree: int,
                   terms: int = 2) -> Section:
    comps = [
        random_polynomial(rng, bundle.base_dim, degree, terms)
        for _ in range(bundle.rank)
    ]
    return Section(bundle, PolyMap(bundle.base_dim, comps))


# -- tagged generating sections -------------------------------------------------


def monomial_frame_basis(bundle: TrivialBundle, degree_cap: int):
    """All monomial-coefficient frame sections x^alpha e_i, deg <= cap."""
    monos = monomials_up_to(bundle.base_dim, degree_cap)
    return [(i, alpha) for i in range(bundle.rank) for alpha in monos]


def tagged_generating_section(
    bundle: TrivialBundle, degree_cap: int, extra: int, tag_var: int
) -> Section:
    """One section over the lifted base encoding the whole monomial family.

    Component i is sum_a t^(i*M + a) x^alpha_a where t is the tag variable;
    an R-multilinear identity evaluated on such sections holds iff it holds
    on every tuple of family members, since distinct tuples produce distinct
    tag monomials.
    """
    n, k = bundle.base_dim, bundle.rank
    nn = n + extra
    if not n <= tag_var < nn:
        raise ValueError("tag variable must be one of the appended variables")
    monos = monomials_up_to(n, degree_cap)
    big = TrivialBundle(nn, k, label=bundle.label)
    comps = []
    for i in range(k):
        terms = {}
        for a, alpha in enumerate(monos):
            exps = [0] * nn
            exps[:n] = alpha
            exps[tag_var] = i * len(monos) + a
            terms[tuple(exps)] = Fraction(1)
        comps.append(Polynomial(nn, terms))
    return Section(big, PolyMap(nn, comps))


def decode_tag(bundle: TrivialBundle, degree_cap: int, tag_exponent: int) -> Section:
    """Rebuild the family member a tag exponent refers to."""
    monos = monomials_up_to(bundle.base_dim, degree_cap)
    i, a = divmod(tag_exponent, len(monos))
    return Section.frame(
        bundle, i, Polynomial.monomial(bundle.base_dim, monos[a])
    )


# -- axiom checking -------------------------------------------------------------


@dataclass
class AxiomCheck:
    passed: bool
    detail: str
    witness: dict | None = None

    def to_json(self) -> dict:
        out = {"status": "pass" if self.passed else "fail", "detail": self.detail}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class AxiomReport:
    """Exact verdicts for the three Courant axioms."""

    checks: dict[str, AxiomCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_json(self) -> dict:
        return {name: check.to_json() for name, check in self.checks.items()}


def _axiom_defect_i(s: CourantStructure, f, g, h) -> Section:
    return (
        s.bracket(f, s.bracket(g, h))
        - s.bracket(s.bracket(f, g), h)
        - s.bracket(g, s.bracket(f, h))
    )


def _axiom_defect_ii(s: CourantStructure, f, g, h) -> Polynomial:
    return (
        s.anchor_apply(f, s.pairing(g, h))
        - s.pairing(s.bracket(f, g), h)
        - s.pairing(g, s.bracket(f, h))
    )


def _axiom_defect_iii(s: CourantStructure, f, g) -> Section:
    return s.bracket(f, g) + s.bracket(g, f) - s.derived_operator(s.pairing(f, g))


_AXIOM_DEFECTS = {"i": _axiom_defect_i, "ii": _axiom_defect_ii, "iii": _axiom_defect_iii}


def _plain_witness(s: CourantStructure, axiom: str, sections) -> dict | None:
    """An axiom's defect on explicit sections as a witness; None if it vanishes."""
    defect = _AXIOM_DEFECTS[axiom](s, *sections)
    if defect.is_zero():
        return None
    return {
        "sections": [sec.coeffs.to_strings() for sec in sections],
        "defect": (
            [defect.to_string()] if axiom == "ii" else defect.coeffs.to_strings()
        ),
        "component": None,
    }


def _subtract_into(dst: dict, *terms: dict) -> dict:
    """dst -= each of `terms` in turn, in place; return dst."""
    for q in terms:
        _add_into(dst, _scaled(q, -1))
    return dst


def _witness_from_tags(s: CourantStructure, degree_cap: int, axiom: str,
                       defect: list[dict], fixed: tuple = ()) -> dict | None:
    """Decode the first term of the first nonzero packed component of a
    tagged sweep defect (one component for axiom (ii)) into explicit
    sections and re-verify it; None if the defect vanishes.

    `fixed` holds the family index of an enumerated first slot, if any; the
    remaining slots are tagged by the last two variables.
    """
    n = s.bundle.base_dim
    comp = next((c for c, terms in enumerate(defect) if terms), None)
    if comp is None:
        return None
    tags = fixed + _unpack(next(iter(defect[comp])), n + 2)[n:]
    resolved = [decode_tag(s.bundle, degree_cap, t) for t in tags]
    witness = _plain_witness(s, axiom, resolved)
    if witness is None:
        raise RuntimeError(
            "internal inconsistency: tagged sweep flagged a tuple whose "
            "plain defect vanishes"
        )
    if axiom != "ii":
        witness["component"] = comp
    return witness


MAX_FAMILY = 256

# differential order of every certified defect in each slot: the monomial
# family up to this degree is complete for all smooth sections
SWEEP_ORDER = 1


def check_degree_cap(bundle: TrivialBundle, degree_cap: int) -> int:
    """Reject a degree cap the certificate does not accept; return the family size.

    The family of monomial frame sections up to the cap has rank * C(n + cap, n)
    members.  The sweep's cost grows with the cube of that size, so the
    certificate accepts at most MAX_FAMILY of them.
    """
    if degree_cap < 0:
        raise ValueError(f"degree cap must be >= 0, got {degree_cap}")
    family = bundle.rank * math.comb(bundle.base_dim + degree_cap, degree_cap)
    if family > MAX_FAMILY:
        raise ValueError(
            f"degree cap {degree_cap} gives a family of {family} sections, "
            f"more than the {MAX_FAMILY} the certificate accepts; lower the cap"
        )
    return family


def _c_tables(s: CourantStructure) -> tuple[dict, dict]:
    """{(i, j, h): c_ij^h} and {(i, j, h): c_ijh}, packed, over the nonzero
    entries, with c_ijh = sum_l c_ij^l G_lh."""
    metric, grouped = s._frame_tables[2:]
    c = {(i, j, h): entry for i, j, hs in grouped for h, entry in hs}
    lowered: dict[tuple[int, int, int], dict] = {}
    for (i, j, l), entry in c.items():
        for h, g in enumerate(metric[l]):
            if g:
                _add_into(lowered.setdefault((i, j, h), {}), _scaled(entry, g))
    return c, lowered


def _frame_identities_hold(s: CourantStructure) -> bool:
    """Whether the frame data satisfy, checked in this order, (iii)
    c_ij^h + c_ji^h = 0, (ii) c_ijh + c_ihj = 0, rho o D = A G^-1 A^T = 0
    and the anchor homomorphism [rho_i, rho_j] = sum_h c_ij^h rho_h; False
    at the first that fails.  See the module docstring; `_frame_jacobi_holds`
    is the fifth identity.

    Each runs over the nonzero table entries.  Raw packed products are
    exact here: every factor is a checked input or its derivative, so no
    key field carries, and no result is stored.
    """
    k = s.bundle.rank
    anchor, negated, _, grouped = s._frame_tables
    by_pair = {(i, j): hs for i, j, hs in grouped}
    c, lowered = _c_tables(s)
    if any(c.get((j, i, h)) != _scaled(entry, -1) for (i, j, h), entry in c.items()):
        return False
    if any(lowered.get((i, h, j), {}) != _scaled(entry, -1)
           for (i, j, h), entry in lowered.items()):
        return False
    rho_d: dict[tuple[int, int], dict] = {}     # (b, a) -> (A G^-1 A^T)_ba
    for h, row in enumerate(s._dual_rows):
        for b, entry in anchor[h]:
            for a, dual in row:
                _mul_into(rho_d.setdefault((b, a), {}), *_ordered(entry, dual))
    if any(rho_d.values()):
        return False
    # given (iii) both sides are skew in (i, j), so i < j suffices
    for i in range(k):
        for j in range(i + 1, k):
            defect: dict[int, dict] = {}        # b -> component along d_b
            for first, second in ((anchor[i], anchor[j]), (negated[j], anchor[i])):
                for a, entry in first:
                    for b, target in second:
                        _mul_into(defect.setdefault(b, {}), *_ordered(entry, _deriv(target, a)))
            for h, centry in by_pair.get((i, j), ()):
                for b, target in negated[h]:
                    _mul_into(defect.setdefault(b, {}), *_ordered(centry, target))
            if any(defect.values()):
                return False
    return True


def _frame_jacobi_holds(s: CourantStructure) -> bool:
    """Whether (i) holds on every frame triple: for all i, j, k and l,
      J(e_i, e_j, e_k)^l = sum_h (c_jk^h c_ih^l - c_ij^h c_hk^l - c_ik^h c_jh^l)
                           + rho_i(c_jk^l) + rho_k(c_ij^l) - rho_j(c_ik^l)
                           - D(c_ijk)^l = 0,
    which is what the cap-0 sweep decides for (i), for any frame data (see
    the module docstring).  Every term has a factor c, so the loops run over
    the nonzero c entries; the products are exact as in
    `_frame_identities_hold`.
    """
    anchor, negated = s._frame_tables[:2]
    c, lowered = _c_tables(s)
    first: dict[int, list] = {}         # h -> [(q, l, c_hq^l), ...]
    second: dict[int, list] = {}        # h -> [(p, l, c_ph^l), ...]
    for (i, j, l), entry in c.items():
        first.setdefault(i, []).append((j, l, entry))
        second.setdefault(j, []).append((i, l, entry))
    jacobiator: dict[tuple, dict] = {}  # (i, j, k, l) -> J(e_i, e_j, e_k)^l

    def add(key, p, q):
        _mul_into(jacobiator.setdefault(key, {}), *_ordered(p, q))

    for (x, y, h), entry in c.items():
        minus = _scaled(entry, -1)
        for p, l, other in second.get(h, ()):
            add((p, x, y, l), entry, other)
            add((x, p, y, l), minus, other)
        for q, l, other in first.get(h, ()):
            add((x, y, q, l), minus, other)
        for m, (plus_row, minus_row) in enumerate(zip(anchor, negated)):
            for (a, plus), (_, neg) in zip(plus_row, minus_row):
                d = _deriv(entry, a)
                if d:
                    add((m, x, y, h), plus, d)
                    add((x, y, m, h), plus, d)
                    add((x, m, y, h), neg, d)
    for key, lam in lowered.items():
        minus = _scaled(lam, -1)
        for l, row in enumerate(s._dual_rows):
            for a, entry in row:
                d = _deriv(minus, a)
                if d:
                    add((*key, l), entry, d)
    return not any(jacobiator.values())


def _exchanged(comps: list[dict], n: int) -> list[dict]:
    """Packed components over n + 2 variables with the exponents of the last
    two exchanged, in the same term order.

    The sweep's structure is lifted by two inert tag variables, which the
    operations never differentiate, and its second tagged section is the
    first with the tags exchanged, inserted in the same order.  So an
    operation's result on the second is its result on the first with the
    tags exchanged, term order included.
    """
    shift = _BITS * n
    base = (1 << shift) - 1
    return [{(key & base) | ((key >> shift & _FIELD) << (shift + _BITS))
             | ((key >> (shift + _BITS)) << shift): c for key, c in terms.items()}
            for terms in comps]


def _sweep_axioms(s: CourantStructure, degree_cap: int) -> dict[str, dict | None]:
    """The tagged sweep over every (ordered) tuple of monomial frame
    sections of coefficient degree <= degree_cap: each axiom's witness,
    None where it holds on every tuple, keyed "iii", "i", "ii".

    A failing axiom reports the tuple decoded from the first term of the
    first nonzero component of its defect, so this witness depends on the
    term order of the structure's operations; the Leibniz and morphism
    certificates decode the least packed key, which does not.
    """
    n, k = s.bundle.base_dim, s.bundle.rank
    lifted = lift_structure(s, 2)
    f2 = tagged_generating_section(s.bundle, degree_cap, 2, n)
    f3 = tagged_generating_section(s.bundle, degree_cap, 2, n + 1)
    inner23 = lifted.bracket(f2, f3)
    pair23 = lifted.pairing(f2, f3)

    # axiom (iii): two slots, fully tagged, one identity; [[F3, F2]] is
    # [[F2, F3]] with the tags exchanged
    inner32 = lifted._section(_exchanged(lifted._terms(inner23), n))
    defect3 = inner23 + inner32 - lifted.derived_operator(pair23)
    witness3 = _witness_from_tags(s, degree_cap, "iii", lifted._terms(defect3))

    # axioms (i) and (ii): first slot enumerated, remaining two tagged.  The
    # loop makes four brackets per family member and calls the packed
    # operations directly, so no result is wrapped as a Section and unwrapped.
    f2, f3, inner23 = lifted._terms(f2), lifted._terms(f3), lifted._terms(inner23)
    witness1 = witness2 = None
    for b, (i, alpha) in enumerate(monomial_frame_basis(s.bundle, degree_cap)):
        ba = [{_pack(alpha): 1} if c == i else {} for c in range(k)]
        inner_a2 = lifted._bracket(ba, f2)
        inner_a3 = _exchanged(inner_a2, n)
        if witness1 is None:
            defect1 = [
                _subtract_into(*parts) for parts in zip(
                    lifted._bracket(ba, inner23), lifted._bracket(inner_a2, f3),
                    lifted._bracket(f2, inner_a3),
                )
            ]
            witness1 = _witness_from_tags(s, degree_cap, "i", defect1, (b,))
        if witness2 is None:
            defect2 = _subtract_into(
                lifted._anchor_apply(ba, pair23._packed), lifted._pairing(inner_a2, f3),
                lifted._pairing(f2, inner_a3),
            )
            witness2 = _witness_from_tags(s, degree_cap, "ii", [defect2], (b,))
        if witness1 is not None and witness2 is not None:
            break
    return {"iii": witness3, "i": witness1, "ii": witness2}


def _certify_axioms(s: CourantStructure, degree_cap: int) -> dict[str, AxiomCheck]:
    """Exact certification of all three axioms over the monomial family.

    Equivalent to enumerating every (ordered) tuple of monomial frame
    sections of coefficient degree <= min(degree_cap, SWEEP_ORDER), which
    is complete for all smooth sections at any cap >= 1; see the module
    docstring.  The label names the requested cap and its family.

    At any cap >= 1 a pass is decided by the five frame identities, which
    together are equivalent to the axioms (module docstring), with no lift
    and no bracket.  If any of them fails, the degree-1 sweep runs and its
    witnesses make the report; an explicit cap 0 runs the cap-0 sweep only.
    """
    family = check_degree_cap(s.bundle, degree_cap)
    label = f"all {family}^t tuples of the {family} monomial frame sections, degree cap {degree_cap}"
    if s.bundle.rank == 0:
        return {name: AxiomCheck(True, "rank-0 bundle: axioms hold vacuously")
                for name in ("i", "ii", "iii")}
    if degree_cap and _frame_identities_hold(s) and _frame_jacobi_holds(s):
        witnesses = dict.fromkeys(("iii", "i", "ii"))
    else:
        witnesses = _sweep_axioms(s, min(degree_cap, SWEEP_ORDER))
    return {name: AxiomCheck(w is None, f"certified over {label}", w)
            for name, w in witnesses.items()}


def check_axioms(
    s: CourantStructure,
    sections: Sequence[Section] = (),
    degree_cap: int = 3,
    n_random: int = 100,
    seed: int = 0,
) -> AxiomReport:
    """Exact pass/fail per axiom.

    (i)   [[f,[[g,h]]]] = [[[[f,g]],h]] + [[g,[[f,h]]]]
    (ii)  rho(f)<g,h> = <[[f,g]],h> + <g,[[f,h]]>
    (iii) [[f,g]] + [[g,f]] = D(<f,g>)

    Each axiom is certified over every tuple of monomial frame sections of
    degree <= min(degree_cap, SWEEP_ORDER).  At any cap >= 1 that is a
    certificate for all smooth sections (see the module docstring), so no
    draw can change a verdict; cap 0 bounds the claim to constant sections.
    At cap >= 1 a pass comes from five identities on the frame data, with
    no bracket, and a failure from the degree-1 sweep, whose witness is the
    failing tuple.
    n_random tuples are drawn from the supplied sections with the given
    seed and checked directly.  Without supplied sections nothing is drawn.
    All comparisons are polynomial identities with zero tolerance.
    """
    checks = _certify_axioms(s, degree_cap)
    pool: list[Section] = list(sections)
    rng = random.Random(seed)
    samples = n_random if pool else 0
    for _ in range(samples):
        f, g, h = (pool[rng.randrange(len(pool))] for _ in range(3))
        for name, slots in (("i", (f, g, h)), ("ii", (f, g, h)), ("iii", (f, g))):
            if checks[name].passed:
                witness = _plain_witness(s, name, slots)
                if witness is not None:
                    checks[name] = AxiomCheck(False, "supplied-section tuple check failed", witness)
    for name, check in checks.items():
        if check.passed:
            check.detail += f"; {samples} random tuples"
    return AxiomReport(checks)


# -- Leibniz rules ---------------------------------------------------------------


@dataclass
class LeibnizReport:
    """Exact verdicts for the function-linearity rules of the bracket."""

    second_slot: AxiomCheck
    two_sided: AxiomCheck
    variant_falsified: bool
    variant_witness: dict | None

    @property
    def all_passed(self) -> bool:
        return self.second_slot.passed and self.two_sided.passed

    def to_json(self) -> dict:
        return {
            "second_slot_rule": self.second_slot.to_json(),
            "two_sided_rule": self.two_sided.to_json(),
            "final_slot_variant": {
                "status": "falsified" if self.variant_falsified else "not falsified",
                "witness": self.variant_witness,
            },
        }


def _variant_defect(s: CourantStructure, f, g, lam, mu) -> Section:
    """The defect of the final-slot variant on explicit arguments, expanded
    through the bracket; it vanishes iff the variant holds there."""
    common = (
        (lam * mu) * s.bracket(f, g)
        + lam * s.anchor_apply(f, mu) * g
        + (s.pairing(f, g) * mu) * s.derived_operator(lam)
    )
    cross = mu * s.anchor_apply(g, lam)
    return s.bracket(lam * f, mu * g) - (common - cross * g)


def _leibniz_witness(s: CourantStructure, degree_cap: int, defect: Section):
    """Decode the least nonzero packed key of the variant's tagged defect
    into explicit arguments and re-verify them through the bracket; None if
    the defect vanishes.

    The least key, over all components, does not depend on term order."""
    key = min((key for p in defect for key in p._packed), default=None)
    if key is None:
        return None
    n = s.bundle.base_dim
    tags = _unpack(key, n + 4)[n:]
    f, g = (decode_tag(s.bundle, degree_cap, t) for t in tags[:2])
    lam, mu = (decode_tag(TrivialBundle(n, 1), degree_cap, t)[0] for t in tags[2:])
    plain = _variant_defect(s, f, g, lam, mu)
    if plain.is_zero():
        raise RuntimeError(
            "internal inconsistency: tagged Leibniz certificate flagged a "
            "tuple whose plain defect vanishes"
        )
    return {"f": f.coeffs.to_strings(), "g": g.coeffs.to_strings(),
            "lam": lam.to_string(), "mu": mu.to_string(),
            "defect": plain.coeffs.to_strings()}


def check_leibniz(
    s: CourantStructure,
    n_samples: int = 100,
    degree_cap: int = 2,
    seed: int = 0,
) -> LeibnizReport:
    """Decide the two Leibniz rules, and falsify the final-slot variant.

    Rule 1 (second slot):  [[f, lam g]] = lam [[f,g]] + rho(f)(lam) g.
    Rule 2 (two-sided):    [[lam f, mu g]] = lam mu [[f,g]] + lam rho(f)(mu) g
                           - mu rho(g)(lam) f + <f,g> mu D(lam).
    Both hold by the bracket's expansion for any frame data with constant
    symmetric G (see the module docstring), which is what the constructor
    accepts, so they pass without evaluation.  The variant of rule 2 whose
    third term reads "- mu rho(g)(lam) g" then has the defect
    mu rho(g)(lam) (g - f), false whenever the anchor is nonzero.

    That defect is R-multilinear in (f, g, lam, mu) and of order <= 1 in
    each.  It is evaluated once on `lift_structure(s, 4)` with the four
    slots filled by tagged generating families at the effective cap
    min(degree_cap, SWEEP_ORDER): f and g with `tagged_generating_section`,
    lam and mu with sum_a t^a x^alpha_a (the same family on the rank-1
    bundle).  Distinct tuples land on distinct tag monomials, so the
    least nonzero packed key decodes to the least failing tuple of the
    family, which is re-expanded through the bracket with plain sections
    as the witness.  At cap 0 the claim is bounded to constant
    coefficients, on which the variant cannot fail.

    `n_samples` and `seed` are accepted for compatibility and unused.
    Raises ValueError when the family exceeds MAX_FAMILY.
    """
    cap = min(degree_cap, SWEEP_ORDER)
    check_degree_cap(s.bundle, cap)
    n = s.bundle.base_dim
    # functions are the sections of the rank-1 bundle
    functions = TrivialBundle(n, 1)
    f, g = (tagged_generating_section(s.bundle, cap, 4, n + t) for t in (0, 1))
    lam, mu = (tagged_generating_section(functions, cap, 4, n + t)[0] for t in (2, 3))
    cross = mu * lift_structure(s, 4).anchor_apply(g, lam)
    witness = _leibniz_witness(s, cap, cross * (g - f))
    reach = ("complete: all smooth arguments" if cap
             else "bounded: cap 0 claims constant coefficients only")
    rule = AxiomCheck(True, f"holds by the bracket's expansion; {reach}")
    return LeibnizReport(rule, rule, witness is not None, witness)


# -- linear Dirac structures ------------------------------------------------------


def dirac_check(s: CourantStructure, subspace: LinearSubspace) -> bool:
    """True iff the subspace is isotropic for the metric and of half rank.

    The fiber metric is constant, so the check is the same over every base
    point.  Raises for odd rank, where maximal isotropy is ill-posed for a
    split-signature pairing.
    """
    return _maximally_isotropic(s.metric, subspace)


def _maximally_isotropic(metric, subspace: LinearSubspace) -> bool:
    """`dirac_check` against a constant k x k pairing matrix."""
    k = len(metric)
    if subspace.ambient_dim != k:
        raise ValueError(
            f"subspace lives in R^{subspace.ambient_dim}, structure rank is {k}"
        )
    if k % 2:
        raise ValueError("maximal isotropy is undefined for odd rank")
    basis = [list(v) for v in subspace.basis]
    for u in basis:
        gu = linalg.mat_vec(metric, u)
        for v in basis:
            if sum((a * b for a, b in zip(gu, v) if a and b), Fraction(0)) != 0:
                return False
    return subspace.dim == k // 2
