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

The Leibniz rules of the bracket (Liu, Weinstein & Xu 1997) are certified
the same way, with four tagged slots: f and g are generating sections, and
lam and mu are generating functions sum_a t^a x^alpha_a.  Each rule's defect
is a differential operator of order <= 1 in each of f, g, lam and mu.  Such
an operator vanishes on all smooth arguments iff it vanishes on every tuple
of monomials x^alpha with |alpha| <= 1: applied to x^alpha it gives alpha!
times its coefficient of order alpha plus terms fixed by smaller alpha, so
by induction every coefficient is zero.  The certificate therefore runs at
cap min(degree_cap, 1) and is complete whenever that cap is 1.
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
    _add_into,
    _checked,
    _coeff,
    _deriv,
    _mul_into,
    _pack,
    _product,
    _scaled,
    _unpack,
    monomials_up_to,
    poly_sum,
)

__all__ = [
    "CourantStructure",
    "standard_structure",
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
    "LeibnizReport",
    "check_leibniz",
    "dirac_check",
    "random_section",
    "random_polynomial",
]


class CourantStructure:
    """Frame presentation (anchor, metric, structure functions) of a
    Courant algebroid structure on a trivial bundle."""

    __slots__ = ("bundle", "anchor", "metric", "structure_functions",
                 "metric_inverse", "_dual_anchor")

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
        if k and linalg.det(g) == 0:
            raise ValueError("metric must have nonzero determinant")
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
        object.__setattr__(self, "bundle", bundle)
        object.__setattr__(self, "anchor", rows)
        object.__setattr__(self, "metric", g)
        object.__setattr__(self, "structure_functions", c)
        object.__setattr__(self, "metric_inverse", linalg.inverse(g) if k else [])
        # rows of G^-1 A^T: the derived operator D(lam)_h = sum_a dual[h][a] d_a lam
        dual = linalg.pmat_mul(
            linalg.pmat_constant(self.metric_inverse, n),
            linalg.pmat_transpose(rows) if rows else [[] for _ in range(k)],
        ) if k else []
        object.__setattr__(self, "_dual_anchor", dual)

    def __setattr__(self, name, value):
        raise AttributeError("CourantStructure is immutable")

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
        self._check_section(f)
        self._check_section(g)
        return poly_sum(self.bundle.base_dim, (
            fi * gj * self.metric[i][j]
            for i, fi in enumerate(f) if not fi.is_zero()
            for j, gj in enumerate(g) if self.metric[i][j] and not gj.is_zero()
        ))

    def anchor_field(self, f: Section) -> PolyMap:
        """The vector field rho(f) = A(x) f(x) on the base."""
        self._check_section(f)
        return PolyMap(
            self.bundle.base_dim,
            linalg.pmat_vec(
                self.anchor, list(f.coeffs), num_vars=self.bundle.base_dim
            ),
        )

    def anchor_apply(self, f: Section, fn: Polynomial) -> Polynomial:
        """rho(f) acting as a derivation on a base function."""
        self._check_section(f)
        field = self.anchor_field(f)
        return poly_sum(self.bundle.base_dim, (
            v * fn.diff(a) for a, v in enumerate(field) if not v.is_zero()
        ))

    def derived_operator(self, fn: Polynomial) -> Section:
        """D(fn): the unique section with <D(fn), s> = rho(s)(fn)."""
        n, k = self.bundle.base_dim, self.bundle.rank
        if fn.num_vars != n:
            raise ValueError("function must use the base variables")
        grad = fn.gradient()
        comps = [
            poly_sum(n, (
                entry * grad[a] for a, entry in enumerate(self._dual_anchor[h])
                if not (entry.is_zero() or grad[a].is_zero())
            ))
            for h in range(k)
        ]
        return Section(self.bundle, PolyMap(n, comps))

    def frame_bracket(self, i: int, j: int) -> Section:
        """[[e_i, e_j]] = sum_h c_ij^h e_h."""
        n, k = self.bundle.base_dim, self.bundle.rank
        comps = [Polynomial(n)] * k
        for h in range(k):
            p = self.structure_functions.get((i, j, h))
            if p is not None:
                comps[h] = p
        return Section(self.bundle, PolyMap(n, comps))

    def bracket(self, f: Section, g: Section) -> Section:
        """The bracket of arbitrary sections via the Leibniz expansion."""
        self._check_section(f)
        self._check_section(g)
        n, k = self.bundle.base_dim, self.bundle.rank
        parts: list[list[Polynomial]] = [[] for _ in range(k)]   # summands per component
        zero = [Polynomial(n)] * n
        df = [zero if fi.is_zero() else [fi.diff(a) for a in range(n)] for fi in f]
        dg = [zero if gj.is_zero() else [gj.diff(a) for a in range(n)] for gj in g]
        for i, fi in enumerate(f):
            fi_zero = fi.is_zero()
            for j, gj in enumerate(g):
                gj_zero = gj.is_zero()
                if fi_zero and gj_zero:
                    continue
                if not fi_zero and not gj_zero:
                    prod = fi * gj
                    for h in range(k):
                        c = self.structure_functions.get((i, j, h))
                        if c is not None:
                            parts[h].append(prod * c)
                if not fi_zero:
                    # f_i rho(e_i)(g_j) e_j
                    acc = self._anchor_derivative(i, dg[j])
                    if not acc.is_zero():
                        parts[j].append(fi * acc)
                if not gj_zero:
                    # - g_j rho(e_j)(f_i) e_i
                    acc = self._anchor_derivative(j, df[i])
                    if not acc.is_zero():
                        parts[i].append(-(gj * acc))
        # sum_ij G_ij g_j D(f_i)
        for i, fi in enumerate(f):
            if fi.is_zero():
                continue
            s = poly_sum(n, (
                gj * self.metric[i][j]
                for j, gj in enumerate(g) if self.metric[i][j] and not gj.is_zero()
            ))
            if s.is_zero():
                continue
            for h in range(k):
                acc = poly_sum(n, (
                    entry * df[i][a] for a, entry in enumerate(self._dual_anchor[h])
                    if not (entry.is_zero() or df[i][a].is_zero())
                ))
                if not acc.is_zero():
                    parts[h].append(s * acc)
        return Section(self.bundle, PolyMap(n, [poly_sum(n, p) for p in parts]))

    def _anchor_derivative(self, i: int, grad: list[Polynomial]) -> Polynomial:
        """rho(e_i) applied to the function whose partials are `grad`."""
        return poly_sum(self.bundle.base_dim, (
            self.anchor[a][i] * d for a, d in enumerate(grad)
            if not (self.anchor[a][i].is_zero() or d.is_zero())
        ))

    def _check_section(self, f: Section):
        if f.bundle != self.bundle:
            raise ValueError("section does not live on this structure's bundle")


# -- constructors -------------------------------------------------------------


def standard_structure(n: int) -> CourantStructure:
    """The standard structure on TM (+) T*M over R^n.

    Anchor [I | 0], hyperbolic pairing <(v,p),(v',p')> = p(v') + p'(v),
    vanishing frame brackets; the Dorfman bracket arises from the Leibniz
    expansion (see `dorfman_bracket` for the independent route).
    """
    bundle = TrivialBundle(n, 2 * n, label=f"P(R^{n})")
    anchor = [
        [Polynomial.constant(n, int(i == a)) for i in range(2 * n)]
        for a in range(n)
    ]
    metric = [
        [Fraction(int(abs(i - j) == n)) for j in range(2 * n)]
        for i in range(2 * n)
    ]
    return CourantStructure(bundle, anchor, metric)


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
    constants.  Used by the exact certification sweeps.
    """
    n, k = s.bundle.base_dim, s.bundle.rank
    nn = n + extra
    bundle = TrivialBundle(nn, k, label=s.bundle.label)
    anchor = [[p.lift(nn, 0) for p in row] for row in s.anchor]
    anchor += [[Polynomial(nn)] * k for _ in range(extra)]
    c = {key: p.lift(nn, 0) for key, p in s.structure_functions.items()}
    return CourantStructure(bundle, anchor, s.metric, c)


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


# -- packed term dicts for the certification sweep ----------------------------

# The sweep works on the structure's own packed term dicts (x variables
# first, then the two tag variables) with the polyexpr kernel.  Each product
# runs its outer loop over the smaller factor.  Exponents are limited by
# polyexpr.MAX_EXPONENT, and a product that would exceed it raises instead of
# aliasing; tag exponents stay below the family size, checked below.


def _mul(p: dict, q: dict, num_vars: int) -> dict:
    if len(p) > len(q):
        p, q = q, p
    return _product(p, q, num_vars)


def _accum_mul(dst: dict, p: dict, q: dict, sign=1) -> None:
    if len(p) > len(q):
        p, q = q, p
    _mul_into(dst, p if sign == 1 else _scaled(p, sign), q)


class _FastStructure:
    """The frame data as packed term dicts, for the certification sweep.

    The dicts are shared with the structure's polynomials and never
    mutated.  Every method returns new dicts, overflow-checked.
    """

    def __init__(self, s: CourantStructure, extra: int):
        n = s.bundle.base_dim
        self.k = s.bundle.rank
        self.num_vars = n + extra
        self.anchor_terms = [
            [(a, s.anchor[a][i]._packed) for a in range(n) if not s.anchor[a][i].is_zero()]
            for i in range(self.k)
        ]
        self.dual_rows = [
            [(a, row[a]._packed) for a in range(n) if not row[a].is_zero()]
            for row in s._dual_anchor
        ]
        self.metric = [[_coeff(v) for v in row] for row in s.metric]
        grouped: dict[tuple[int, int], list] = {}
        for (i, j, h), p in s.structure_functions.items():
            grouped.setdefault((i, j), []).append((h, p._packed))
        self.c_entries = [(i, j, hs) for (i, j), hs in grouped.items()]

    def _done(self, out: list[dict]) -> list[dict]:
        return [_checked(entry, self.num_vars) for entry in out]

    def bracket(self, f: list[dict], g: list[dict]) -> list[dict]:
        nv = self.num_vars
        out = [dict() for _ in range(self.k)]
        for i, fi in enumerate(f):
            if not fi:
                continue
            for a, entry in self.anchor_terms[i]:
                fie = _mul(fi, entry, nv)
                for j, gj in enumerate(g):
                    if not gj:
                        continue
                    d = _deriv(gj, a)
                    if d:
                        _accum_mul(out[j], fie, d)
        for j, gj in enumerate(g):
            if not gj:
                continue
            for a, entry in self.anchor_terms[j]:
                gje = _mul(gj, entry, nv)
                for i, fi in enumerate(f):
                    if not fi:
                        continue
                    d = _deriv(fi, a)
                    if d:
                        _accum_mul(out[i], gje, d, -1)
        for i, j, hs in self.c_entries:
            fi, gj = f[i], g[j]
            if fi and gj:
                prod = _mul(fi, gj, nv)
                for h, centry in hs:
                    _accum_mul(out[h], prod, centry)
        for i, fi in enumerate(f):
            if not fi:
                continue
            s = {}
            grow = self.metric[i]
            for j, gj in enumerate(g):
                if grow[j] and gj:
                    _add_into(s, _scaled(gj, grow[j]))
            if not s:
                continue
            derivs = {}
            for h, alist in enumerate(self.dual_rows):
                for a, entry in alist:
                    if a not in derivs:
                        derivs[a] = _deriv(fi, a)
                    if derivs[a]:
                        _accum_mul(out[h], _mul(s, entry, nv), derivs[a])
        return self._done(out)

    def pairing(self, f: list[dict], g: list[dict]) -> dict:
        out: dict = {}
        for i, fi in enumerate(f):
            if not fi:
                continue
            grow = self.metric[i]
            for j, gj in enumerate(g):
                if grow[j] and gj:
                    _accum_mul(out, _mul(fi, gj, self.num_vars), {0: grow[j]})
        return _checked(out, self.num_vars)

    def anchor_apply(self, f: list[dict], p: dict) -> dict:
        out: dict = {}
        for i, fi in enumerate(f):
            if not fi:
                continue
            for a, entry in self.anchor_terms[i]:
                d = _deriv(p, a)
                if d:
                    _accum_mul(out, _mul(fi, entry, self.num_vars), d)
        return _checked(out, self.num_vars)

    def derived(self, p: dict) -> list[dict]:
        out = [dict() for _ in range(self.k)]
        derivs = {}
        for h, alist in enumerate(self.dual_rows):
            for a, entry in alist:
                if a not in derivs:
                    derivs[a] = _deriv(p, a)
                if derivs[a]:
                    _accum_mul(out[h], derivs[a], entry)
        return self._done(out)


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


def _witness_from_tags(
    s: CourantStructure, degree_cap: int, axiom: str, slot_sections, defect_key,
    component: int | None,
):
    """Decode a nonzero sweep term into explicit sections and re-verify it."""
    n = s.bundle.base_dim
    exps = _unpack(defect_key, n + 2)
    resolved = []
    tag_pos = n
    for kind, payload in slot_sections:
        if kind == "fixed":
            resolved.append(payload)
        else:
            resolved.append(decode_tag(s.bundle, degree_cap, exps[tag_pos]))
            tag_pos += 1
    witness = _plain_witness(s, axiom, resolved)
    if witness is None:
        raise RuntimeError(
            "internal inconsistency: tagged sweep flagged a tuple whose "
            "plain defect vanishes"
        )
    witness["component"] = component
    return witness


MAX_FAMILY = 256


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


def _certify_axioms(s: CourantStructure, degree_cap: int) -> dict[str, AxiomCheck]:
    """Exact certification of all three axioms over the monomial family.

    Equivalent to enumerating every (ordered) tuple of monomial frame
    sections of coefficient degree <= degree_cap; see the module docstring.
    """
    n, k = s.bundle.base_dim, s.bundle.rank
    family = check_degree_cap(s.bundle, degree_cap)
    label = f"all {family}^t tuples of the {family} monomial frame sections, degree cap {degree_cap}"
    if k == 0:
        check = AxiomCheck(True, "rank-0 bundle: axioms hold vacuously")
        return {"i": check, "ii": check, "iii": check}
    fast = _FastStructure(s, extra=2)
    f2 = [p._packed for p in tagged_generating_section(s.bundle, degree_cap, 2, n)]
    f3 = [p._packed for p in tagged_generating_section(s.bundle, degree_cap, 2, n + 1)]
    basis = monomial_frame_basis(s.bundle, degree_cap)
    inner23 = fast.bracket(f2, f3)
    pair23 = fast.pairing(f2, f3)

    checks: dict[str, AxiomCheck] = {}

    # axiom (iii): two slots, fully tagged, one identity
    defect3 = fast.bracket(f2, f3)
    for comp, entry in enumerate(fast.bracket(f3, f2)):
        _add_into(defect3[comp], entry)
    for comp, entry in enumerate(fast.derived(pair23)):
        _add_into(defect3[comp], _scaled(entry, -1))
    witness3 = None
    for comp, entry in enumerate(defect3):
        if entry:
            key = next(iter(entry))
            witness3 = _witness_from_tags(
                s, degree_cap, "iii",
                [("tag", None), ("tag", None)], key, comp,
            )
            break
    checks["iii"] = AxiomCheck(witness3 is None, f"certified over {label}", witness3)

    # axioms (i) and (ii): first slot enumerated, remaining two tagged
    witness1 = None
    witness2 = None
    for i, alpha in basis:
        ba = [dict() for _ in range(k)]
        ba[i] = {_pack(alpha): 1}
        inner_a2 = fast.bracket(ba, f2)
        inner_a3 = fast.bracket(ba, f3)
        if witness1 is None:
            defect1 = fast.bracket(ba, inner23)
            for comp, entry in enumerate(fast.bracket(inner_a2, f3)):
                _add_into(defect1[comp], _scaled(entry, -1))
            for comp, entry in enumerate(fast.bracket(f2, inner_a3)):
                _add_into(defect1[comp], _scaled(entry, -1))
            for comp, entry in enumerate(defect1):
                if entry:
                    fixed = Section.frame(
                        s.bundle, i, Polynomial.monomial(n, alpha)
                    )
                    witness1 = _witness_from_tags(
                        s, degree_cap, "i",
                        [("fixed", fixed), ("tag", None), ("tag", None)],
                        next(iter(entry)), comp,
                    )
                    break
        if witness2 is None:
            defect2 = fast.anchor_apply(ba, pair23)
            _add_into(defect2, _scaled(fast.pairing(inner_a2, f3), -1))
            _add_into(defect2, _scaled(fast.pairing(f2, inner_a3), -1))
            if defect2:
                fixed = Section.frame(s.bundle, i, Polynomial.monomial(n, alpha))
                witness2 = _witness_from_tags(
                    s, degree_cap, "ii",
                    [("fixed", fixed), ("tag", None), ("tag", None)],
                    next(iter(defect2)), None,
                )
        if witness1 is not None and witness2 is not None:
            break
    checks["i"] = AxiomCheck(witness1 is None, f"certified over {label}", witness1)
    checks["ii"] = AxiomCheck(witness2 is None, f"certified over {label}", witness2)
    return checks


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

    Each axiom is certified over every tuple of monomial frame sections up
    to the degree cap; multilinearity makes that a certificate for all
    sections of coefficient degree <= cap, so no random draw at or below
    the cap can change a verdict.  Supplied sections may exceed the cap:
    n_random tuples are drawn from them with the given seed and checked
    directly.  Without supplied sections nothing is drawn.  All comparisons
    are polynomial identities with zero tolerance.
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


def _leibniz_defects(s: CourantStructure, f, g, lam, mu) -> tuple[Section, Section, Section]:
    """The defects of rule 1, rule 2 and the final-slot variant on explicit
    arguments; each vanishes iff its identity holds there."""
    fg = s.bracket(f, g)
    rule1 = s.bracket(f, lam * g) - (lam * fg + s.anchor_apply(f, lam) * g)
    common = (
        (lam * mu) * fg
        + lam * s.anchor_apply(f, mu) * g
        + (s.pairing(f, g) * mu) * s.derived_operator(lam)
    )
    cross = mu * s.anchor_apply(g, lam)
    lhs = s.bracket(lam * f, mu * g)
    return rule1, lhs - (common - cross * f), lhs - (common - cross * g)


def _leibniz_witness(s: CourantStructure, degree_cap: int, rule: int, defect: Section):
    """Decode the least nonzero packed key of a tagged defect into explicit
    arguments and re-verify them; None if the defect vanishes.

    The least key, over all components, does not depend on term order."""
    key = min((key for p in defect for key in p._packed), default=None)
    if key is None:
        return None
    n = s.bundle.base_dim
    tags = _unpack(key, n + 4)[n:]
    f, g = (decode_tag(s.bundle, degree_cap, t) for t in tags[:2])
    lam, mu = (decode_tag(TrivialBundle(n, 1), degree_cap, t)[0] for t in tags[2:])
    plain = _leibniz_defects(s, f, g, lam, mu)[rule]
    if plain.is_zero():
        raise RuntimeError(
            "internal inconsistency: tagged Leibniz certificate flagged a "
            "tuple whose plain defect vanishes"
        )
    witness = {"f": f.coeffs.to_strings(), "g": g.coeffs.to_strings(),
               "lam": lam.to_string(), "mu": mu.to_string(),
               "defect": plain.coeffs.to_strings()}
    if rule == 0:
        del witness["mu"]
    return witness


def check_leibniz(
    s: CourantStructure,
    n_samples: int = 100,
    degree_cap: int = 2,
    seed: int = 0,
) -> LeibnizReport:
    """Certify the two Leibniz rules exactly, and try the falsified variant.

    Rule 1 (second slot):  [[f, lam g]] = lam [[f,g]] + rho(f)(lam) g.
    Rule 2 (two-sided):    [[lam f, mu g]] = lam mu [[f,g]] + lam rho(f)(mu) g
                           - mu rho(g)(lam) f + <f,g> mu D(lam).
    The variant of rule 2 whose third term reads "- mu rho(g)(lam) g" is
    false whenever the anchor is nonzero.

    Each defect is R-multilinear in (f, g, lam, mu).  The four slots are
    filled with tagged generating families, one tag variable each, at the
    effective cap min(degree_cap, 1): f and g with
    `tagged_generating_section`, lam and mu with sum_a t^a x^alpha_a (the
    same family on the rank-1 bundle).  The defects are evaluated on
    `lift_structure(s, 4)`.  Distinct tuples land on distinct
    tag monomials, so one polynomial identity per defect is the enumeration
    of every tuple of the family.  Each defect is a differential operator
    of order <= 1 in each argument, so a tuple family of degree <= 1 is
    complete for all smooth arguments (by induction on the exponent, as
    in the module docstring); at cap 0 the verdict is bounded to constant
    coefficients, on which the variant cannot fail.

    A failing rule and the variant report the tuple decoded from the least
    nonzero packed key of their defect, re-expanded with plain sections.
    (All three coincide when the anchor vanishes, and then the variant is
    "not falsified".)  `n_samples` and `seed` are accepted for compatibility
    and unused.  Raises ValueError when the family exceeds MAX_FAMILY.
    """
    cap = min(degree_cap, 1)
    family = check_degree_cap(s.bundle, cap)
    n = s.bundle.base_dim
    # functions are the sections of the rank-1 bundle
    functions = TrivialBundle(n, 1)
    defects = _leibniz_defects(
        lift_structure(s, 4),
        tagged_generating_section(s.bundle, cap, 4, n),
        tagged_generating_section(s.bundle, cap, 4, n + 1),
        tagged_generating_section(functions, cap, 4, n + 2)[0],
        tagged_generating_section(functions, cap, 4, n + 3)[0],
    )
    witnesses = [_leibniz_witness(s, cap, rule, d) for rule, d in enumerate(defects)]
    scope = (f"every tuple of the {family} monomial frame sections and "
             f"{check_degree_cap(functions, cap)} monomial functions of degree <= {cap}, "
             f"one tagged identity")
    reach = ("complete: order <= 1 in each argument, so all smooth arguments"
             if cap else "bounded: constant coefficients only")
    rules = [
        AxiomCheck(True, f"certified over {scope}; {reach}") if w is None
        else AxiomCheck(False, f"{name} failed on the least failing tuple of {scope}", w)
        for name, w in zip(("second-slot rule", "two-sided rule"), witnesses)
    ]
    return LeibnizReport(*rules, witnesses[2] is not None, witnesses[2])


# -- linear Dirac structures ------------------------------------------------------


def dirac_check(s: CourantStructure, subspace: LinearSubspace) -> bool:
    """True iff the subspace is isotropic for the metric and of half rank.

    The fiber metric is constant, so the check is the same over every base
    point.  Raises for odd rank, where maximal isotropy is ill-posed for a
    split-signature pairing.
    """
    k = s.bundle.rank
    if subspace.ambient_dim != k:
        raise ValueError(
            f"subspace lives in R^{subspace.ambient_dim}, structure rank is {k}"
        )
    if k % 2:
        raise ValueError("maximal isotropy is undefined for odd rank")
    basis = [list(v) for v in subspace.basis]
    for u in basis:
        gu = linalg.mat_vec(s.metric, u)
        for v in basis:
            if sum((a * b for a, b in zip(gu, v)), Fraction(0)) != 0:
                return False
    return subspace.dim == k // 2
