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
all sections of coefficient degree up to that cap.  No certificate
enumerates those tuples or brackets them: each reads its verdict, and its
witness's defect, from identities in the frame data (below).

Every certificate reports one witness: the least failing tuple.  Tuples
order first by the largest coefficient degree of their members, then by
their members' places in the family slot by slot; x^alpha_a e_i has place
i*M + a in `monomial_frame_basis`, ordering by frame index i, then by
alpha_a's place in the graded `monomials_up_to` list.  So the witness does
not depend on term order, every frame tuple precedes every tuple with a
member of degree 1, and a failing tuple of degree <= 1 is the least at
every cap >= 1.  The frame tables below name it directly.

Degree 1 is enough.  If, in one slot, a defect is a differential operator
of order <= 1 with polynomial coefficients, it vanishes on all smooth
arguments iff it vanishes on every x^alpha e_i with |alpha| <= 1: applied
to x^alpha it gives alpha! times its coefficient of order alpha plus terms
fixed by smaller alpha, so by induction every coefficient is zero.  Taking
the slots one at a time (the others held first on the family, then on
arbitrary sections) extends this to whole tuples.  Every certificate here
is of that kind, so each decides at the degree `_decided_scope` reads off
its cap, 1 at any cap >= 1, where it is complete for all smooth sections;
an explicit cap 0 decides degree 0, covers constant sections only and
stays a bounded claim.  `_degree_1_members` lists the monomials of degree
<= 1 in the witness order, and every walk over members reads it.

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
  * The five slot rules of (i).  Let J(f,g,h) be the defect of (i),
    H(f,g) = rho([[f,g]]) - [rho(f), rho(g)], a vector field,
    K_f(lam) = [[f, D(lam)]] - D(rho(f)(lam)), and II(f,g,h) and III(f,g)
    the defects of (ii) and (iii), both tensorial.  Expanding with the
    rules above, one slot at a time, gives, with J = J(f,g,h),
      J(f, g, lam h) = lam J - H(f,g)(lam) h,
      J(f, lam g, h) = lam J + H(f,h)(lam) g + <g,h> K_f(lam)
                       + II(f,g,h) D(lam),
      J(lam f, g, h) = lam J - H(g,h)(lam) f - <f,h> K_g(lam)
                       + <f,g> K_h(lam) + rho(h)(lam) III(f,g)
                       - <f,g> III(D(lam), h)
                       - (II(g,h,f) + <h, III(f,g)>) D(lam),
    and H(f, lam g) = lam H(f,g), H(lam f, g) = lam H(f,g)
    + <f,g> rho(D(lam)), where rho o D acts on grad(lam) as the matrix
    A G^-1 A^T, and K_{lam f}(mu) = lam K_f(mu) - rho(D(mu))(lam) f.  K_f
    is first order with no term of order 0: the second-order parts of
    rho(f) applied to D(lam) and of D applied to rho(f)(lam) agree.  By
    the definition of II, <K_f(lam), k> = -H(f,k)(lam) - II(f, D(lam), k).
    If A G^-1 A^T = 0, H is tensorial and vanishes iff the anchor
    homomorphism H(e_i, e_j) = sum_h c_ij^h rho_h - [rho_i, rho_j] = 0
    holds; if (ii) holds as well, K vanishes, and if (iii) does too, J is
    tensorial in every slot and (i) holds iff it holds on every frame
    triple.
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
    all i, j, k, l is the fifth frame identity: (i) on the family of
    cap 0.  Every term has a factor c, so it holds when c = 0.
  * (i) on tuples of degree <= 1, where it holds on frame triples.  Let
    each of lam, mu, nu be 1 or a coordinate.  The rules, slot by slot,
    give
      J(lam e_i, mu e_j, nu e_k) = mu nu T1 + lam nu T2 + lam mu T3
                                   + nu T12 + mu T13
    where a term is absent when the functions it differentiates are
    constant, and, with <e_i, e_j> = G_ij and II_ijk, III_ij on frames,
      T1  = -H_jk(lam) e_i - G_ik K_j(lam) + G_ij K_k(lam)
            + rho_k(lam) III_ij - G_ij III(D(lam), e_k)
            - (c_ijk - c_jki) D(lam),
      T2  = H_ik(mu) e_j + G_jk K_i(mu) + II_ijk D(mu),
      T3  = -H_ij(nu) e_k,
      T12 = G_ik rho(D(lam))(mu) e_j - G_jk rho(D(mu))(lam) e_i,
      T13 = -G_ij rho(D(lam))(nu) e_k,
    since II(e_j,e_k,e_i) + <e_k, III_ij> = c_ijk - c_jki.  Each T is
    linear in the gradients it takes, so its entries at lam = x_a (and
    mu = x_b, nu = x_c) form a frame table read from J_ijk, H, rho o D,
    K_i(x_a) = K_{e_i}(x_a), II and III.  The slot table of i holds the
    entries with first frame index i.  Subtracting the terms of the lower
    tuples recovers each entry from J on the tuples, so (i) holds on every
    tuple with first member x^alpha e_i iff that table vanishes.
  * The converse.  If (i)-(iii) hold, the first line gives
    H(f,g)(lam) h = 0 for every lam and h, so H = 0 and the homomorphism
    holds; then H(lam f, g) = 0 leaves <f,g> rho(D(lam)) = 0, and some
    <e_i, e_j> = G_ij is nonzero, so A G^-1 A^T = 0.
Hence the three axioms hold for all smooth sections iff the five frame
identities hold, which is also what the tuples of degree 1 decide.
`check_axioms` decides every verdict and forms every witness from the
frame tables, with no bracket.  (iii) and (ii) are tensorial, so each
fails iff some frame tuple does; its least nonzero entry of
c_ij^h + c_ji^h, or c_ijm + c_imj, names the least failing tuple, and
those entries, negated for (ii), are the tuple's defect.  (i) fails on a
frame triple iff the fifth identity does, and then its least nonzero
(i, j, k) is the witness, with the defect J(e_i, e_j, e_k).  Otherwise,
at any cap >= 1, (i) can still fail when another identity does; every
failing tuple then has a member of degree 1.  The slot tables decide
whether one fails, first frame index by first frame index.  The tuples of
the first nonzero table whose frame pair the table holds are walked in the
witness order, first slot major, each value summed from the table, up to
the first nonzero one: the least failing tuple, whose value is its defect
(`_axiom_i_witness`); a tuple of any other frame pair reads no entry, and
a slot's x_t whose variable no entry differentiates there is skipped.  A
failing detail names that source, "the slot tables of (i)", or "the frame
tables".  The degree-1 tables are bounded by their work, not by any
family: rho o D and the anchor brackets [rho_i, rho_j] form at most
MAX_TABLE_WORK entry products, counted before they are formed, and the
slot tables, about (n k)^2 keys, are built only where (n k)^2 is at most
MAX_TABLE_WORK; past either, `check_axioms` raises ValueError.  Every
cap-1 family of rank * (base_dim + 1) <= 256 passes both, since then
n k < 256.  Every printed defect is checked against the exponent limit of
the packed keys.  `tests/conftest.py` keeps the re-expansion of a witness
through the plain bracket as the reference the oracles compare every
defect with.

The two Leibniz rules of the bracket above hold by the expansion, for
every structure the constructor accepts, so `check_leibniz` does not
evaluate them.  The falsified final-slot variant of the two-sided rule
then differs from it by mu rho(g)(lam) (g - f), with no bracket in it.
That defect is first order in each of f, g, lam and mu, so the family of
degree <= 1 decides it, and it vanishes on constant lam.  Every failing
tuple thus has degree 1, and the least, read from the anchor rows, is
f = e_0, g the least member other than f whose frame has a nonzero anchor
column, lam the least x_a that column reaches, and mu = 1; with
g = x^beta e_j, its defect is x^beta A_aj (g - f), formed on packed term
dicts with no Section or Polynomial product.
`tests/test_certificate_oracle.py` checks the order-1 property of every
axiom slot on frame data where no axiom need hold.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from . import linalg
from .bundles import LinearSubspace, Section, TrivialBundle
from .polyexpr import (
    Frozen,
    Polynomial,
    PolyMap,
    _BITS,
    _add_into,
    _checked,
    _coeff,
    _deriv,
    _mul_into,
    _normalised,
    _product,
    _raw,
    _scaled,
    monomials_up_to,
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
    "MAX_TABLE_WORK",
    "LeibnizReport",
    "check_leibniz",
    "dirac_check",
]


class CourantStructure(Frozen):
    """Frame presentation (anchor, metric, structure functions) of a
    Courant algebroid structure on a trivial bundle.

    The frame data are stored once, as `rows`: G, G^-1 and A in the
    kernel's canonical sparse rows (see `linalg`), a scalar entry kept as a
    scalar.  The constructor forms the rows and hands them to `_checked`,
    the one checked-rows path, which a scene reaches with rows it read
    straight from its literals: it checks the shapes, the symmetry of G on
    the rows and forms G^-1 by one reduction, which is its check that G is
    nonsingular, with the same error lines in the same order on either
    path.  A structure assembled from checked parts
    (`standard_structure`, `scaled_structure`, `product_structure`, a
    pullback) is given its rows.  `anchor`, `metric` and `metric_inverse`
    are read-only dense views of the rows, formed on each read; no check,
    certificate or construction reads them.  `pairing`, `anchor_apply`,
    `derived_operator` and `bracket` run on packed term dicts (see
    polyexpr), reading G and c_ij^h as stored; the anchor columns and the
    rows of G^-1 A^T are formed on first use.  They are the expansion term
    by term: `bracket` is rho(f)(g_j) e_j - rho(g)(f_i) e_i
    + f_i g_j c_ij^h e_h + (G g)_i D(f_i), composed from the other three
    and G g, with no tuning of its own.  No benchmark workload calls them:
    the certificates read every verdict from the frame tables, and only
    the morphism check on supplied pairs and the tests make a bracket.

    Every product runs its outer loop over the smaller factor, and its
    factors are finished outputs (normalised and checked), so no packed key
    carries past a guard bit.  Each operation's loops are fixed, so results
    have one term order; no verdict or witness depends on it.
    """

    __slots__ = ("bundle", "structure_functions", "rows", "_frame", "_dual")

    def __init__(self, bundle: TrivialBundle, anchor, metric, structure_functions=None):
        n = bundle.base_dim
        anchor = [list(r) for r in anchor]

        def anchor_rows():
            scalars = [[p if isinstance(p, Polynomial) else _coeff(p) for p in r] for r in anchor]
            if any(isinstance(p, Polynomial) and p.num_vars != n for r in scalars for p in r):
                raise ValueError("anchor entries must use the base variables")
            yield from linalg.sparse(scalars)

        self._checked(bundle, anchor, anchor_rows(), metric, (
            linalg._nonzero((j, _coeff(v)) for j, v in enumerate(r)) for r in metric),
            structure_functions)

    def _checked(self, bundle, anchor_shape, anchor, metric_shape, metric, structure_functions):
        """Check the frame data, fill the slots and return the structure:
        the one path of the constructor and of a scene, which reads A and G
        straight into rows.  They come as the canonical sparse rows `anchor`
        and `metric`, the matrices they were read from as `anchor_shape`
        and `metric_shape`; the rows are taken (the constructor's generators
        convert them) once the anchor's shape is checked, and the metric's
        shape is checked after that."""
        n, k = bundle.base_dim, bundle.rank
        if len(anchor_shape) != n or any(len(r) != k for r in anchor_shape):
            raise ValueError(f"anchor must be {n} x {k}")
        anchor, g = list(anchor), list(metric)
        if len(metric_shape) != k or any(len(r) != k for r in metric_shape):
            raise ValueError(f"metric must be {k} x {k}")
        if not linalg.is_symmetric(g):
            raise ValueError("metric must be symmetric")
        inverse = linalg.det_inverse(g)[1]
        if inverse is None:
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
        self._set(bundle, c, (g, inverse, anchor))
        return self

    @property
    def anchor(self) -> list[list[Polynomial]]:
        """A as a dense n x k matrix of Polynomials."""
        n = self.bundle.base_dim
        return [[linalg.polynomial(x, n) for x in row]
                for row in linalg.dense(self.rows[2], self.bundle.rank)]

    @property
    def metric(self) -> list[list[Fraction]]:
        """G as a dense k x k rational matrix."""
        return linalg.mat(linalg.dense(self.rows[0], self.bundle.rank))

    @property
    def metric_inverse(self) -> list[list[Fraction]]:
        """G^-1 as a dense k x k rational matrix."""
        return linalg.mat(linalg.dense(self.rows[1], self.bundle.rank))

    @property
    def _frame_tables(self):
        """(anchor, negated anchor), formed on first use: anchor[i] lists
        (a, A[a][i]) over the nonzero entries of column i as packed term
        dicts, a scalar entry packed as the constant term, and the negated
        anchor the same entries times -1."""
        if self._frame is None:
            anchor = [[] for _ in range(self.bundle.rank)]
            for x, row in enumerate(self.rows[2]):
                for i, entry in row.items():
                    anchor[i].append((x, _packed(entry)))
            object.__setattr__(self, "_frame", (
                anchor, [[(x, _scaled(entry, -1)) for x, entry in row] for row in anchor]))
        return self._frame

    @property
    def _dual_rows(self):
        """Rows of G^-1 A^T as packed (a, entry) lists over the nonzero
        entries, formed on first use: D(lam)_h = sum_a dual[h][a] d_a lam.
        Each entry sum_i A[a][i] G^-1[h][i] is summed on packed dicts, term
        by term in the order of the stored entries of row h of G^-1."""
        if self._dual is None:
            _, g_inv, a = self.rows
            rows = []
            for ginv_h in g_inv:
                row = [(x, {}) for x in range(self.bundle.base_dim)]
                for i, g in ginv_h.items():
                    for x, entry in row:
                        if i in a[x]:
                            _add_into(entry, _scaled(_packed(a[x][i]), g))
                rows.append([(x, entry) for x, entry in row if entry])
            object.__setattr__(self, "_dual", rows)
        return self._dual

    def __eq__(self, other):
        if not isinstance(other, CourantStructure):
            return NotImplemented
        return (
            self.bundle == other.bundle
            and self.rows[2] == other.rows[2]
            and self.rows[0] == other.rows[0]
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

    def _lowered(self, g: list[dict]) -> list[dict]:
        """G g: (G g)_i = sum_j G_ij g_j over the stored entries of row i of
        G.  Each component keeps keys of g, so it is finished when g is."""
        out = []
        for row in self.rows[0]:
            s: dict = {}
            for j, x in row.items():
                _add_into(s, _scaled(g[j], x))
            out.append(s)
        return out

    def _pairing(self, f: list[dict], g: list[dict]) -> dict:
        out: dict = {}
        for fi, gi in zip(f, self._lowered(g)):
            _mul_into(out, *_ordered(fi, gi))
        return self._finished(out)

    def _anchor_apply(self, f: list[dict], p: dict) -> dict:
        nv = self.bundle.base_dim
        anchor = self._frame_tables[0]
        out: dict = {}
        for i, fi in enumerate(f):
            for a, entry in anchor[i] if fi else ():
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
        """rho(f)(g_j) e_j - rho(g)(f_i) e_i + f_i g_j c_ij^h e_h
        + (G g)_i D(f_i), term by term."""
        nv = self.bundle.base_dim
        out = [_subtract_into(self._anchor_apply(f, gj), self._anchor_apply(g, fj))
               for fj, gj in zip(f, g)]
        for (i, j, h), p in self.structure_functions.items():
            if f[i] and g[j]:
                _mul_into(out[h], *_ordered(_product(*_ordered(f[i], g[j]), nv), p._packed))
        for fi, gi in zip(f, self._lowered(g)):
            if fi and gi:
                for h, d in enumerate(self._derived(fi)):
                    _mul_into(out[h], *_ordered(gi, d))
        return [self._finished(q) for q in out]


def _packed(x) -> dict:
    """An entry of the frame rows as a packed term dict: a scalar is the
    constant term."""
    return x._packed if type(x) is Polynomial else {0: x}


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

    Its rows are written down, with no check: the hyperbolic G is symmetric
    and its own inverse, row i of G and of G^-1 holding 1 at column i +- n,
    and row a of A holds 1 at column a.
    """
    bundle, k = standard_bundle(n), 2 * n
    g = [{(i + n) % k: 1} for i in range(k)]
    s = object.__new__(CourantStructure)
    s._set(bundle, {}, (g, g, [{a: 1} for a in range(n)]))
    return s


def scaled_structure(base: CourantStructure, lam) -> CourantStructure:
    """Same anchor and brackets, metric scaled by a nonzero rational: the
    rows of lam G and of G^-1 / lam, with no check."""
    lam = Fraction(lam)
    if lam == 0:
        raise ValueError("metric scale must be nonzero")
    g, g_inv, a = base.rows
    s = object.__new__(CourantStructure)
    s._set(base.bundle, dict(base.structure_functions), (
        [{j: linalg.entry(x * lam) for j, x in row.items()} for row in g],
        [{j: linalg.entry(x / lam) for j, x in row.items()} for row in g_inv], a))
    return s


def product_structure(
    s1: CourantStructure, s2: CourantStructure, flip: bool = False
) -> CourantStructure:
    """Block structure on the product base with metric diag(G1, +-G2).

    With flip=True the second metric is negated, which is the product used
    to test graphs of morphisms for isotropy.  The rows of the blocks are
    shifted into place, with no check: G^-1 is diag(G1^-1, +-G2^-1).
    """
    n1, k1 = s1.bundle.base_dim, s1.bundle.rank
    n, k = n1 + s2.bundle.base_dim, k1 + s2.bundle.rank
    bundle = TrivialBundle(n, k, label=f"{s1.bundle.label}x{s2.bundle.label}")
    sign = -1 if flip else 1

    def block(rows, offset, scale=1):
        return [{offset + j: scale * x for j, x in row.items()} for row in rows]

    def lifted(rows, offset, shift):
        return [{offset + i: x.lift(n, shift) if type(x) is Polynomial else x
                 for i, x in row.items()} for row in rows]

    (g1, g1_inv, a1), (g2, g2_inv, a2) = s1.rows, s2.rows
    c = {key: p.lift(n, 0) for key, p in s1.structure_functions.items()}
    c.update(((k1 + i, k1 + j, k1 + h), p.lift(n, n1))
             for (i, j, h), p in s2.structure_functions.items())
    s = object.__new__(CourantStructure)
    s._set(bundle, c, (block(g1, 0) + block(g2, k1, sign),
                       block(g1_inv, 0) + block(g2_inv, k1, sign),
                       lifted(a1, 0, 0) + lifted(a2, k1, n1)))
    return s


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


# -- the monomial family -------------------------------------------------------


def monomial_frame_basis(bundle: TrivialBundle, degree_cap: int):
    """All monomial-coefficient frame sections x^alpha e_i, deg <= cap."""
    monos = monomials_up_to(bundle.base_dim, degree_cap)
    return [(i, alpha) for i in range(bundle.rank) for alpha in monos]


# -- axiom checking -------------------------------------------------------------


class AxiomCheck:
    def __init__(self, passed: bool, detail: str, witness: dict | None = None):
        self.passed, self.detail, self.witness = passed, detail, witness

    def to_json(self) -> dict:
        out = {"status": "pass" if self.passed else "fail", "detail": self.detail}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class AxiomReport:
    """Exact verdicts for the three Courant axioms."""

    def __init__(self, checks: dict[str, AxiomCheck]):
        self.checks = checks

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_json(self) -> dict:
        return {name: check.to_json() for name, check in self.checks.items()}


def _subtract_into(dst: dict, *terms: dict) -> dict:
    """dst -= each of `terms` in turn, in place; return dst."""
    for q in terms:
        _add_into(dst, _scaled(q, -1))
    return dst


def _member(k: int, i: int, text: str = "1") -> list[str]:
    """The printed coefficients of the frame member text * e_i of rank k."""
    return ["0"] * i + [text] + ["0"] * (k - 1 - i)


def _witness(s: CourantStructure, sections, defect: list[dict], component: bool) -> dict:
    """The witness of a failing tuple of sections, printed as `sections`:
    the tuple, its packed defect checked and printed, and, if `component`,
    the index of the defect's first nonzero component (None otherwise)."""
    n = s.bundle.base_dim
    return {"sections": sections,
            "defect": [_raw(n, _checked(p, n)).to_string() for p in defect],
            "component": next(h for h, p in enumerate(defect) if p) if component else None}


# the most entry products of rho o D and the anchor brackets, and the most
# slot-table keys, (n k)^2, that deciding (i) at degree 1 may take
MAX_TABLE_WORK = 2 ** 16


def _within_work(work: int, what: str) -> None:
    """Raise ValueError when `work` passes MAX_TABLE_WORK."""
    if work > MAX_TABLE_WORK:
        raise ValueError(f"deciding axiom (i) at degree 1 takes {work} {what}, more than "
                         f"the {MAX_TABLE_WORK} the certificate allows")


def _decided_scope(degree_cap: int) -> tuple[bool, str]:
    """Whether a verdict under the cap covers all smooth sections, and its
    scope clause: the requested cap, the degree decided and the sections
    covered.  The one reader of a cap; a negative one raises ValueError.

    Every certified defect is of order <= 1 in each slot, so degree 1
    decides it for all smooth sections at any cap >= 1 (see the module
    docstring), and cap 0 decides degree 0, a claim bounded to constant
    sections.  So no cap is too large, and nothing is sized by the family
    of monomial frame sections the cap names.  Every detail that depends
    on the cap writes its scope with this clause.
    """
    if degree_cap < 0:
        raise ValueError(f"degree cap must be >= 0, got {degree_cap}")
    smooth = degree_cap >= 1
    return smooth, (f"degree cap {degree_cap}, decided at degree {int(smooth)}, scope "
                    + ("all smooth sections" if smooth else "constant sections only"))


def _degree_1_members(n: int) -> list[tuple[int | None, int, str]]:
    """The monomials of degree <= 1 in n variables in the witness order,
    graded as `monomials_up_to` lists them: 1, then x_n, ..., x_1.  Each is
    (variable, packed key, printed text), with the variable None for 1."""
    return [(None, 0, "1")] + [(t, 1 << _BITS * t, f"x{t + 1}") for t in range(n - 1, -1, -1)]


def _c_tables(s: CourantStructure) -> tuple[dict, dict]:
    """{(i, j, h): c_ij^h} and {(i, j, h): c_ijh}, packed, over the nonzero
    entries, with c_ijh = sum_l c_ij^l G_lh."""
    c = {key: p._packed for key, p in s.structure_functions.items()}
    lowered: dict[tuple[int, int, int], dict] = {}
    for (i, j, l), entry in c.items():
        for h, g in s.rows[0][l].items():
            _add_into(lowered.setdefault((i, j, h), {}), _scaled(entry, g))
    return c, lowered


def _least_skew_failure(table: dict, mirror: tuple, arity: int):
    """The least key[:arity] of a frame table whose entry does not cancel
    its mirror's, the key permuted by `mirror`; None if all cancel.

    The sum is the same at a key and at its mirror, so both fail together.
    With c_ij^h and the mirror (j, i, h) this is the least frame pair
    failing (iii); with c_ijm and (i, m, j), the least frame triple
    failing (ii).
    """
    failing = []
    for key, entry in table.items():
        mirrored = tuple(key[p] for p in mirror)
        if table.get(mirrored, {}) != _scaled(entry, -1):
            failing += [key[:arity], mirrored[:arity]]
    return min(failing, default=None)


def _sum_at(table: dict, *keys) -> dict:
    """The sum of a frame table's entries at `keys`, as a new dict."""
    out: dict = {}
    for key in keys:
        _add_into(out, table.get(key, {}))
    return out


def _frame_witness(s: CourantStructure, axiom: str, frame, c, lowered, jacobiator) -> dict:
    """An axiom's witness on the failing frame tuple `frame`, its defect read
    from the frame tables (see the module docstring): c_ij^h + c_ji^h in
    component h for (iii), -(c_ijm + c_imj) for (ii), and J(e_i,e_j,e_k)^l
    in component l for (i)."""
    k = s.bundle.rank
    if axiom == "iii":
        defect = [_sum_at(c, (*frame, h), (*frame[::-1], h)) for h in range(k)]
    elif axiom == "ii":
        defect = [_scaled(_sum_at(lowered, frame, (frame[0], frame[2], frame[1])), -1)]
    else:
        defect = [jacobiator.get((*frame, l), {}) for l in range(k)]
    return _witness(s, [_member(k, i) for i in frame], defect, axiom != "ii")


def _mul_at(table: dict, key, h: int, p: dict, q: dict) -> None:
    """table[key][h] += p * q, the row and entry made on first use; nothing
    when a factor is zero."""
    if p and q:
        _mul_into(table.setdefault(key, {}).setdefault(h, {}), *_ordered(p, q))


def _pruned(table: dict) -> dict:
    """A table of {h: packed dict} rows without its empty entries and rows."""
    rows = ((key, {h: p for h, p in row.items() if p}) for key, row in table.items())
    return {key: row for key, row in rows if row}


def _anchor_tables(s: CourantStructure) -> tuple[dict, dict]:
    """rho o D and H over their nonzero entries: {(b, a): (A G^-1 A^T)_ba},
    which is rho(D(x_a))(x_b), and {(i, j): {b: H(e_i, e_j)^b}} over every
    ordered pair, with H(e_i, e_j) = sum_h c_ij^h rho_h - [rho_i, rho_j].

    [rho_i, rho_j] is formed once per pair i < j, from the nonzero
    derivatives of the anchor entries only, indexed by variable first.
    Each anchor entry A_ai takes at most one product per nonzero row of A
    in rho o D, and one per entry of another column that depends on x_a
    in the brackets, each formed once and negated for H(e_i, e_j): at most
    (n k)^2 in all.  That count is checked against MAX_TABLE_WORK before
    G^-1 A^T is read or any product formed.  Raw packed products are exact
    here: every factor is a checked input or its derivative, so no key
    field carries, and no result is stored.
    """
    n, k = s.bundle.base_dim, s.bundle.rank
    anchor, negated = s._frame_tables
    grads: list[dict[int, list]] = [{} for _ in range(k)]   # j -> {a: [(b, d_a A_bj), ...]}
    reach: dict[int, int] = {}                              # a -> entries depending on x_a
    for j, column in enumerate(anchor):
        for b, target in column:
            for a in range(n) if any(target) else ():       # a constant has no variable
                if d := _deriv(target, a):
                    grads[j].setdefault(a, []).append((b, d))
                    reach[a] = reach.get(a, 0) + 1
    rows = sum(1 for row in s.rows[2] if row)
    _within_work(sum(rows + reach.get(a, 0) - len(grads[i].get(a, ()))
                     for i, column in enumerate(anchor) for a, _ in column), "anchor products")
    rho_d: dict[tuple[int, int], dict] = {}
    for h, row in enumerate(s._dual_rows):
        for b, entry in anchor[h]:
            for a, dual in row:
                _mul_into(rho_d.setdefault((b, a), {}), *_ordered(entry, dual))
    anomaly: dict[tuple[int, int], dict] = {}
    for i in range(k):
        for j in range(i + 1, k):
            for first, second in ((anchor[i], grads[j]), (negated[j], grads[i])):
                for a, entry in first if second else ():
                    for b, d in second.get(a, ()):      # [rho_i, rho_j] in H(e_j, e_i)
                        _mul_at(anomaly, (j, i), b, entry, d)
            if (j, i) in anomaly:                       # negated in H(e_i, e_j)
                anomaly[(i, j)] = {b: _scaled(p, -1) for b, p in anomaly[(j, i)].items()}
    for (i, j, h), p in s.structure_functions.items():
        for b, target in anchor[h]:
            _mul_at(anomaly, (i, j), b, p._packed, target)
    return {key: p for key, p in rho_d.items() if p}, _pruned(anomaly)


def _frame_jacobiator(s: CourantStructure, c: dict, lowered: dict) -> dict:
    """{(i, j, k, l): J(e_i, e_j, e_k)^l} from the tables of `_c_tables`, where
      J(e_i, e_j, e_k)^l = sum_h (c_jk^h c_ih^l - c_ij^h c_hk^l - c_ik^h c_jh^l)
                           + rho_i(c_jk^l) + rho_k(c_ij^l) - rho_j(c_ik^l)
                           - D(c_ijk)^l
    is the defect of (i) on frame triples, for any frame data (see the
    module docstring); its vanishing is the fifth frame identity.  Every
    term has a factor c, so the loops run over the nonzero c entries; the
    products are exact as in `_anchor_tables`.  An entry may be
    empty where its terms cancel.
    """
    anchor, negated = s._frame_tables
    first: dict[int, list] = {}         # h -> [(q, l, c_hq^l), ...]
    second: dict[int, list] = {}        # h -> [(p, l, c_ph^l), ...]
    for (i, j, l), entry in c.items():
        first.setdefault(i, []).append((j, l, entry))
        second.setdefault(j, []).append((i, l, entry))
    jacobiator: dict[tuple, dict] = {}

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
    return jacobiator


def _slot_tables(s: CourantStructure, c: dict, lowered: dict, rho_d: dict, anomaly: dict):
    """Yield, for each first frame index i in turn, the slot table of (i):
    {(j, k, u, v, w): {h: coefficient}} over the nonzero coefficients of the
    terms T1 ... T13 of J(lam e_i, mu e_j, nu e_k) (see the module
    docstring), for J = 0 on frame triples.  u, v and w name the variable
    whose gradient the term takes from lam, mu and nu, or are None where
    the term multiplies by that function instead.

    K_i^a = K_{e_i}(x_a) = [[e_i, D(x_a)]] - D(A_ai) is formed once for all
    i, with D(x_a)_h read off the rows of G^-1 A^T; the products are exact
    as in `_anchor_tables`.
    """
    k = s.bundle.rank
    anchor = s._frame_tables[0]
    k_table: dict[tuple[int, int], dict] = {}
    for (i, j, h), centry in c.items():             # sum_j D(x_a)_j c_ij^h
        for a, dual in s._dual_rows[j]:
            _mul_at(k_table, (i, a), h, dual, centry)
    for i in range(k):                              # rho_i(D(x_a)_h) - D(A_bi)_h
        for b, target in anchor[i]:
            for h, row in enumerate(s._dual_rows):
                for a, dual in row:
                    _mul_at(k_table, (i, a), h, target, _deriv(dual, b))
                    if d := _deriv(target, a):      # no -dual formed for a zero partner
                        _mul_at(k_table, (i, b), h, _scaled(dual, -1), d)
    pairs = [(x, y, g) for x, row in enumerate(s.rows[0]) for y, g in row.items()]
    for i in range(k):
        table: dict = {}
        row_i = [(y, g) for x, y, g in pairs if x == i]
        for (x, y), row in anomaly.items():
            for v, p in row.items():
                _mul_at(table, (x, y, v, None, None), i, {0: -1}, p)       # -H(g,h)(lam) f
                for m in range(k) if x == i else ():
                    _mul_at(table, (y, m, None, None, v), m, {0: -1}, p)   # -H(f,g)(nu) h
                    _mul_at(table, (m, y, None, v, None), m, {0: 1}, p)    # H(f,h)(mu) g
        for (j, v), row in k_table.items():
            for x, y, g in pairs:
                for h, p in row.items():
                    if j == i:
                        _mul_at(table, (x, y, None, v, None), h, {0: g}, p)    # <g,h> K_f(mu)
                    if x == i:
                        _mul_at(table, (j, y, v, None, None), h, {0: -g}, p)   # -<f,h> K_g(lam)
                        _mul_at(table, (y, j, v, None, None), h, {0: g}, p)    # <f,g> K_h(lam)
        for (x, y, z), centry in lowered.items():
            minus_c = _scaled(centry, -1) if x == i else None
            for h, row in enumerate(s._dual_rows):
                for v, p in row:
                    if x == i:      # II(f,g,h) D(mu) twice, and -c_ijk D(lam)
                        _mul_at(table, (y, z, None, v, None), h, minus_c, p)
                        _mul_at(table, (z, y, None, v, None), h, minus_c, p)
                        _mul_at(table, (y, z, v, None, None), h, minus_c, p)
                    if z == i:      # +c_jki D(lam)
                        _mul_at(table, (x, y, v, None, None), h, centry, p)
        for (x, y, h), p in c.items():
            for x, y in ((x, y), (y, x)):           # III(e_x, e_y)^h = c_xy^h + c_yx^h
                for m in range(k) if x == i else ():
                    for v, target in anchor[m]:     # rho(h)(lam) III(f,g)
                        _mul_at(table, (y, m, v, None, None), h, target, p)
                for v, dual in s._dual_rows[x]:     # -<f,g> III(D(lam), h)
                    for j, g in row_i:
                        _mul_at(table, (j, y, v, None, None), h, _scaled(dual, -g), p)
        for (b, a), r in rho_d.items():             # r = rho(D(x_a))(x_b)
            for x, y, g in pairs:
                _mul_at(table, (x, y, b, a, None), i, {0: -g}, r)      # -<g,h> rho(D(mu))(lam) f
                for m in range(k) if x == i else ():
                    _mul_at(table, (m, y, a, b, None), m, {0: g}, r)   # <f,h> rho(D(lam))(mu) g
                    _mul_at(table, (y, m, a, None, b), m, {0: -g}, r)  # -<f,g> rho(D(lam))(nu) h
        yield _pruned(table)


def _axiom_i_witness(s: CourantStructure, c: dict, lowered: dict, rho_d: dict, anomaly: dict):
    """Axiom (i)'s witness on the least failing tuple of degree <= 1, or
    None where (i) holds on all of them, from the slot tables.

    Runs only when (i) holds on every frame triple, so every failing tuple
    has a member of degree 1.  The tuples x^alpha e_i of one first frame
    index i are contiguous in the witness order and fail iff the slot table
    of i is nonzero.  A tuple whose frame pair (j, m) the table does not
    hold reads no entry, so the first nonzero table is walked over its
    pairs only, in the witness order: the loops nest as alpha's place in
    the first slot, j, the second place, m, the third place, each
    ascending.  Each slot visits place 0 and only the x_t whose variable t
    some key of the table differentiates in that slot: at any other x_t
    every term multiplies by x_t, so the value is x_t times the value with
    1 in that place, a tuple earlier in the witness order, and the least
    failing tuple is never skipped.  The value at each tuple is summed
    from the terms whose gradients its members supply, up to the first
    nonzero one, which is the witness's defect.  Each table entry is a
    product of two checked factors, so it is checked before the walk
    shifts its keys: a shift past a set guard bit would carry into the
    next variable's field.  The tables hold about (n k)^2 keys, which is
    checked against MAX_TABLE_WORK before the first is built.
    """
    n, k = s.bundle.base_dim, s.bundle.rank
    _within_work((n * k) ** 2, "slot-table keys, (n k)^2")
    members = _degree_1_members(n)
    # per member: multiply by it, or take the gradient of its variable
    options = [[(None, key)] + ([(t, 0)] if t is not None else []) for t, key, _ in members]
    for i, table in enumerate(_slot_tables(s, c, lowered, rho_d, anomaly)):
        partners: dict[int, list] = {}      # j -> the m of the table's pairs (j, m), ascending
        for j, m in sorted({key[:2] for key in table}):
            partners.setdefault(j, []).append(m)
        # per slot: place 0 and each x_t whose variable t a key differentiates there
        first, second, third = ([a for a, (t, _, _) in enumerate(members) if not a or t in used]
                                for used in ({key[slot] for key in table} for slot in (2, 3, 4)))
        for a1, (j, ms), a2 in itertools.product(first, partners.items(), second):
            for m, a3 in itertools.product(ms, third):
                out: dict[int, dict] = {}   # J at the tuple, component by component
                for choice in itertools.product(options[a1], options[a2], options[a3]):
                    grads, keys = zip(*choice)
                    for h, p in table.get((j, m, *grads), {}).items():
                        # checked before the shift, which could carry past a guard bit
                        _add_into(out.setdefault(h, {}),
                                  {key + sum(keys): cf for key, cf in _checked(p, n).items()})
                if any(out.values()):
                    return _witness(s, [_member(k, frame, members[a][2])
                                        for frame, a in ((i, a1), (j, a2), (m, a3))],
                                    [out.get(h, {}) for h in range(k)], True)
        if table:
            raise RuntimeError("internal inconsistency: a nonzero slot table of (i) fails nowhere")
    return None


def check_axioms(s: CourantStructure, degree_cap: int = 3) -> AxiomReport:
    """Exact pass/fail per axiom.

    (i)   [[f,[[g,h]]]] = [[[[f,g]],h]] + [[g,[[f,h]]]]
    (ii)  rho(f)<g,h> = <[[f,g]],h> + <g,[[f,h]]>
    (iii) [[f,g]] + [[g,f]] = D(<f,g>)

    Each axiom is certified over every tuple of monomial frame sections of
    the degree `_decided_scope` reads off the cap: 1 at any cap >= 1, a
    certificate for all smooth sections (see the module docstring), and 0
    at cap 0, a claim bounded to constant sections.  Each detail carries
    that function's scope clause: the requested cap, the degree decided
    and that scope.

    The frame tables decide every verdict, name the least failing tuple of
    each axiom and give its defect, with no lift and no bracket.  When (i)
    holds on every frame triple at a cap >= 1 while another frame identity
    fails, the slot tables of (i) decide it on the tuples of degree 1
    (`_axiom_i_witness`).  A failing detail says which found the witness.
    All comparisons are polynomial identities with zero tolerance.  A
    negative cap, or degree-1 tables past MAX_TABLE_WORK, raise ValueError.
    """
    smooth, label = _decided_scope(degree_cap)
    if s.bundle.rank == 0:
        return AxiomReport({name: AxiomCheck(True, "rank-0 bundle: axioms hold vacuously")
                            for name in ("i", "ii", "iii")})
    c, lowered = _c_tables(s)
    jacobiator = _frame_jacobiator(s, c, lowered)
    least = {
        "iii": _least_skew_failure(c, (1, 0, 2), 2),
        "i": min((key[:3] for key, entry in jacobiator.items() if entry), default=None),
        "ii": _least_skew_failure(lowered, (0, 2, 1), 3),
    }
    witnesses = {name: None if frame is None else _frame_witness(
        s, name, frame, c, lowered, jacobiator) for name, frame in least.items()}
    found = dict.fromkeys(least, "the frame tables")
    if least["i"] is None and smooth:
        rho_d, anomaly = _anchor_tables(s)
        if least["ii"] or least["iii"] or rho_d or anomaly:
            witnesses["i"] = _axiom_i_witness(s, c, lowered, rho_d, anomaly)
            found["i"] = "the slot tables of (i)"
    return AxiomReport({name: AxiomCheck(True, f"certified: {label}") if w is None else
                        AxiomCheck(False, f"failed: {label}; least failing tuple from "
                                   f"{found[name]}", w) for name, w in witnesses.items()})


# -- Leibniz rules ---------------------------------------------------------------


class LeibnizReport:
    """Exact verdicts for the function-linearity rules of the bracket."""

    def __init__(self, second_slot: AxiomCheck, two_sided: AxiomCheck,
                 variant_falsified: bool, variant_witness: dict | None, variant_detail: str):
        self.second_slot, self.two_sided = second_slot, two_sided
        self.variant_falsified, self.variant_witness = variant_falsified, variant_witness
        self.variant_detail = variant_detail

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
                "detail": self.variant_detail,
            },
        }


def _leibniz_witness(s: CourantStructure) -> dict | None:
    """The variant's least failing tuple of degree <= 1 and its defect,
    both read from the anchor rows; None if the anchor is zero.

    rho(x^beta e_j)(x_a) = x^beta A_aj, so (f, g, lam, mu) fails iff g != f,
    g's frame index j has A_aj != 0 and lam reaches such an a.  Every failing
    tuple has the degree-1 member lam, so the least is f = e_0, g the least
    member other than f in a nonzero column, lam the least x_a that column
    reaches, and mu = 1 (see the module docstring).  The tuple is printed
    as the axiom witnesses are (`_member`), and its defect
    mu rho(g)(lam) (g - f) = x^beta A_aj (g - f) is formed on packed term
    dicts, each shift by x^beta checked against the exponent limit.
    """
    n, k, a = s.bundle.base_dim, s.bundle.rank, s.rows[2]
    j = min((col for row in a for col in row), default=None)
    if j is None:
        return None
    # the members after e_0 are x^beta e_0 over the linear monomials in the
    # witness order, then e_1, ...: g = x_n e_0 if column 0 is nonzero, else
    # e_j, and lam the first linear monomial column j reaches
    members = _degree_1_members(n)
    _, beta, text = members[0 if j else 1]
    x, _, lam = next(m for m in members[1:] if j in a[m[0]])
    cross = _checked({key + beta: cf for key, cf in _packed(a[x][j]).items()}, n)
    defect = [{} for _ in range(k)]
    defect[j] = _checked({key + beta: cf for key, cf in cross.items()}, n)
    _add_into(defect[0], _scaled(cross, -1))
    return {"f": _member(k, 0), "g": _member(k, j, text), "lam": lam, "mu": "1",
            "defect": [_raw(n, p).to_string() for p in defect]}


def check_leibniz(s: CourantStructure, degree_cap: int = 3) -> LeibnizReport:
    """Decide the two Leibniz rules, and falsify the final-slot variant.

    Rule 1 (second slot):  [[f, lam g]] = lam [[f,g]] + rho(f)(lam) g.
    Rule 2 (two-sided):    [[lam f, mu g]] = lam mu [[f,g]] + lam rho(f)(mu) g
                           - mu rho(g)(lam) f + <f,g> mu D(lam).
    Both hold by the bracket's expansion for any frame data with constant
    symmetric G (see the module docstring), which is what the constructor
    accepts, so they pass without evaluation, for all smooth sections at
    every cap, and their detail says so.  The variant of rule 2 whose
    third term reads "- mu rho(g)(lam) g" then has the defect
    mu rho(g)(lam) (g - f), false whenever the anchor is nonzero.

    That defect is R-multilinear in (f, g, lam, mu) and of order <= 1 in
    each, so the family at the degree `_decided_scope` reads off the cap
    decides it: f and g are monomial frame sections, lam and mu monomial
    functions.  Its least failing tuple and that tuple's defect are read
    from the anchor rows (`_leibniz_witness`), with no bracket and no
    Polynomial product; a defect past the exponent limit of the packed
    keys raises ExponentOverflowError.  At cap 0
    the claim is bounded to constant coefficients, on which the variant
    cannot fail.  The variant's detail is the scope clause of the degree it
    is decided at (`_decided_scope`).  A negative cap raises ValueError.
    """
    smooth, scope = _decided_scope(degree_cap)
    witness = _leibniz_witness(s) if smooth else None
    rule = AxiomCheck(True, "holds by the bracket's expansion for all smooth sections "
                            "at every cap")
    return LeibnizReport(rule, rule, witness is not None, witness, scope)


# -- linear Dirac structures ------------------------------------------------------


def dirac_check(s: CourantStructure, subspace: LinearSubspace) -> bool:
    """True iff the constant subspace L is a Dirac structure: isotropic for
    the metric, of half rank, and closed under the bracket.

    The fiber metric is constant, so isotropy and rank are the same over
    every base point.  Closure is read from the lowered structure
    functions.  For the constant basis l_a = sum_i lam^a_i e_i of L the
    anchor and D terms of the bracket vanish, every coefficient being
    constant, so [[l_a, l_b]] = sum_ij lam^a_i lam^b_j c_ij^h e_h and

      <[[l_a, l_b]], l_c> = T_abc = sum_ijh lam^a_i lam^b_j c_ijh lam^c_h.

    L is Lagrangian, so L^perp = L, and [[l_a, l_b]] lies in L iff T_abc
    vanishes as a polynomial for every c.  The basis decides every section
    of L: [[f, lam g]] = lam [[f,g]] + rho(f)(lam) g and
    [[lam f, g]] = lam [[f,g]] - rho(g)(lam) f + <f,g> D(lam), with
    <f,g> = 0 on L.  Raises for odd rank, where maximal isotropy is
    ill-posed for a split-signature pairing.
    """
    return _maximally_isotropic(s.rows[0], subspace) and _closed(s, subspace)


def _closed(s: CourantStructure, subspace: LinearSubspace) -> bool:
    """`dirac_check`'s closure: every T_abc vanishes, summed over the
    nonzero lowered entries c_ijh of `_c_tables` and the nonzero
    coordinates lam^a_i of the basis."""
    columns: list[list] = [[] for _ in range(s.bundle.rank)]     # i -> [(a, lam^a_i), ...]
    for a, row in enumerate(linalg.sparse(subspace.basis)):
        for i, lam in row.items():
            columns[i].append((a, lam))
    tensor: dict[tuple[int, int, int], dict] = {}
    for (i, j, h), entry in _c_tables(s)[1].items():
        for (a, x), (b, y), (c, z) in itertools.product(columns[i], columns[j], columns[h]):
            _add_into(tensor.setdefault((a, b, c), {}), _scaled(entry, x * y * z))
    return not any(tensor.values())


def _maximally_isotropic(metric: list[dict], subspace: LinearSubspace) -> bool:
    """`dirac_check` against the sparse rows of a constant k x k pairing
    matrix G: the subspace has dimension k / 2 and the Gram matrix B G B^T
    of its basis rows B vanishes."""
    k = len(metric)
    if subspace.ambient_dim != k:
        raise ValueError(
            f"subspace lives in R^{subspace.ambient_dim}, structure rank is {k}"
        )
    if k % 2:
        raise ValueError("maximal isotropy is undefined for odd rank")
    basis = linalg.sparse(subspace.basis)
    gram = linalg.pmat_mul(linalg.pmat_mul(basis, metric),
                           linalg.pmat_transpose(basis, k))
    return subspace.dim == k // 2 and not any(gram)
