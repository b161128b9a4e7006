"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the code paths they check:
term-by-term evaluation avoids the Horner evaluator, and the exact
Lagrange-interpolation derivative avoids symbolic differentiation
(it is exact for polynomials once enough nodes are used).
"""

import os
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from courantlab import linalg
from courantlab.bundles import BundleMorphism, Section, TrivialBundle, related_section
from courantlab.courant_core import (
    SWEEP_ORDER,
    CourantStructure,
    _plain_witness,
    _subtract_into,
    monomial_frame_basis,
)
from courantlab.morphisms import _PAIR_DEFECTS
from courantlab.polyexpr import (
    _BITS,
    _FIELD,
    Polynomial,
    PolyMap,
    _pack,
    _raw,
    _unpack,
    monomials_up_to,
    poly_sum,
)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True, scope="session")
def src_on_child_pythonpath():
    """Put `src` on PYTHONPATH for child interpreters.

    Tests that run `python -m courantlab.cli` in a subprocess need the
    package on the child's path; pyproject's `pythonpath` covers only
    pytest's own sys.path.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        ))
        yield


def so3_structure():
    """Quadratic Lie algebra over a point: so(3) with the Euclidean pairing."""
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}
    return CourantStructure(
        TrivialBundle(0, 3, "so3"),
        [],
        linalg.identity(3),
        {key: Polynomial.constant(0, v) for key, v in eps.items()},
    )


# -- drawn sections and candidates ---------------------------------------------
#
# No verdict of the package draws at random.  These seeded draws feed the
# tests that compare a verdict or a bracket with an independent reference.


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


def perturbed_candidates(base: CourantStructure, count: int, rng: random.Random):
    """Seeded perturbations of the structure functions and the metric, each
    labelled with the condition it breaks; none at rank 0, where there is
    nothing to perturb.

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
            # where the bump cancels the entry, the entry becomes the bump,
            # which differs from it too: no candidate equals the base
            entry = c.get((i, j, h), Polynomial(n)) + bump
            c[(i, j, h)] = bump if entry.is_zero() else entry
            candidate._fill(base.bundle, base.anchor, base.metric, c,
                            (base._inverse, None, None, base._dual))
            yield "bracket", candidate
        else:
            lam = rng.choice([Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3)])
            metric = [[x * lam for x in row] for row in base.metric]
            candidate._fill(base.bundle, base.anchor, metric, base.structure_functions)
            yield "metric", candidate


def mat_vec(a, v) -> list[Fraction]:
    """A v for a dense rational matrix and vector."""
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


# -- dense polynomial matrices --------------------------------------------------
#
# The package multiplies frame data on sparse rows whose entries mix scalars
# and polynomials (`linalg`).  These are the dense all-Polynomial loops it
# replaced, kept as the reference that kernel is compared with and that the
# pairwise references solve with.


def reference_pmat_mul(a, b, cols: int = 0, num_vars: int = 0) -> list[list[Polynomial]]:
    """A B for dense Polynomial matrices; `cols` and `num_vars` shape the
    zero product of a `b` without rows."""
    if not b:
        return [[Polynomial(num_vars)] * cols for _ in a]
    nv = b[0][0].num_vars if b[0] else num_vars
    return [[poly_sum(nv, (x * y for x, y in zip(row, col) if not (x.is_zero() or y.is_zero())))
             for col in zip(*b)] for row in a]


def pmat_constant(a, num_vars: int) -> list[list[Polynomial]]:
    """A rational matrix as a dense Polynomial matrix in `num_vars` variables."""
    return [[Polynomial.constant(num_vars, v) for v in row] for row in a]


def reference_pmat_vec(a, v, num_vars: int) -> list[Polynomial]:
    """A v for a dense Polynomial matrix and vector."""
    return [poly_sum(num_vars, (x * y for x, y in zip(row, v) if not (x.is_zero() or y.is_zero())))
            for row in a]


# -- the tag layer: lifts, tagged families and their decoder ---------------------
#
# The certificates decide every verdict from the frame data and no longer
# lift a structure or tag a family; the tagged sweeps they replaced are kept
# here as the references the oracles compare them with.


def pmat_lift(a, num_vars: int) -> list[list[Polynomial]]:
    """A with its entries lifted to `num_vars` variables (new ones appended);
    the zero entries share one zero polynomial."""
    zero = Polynomial(num_vars)
    return [[zero if p.is_zero() else p.lift(num_vars) for p in row] for row in a]


def lift_structure(s: CourantStructure, extra: int) -> CourantStructure:
    """The same structure over a base with `extra` inert variables appended.

    The anchor gains zero rows for the new variables, so nothing ever
    differentiates along them: coefficients may mention them as formal
    constants.  The base's metric passed the constructor's checks, so they
    are not repeated.  Packed keys do not depend on the variable count and
    the new anchor rows are zero, so G^-1 and the packed tables are the
    base's own.
    """
    n, k = s.bundle.base_dim, s.bundle.rank
    nn = n + extra
    anchor = pmat_lift(s.anchor, nn) + [[Polynomial(nn)] * k for _ in range(extra)]
    c = {key: p.lift(nn, 0) for key, p in s.structure_functions.items()}
    lifted = object.__new__(CourantStructure)
    lifted._fill(TrivialBundle(nn, k, label=s.bundle.label), anchor, s.metric, c,
                 (s.metric_inverse, None, s._frame_tables, s._dual_rows))
    return lifted


def tagged_generating_section(bundle: TrivialBundle, degree_cap: int, extra: int,
                              tag_var: int) -> Section:
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
    comps = []
    for i in range(k):
        terms = {}
        for a, alpha in enumerate(monos):
            exps = [0] * nn
            exps[:n] = alpha
            exps[tag_var] = i * len(monos) + a
            terms[tuple(exps)] = Fraction(1)
        comps.append(Polynomial(nn, terms))
    return Section(TrivialBundle(nn, k, label=bundle.label), PolyMap(nn, comps))


def decode_tag(bundle: TrivialBundle, degree_cap: int, tag_exponent: int) -> Section:
    """Rebuild the family member a tag exponent refers to."""
    monos = monomials_up_to(bundle.base_dim, degree_cap)
    i, a = divmod(tag_exponent, len(monos))
    return Section.frame(bundle, i, Polynomial.monomial(bundle.base_dim, monos[a]))


def _least_failing_tuple(bundle: TrivialBundle, degree_cap: int, defect, slots: int,
                         fixed: tuple = ()):
    """The least family tuple among the nonzero terms of a tagged defect,
    decoded to sections; None if the defect vanishes.

    `defect` lists packed components over the base variables followed by
    `slots` tag variables, and `fixed` holds the tags of enumerated leading
    slots.  Tuples order by the largest coefficient degree of their
    members, then by tag, slot by slot (see the courant_core docstring).
    """
    n = bundle.base_dim
    degrees = [sum(alpha) for alpha in monomials_up_to(n, degree_cap)]
    tuples = (fixed + _unpack(key >> (_BITS * n), slots) for terms in defect for key in terms)
    least = min(((max(degrees[t % len(degrees)] for t in tags), tags) for tags in tuples),
                default=None)
    return None if least is None else tuple(decode_tag(bundle, degree_cap, t) for t in least[1])


def _exchanged(comps: list[dict], n: int) -> list[dict]:
    """Packed components over n + 2 variables with the exponents of the last
    two exchanged.

    The sweep's structure is lifted by two inert tag variables, which the
    operations never differentiate, and its second tagged section is the
    first with the tags exchanged.  So an operation's result on the second
    is its result on the first with the tags exchanged.
    """
    shift = _BITS * n
    base = (1 << shift) - 1
    return [{(key & base) | ((key >> shift & _FIELD) << (shift + _BITS))
             | ((key >> (shift + _BITS)) << shift): c for key, c in terms.items()}
            for terms in comps]


def reference_sweep_axiom_i(s: CourantStructure) -> dict | None:
    """Axiom (i)'s witness from the degree-1 tagged sweep `check_axioms` ran
    before the slot tables, or None where (i) holds on every tuple of the
    degree-1 family; meant for structures on which (i) holds on every frame
    triple.

    The first slot is enumerated in tag order and the other two are tagged.
    Every failing tuple then has a member of degree 1, and the least failing
    tuple of the first failing member is the least of all.  Each member
    takes four packed brackets on the lift by two tags.
    """
    n, k = s.bundle.base_dim, s.bundle.rank
    lifted = lift_structure(s, 2)
    f2, f3 = (lifted._terms(tagged_generating_section(s.bundle, SWEEP_ORDER, 2, n + t))
              for t in (0, 1))
    inner23 = lifted._bracket(f2, f3)
    for b, (i, alpha) in enumerate(monomial_frame_basis(s.bundle, SWEEP_ORDER)):
        ba = [{_pack(alpha): 1} if c == i else {} for c in range(k)]
        inner_a2 = lifted._bracket(ba, f2)
        defect = [_subtract_into(*parts) for parts in zip(
            lifted._bracket(ba, inner23), lifted._bracket(inner_a2, f3),
            lifted._bracket(f2, _exchanged(inner_a2, n)),
        )]
        least = _least_failing_tuple(s.bundle, SWEEP_ORDER, defect, 2, (b,))
        if least is not None:
            return reference_axiom_witness(s, "i", least)
    return None


# -- the plain re-expansion of witnesses ------------------------------------------
#
# Every certificate reads its witness's defect from the frame tables.  The
# re-expansion of the witness through the plain bracket, which the
# certificates once ran after their verdict, is kept here as the reference
# the witness oracles compare every defect with.


def reference_axiom_witness(s: CourantStructure, axiom: str, sections) -> dict:
    """An axiom's witness on a failing tuple: its defect re-expanded through
    the plain bracket, with the first nonzero component (None for (ii))."""
    witness = _plain_witness(s, axiom, sections)
    assert witness is not None, "the plain defect of the witness vanishes"
    if axiom != "ii":
        witness["component"] = next(c for c, text in enumerate(witness["defect"]) if text != "0")
    return witness


def reference_variant_defect(s: CourantStructure, f, g, lam, mu) -> Section:
    """The defect of the final-slot Leibniz variant on explicit arguments,
    expanded through the bracket; it vanishes iff the variant holds there."""
    common = (
        (lam * mu) * s.bracket(f, g)
        + lam * s.anchor_apply(f, mu) * g
        + (s.pairing(f, g) * mu) * s.derived_operator(lam)
    )
    cross = mu * s.anchor_apply(g, lam)
    return s.bracket(lam * f, mu * g) - (common - cross * g)


def recorded_structure_operations(monkeypatch) -> list:
    """Record every call of the structure's packed operations and of its
    public bracket: a list collecting (name, structure) per call, which a
    certificate that reads its witnesses from the frame tables leaves
    empty."""
    calls = []
    for name in ("_bracket", "_pairing", "_anchor_apply", "_derived", "bracket"):
        original = getattr(CourantStructure, name)
        monkeypatch.setattr(CourantStructure, name, lambda s, *args, name=name, original=original:
                            calls.append((name, s)) or original(s, *args))
    return calls


def reference_pair_defect(s1, s2, phi, condition, f1, f2, general) -> list[str]:
    """A morphism condition's defect on the family pair (f1, f2), recomputed
    through the plain brackets and pairings on their retraction (general
    base) or image (identity base) representatives."""
    def represent(f):
        return related_section(phi, f) if general else Section(phi.target, phi.apply(f))

    defect = _PAIR_DEFECTS[condition](s1, s2, phi, f1, f2, represent(f1), represent(f2))
    assert not all(p.is_zero() for p in defect), "the plain defect of the pair vanishes"
    return [p.to_string() for p in defect]


def image_vanishing_multipliers(phi) -> list[Polynomial]:
    """The nonzero components of q(y) = y - phi0(r(y)); each vanishes on the
    image of phi0, and together they generate every polynomial that does.
    The perturbation references draw or enumerate their multipliers here."""
    composed = phi.base_map.compose(phi.retraction)
    big = phi.target.base_dim
    qs = (Polynomial.variable(big, a) - composed[a] for a in range(big))
    return [q for q in qs if not q.is_zero()]


def _extended_frames(p) -> list[Section]:
    """The extended frames of a pullback problem: e^_i = phi o e'_i o r, the
    i-th column of P(r(y)), a section of the ambient bundle.  The pairwise
    references bracket them one pair at a time."""
    big, k = p.ambient.bundle.base_dim, p.source_bundle.rank
    pulled = linalg.dense(p.morphism.extension_rows, k)
    return [Section(p.ambient.bundle, PolyMap(big, [linalg.polynomial(row[i], big) for row in pulled]))
            for i in range(k)]


def lifted_morphism(phi, extra: int) -> BundleMorphism:
    """The same morphism over bases with `extra` inert variables appended:
    the base map and the retraction act as the identity on them, and the
    fiber matrix does not involve them.  The tagged references sweep
    families of sections on these variables."""
    n, big = phi.source.base_dim, phi.target.base_dim

    def lift_map(pm, extra):
        m = pm.num_inputs
        return PolyMap(m + extra, [p.lift(m + extra, 0) for p in pm.outputs]
                       + [Polynomial.variable(m + extra, m + i) for i in range(extra)])

    return BundleMorphism(
        TrivialBundle(n + extra, phi.source.rank, phi.source.label),
        TrivialBundle(big + extra, phi.target.rank, phi.target.label),
        lift_map(phi.base_map, extra), pmat_lift(phi.fiber_matrix, n + extra),
        retraction=None if phi.retraction is None else lift_map(phi.retraction, extra))


def least_failing_pair(bundle, cap: int, defect: list[Polynomial]):
    """The least family pair among the nonzero terms of a tagged defect over
    two tag variables, in the one witness order; None if it vanishes."""
    return _least_failing_tuple(bundle, cap, [p._packed for p in defect], 2)


def split_tags(polys: list[Polynomial], n: int) -> dict:
    """{(i, j): the coefficients of t^i s^j in polys} over the tag pairs with
    a nonzero coefficient, each a list of polynomials in the first n
    variables; t and s are the last two of n + 2.  On a bracket of the
    cap-0 tagged families, (i, j) is the frame pair (e_i, e_j)."""
    low = (1 << (_BITS * n)) - 1
    parts: dict[tuple[int, int], list[dict]] = {}
    for h, q in enumerate(polys):
        for key, c in q._packed.items():
            tags = _unpack(key >> (_BITS * n), 2)
            parts.setdefault(tags, [{} for _ in polys])[h][key & low] = c
    return {tags: [_raw(n, terms) for terms in comps] for tags, comps in parts.items()}


def eval_term_by_term(poly: Polynomial, point) -> Fraction:
    """Independent evaluator: plain sum of coeff * prod(x_i^e_i)."""
    point = [Fraction(v) for v in point]
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        term = coeff
        for x, e in zip(point, exps):
            term *= x ** e
    # note: zip stops at min length; arities match by construction
        total += term
    return total


def lagrange_derivative_at_zero(nodes, values) -> Fraction:
    """d/ds at 0 of the interpolating polynomial through (nodes, values)."""
    total = Fraction(0)
    for k, sk in enumerate(nodes):
        denom = Fraction(1)
        for j, sj in enumerate(nodes):
            if j != k:
                denom *= sk - sj
        dnum = Fraction(0)
        for l, sl in enumerate(nodes):
            if l == k:
                continue
            prod = Fraction(1)
            for j, sj in enumerate(nodes):
                if j not in (k, l):
                    prod *= -sj
            dnum += prod
        total += values[k] * dnum / denom
    return total


def fd_partial(poly: Polynomial, var: int, point) -> Fraction:
    """Exact finite-difference partial derivative at a rational point."""
    degree = poly.degree()
    nodes = [Fraction(k - (degree + 1) // 2) for k in range(degree + 2)]
    values = []
    base = [Fraction(v) for v in point]
    for s in nodes:
        shifted = list(base)
        shifted[var] += s
        values.append(poly.eval(shifted))
    return lagrange_derivative_at_zero(nodes, values)


@pytest.fixture
def rational_points():
    """A handful of deterministic rational sample points per arity."""

    def make(arity, count=5):
        pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                Fraction(2), Fraction(-1, 3), Fraction(3, 2)]
        return [
            [pool[(s + i) % len(pool)] for i in range(arity)]
            for s in range(count)
        ]

    return make


_ascii_digits = st.text(alphabet="0123456789", min_size=1, max_size=12)
_integer_literals = st.one_of(
    _ascii_digits,
    st.builds(lambda zeros, digits: "0" * zeros + digits, st.integers(1, 4), _ascii_digits),
    st.text(alphabet=st.characters(categories=["Nd"]), min_size=1, max_size=6),
    # one digit past the longest literal int() converts
    st.just("7" * (sys.get_int_max_str_digits() + 1)),
)
#: Integer literals (ASCII, with leading zeros, other Unicode decimals, one
#: too long for int()) and p/q pairs of them, the zero denominator included,
#: plus texts next to them that are not literals.
literals = st.one_of(
    _integer_literals,
    st.builds(lambda p, q: f"{p}/{q}", _integer_literals, _integer_literals),
    st.sampled_from(["", "-3", "+2", " 4", "5 ", "1_000", "1.5", "3/", "/3", "2/-3",
                     "\u00b2", "2\u00b2", "1/\u00b3", "x1"]),
)
