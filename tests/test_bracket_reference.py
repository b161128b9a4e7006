"""The structure's four operations against an independent sympy reference.

`Reference` rebuilds the pairing, the anchor action rho, the derived
operator D = G^-1 A^T grad and the bracket from the frame data alone, by
the two-sided Leibniz expansion of the `courant_core` module docstring:

  [[f, g]] = sum_ij ( f_i g_j [[e_i, e_j]] + f_i rho(e_i)(g_j) e_j
                      - g_j rho(e_j)(f_i) e_i + G_ij g_j D(f_i) )

with sympy's own differentiation, matrix inverse and expansion.  Random
frame data (n in {1, 2}, rank 2-4, anchors of degree <= 2, c_ij^h of
degree <= 1, symmetric invertible rational G) need not satisfy any axiom;
the bracket is defined for all of it.  Sections have degree <= 2, and one
test takes the tagged generating sections of the axiom sweep on a lifted
structure.  Results must be equal as polynomials.
"""

from datetime import timedelta
from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from courantlab.bundles import Section, TrivialBundle
from courantlab.courant_core import (
    CourantStructure,
    lift_structure,
    scaled_structure,
    standard_structure,
    tagged_generating_section,
)
from courantlab.polyexpr import Polynomial, PolyMap, monomials_up_to

bounded = settings(max_examples=25, deadline=timedelta(seconds=5), database=None)

coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero = st.sampled_from([Fraction(v, d) for v in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 5)])


def _rational(c) -> sympy.Rational:
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


def to_sympy(p: Polynomial, symbols) -> sympy.Expr:
    return sympy.Add(*[
        _rational(c) * sympy.Mul(*[x ** e for x, e in zip(symbols, exps)])
        for exps, c in p.terms.items()
    ])


class Reference:
    """Pairing, rho, D and the bracket of frame data, computed in sympy."""

    def __init__(self, s: CourantStructure):
        n, k = s.bundle.base_dim, s.bundle.rank
        self.k = k
        self.x = sympy.symbols(f"x1:{n + 1}")
        self.A = sympy.Matrix(n, k, lambda a, i: to_sympy(s.anchor[a][i], self.x))
        self.G = sympy.Matrix(k, k, lambda i, j: _rational(s.metric[i][j]))
        self.dual = self.G.inv() * self.A.T
        self.c = {key: to_sympy(p, self.x) for key, p in s.structure_functions.items()}

    def section(self, f: Section) -> list:
        return [to_sympy(p, self.x) for p in f]

    def rho(self, f: list, lam) -> sympy.Expr:
        field = self.A * sympy.Matrix(f)
        return sum(v * sympy.diff(lam, xa) for v, xa in zip(field, self.x))

    def frame(self, i: int) -> list:
        return [int(h == i) for h in range(self.k)]

    def derived(self, lam) -> list:
        grad = sympy.Matrix([sympy.diff(lam, xa) for xa in self.x])
        return list(self.dual * grad)

    def pairing(self, f: list, g: list) -> sympy.Expr:
        return (sympy.Matrix(f).T * self.G * sympy.Matrix(g))[0, 0]

    def bracket(self, f: list, g: list) -> list:
        out = [sympy.Integer(0)] * self.k
        for i in range(self.k):
            d_fi = self.derived(f[i])
            for j in range(self.k):
                for h in range(self.k):
                    out[h] += f[i] * g[j] * self.c.get((i, j, h), 0)
                    out[h] += self.G[i, j] * g[j] * d_fi[h]
                out[j] += f[i] * self.rho(self.frame(i), g[j])
                out[i] -= g[j] * self.rho(self.frame(j), f[i])
        return out


def assert_same(polys, exprs, symbols):
    assert len(polys) == len(exprs)
    for p, expr in zip(polys, exprs):
        assert sympy.expand(to_sympy(p, symbols) - expr) == 0


@st.composite
def polynomials(draw, n: int, degree: int, max_terms: int = 3) -> Polynomial:
    monos = monomials_up_to(n, degree)
    return Polynomial(n, draw(st.dictionaries(st.sampled_from(monos), coefficients,
                                              max_size=max_terms)))


@st.composite
def frame_data(draw) -> CourantStructure:
    n, k = draw(st.integers(1, 2)), draw(st.integers(2, 4))
    anchor = [[draw(polynomials(n, 2, max_terms=2)) for _ in range(k)] for _ in range(n)]
    # G = U^T diag(d) U with U unit upper triangular: symmetric, det = prod d
    u = [[Fraction(int(i == j)) if j <= i else draw(coefficients) for j in range(k)]
         for i in range(k)]
    d = [draw(nonzero) for _ in range(k)]
    metric = [[sum(u[m][i] * d[m] * u[m][j] for m in range(k)) for j in range(k)]
              for i in range(k)]
    indices = st.tuples(*[st.integers(0, k - 1)] * 3)
    c = draw(st.dictionaries(indices, polynomials(n, 1, max_terms=2), max_size=4))
    return CourantStructure(TrivialBundle(n, k), anchor, metric, c)


@st.composite
def structure_and_sections(draw):
    s = draw(frame_data())
    n, k = s.bundle.base_dim, s.bundle.rank
    f, g = (Section(s.bundle, PolyMap(n, [draw(polynomials(n, 2)) for _ in range(k)]))
            for _ in range(2))
    return s, f, g


@bounded
@given(structure_and_sections())
def test_operations_match_reference(case):
    s, f, g = case
    ref = Reference(s)
    sf, sg = ref.section(f), ref.section(g)
    lam = s.pairing(f, g)
    assert_same([lam], [ref.pairing(sf, sg)], ref.x)
    assert_same([s.anchor_apply(f, lam)], [ref.rho(sf, ref.pairing(sf, sg))], ref.x)
    assert_same(list(s.derived_operator(g[0])), ref.derived(sg[0]), ref.x)
    assert_same(list(s.bracket(f, g)), ref.bracket(sf, sg), ref.x)


@settings(bounded, max_examples=6)
@given(frame_data())
def test_tagged_lifted_bracket_matches_reference(s):
    n = s.bundle.base_dim
    lifted = lift_structure(s, 2)
    f = tagged_generating_section(s.bundle, 1, 2, n)
    g = tagged_generating_section(s.bundle, 1, 2, n + 1)
    ref = Reference(lifted)
    sf, sg = ref.section(f), ref.section(g)
    assert_same(list(lifted.bracket(f, g)), ref.bracket(sf, sg), ref.x)
    assert_same(list(lifted.derived_operator(lifted.pairing(f, g))),
                ref.derived(ref.pairing(sf, sg)), ref.x)


def test_tagged_standard_brackets_match_reference():
    # fixed cases with a nonzero anchor, so every term of the expansion shows
    for n, lam in ((1, 1), (2, Fraction(-2, 5))):
        s = scaled_structure(standard_structure(n), lam)
        lifted = lift_structure(s, 2)
        f = tagged_generating_section(s.bundle, 1, 2, n)
        g = tagged_generating_section(s.bundle, 1, 2, n + 1)
        ref = Reference(lifted)
        assert_same(list(lifted.bracket(f, g)), ref.bracket(ref.section(f), ref.section(g)),
                    ref.x)
