"""Differential property tests of the polynomial kernel against sympy.

Random small polynomials with int and Fraction coefficients go through
both the packed kernel and sympy's expansion; the two term maps must agree
exactly.  Examples are capped so the module adds a few seconds at most.
"""

from datetime import timedelta
from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from courantlab.polyexpr import Polynomial, parse

NUM_VARS = 3
NAMES = [f"x{i + 1}" for i in range(NUM_VARS)]
SYMBOLS = sympy.symbols(NAMES)

bounded = settings(max_examples=40, deadline=timedelta(seconds=2), database=None)

coefficients = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
)
exponents = st.tuples(*[st.integers(0, 3)] * NUM_VARS)


@st.composite
def polynomials(draw, max_terms=5):
    terms = draw(st.dictionaries(exponents, coefficients, max_size=max_terms))
    return Polynomial(NUM_VARS, terms)


rational_points = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    min_size=NUM_VARS, max_size=NUM_VARS,
)


def to_sympy(p: Polynomial):
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[x ** e for x, e in zip(SYMBOLS, exps)])
        for exps, c in p.terms.items()
    ])


def sympy_terms(expr) -> dict:
    """{exponent tuple: Fraction} of an expression, zero terms dropped."""
    poly = sympy.Poly(sympy.expand(expr), *SYMBOLS)
    return {
        tuple(exps): Fraction(int(c.p), int(c.q))
        for exps, c in poly.terms() if c != 0
    }


def same(p: Polynomial, expr) -> bool:
    return dict(p.terms) == sympy_terms(expr)


@bounded
@given(polynomials(), polynomials())
def test_add_sub_mul(a, b):
    sa, sb = to_sympy(a), to_sympy(b)
    assert same(a + b, sa + sb)
    assert same(a - b, sa - sb)
    assert same(a * b, sa * sb)
    assert same(-a, -sa)


@bounded
@given(polynomials(), coefficients)
def test_scalar_mul(a, c):
    assert same(a * c, to_sympy(a) * sympy.Rational(c.numerator, c.denominator))
    assert c * a == a * c


@bounded
@given(polynomials(max_terms=3), st.integers(0, 4))
def test_pow(a, e):
    assert same(a ** e, to_sympy(a) ** e)


@bounded
@given(polynomials(), st.integers(0, NUM_VARS - 1))
def test_diff(a, var):
    assert same(a.diff(var), sympy.diff(to_sympy(a), SYMBOLS[var]))


@bounded
@given(polynomials(max_terms=4), st.lists(polynomials(max_terms=2),
                                          min_size=NUM_VARS, max_size=NUM_VARS))
def test_compose(a, maps):
    substitution = {x: to_sympy(q) for x, q in zip(SYMBOLS, maps)}
    assert same(a.compose(maps), to_sympy(a).subs(substitution, simultaneous=True))


@bounded
@given(polynomials(), rational_points)
def test_eval(a, point):
    value = to_sympy(a).subs({
        x: sympy.Rational(v.numerator, v.denominator) for x, v in zip(SYMBOLS, point)
    })
    result = a.eval(point)
    assert type(result) is Fraction
    assert result == Fraction(int(value.p), int(value.q))


@bounded
@given(polynomials())
def test_print_parse_roundtrip(a):
    assert parse(a.to_string(NAMES), NAMES) == a
    assert parse(str(a), NAMES).terms == a.terms
