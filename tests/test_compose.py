"""Property tests of `Polynomial.compose` against a term-by-term oracle.

Maps whose outputs are single terms or zero take the key-arithmetic path;
other maps take the general path through cached powers, formed in the
binary-powering order of `Polynomial.__pow__`.  Either way the
result must equal the oracle's sum of c * prod(q_i ** e_i), taken in the
order of the composed polynomial's terms, with the same term order, the
same stored coefficient types and the same overflow behaviour.
"""

from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from courantlab.polyexpr import (
    MAX_EXPONENT,
    ExponentOverflowError,
    PolyMap,
    Polynomial,
    poly_sum,
)

bounded = settings(max_examples=80, deadline=timedelta(seconds=2), database=None)

coefficients = st.one_of(
    st.sampled_from([1, -1, 2, 3]),
    st.integers(-6, 6),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


def oracle(p: Polynomial, outputs) -> Polynomial:
    """sum over the terms c * x^e of p of c * prod(q_i ** e_i), in term order."""
    inner_vars = outputs[0].num_vars
    images = []
    for exps, c in p.terms.items():
        image = Polynomial.constant(inner_vars, c)
        for q, e in zip(outputs, exps):
            image = image * q ** e
        images.append(image)
    return poly_sum(inner_vars, images)


def stored_types(p: Polynomial) -> list[type]:
    return [type(c) for c in p._packed.values()]


def polynomials(num_vars: int, exponents, max_terms: int):
    return st.dictionaries(
        st.tuples(*[exponents] * num_vars), coefficients, max_size=max_terms
    ).map(lambda terms: Polynomial(num_vars, terms))


@st.composite
def monomial_maps(draw, exponents=st.integers(0, 3)):
    """(p, outputs): every output a single term or zero.

    At most two inner variables, so several outputs often land on one key
    and the images merge or cancel."""
    outer = draw(st.integers(1, 3))
    inner = draw(st.integers(1, 2))
    outputs = []
    for _ in range(outer):
        if draw(st.booleans()) and draw(st.booleans()):
            outputs.append(Polynomial(inner))
        else:
            exps = draw(st.tuples(*[st.integers(0, 2)] * inner))
            outputs.append(Polynomial.monomial(inner, exps, draw(coefficients.filter(bool))))
    p = draw(polynomials(outer, exponents, max_terms=6))
    return p, outputs


@st.composite
def general_maps(draw):
    """(p, outputs): outputs of up to three terms, so most calls take the
    general path."""
    outer = draw(st.integers(1, 3))
    inner = draw(st.integers(1, 2))
    outputs = [draw(polynomials(inner, st.integers(0, 2), max_terms=3)) for _ in range(outer)]
    p = draw(polynomials(outer, st.integers(0, 3), max_terms=5))
    return p, outputs


def assert_same(p, outputs):
    result = p.compose(outputs)
    expected = oracle(p, outputs)
    assert result == expected
    assert list(result.terms) == list(expected.terms)
    assert stored_types(result) == stored_types(expected)


@bounded
@given(monomial_maps())
def test_monomial_substitution_matches_oracle(case):
    assert_same(*case)


@bounded
@given(general_maps())
def test_general_substitution_matches_oracle(case):
    assert_same(*case)


@pytest.mark.parametrize("order", [[(2,), (0,), (1,)], [(0,), (2,), (1,)]])
def test_cube_of_a_trinomial_in_power_order(order):
    # x1^3 after x1 -> 3*x1^2 + 3*x1 - 1: a cache of q^3 = q^2 * q and the
    # oracle's q ** 3 = q * q^2 give equal polynomials in different term
    # orders, for these two insertion orders of q's terms
    coeffs = {(2,): 3, (0,): -1, (1,): 3}
    q = Polynomial(1, {exps: coeffs[exps] for exps in order})
    assert_same(Polynomial.monomial(1, (3,)), [q])
    assert list((q ** 3).terms) == list((q * (q * q)).terms)


near_top = st.sampled_from(
    [0, 1, 2, MAX_EXPONENT // 3, MAX_EXPONENT // 2, MAX_EXPONENT // 2 + 1,
     MAX_EXPONENT - 1, MAX_EXPONENT]
)


@bounded
@given(monomial_maps(exponents=near_top))
def test_overflow_parity_near_max_exponent(case):
    p, outputs = case
    try:
        expected = oracle(p, outputs)
    except ExponentOverflowError:
        with pytest.raises(ExponentOverflowError):
            p.compose(outputs)
        return
    result = p.compose(outputs)
    assert result == expected
    assert list(result.terms) == list(expected.terms)


def test_zero_output_still_counts_towards_overflow():
    # y1^MAX * y2^2 with y1 -> x1^2 overflows in x1 though y2 -> 0 drops the term
    p = Polynomial.monomial(2, (MAX_EXPONENT, 2))
    outputs = [Polynomial.monomial(1, (2,)), Polynomial(1)]
    with pytest.raises(ExponentOverflowError):
        oracle(p, outputs)
    with pytest.raises(ExponentOverflowError):
        p.compose(outputs)


def test_monomial_substitution_multiplies_no_polynomials(monkeypatch):
    calls = []
    original = Polynomial.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    p = Polynomial(3, {(2, 1, 0): Fraction(3, 2), (0, 3, 1): -1, (1, 0, 0): 4})
    zero_section = PolyMap(2, [Polynomial.variable(2, 0), Polynomial.variable(2, 1),
                               Polynomial(2)])
    expected = oracle(p, zero_section.outputs)
    monkeypatch.setattr(Polynomial, "__mul__", counting)
    assert p.compose(zero_section) == expected
    assert not calls


@st.composite
def constant_compositions(draw):
    """(p, outputs): p zero or constant, outputs a mix of zero, single-term
    and multi-term polynomials."""
    outer = draw(st.integers(1, 3))
    inner = draw(st.integers(1, 2))
    p = Polynomial.constant(outer, draw(st.one_of(st.just(0), coefficients)))
    outputs = [draw(st.one_of(
        st.just(Polynomial(inner)),
        st.tuples(st.tuples(*[st.integers(0, 2)] * inner), coefficients.filter(bool))
          .map(lambda t: Polynomial.monomial(inner, *t)),
        polynomials(inner, st.integers(0, 2), max_terms=3),
    )) for _ in range(outer)]
    return p, outputs


@bounded
@given(constant_compositions())
def test_zero_and_constant_polynomials_skip_substitution(case):
    p, outputs = case
    expected = oracle(p, outputs)
    inner = outputs[0].num_vars
    for maps in (PolyMap(inner, outputs), list(outputs)):
        result = p.compose(maps)
        assert result.num_vars == inner
        assert result == expected
        assert list(result.terms) == list(expected.terms)
        assert stored_types(result) == stored_types(expected)
        assert result._packed is not p._packed


@bounded
@given(constant_compositions(), st.sampled_from([-1, 1]))
def test_zero_and_constant_polynomials_still_check_their_maps(case, surplus):
    p, outputs = case
    inner = outputs[0].num_vars
    wrong_arity = outputs[:-1] if surplus < 0 else outputs + [Polynomial(inner)]
    for maps in (PolyMap(inner, wrong_arity), wrong_arity):
        with pytest.raises(ValueError, match="arity mismatch"):
            p.compose(maps)
    wide = Polynomial.constant(p.num_vars + 1, p.constant_value())
    with pytest.raises(ValueError, match="disagree on variable count"):
        wide.compose(outputs + [Polynomial(inner + 1)])
