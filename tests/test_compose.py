"""Property tests of `Polynomial.compose` against a term-by-term oracle.

Every substitution expands each term through cached powers, formed in the
binary-powering order of `Polynomial.__pow__`.  Maps whose outputs are
single terms or zero, as the zero-section base maps are, and general maps
are drawn separately.  Either way the result must equal the oracle's sum of
c * prod(q_i ** e_i), taken in the order of the composed polynomial's
terms, with the same term order, the same stored coefficient types and the
same overflow behaviour.
"""

from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from courantlab import polyexpr
from courantlab.polyexpr import (
    MAX_EXPONENT,
    ExponentOverflowError,
    PolyMap,
    Polynomial,
    parse,
    poly_sum,
)

bounded = settings(max_examples=80, deadline=timedelta(seconds=2), database=None)
derandomized = settings(max_examples=150, deadline=None, database=None, derandomize=True)

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


def variables(n: int, num_vars: int) -> list[Polynomial]:
    return [Polynomial.variable(num_vars, i) for i in range(n)]


def expansion_refused(q):
    raise AssertionError("the identity substitution formed a power cache")


@derandomized
@given(st.integers(1, 3).flatmap(lambda n: polynomials(n, st.integers(0, 3), max_terms=6)))
def test_identity_substitution_returns_the_expansion(p):
    # x_i -> x_i in the same variables returns a copy of the terms without
    # forming a power: the oracle's keys, coefficients, types and order
    n = p.num_vars
    expected = oracle(p, variables(n, n))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polyexpr, "_power_cache", expansion_refused)
        results = [p.compose(PolyMap(n, variables(n, n))), p.compose(variables(n, n))]
    for result in results:
        assert list(result._packed.items()) == list(expected._packed.items())
        assert stored_types(result) == stored_types(expected)
        assert result._packed is not p._packed


@st.composite
def near_identity_maps(draw):
    """(p, outputs): the variables of p out of order, one of them scaled, or
    all of them in one variable more."""
    n = draw(st.integers(1, 3))
    p = draw(polynomials(n, st.integers(0, 3), max_terms=6))
    kind = draw(st.sampled_from(["permuted", "scaled", "wider"] if n > 1 else ["scaled", "wider"]))
    if kind == "permuted":
        order = draw(st.permutations(range(n)).filter(lambda o: o != list(range(n))))
        return p, [Polynomial.variable(n, i) for i in order]
    if kind == "scaled":
        outputs = variables(n, n)
        i = draw(st.integers(0, n - 1))
        outputs[i] = outputs[i] * draw(st.sampled_from([2, -1, Fraction(1, 2)]))
        return p, outputs
    return p, variables(n, n + 1)


@derandomized
@given(near_identity_maps())
def test_a_map_near_the_identity_takes_the_expansion(case):
    p, outputs = case
    assert not polyexpr._is_identity(outputs[0].num_vars, outputs)
    assert_same(p, outputs)


@pytest.mark.parametrize("exprs", [["x1", "x2"], ["x2", "x1"], ["2*x1", "x2"]])
def test_the_identity_shortcut_reads_the_order_and_the_coefficients(exprs):
    # after (x2, x1) the terms swap their variables, after (2 x1, x2) the
    # coefficients double per power of x1; only (x1, x2) returns the terms
    names = ["x1", "x2"]
    p = parse("x1^2*x2 - 3*x1 + 1/2*x2^3 + 1", names)
    assert_same(p, PolyMap.from_exprs(exprs, names).outputs)
