import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from courantlab import linalg, polyexpr
from courantlab.polyexpr import (
    MAX_EXPONENT,
    MAX_PARSE_BITS,
    MAX_POWER_BITS,
    ExponentOverflowError,
    ParseError,
    PolyMap,
    Polynomial,
    monomials_up_to,
    parse,
)

from conftest import eval_term_by_term, fd_partial, literals


def rand_poly(rng, num_vars, degree=4, terms=4):
    monos = monomials_up_to(num_vars, degree)
    out = {}
    for _ in range(terms):
        out[rng.choice(monos)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Polynomial(num_vars, out)


class TestParse:
    def test_zero(self):
        assert parse("0", ["x1"]).is_zero()

    def test_cancellation(self):
        assert parse("x1*x1 - x1^2", ["x1"]).is_zero()

    def test_canonical_terms(self):
        p = parse("3/2*x1^2*x2 + 1", ["x1", "x2"])
        assert p.terms == {(2, 1): Fraction(3, 2), (0, 0): Fraction(1)}

    def test_unary_minus(self):
        assert parse("-x1 + 2", ["x1"]) == parse("2 - x1", ["x1"])
        assert parse("3 - -x1", ["x1"]) == parse("3 + x1", ["x1"])

    def test_parentheses_and_precedence(self):
        assert parse("(x1+1)*(x1-1)", ["x1"]) == parse("x1^2 - 1", ["x1"])
        assert parse("2*x1^2", ["x1"]) == parse("2*(x1^2)", ["x1"])

    def test_rational_literal(self):
        assert parse("2/4", []).constant_value() == Fraction(1, 2)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("x1 + * 2", ["x1"])
        assert err.value.position == 5

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("x1 + y", ["x1"])

    def test_negative_exponent(self):
        with pytest.raises(ParseError, match="negative exponent"):
            parse("x1^-2", ["x1"])

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError):
            parse("x1^(2)", ["x1"])

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("x1 x1", ["x1"])

    def test_digits_that_are_not_decimal_are_unexpected(self):
        # "\u00b2".isdigit() holds but int() cannot read it
        for text, position in [("\u00b2", 0), ("2\u00b2", 1)]:
            with pytest.raises(ParseError) as err:
                parse(text, [])
            assert str(err.value) == f"unexpected character '\u00b2' (at position {position})"

    def test_print_parse_roundtrip(self):
        rng = random.Random(7)
        names = ["x1", "x2", "x3"]
        for _ in range(50):
            p = rand_poly(rng, 3)
            assert parse(p.to_string(names), names) == p


def _parsed(text):
    """("ok", the stored terms with their types) or ("error", the message
    without its position, the position)."""
    try:
        p = parse(text, ["x1"])
    except ParseError as exc:
        return "error", str(exc).removesuffix(f" (at position {exc.position})"), exc.position
    return "ok", p.num_vars, [(key, type(c), c) for key, c in p._packed.items()]


@settings(max_examples=200, deadline=None, database=None)
@given(literals)
def test_a_literal_parses_as_the_grammar_reads_it(text):
    # a decimal text skips the grammar; the parenthesised text cannot
    fast, grammar = _parsed(text), _parsed("(" + text + ")")
    if grammar[0] == "ok":
        assert fast == grammar
    elif text.isdecimal():      # too long for int(): the same error, one place left
        assert fast[:2] == grammar[:2] and fast[2] == grammar[2] - 1
    else:
        assert fast[0] == "error"


class TestArith:
    def test_additive_inverse(self):
        x = parse("x1", ["x1"])
        assert (x + (-x)).is_zero()

    def test_difference_of_squares(self):
        x1 = ["x1"]
        assert parse("x1+1", x1) * parse("x1-1", x1) == parse("x1^2-1", x1)

    def test_sub(self):
        x1 = ["x1"]
        assert parse("2*x1", x1) - parse("x1", x1) == parse("x1", x1)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="variable-count mismatch"):
            parse("x1", ["x1"]) + parse("x1", ["x1", "x2"])

    def test_scalar_coercion(self):
        x = parse("x1", ["x1"])
        assert 2 * x - x == x
        assert x + 1 == parse("x1 + 1", ["x1"])
        assert Fraction(1, 2) * (2 * x) == x

    def test_ring_axioms_randomized(self):
        rng = random.Random(11)
        for _ in range(60):
            a, b, c = (rand_poly(rng, 2) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_pow(self):
        x = parse("x1+1", ["x1"])
        assert x ** 0 == Polynomial.constant(1, 1)
        assert x ** 3 == x * x * x
        with pytest.raises(ValueError):
            x ** -1


class TestDiff:
    def test_power_rule(self):
        p = parse("x1^2*x2", ["x1", "x2"])
        assert p.diff(0) == parse("2*x1*x2", ["x1", "x2"])

    def test_constant(self):
        assert Polynomial.constant(1, 5).diff(0).is_zero()

    def test_independent_variable(self):
        assert parse("x1^3", ["x1", "x2"]).diff(1).is_zero()

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse("x1", ["x1"]).diff(1)

    def test_product_rule_randomized(self):
        rng = random.Random(3)
        for _ in range(100):
            p, q = rand_poly(rng, 2), rand_poly(rng, 2)
            for var in (0, 1):
                assert (p * q).diff(var) == p.diff(var) * q + p * q.diff(var)

    def test_matches_finite_differences(self, rational_points):
        rng = random.Random(5)
        for point in rational_points(2):
            p = rand_poly(rng, 2)
            for var in (0, 1):
                assert p.diff(var).eval(point) == fd_partial(p, var, point)


class TestEval:
    def test_direct_substitution(self):
        assert parse("x1^2+x2", ["x1", "x2"]).eval([2, 3]) == 7

    def test_constant_term_at_zero(self):
        p = parse("x1^3 - 2*x1 + 5/2", ["x1"])
        assert p.eval([0]) == Fraction(5, 2)

    def test_root(self):
        p = parse("(x1-1)*(x1-2)", ["x1"])
        assert p.eval([1]) == 0

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            parse("x1", ["x1"]).eval([1, 2])

    def test_against_term_by_term_oracle(self, rational_points):
        rng = random.Random(13)
        for point in rational_points(3, count=8):
            p = rand_poly(rng, 3)
            assert p.eval(point) == eval_term_by_term(p, point)


class TestCompose:
    def test_binomial(self):
        p = parse("y1^2", ["y1"])
        sub = PolyMap.from_exprs(["x1+x2"], ["x1", "x2"])
        assert p.compose(sub) == parse("x1^2+2*x1*x2+x2^2", ["x1", "x2"])

    def test_constant_passthrough(self):
        p = Polynomial.constant(2, Fraction(7, 3))
        sub = PolyMap.from_exprs(["x1", "0"], ["x1"])
        assert p.compose(sub) == Polynomial.constant(1, Fraction(7, 3))

    def test_zero_factor(self):
        p = parse("y1*y2", ["y1", "y2"])
        sub = PolyMap.from_exprs(["x1", "0"], ["x1"])
        assert p.compose(sub).is_zero()

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            parse("y1*y2", ["y1", "y2"]).compose(PolyMap.from_exprs(["x1"], ["x1"]))

    def test_powers_cached_only_for_variables_that_occur(self, monkeypatch):
        # y2 does not occur, so its output gets no power cache
        sub = PolyMap.from_exprs(["x1+x2", "x1^2", "x2-1"], ["x1", "x2"])
        p = parse("y1^3 + 2*y1*y3", ["y1", "y2", "y3"])
        expected = parse("(x1+x2)^3 + 2*(x1+x2)*(x2-1)", ["x1", "x2"])
        formed = []
        original = polyexpr._power_cache
        monkeypatch.setattr(polyexpr, "_power_cache", lambda q: formed.append(q) or original(q))
        assert p.compose(sub) == expected
        assert formed == [sub.outputs[0], sub.outputs[2]]


class TestPolyMap:
    def test_jacobian_frozen_example(self):
        # column (2x, 3x^2), cross-checked by the finite-difference oracle
        f = PolyMap.from_exprs(["x1^2", "x1^3"], ["x1"])
        jac = f.jacobian()
        assert jac[0][0] == parse("2*x1", ["x1"])
        assert jac[1][0] == parse("3*x1^2", ["x1"])
        for point in ([Fraction(1, 2)], [Fraction(-2)], [Fraction(3)],
                      [Fraction(0)], [Fraction(5, 3)]):
            for i in range(2):
                assert jac[i][0].eval(point) == fd_partial(f[i], 0, point)

    def test_jacobian_identity(self):
        jac = PolyMap.identity(3).jacobian()
        for i in range(3):
            for j in range(3):
                expected = Polynomial.constant(3, int(i == j))
                assert jac[i][j] == expected

    def test_jacobian_constant(self):
        f = PolyMap.constant(2, [1, 2, 3])
        assert all(p.is_zero() for row in f.jacobian() for p in row)

    def test_chain_rule_randomized(self):
        rng = random.Random(17)
        for _ in range(20):
            inner = PolyMap(2, [rand_poly(rng, 2, degree=2) for _ in range(2)])
            outer = PolyMap(2, [rand_poly(rng, 2, degree=2) for _ in range(2)])
            composed = outer.compose(inner)
            lhs = composed.jacobian()
            jo = [[p.compose(inner) for p in row] for row in outer.jacobian()]
            ji = inner.jacobian()
            for i in range(2):
                for j in range(2):
                    rhs = Polynomial(2)
                    for k in range(2):
                        rhs = rhs + jo[i][k] * ji[k][j]
                    assert lhs[i][j] == rhs

    def test_compose_eval_consistency(self):
        rng = random.Random(19)
        inner = PolyMap(2, [rand_poly(rng, 2, degree=2) for _ in range(3)])
        outer = rand_poly(rng, 3, degree=2)
        point = [Fraction(1, 2), Fraction(-2)]
        assert outer.compose(inner).eval(point) == outer.eval(inner.eval(point))


def test_monomials_up_to():
    assert monomials_up_to(1, 3) == [(0,), (1,), (2,), (3,)]
    assert len(monomials_up_to(2, 2)) == 6
    assert monomials_up_to(0, 4) == [()]
    monos = monomials_up_to(3, 3)
    assert len(monos) == 20 and len(set(monos)) == 20


def test_lift():
    p = parse("x1*x2", ["x1", "x2"])
    lifted = p.lift(4, 1)
    assert lifted == parse("x2*x3", ["x1", "x2", "x3", "x4"])
    with pytest.raises(ValueError):
        p.lift(2, 1)


class TestPackedKeys:
    """Each variable owns a fixed bit field; products must never carry."""

    def test_field_maximum_is_exact(self):
        top = Polynomial.monomial(2, (MAX_EXPONENT, 1), 3)
        assert top.terms == {(MAX_EXPONENT, 1): Fraction(3)}
        assert top.degree() == MAX_EXPONENT + 1
        assert top.diff(0).terms == {(MAX_EXPONENT - 1, 1): Fraction(3 * MAX_EXPONENT)}
        half = Polynomial.monomial(2, (MAX_EXPONENT // 2, 0))
        assert (half * half * Polynomial.variable(2, 0)).terms == {(MAX_EXPONENT, 0): 1}

    def test_product_crossing_a_field_raises(self):
        # x1^MAX * x1 would carry into x2's field and read as x2 without the guard bit
        top = Polynomial.monomial(2, (MAX_EXPONENT, 0))
        x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        with pytest.raises(ExponentOverflowError, match=str(MAX_EXPONENT)):
            top * x1
        with pytest.raises(ExponentOverflowError):
            (top + x2) * (x1 + 1)
        with pytest.raises(ExponentOverflowError):
            Polynomial.variable(1, 0) ** (MAX_EXPONENT + 1)

    def test_exponent_beyond_the_field_is_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Polynomial.monomial(1, (MAX_EXPONENT + 1,))

    def test_parse_reports_overflow_with_position(self):
        with pytest.raises(ParseError) as err:
            parse("x1^20000*x1^20000", ["x1"])
        assert err.value.position == 8
        with pytest.raises(ParseError, match="exponent above"):
            parse("x1^40000", ["x1"])

    def test_parse_bounds_powers_before_forming_them(self):
        # every base: the exponent field's limit; a constant base: also the
        # bit length times the exponent, numerator and denominator alike
        assert parse(f"x1^{MAX_EXPONENT}", ["x1"]).degree() == MAX_EXPONENT
        assert parse("2^32767", []).constant_value() == 2 ** 32767
        assert parse("(2^32767)^32", []).constant_value() == 2 ** (32767 * 32)
        assert parse("(1/2^32767)^32", []).constant_value() == Fraction(1, 2 ** (32767 * 32))
        for text, position, message in [
            (f"1^{MAX_EXPONENT + 1}", 2, "exponent above"),
            ("2^99999999999", 2, "exponent above"),
            ("(2^32767)^33", 10, "constant power above 1048576 bits"),
            ("(1/2^32767)^33", 12, "constant power above"),
            ("(2^32767)^32767", 10, "constant power above"),
        ]:
            with pytest.raises(ParseError, match=message) as err:
                parse(text, ["x1"])
            assert err.value.position == position, text

    def test_parse_bounds_powers_of_sums_and_long_products(self):
        # the term count times the coefficient bits of a power is bounded
        # before powering, and that of a running product after each factor
        power = parse("(1+x1)^700", ["x1"])
        assert len(power.terms) == 701 and power.terms[(350,)] == comb(700, 350)
        assert len(parse("(x1+x2+x3)^20", ["x1", "x2", "x3"]).terms) == 231
        product = parse("*".join(["2^32767"] * 32), [])
        assert product.constant_value() == 2 ** (32767 * 32)
        for text, position, message in [
            ("(1+x1)^725", 7, "power above 1048576 bits"),
            ("(1+x1)^3000", 7, "power above"),
            ("(1+x1)^32767", 7, "power above"),
            ("(2^1000*x1)^2000", 12, "power above"),
            ("*".join(["2^32767"] * 33), 255, "product above 1048576 bits"),
            ("*".join(["2^32767"] * 2000), 255, "product above"),
            # (1+x1)^1100: 1101 terms of up to 1095 bits
            ("(1+x1)^700*(1+x1)^400", 10, "product above 1048576 bits"),
            # the 398th factor: the running products' sizes, each below the
            # product bound, pass MAX_PARSE_BITS in all
            ("*".join(["(1+x1)"] * 2000), 7 * 398 - 1,
             f"powers and products above {MAX_PARSE_BITS} bits in all"),
        ]:
            with pytest.raises(ParseError, match=message) as err:
                parse(text, ["x1"])
            assert err.value.position == position, text
            assert "constant" not in str(err.value)

    def test_parse_bounds_the_total_of_one_text(self):
        # each power 2^32767 is charged 2 * 32767 bits; 320 of them fit in
        # MAX_PARSE_BITS, and the text is rejected at the 321st power, before
        # forming it
        assert MAX_PARSE_BITS == 20 * MAX_POWER_BITS
        assert parse("+".join(["2^32767"] * 320), []).constant_value() == 320 * 2 ** 32767
        with pytest.raises(ParseError, match=f"above {MAX_PARSE_BITS} bits in all") as err:
            parse("+".join(["2^32767"] * 400), [])
        assert err.value.position == 8 * 320 + 2

    def test_parse_rejects_literals_int_cannot_read(self):
        digits = "1" + "0" * 5000
        for text, position in [(digits, 0), (f"x1^{digits}", 3), (f"1/{digits}", 2)]:
            with pytest.raises(ParseError, match="5001 digits is too long") as err:
                parse(text, ["x1"])
            assert err.value.position == position

    def test_lift_keeps_terms(self):
        p = parse("3*x1^5*x2 - 1/2", ["x1", "x2"])
        lifted = p.lift(5, 2)
        assert lifted.terms == {(0, 0, 5, 1, 0): Fraction(3), (0, 0, 0, 0, 0): Fraction(-1, 2)}
        assert lifted.lift(6, 0).terms == {e + (0,): c for e, c in lifted.terms.items()}


class TestCoefficientTypes:
    """Integral coefficients are stored as ints; the public values are Fractions."""

    def test_public_values_are_fractions(self):
        p = parse("3*x1^2 - 2*x1*x2 + 5", ["x1", "x2"]) * parse("x2 + 4", ["x1", "x2"])
        assert p.terms[(0, 0)] == 20
        assert {type(c) for c in p.terms.values()} == {Fraction}
        assert {type(c) for _, c in p.terms.items()} == {Fraction}
        assert {type(p.terms[e]) for e in p.terms} == {Fraction}
        assert {type(c) for c in dict(p.terms).values()} == {Fraction}
        assert type(p.terms.get((0, 0))) is Fraction
        assert type(p.eval([1, 2])) is Fraction
        assert type(Polynomial.constant(0, 3).eval([])) is Fraction
        assert type(Polynomial.constant(2, 7).constant_value()) is Fraction
        assert type(Polynomial(2).constant_value()) is Fraction
        assert type(Polynomial.constant(1, Fraction(6, 3)).constant_value()) is Fraction

    def test_integral_results_of_scaling_and_addition_are_ints(self):
        p = parse("1/2*x1 + 1/3", ["x1"])
        for q in (p * 2, p + p, p * 6, 3 * (p + p), p - p * 3):
            stored = [(c, type(c)) for c in q._packed.values()]
            assert all(t is int or c.denominator != 1 for c, t in stored), stored
        assert (p * 2)._packed == {1: 1, 0: Fraction(2, 3)}
        assert (p + p)._packed == {1: 1, 0: Fraction(2, 3)}
        assert p * 6 == parse("3*x1 + 2", ["x1"]) and type((p * 6)._packed[0]) is int

    def test_integral_derivatives_are_ints(self):
        p = parse("1/2*x1^2 + 1/3*x1^3 + 3/4*x1^4", ["x1"]).diff(0)
        assert p._packed == {1: 1, 2: 1, 3: 3} and {type(c) for c in p._packed.values()} == {int}

    def test_terms_is_a_read_only_view(self):
        p = parse("x1 + 1", ["x1"])
        with pytest.raises(TypeError):
            p.terms[(1,)] = Fraction(2)
        assert len(p.terms) == 2 and (1,) in p.terms and (2,) not in p.terms

    def test_linalg_on_constant_values_stays_rational(self):
        rows = [[parse("2", []), parse("1", [])], [parse("1", []), parse("3", [])]]
        m = [[p.constant_value() for p in row] for row in rows]
        assert {type(v) for row in m for v in row} == {Fraction}
        assert type(linalg.det(m)) is Fraction and linalg.det(m) == 5
        inv = linalg.inverse(m)
        assert {type(v) for row in inv for v in row} == {Fraction}
        assert inv == [[Fraction(3, 5), Fraction(-1, 5)], [Fraction(-1, 5), Fraction(2, 5)]]


# -- hashing agrees with equality across scalars and polynomials -----------------

_VALUES = [0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]
_MIXED = st.one_of(
    st.sampled_from(_VALUES),
    st.sampled_from(_VALUES).map(Fraction),
    st.builds(Polynomial.constant, st.sampled_from([0, 1, 2]), st.sampled_from(_VALUES)),
    st.sampled_from([parse(t, ["x1", "x2"]) for t in ("x1", "x1 + 1", "-x1", "1/2*x2^2 - x1")]),
)


@settings(max_examples=300, deadline=None, database=None)
@given(_MIXED, _MIXED)
def test_equal_values_hash_equal(a, b):
    # a constant polynomial equals its scalar, so it hashes as that scalar;
    # the matrix kernel mixes both in one matrix
    if a == b:
        assert hash(a) == hash(b)


def test_a_constant_polynomial_and_its_scalar_are_one_member():
    assert Polynomial.constant(2, 3) == 3 and len({Polynomial.constant(2, 3), 3}) == 1
    half = {Polynomial.constant(1, Fraction(1, 2)), Fraction(1, 2),
            Polynomial.constant(1, Fraction(2, 4))}
    assert len(half) == 1 and len({Polynomial(2), 0, Fraction(0)}) == 1
    x1 = parse("x1", ["x1"])
    assert hash(x1) == hash(parse("x1 + 1 - 1", ["x1"])) and len({x1, 1}) == 2
