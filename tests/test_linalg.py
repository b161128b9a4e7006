from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from courantlab import linalg
from courantlab.bundles import TrivialBundle
from courantlab.courant_core import CourantStructure
from courantlab.polyexpr import Polynomial, parse

from conftest import mat_vec, reference_pmat_mul, reference_pmat_vec


def test_det_and_inverse():
    a = linalg.mat([[2, 1], [1, 1]])
    assert linalg.det(a) == 1
    inv = linalg.inverse(a)
    product = linalg.pmat_mul(linalg.sparse(a), linalg.sparse(inv))
    assert linalg.dense(product, 2) == linalg.identity(2)
    assert linalg.det([]) == 1  # empty matrix convention


def test_singular():
    a = linalg.mat([[1, 2], [2, 4]])
    assert linalg.det(a) == 0
    with pytest.raises(ValueError, match="singular"):
        linalg.inverse(a)


def test_rank():
    assert linalg.rank(linalg.mat([[1, 2], [2, 4], [0, 0]])) == 1
    assert linalg.rank(linalg.identity(3)) == 3
    assert linalg.rank([]) == 0


def test_solve_consistent():
    a = linalg.mat([[1, 1], [0, 1], [1, 2]])
    b = [Fraction(3), Fraction(1), Fraction(4)]
    x, farkas = linalg.solve_with_certificate(a, b)
    assert farkas is None
    assert mat_vec(a, x) == b


def test_solve_infeasible_gives_farkas():
    # x + y = 1 and x + y = 2 cannot both hold
    a = linalg.mat([[1, 1], [1, 1]])
    b = [Fraction(1), Fraction(2)]
    x, farkas = linalg.solve_with_certificate(a, b)
    assert x is None
    combo = [
        sum(lam * row[j] for lam, row in zip(farkas, a))
        for j in range(2)
    ]
    assert all(v == 0 for v in combo)
    assert sum(lam * rhs for lam, rhs in zip(farkas, b)) != 0


class Unreduced(Exception):
    pass


def test_every_elimination_is_the_one_reduction(monkeypatch):
    # with `_reduce` raising, every exact solve and the constructor's check
    # of G raise with it: no other elimination is left to fall back on
    def raising(m, cols):
        raise Unreduced

    monkeypatch.setattr(linalg, "_reduce", raising)
    a = linalg.mat([[2, 1], [1, 1]])
    for call in (lambda: linalg.det(a), lambda: linalg.rank(a), lambda: linalg.inverse(a),
                 lambda: linalg.det_inverse(linalg.sparse(a)),
                 lambda: linalg.solve_with_certificate(a, [1, 2]),
                 lambda: CourantStructure(TrivialBundle(0, 2, "E"), [], a)):
        with pytest.raises(Unreduced):
            call()


def test_a_structure_stores_its_frame_data_only_as_rows():
    # G, G^-1 and A live in `rows`; no slot holds a dense frame matrix, and
    # the dense `anchor`, `metric` and `metric_inverse` are views
    assert CourantStructure.__slots__ == ("bundle", "structure_functions", "rows", "_frame",
                                          "_dual")
    x1 = Polynomial.variable(1, 0)
    half = Fraction(1, 2)
    s = CourantStructure(TrivialBundle(1, 2, "E"), [[x1, 0]], [[0, half], [half, 0]])
    assert s.rows == ([{1: half}, {0: half}], [{1: 2}, {0: 2}], [{0: x1}])
    assert s.metric_inverse == [[0, 2], [2, 0]] and s.anchor == [[x1, Polynomial(1)]]


def test_pmat_transpose_keeps_the_columns_of_a_matrix_without_rows():
    # on sparse rows: the two columns of a matrix without rows become two
    # empty rows
    assert linalg.pmat_transpose([], 2) == [{}, {}]
    assert linalg.pmat_transpose([], 0) == []


# -- the one row reduction against the four loops it replaced -----------------
#
# These are the Gauss-Jordan loops `det`, `inverse`, `rank` and
# `solve_with_certificate` ran before they shared one row reduction, kept
# verbatim as the reference: the shared reduction uses the same pivot rule
# (the first nonzero entry at or below the current row, swapped up), so
# every value and every type must match, the Farkas vector included.


def reference_det(a):
    n = len(a)
    m = [row[:] for row in a]
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return result


def reference_inverse(a):
    n = len(a)
    m = [row[:] + ident_row for row, ident_row in zip(a, linalg.identity(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def reference_rank(a):
    if not a:
        return 0
    m = [row[:] for row in a]
    rows, cols = len(m), len(m[0])
    r = 0
    for col in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return r


def reference_solve(a, b):
    rows = len(a)
    cols = len(a[0]) if a else 0
    m = [
        [Fraction(v) for v in a[i]] + [Fraction(b[i])] + [Fraction(int(i == j)) for j in range(rows)]
        for i in range(rows)
    ]
    r = 0
    pivot_cols = []
    for col in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivot_cols.append(col)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if m[i][cols]:
            lam = m[i][cols + 1:]
            return None, lam
    solution = [Fraction(0)] * cols
    for i, col in enumerate(pivot_cols):
        solution[col] = m[i][cols]
    return solution, None


def typed(value):
    """The value with the type of every scalar in it, for exact comparison."""
    if isinstance(value, (list, tuple)):
        return [typed(v) for v in value]
    return (type(value), value)


def outcome(fn, *args):
    """(True, typed result) or (False, the error message)."""
    try:
        return True, typed(fn(*args))
    except ValueError as exc:
        return False, str(exc)


_nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def systems(draw, square: bool = False):
    """(A, b) with A of shape 0-6 x 0-6, from sparse to dense, with dependent
    rows (singular A, and b consistent with them or not) and repeated
    columns mixed in."""
    rows = draw(st.integers(0, 6))
    cols = rows if square else draw(st.integers(0, 6))
    zero_share = draw(st.integers(0, 4))  # out of 4: 0 is dense, 4 is all zeros
    a = [[Fraction(0) if draw(st.integers(0, 3)) < zero_share else draw(_nonzero)
          for _ in range(cols)] for _ in range(rows)]
    b = [draw(_nonzero) if draw(st.booleans()) else Fraction(0) for _ in range(rows)]
    if rows >= 2:
        for _ in range(draw(st.integers(0, rows - 1))):
            i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
            scale = draw(_nonzero)
            a[i] = [scale * v for v in a[j]]
            b[i] = scale * b[j] + draw(st.sampled_from([Fraction(0), Fraction(0), Fraction(1)]))
    if cols >= 2 and draw(st.booleans()):
        i, j = draw(st.integers(0, cols - 1)), draw(st.integers(0, cols - 1))
        for row in a:
            row[i] = row[j]
    return a, b


def sympy_matrix(a, cols: int):
    return sympy.Matrix(len(a), cols, [sympy.Rational(v.numerator, v.denominator)
                                      for row in a for v in row])


bounded = settings(max_examples=100, deadline=None, database=None)


@bounded
@given(systems(square=True))
def test_det_and_inverse_match_the_reference(system):
    a, _ = system
    assert typed(linalg.det(a)) == typed(reference_det(a))
    assert outcome(linalg.inverse, a) == outcome(reference_inverse, a)
    # one reduction of the sparse rows gives both: the determinant, and the
    # inverse in canonical sparse rows unless it is 0
    determinant, inv = linalg.det_inverse(linalg.sparse(a))
    assert typed(determinant) == typed(reference_det(a))
    if determinant:
        assert typed(linalg.dense(inv, len(a))) == \
            typed(linalg.dense(linalg.sparse(reference_inverse(a)), len(a)))
    else:
        assert inv is None


@bounded
@given(systems())
def test_rank_and_solve_match_the_reference(system):
    a, b = system
    assert typed(linalg.rank(a)) == typed(reference_rank(a))
    assert typed(linalg.solve_with_certificate(a, b)) == typed(reference_solve(a, b))


INT_MATRICES = [
    [[2, 1], [1, 1]],
    [[0, 3], [2, 5]],
    [[1, 2], [2, 4]],
    [[4, 0, 1], [2, 3, 0], [0, 1, 7]],
    [[0, 0, 1], [0, 2, 0], [3, 0, 0]],
]


@pytest.mark.parametrize("a", INT_MATRICES)
def test_int_input_gives_the_exact_results_of_fraction_input(a):
    # canonical rows hold ints, for int and integral Fraction input alike,
    # so the factor and every entry read off are formed as Fractions: 1 / int
    # never turns a result into a float
    exact = linalg.mat(a)
    assert typed(linalg.det(a)) == typed(reference_det(exact))
    assert outcome(linalg.inverse, a) == outcome(reference_inverse, exact)
    assert typed(linalg.rank(a)) == typed(reference_rank(exact))
    b = list(range(1, len(a) + 1))
    assert typed(linalg.solve_with_certificate(a, b)) == typed(reference_solve(exact, b))


@bounded
@given(systems())
def test_pmat_vec_skips_zeros_without_changing_the_result(system):
    # the kernel multiplies only the nonzero entries of the sparse rows: the
    # full dense loop gives the same values, which the kernel keeps in
    # canonical form (an int when integral)
    a, b = system
    v = (b * 6)[:len(a[0])] if a else []      # b has zeros mixed in too
    dense = [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]
    assert typed(linalg.pmat_vec(linalg.sparse(a), v)) == typed([linalg.entry(x) for x in dense])


def test_mat_keeps_fraction_entries_and_converts_the_rest():
    half = Fraction(1, 2)
    m = linalg.mat([[half, 2], [True, Fraction(3)]])
    assert m[0][0] is half and typed(m) == typed([[half, Fraction(2)],
                                                  [Fraction(1), Fraction(3)]])


@bounded
@given(systems(square=True))
def test_det_and_inverse_agree_with_sympy(system):
    a, _ = system
    m = sympy_matrix(a, len(a))
    d = linalg.det(a)
    assert sympy.Rational(d.numerator, d.denominator) == m.det()
    if d == 0:
        with pytest.raises(ValueError, match="singular"):
            linalg.inverse(a)
    else:
        inv = linalg.inverse(a)
        assert sympy_matrix(inv, len(a)) == m.inv()


@bounded
@given(systems())
def test_rank_and_solve_agree_with_sympy(system):
    a, b = system
    cols = len(a[0]) if a else 0
    m = sympy_matrix(a, cols)
    r = linalg.rank(a)
    assert r == m.rank()
    x, farkas = linalg.solve_with_certificate(a, b)
    consistent = m.row_join(sympy_matrix([[v] for v in b], 1)).rank() == r
    assert (x is not None) == consistent and (farkas is None) == consistent
    if consistent:
        assert mat_vec(a, x) == b
    else:
        assert all(sum((lam * row[j] for lam, row in zip(farkas, a)), Fraction(0)) == 0
                   for j in range(cols))
        assert sum((lam * v for lam, v in zip(farkas, b)), Fraction(0)) != 0


# -- the frame-data kernel against the dense Polynomial loops ---------------------

_NAMES = ["x1", "x2"]
_SCALARS = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(4, 2)]
_POLYS = [Polynomial(2), Polynomial.constant(2, 3), Polynomial.constant(2, Fraction(1, 3))] + [
    parse(t, _NAMES) for t in ("x1", "-x1", "x1*x2 + 1", "1/3*x2", "x1 - 2")]


@st.composite
def mixed_operands(draw, constant: bool = False):
    """(a, b, v, columns of b): matrices and a vector of up to 3 x 3 whose
    entries mix ints, Fractions and Polynomials in two variables; with
    `constant`, every Polynomial is constant."""
    pool = _SCALARS + [p for p in _POLYS if not constant or p.is_constant()]
    entry = st.sampled_from(pool)
    rows, inner, cols = (draw(st.integers(0, 3)) for _ in range(3))
    a = [[draw(entry) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(entry) for _ in range(cols)] for _ in range(inner)]
    return a, b, [draw(entry) for _ in range(inner)], cols


def as_polynomials(a):
    return [[linalg.polynomial(x, 2) for x in row] for row in a]


@settings(max_examples=300, deadline=None, database=None)
@given(mixed_operands())
def test_kernel_equals_the_dense_polynomial_loops(case):
    # product, vector product, difference and transpose on sparse rows
    # against the all-Polynomial loops; no sparse row stores a zero, and no
    # entry is tested by truthiness
    a, b, v, cols = case
    inner = len(b)
    sa, sb = linalg.sparse(a), linalg.sparse(b)
    product = linalg.pmat_mul(sa, sb)
    assert linalg.dense(product, cols) == reference_pmat_mul(as_polynomials(a), as_polynomials(b),
                                                            cols, 2)
    assert linalg.pmat_vec(sa, v) == reference_pmat_vec(as_polynomials(a),
                                                         as_polynomials([v])[0], 2)
    assert linalg.dense(linalg.pmat_sub(sb, sb), cols) == [[0] * cols for _ in b]
    assert linalg.pmat_sub(linalg.pmat_transpose(linalg.pmat_transpose(sa, inner), len(a)), sa) \
        == [{} for _ in a]
    for rows in (sa, sb, product):
        assert not [x for row in rows for x in row.values() if linalg.is_zero(x)]


@settings(max_examples=200, deadline=None, database=None)
@given(mixed_operands(constant=True))
def test_constant_frame_data_stays_scalar(case):
    # constant Polynomials enter as their scalars, and scalar times scalar
    # stays a scalar in canonical form: an int when integral
    a, b, v, _ = case
    product = linalg.pmat_mul(linalg.sparse(a), linalg.sparse(b))
    values = [x for row in product for x in row.values()]
    values += linalg.pmat_vec(linalg.sparse(a), [linalg.entry(x) for x in v])
    for x in values:
        assert type(x) is int or (type(x) is Fraction and x.denominator > 1)


_ENTRIES = st.one_of(
    st.integers(-2, 2),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),  # integral and proper
    st.sampled_from(_POLYS),                # zero, constant and non-constant
    st.fractions(min_value=-2, max_value=2, max_denominator=3).map(
        lambda c: Polynomial.constant(2, c)),
)


def entrywise(pairs) -> dict:
    """The canonical row by the one-entry rule: `is_zero`, then `entry`."""
    return {j: linalg.entry(v) for j, v in pairs if not linalg.is_zero(v)}


def typed_items(row: dict) -> list:
    return [(j, typed(v)) for j, v in row.items()]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.dictionaries(st.integers(0, 6), _ENTRIES, max_size=7))
def test_one_dispatch_per_entry_equals_the_entrywise_rule(row):
    # `_nonzero` dispatches once on each entry's type; `sparse` passes its
    # (column, entry) pairs to it.  Both keep the columns, order, values and
    # types the entrywise rule keeps
    assert typed_items(linalg._nonzero(row.items())) == typed_items(entrywise(row.items()))
    values = list(row.values())
    assert typed_items(linalg.sparse([values])[0]) == typed_items(entrywise(enumerate(values)))


def reference_transpose(a, cols):
    """`pmat_transpose` as it was: every column looked up in every row."""
    return [{i: row[j] for i, row in enumerate(a) if j in row} for j in range(cols)]


@st.composite
def sparse_rows(draw):
    """(rows, cols): up to 5 sparse rows over `cols` columns, some empty,
    each stored with its columns in drawn order."""
    cols = draw(st.integers(0, 5))
    row = st.dictionaries(st.integers(0, cols - 1), _ENTRIES, max_size=cols) if cols else \
        st.just({})
    return draw(st.lists(row, max_size=5)), cols


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(sparse_rows())
@example(([{2: 1, 0: Fraction(1, 2)}, {}, {2: parse("x1", _NAMES)}], 4))
def test_one_pass_transpose_equals_the_probing_one(case):
    # one walk over the stored entries fills each column with its rows in
    # increasing order, as probing every row did: the same keys in the same
    # order, the same values, and a column no row stores stays empty
    a, cols = case
    assert [list(col.items()) for col in linalg.pmat_transpose(a, cols)] \
        == [list(col.items()) for col in reference_transpose(a, cols)]


# `_reduce` and `det_inverse` as they were, kept as the reference of the
# elimination: the pivot found by a generator, the signed pivot product
# kept as the reduction runs, and one `_quotient` per entry read off.


def reference_reduce(m, cols):
    rows = len(m)
    pivots = []
    product = 1
    for col in range(cols):
        r = len(pivots)
        if r == rows:
            break
        found = next((i for i in range(r, rows) if col in m[i]), None)
        if found is None:
            continue
        if found != r:
            m[r], m[found] = m[found], m[r]
            product = -product
        top = m[r]
        p = top[col]
        product *= p
        for i, row in enumerate(m):
            if i != r and col in row:
                factor = linalg._quotient(row[col], p)
                for j, y in top.items():
                    x = row.get(j, 0) - factor * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
        pivots.append(col)
    return pivots, product


def reference_det_inverse(a):
    n = len(a)
    m = [{**row, n + i: 1} for i, row in enumerate(a)]
    pivots, product = reference_reduce(m, n)
    if len(pivots) < n:
        return Fraction(0), None
    return Fraction(product), [{j - n: linalg._quotient(row[j], row[i])
                                for j in range(n, 2 * n) if j in row} for i, row in enumerate(m)]


_STORED = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=4)).map(
    linalg.entry).filter(bool)


@st.composite
def scalar_rows(draw):
    """Square canonical sparse rows of scalars, 0-6 wide, each stored in a
    drawn column order: some rows empty, some a multiple of another (a
    singular matrix), some a permutation times one repeated scalar (every
    pivot equal, and row swaps), and the first column often empty above
    its first entry (a swap)."""
    k = draw(st.integers(0, 6))
    if k and draw(st.booleans()):
        scale, order = draw(_STORED), draw(st.permutations(range(k)))
        a = [{order[i]: scale} for i in range(k)]
    else:
        a = [dict(draw(st.lists(st.tuples(st.integers(0, k - 1), _STORED), max_size=k)))
             if k and draw(st.integers(0, 4)) else {} for _ in range(k)]
    if k >= 2 and draw(st.booleans()):
        i, j, scale = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1)), draw(_STORED)
        a[i] = {col: linalg.entry(scale * x) for col, x in a[j].items()}
    if k >= 2 and draw(st.booleans()):
        a[0].pop(0, None)
    return a


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(scalar_rows())
@example([{1: 1}, {0: 1}])                            # det -1, by one swap
@example([{0: 2}, {1: 3}])                            # the entry 1 over two pivots
@example([{0: Fraction(3, 2), 1: 1}, {0: 3, 1: 2}])   # singular
def test_elimination_equals_the_running_product_reference(a):
    # the pivot product read off the reduced rows, with the swaps' sign,
    # and the read-off with one quotient per distinct (entry, pivot) give
    # the reference's determinant and inverse rows: values, int or Fraction,
    # and the order of every row's keys; `det` gives the same determinant
    determinant, inverse = linalg.det_inverse([dict(row) for row in a])
    expected, rows = reference_det_inverse([dict(row) for row in a])
    assert typed(determinant) == typed(expected)
    assert typed(linalg.det(linalg.dense(a, len(a)))) == typed(expected)
    assert (inverse is None) == (rows is None)
    assert [typed_items(row) for row in inverse or []] == [typed_items(row) for row in rows or []]
