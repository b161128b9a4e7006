"""Exact linear algebra over Fraction, plus matrices of polynomials.

Rational matrices are lists of lists of Fraction.  Polynomial matrices are
lists of lists of Polynomial and share one variable count.  Nothing here is
numeric.

`det`, `inverse`, `rank` and `solve_with_certificate` read one row
reduction, `_reduce`.  Its pivot in each column is the first nonzero entry
at or below the current row, swapped up; it clears that column in every
other row, skipping the zero entries of the pivot row.  Pivot rows stay
unscaled, because scaling costs a Fraction division per entry and only a
solution or an inverse needs it, once per entry read off.  With this rule
every result, the Farkas vector included, is the one Gauss-Jordan
elimination with scaled pivot rows gives.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .polyexpr import Polynomial, PolyMap, poly_sum

Matrix = list[list[Fraction]]


# -- rational matrices -------------------------------------------------------


def mat(rows) -> Matrix:
    return [[Fraction(v) for v in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a[0])} columns vs {len(b)} rows")
    return [
        [sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
        for row in a
    ]


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> list[Fraction]:
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def mat_scale(a: Matrix, s: Fraction) -> Matrix:
    return [[x * s for x in row] for row in a]


def is_symmetric(a: Matrix) -> bool:
    return all(a[i][j] == a[j][i] for i in range(len(a)) for j in range(i))


def _reduce(m: Matrix, cols: int) -> tuple[list[int], Fraction]:
    """Row-reduce m in place over its first `cols` columns, by the rule in
    the module docstring.

    Returns the pivot columns, the i-th pivot in row i, and the signed
    product of the pivots: the determinant when m is square and has a pivot
    in every column.
    """
    rows = len(m)
    pivots: list[int] = []
    product = Fraction(1)
    for col in range(cols):
        r = len(pivots)
        if r == rows:
            break
        found = next((i for i in range(r, rows) if m[i][col]), None)
        if found is None:
            continue
        if found != r:
            m[r], m[found] = m[found], m[r]
            product = -product
        top = m[r]
        product *= top[col]
        for i, row in enumerate(m):
            if i != r and row[col]:
                factor = row[col] / top[col]
                m[i] = [x - factor * y if y else x for x, y in zip(row, top)]
        pivots.append(col)
    return pivots, product


def det(a: Matrix) -> Fraction:
    """Determinant; det([]) = 1."""
    pivots, product = _reduce(mat(a), len(a))
    return product if len(pivots) == len(a) else Fraction(0)


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    m = [row + ident_row for row, ident_row in zip(mat(a), identity(n))]
    if len(_reduce(m, n)[0]) < n:
        raise ValueError("matrix is singular")
    return [[x / row[i] for x in row[n:]] for i, row in enumerate(m)]


def rank(a: Matrix) -> int:
    return len(_reduce(mat(a), len(a[0]) if a else 0)[0])


def solve_with_certificate(a: Matrix, b: Sequence[Fraction]):
    """Solve a x = b exactly.

    Returns (solution, None) for a consistent system (one particular
    solution, every free unknown zero) or (None, lam) where lam is a Farkas
    certificate of infeasibility: lam @ a == 0 and lam @ b != 0.
    """
    rows = len(a)
    cols = len(a[0]) if a else 0
    # augmented with b and with an identity block tracking row operations
    m = [
        [Fraction(v) for v in a[i]] + [Fraction(b[i])] + [Fraction(int(i == j)) for j in range(rows)]
        for i in range(rows)
    ]
    pivots, _ = _reduce(m, cols)
    for row in m[len(pivots):]:
        if row[cols]:  # 0 = nonzero row: infeasible
            return None, row[cols + 1:]
    solution = [Fraction(0)] * cols
    for row, col in zip(m, pivots):
        solution[col] = row[cols] / row[col]
    return solution, None


# -- polynomial matrices ------------------------------------------------------


def pmat_constant(a: Matrix, num_vars: int) -> list[list[Polynomial]]:
    return [[Polynomial.constant(num_vars, v) for v in row] for row in a]


def pmat_transpose(a: list[list[Polynomial]], cols: int = 0) -> list[list[Polynomial]]:
    """A^T; `cols` is the column count of an `a` without rows."""
    return [list(col) for col in zip(*a)] if a else [[] for _ in range(cols)]


def pmat_mul(a, b, cols: int = 0, num_vars: int = 0) -> list[list[Polynomial]]:
    """A B; `cols` and `num_vars` are the column and variable counts of the
    zero product of a `b` without rows, which neither operand shows."""
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a[0])} columns vs {len(b)} rows")
    if not b:
        return [[Polynomial(num_vars)] * cols for _ in a]
    nv = b[0][0].num_vars if b[0] else num_vars
    out = []
    for row in a:
        out_row = []
        for col in zip(*b):
            out_row.append(poly_sum(nv, (
                x * y for x, y in zip(row, col) if not (x.is_zero() or y.is_zero())
            )))
        out.append(out_row)
    return out


def pmat_vec(a, v: Sequence[Polynomial], num_vars: int | None = None) -> list[Polynomial]:
    out = []
    for row in a:
        if num_vars is not None:
            nv = num_vars
        else:
            nv = v[0].num_vars if v else (row[0].num_vars if row else 0)
        out.append(poly_sum(nv, (
            x * y for x, y in zip(row, v) if not (x.is_zero() or y.is_zero())
        )))
    return out


def pmat_sub(a, b) -> list[list[Polynomial]]:
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def pmat_compose(a, inner: PolyMap) -> list[list[Polynomial]]:
    """Entrywise substitution: each entry p becomes p(inner(.))."""
    return [[p.compose(inner) for p in row] for row in a]


def pmat_is_zero(a) -> bool:
    return all(p.is_zero() for row in a for p in row)


def pmat_constant_value(a) -> Matrix:
    """Extract the Fraction matrix from a constant polynomial matrix."""
    return [[p.constant_value() for p in row] for row in a]


def pmat_is_constant(a) -> bool:
    return all(p.is_constant() for row in a for p in row)
