"""Exact linear algebra over Fraction, plus matrices of polynomials.

Rational matrices are lists of lists of Fraction.  Polynomial matrices are
lists of lists of Polynomial and share one variable count.  Nothing here is
numeric: solving, inversion, and rank are exact Gaussian elimination.
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


def det(a: Matrix) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination; det([]) = 1."""
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


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    m = [row[:] + ident_row for row, ident_row in zip(a, identity(n))]
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


def rank(a: Matrix) -> int:
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


def solve_with_certificate(a: Matrix, b: Sequence[Fraction]):
    """Solve a x = b exactly.

    Returns (solution, None) for a consistent system (one particular
    solution) or (None, lam) where lam is a Farkas certificate of
    infeasibility: lam @ a == 0 and lam @ b != 0.
    """
    rows = len(a)
    cols = len(a[0]) if a else 0
    # augmented with b and with an identity block tracking row operations
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
        if m[i][cols]:  # 0 = nonzero row: infeasible
            lam = m[i][cols + 1:]
            return None, lam
    solution = [Fraction(0)] * cols
    for i, col in enumerate(pivot_cols):
        solution[col] = m[i][cols]
    return solution, None


# -- polynomial matrices ------------------------------------------------------


def pmat_constant(a: Matrix, num_vars: int) -> list[list[Polynomial]]:
    return [[Polynomial.constant(num_vars, v) for v in row] for row in a]


def pmat_transpose(a: list[list[Polynomial]]) -> list[list[Polynomial]]:
    return [list(col) for col in zip(*a)] if a else []


def pmat_mul(a, b) -> list[list[Polynomial]]:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a[0])} columns vs {len(b)} rows")
    if not a or not b:
        return [[] for _ in a]
    nv = b[0][0].num_vars if b[0] else (a[0][0].num_vars if a[0] else 0)
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
