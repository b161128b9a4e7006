"""Exact linear algebra on sparse rows, the package's one matrix form.

A matrix is a list of rows, each a dict {column: entry} over its nonzero
entries.  An entry is an exact scalar, int when integral and Fraction
otherwise, or a non-constant Polynomial; `sparse` brings a dense matrix into
this canonical form, a constant Polynomial becoming its scalar, and `dense`
prints it back.  Nothing here is numeric.  Dense matrices, lists of lists,
appear only at the API edge: `det`, `rank`, `inverse` and
`solve_with_certificate` take one, call `sparse` at entry and return
Fraction results, and `mat` and `identity` write one down.

There is one elimination, `_reduce`, on sparse rows of scalars; `det_inverse`
gives a determinant and an inverse in sparse rows from one reduction, and
`det`, `inverse`, `rank` and `solve_with_certificate` read it too.  Its pivot
in each column is the first nonzero entry at or below the current row,
swapped up; it clears that column in every other row that stores it, over
the entries the pivot row stores, and deletes the entries that cancel.
Pivot rows stay unscaled, because scaling costs a Fraction division per
entry and only a solution or an inverse needs it, once per entry read off.
With this rule every result, the Farkas vector included, is the one
Gauss-Jordan elimination with scaled pivot rows gives.  Canonical rows hold
ints, and int / int is a float, so the factor and every entry of an inverse
read off are exact quotients (`_quotient`), in canonical form; of two ints
a Fraction is formed only when the division is inexact.  The signed pivot
product stays an int while the pivots are ints; `det` and `det_inverse`
return it as a Fraction at the API edge, as `solve_with_certificate`
returns Fractions.

Frame data (fiber matrices, anchors, metrics, Jacobians) go through the
`pmat_*` functions, whose entries mix scalars and Polynomials.  A morphism
keeps its fiber matrix and a structure its G, G^-1 and A in this form, each
formed once (`BundleMorphism.fiber_rows`, `CourantStructure.rows`), and
every consumer reads those rows.  A product or sum of scalars stays a
scalar, so constant frame data are never wrapped; one with a Polynomial
factor is a Polynomial, so polynomial fiber maps flow through the same
loops, and `pmat_compose` substitutes into the Polynomial entries only.
Sums that cancel are dropped, and every result entry is brought into
canonical form (a constant sum becomes its scalar), so rows stay canonical
through every operation.  One routine does both, `_nonzero`, with one
`type()` dispatch per entry: an int is kept when nonzero, a Fraction when
nonzero and as its int when integral, a Polynomial when non-constant and as
its scalar when constant and nonzero.  `sparse` and every `pmat_*` pass
their (column, entry) pairs through it.  A zero Polynomial is truthy, so no
entry is tested by truthiness; `is_zero` and `entry` state the same rule
for one entry.  A scalar prints as the constant polynomial it equals:
str(Fraction(-3, 2)) is Polynomial.constant(n, Fraction(-3, 2)).to_string().
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .polyexpr import Polynomial, PolyMap

Matrix = list[list[Fraction]]


# -- the API edge and the elimination -------------------------------------------


def mat(rows) -> Matrix:
    return [[v if type(v) is Fraction else Fraction(v) for v in row] for row in rows]


def identity(n: int) -> Matrix:
    zero, one = Fraction(0), Fraction(1)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def is_symmetric(a: list[dict]) -> bool:
    """Whether sparse rows are symmetric: every stored entry has its mirror."""
    return all(a[j].get(i) == x for i, row in enumerate(a) for j, x in row.items())


def _quotient(x, p):
    """x / p for exact scalars, in canonical form: floor division when x
    and p are ints and p divides x, else through a Fraction."""
    return x // p if type(x) is type(p) is int and not x % p else entry(Fraction(x, p))


def _reduce(m: list[dict], cols: int) -> tuple[list[int], int | Fraction]:
    """Row-reduce the scalar sparse rows m in place over their first `cols`
    columns, by the rule in the module docstring; entries that cancel are
    deleted, so a row stores no zero.

    Returns the pivot columns, the i-th pivot in row i, and the signed
    product of the pivots, an int while they are: the determinant when m is
    square and has a pivot in every column.
    """
    rows = len(m)
    pivots: list[int] = []
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
                factor = _quotient(row[col], p)
                for j, y in top.items():
                    x = row.get(j, 0) - factor * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
        pivots.append(col)
    return pivots, product


def det(a: Matrix) -> Fraction:
    """Determinant; det([]) = 1."""
    pivots, product = _reduce(sparse(a), len(a))
    return Fraction(product if len(pivots) == len(a) else 0)


def det_inverse(a: list[dict]) -> tuple[Fraction, list[dict] | None]:
    """(det A, A^-1) for the square sparse rows A of scalars, from one
    reduction; A^-1 is None when det A = 0 and is in canonical form."""
    n = len(a)
    m = [{**row, n + i: 1} for i, row in enumerate(a)]
    pivots, product = _reduce(m, n)
    if len(pivots) < n:
        return Fraction(0), None
    return Fraction(product), [{j - n: _quotient(row[j], row[i]) for j in range(n, 2 * n)
                                if j in row} for i, row in enumerate(m)]


def inverse(a: Matrix) -> Matrix:
    inv = det_inverse(sparse(a))[1]
    if inv is None:
        raise ValueError("matrix is singular")
    return mat(dense(inv, len(a)))


def rank(a: Matrix) -> int:
    return len(_reduce(sparse(a), len(a[0]) if a else 0)[0])


def solve_with_certificate(a: Matrix, b: Sequence[Fraction]):
    """Solve a x = b exactly.

    Returns (solution, None) for a consistent system (one particular
    solution, every free unknown zero) or (None, lam) where lam is a Farkas
    certificate of infeasibility: lam @ a == 0 and lam @ b != 0.
    """
    rows = len(a)
    cols = len(a[0]) if a else 0
    # augmented with b and with an identity block tracking row operations
    m = sparse([[*a[i], b[i], *(int(i == j) for j in range(rows))] for i in range(rows)])
    pivots, _ = _reduce(m, cols)
    for row in m[len(pivots):]:
        if cols in row:  # 0 = nonzero row: infeasible
            return None, [Fraction(row.get(j, 0)) for j in range(cols + 1, cols + 1 + rows)]
    solution = [Fraction(0)] * cols
    for row, col in zip(m, pivots):
        solution[col] = Fraction(row.get(cols, 0), row[col])
    return solution, None


# -- matrices of frame data ----------------------------------------------------


def is_zero(x) -> bool:
    """Whether an entry is zero.  A zero Polynomial is truthy, so no entry
    is ever tested by truthiness."""
    return not x._packed if type(x) is Polynomial else not x


def entry(x):
    """An entry in canonical form: a constant Polynomial or an integral
    Fraction becomes its int or Fraction, anything else is kept."""
    if type(x) is Polynomial:
        return x if any(x._packed) else x._packed.get(0, 0)
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def polynomial(x, num_vars: int) -> Polynomial:
    """An entry as a Polynomial in `num_vars` variables."""
    return x if type(x) is Polynomial else Polynomial.constant(num_vars, x)


def sparse(a) -> list[dict]:
    """The rows of a dense matrix, each as {column: entry} over its nonzero
    entries, in canonical form."""
    return [_nonzero(enumerate(row)) for row in a]


def dense(a: list[dict], cols: int) -> list[list]:
    """The dense matrix of sparse rows with `cols` columns; zeros are 0."""
    return [[row.get(j, 0) for j in range(cols)] for row in a]


def _nonzero(pairs) -> dict:
    """The row {column: entry} of the (column, entry) pairs whose entry does
    not vanish, in canonical form and in their order: the rule of `is_zero`
    and `entry`, with one type dispatch per entry."""
    out = {}
    for j, v in pairs:
        t = type(v)
        if t is Polynomial:
            if any(v._packed):
                out[j] = v
            elif v._packed:
                out[j] = v._packed[0]
        elif v:
            out[j] = v.numerator if t is Fraction and v.denominator == 1 else v
    return out


def pmat_mul(a: list[dict], b: list[dict]) -> list[dict]:
    """A B on sparse rows: row i of the product accumulates x * b[k] over
    the entries (k, x) of a's row i, in their order, and drops the sums
    that cancel."""
    out = []
    for row in a:
        acc: dict = {}
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] = acc[j] + x * y if j in acc else x * y
        out.append(_nonzero(acc.items()))
    return out


def pmat_vec(a: list[dict], v) -> list:
    """A v for sparse rows A and a dense vector v, as the product with the
    column v."""
    return [row.get(0, 0) for row in pmat_mul(a, sparse([x] for x in v))]


def pmat_sub(a: list[dict], b: list[dict]) -> list[dict]:
    """A - B on sparse rows."""
    return [_nonzero({**ra, **{j: ra[j] - y if j in ra else -y for j, y in rb.items()}}.items())
            for ra, rb in zip(a, b)]


def pmat_transpose(a: list[dict], cols: int) -> list[dict]:
    """A^T on sparse rows, for an `a` with `cols` columns."""
    return [{i: row[j] for i, row in enumerate(a) if j in row} for j in range(cols)]


def pmat_is_constant(a: list[dict]) -> bool:
    """Whether every entry of canonical sparse rows is a scalar."""
    return all(type(x) is not Polynomial for row in a for x in row.values())


def pmat_compose(a: list[dict], inner: PolyMap) -> list[dict]:
    """Entrywise substitution in sparse rows: a Polynomial entry p becomes
    p(inner(.)), in canonical form, and a scalar entry is kept."""
    return [_nonzero((j, x.compose(inner) if type(x) is Polynomial else x)
                     for j, x in row.items()) for row in a]
