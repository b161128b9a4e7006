"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the code paths they check:
term-by-term evaluation avoids the Horner evaluator, and the exact
Lagrange-interpolation derivative avoids symbolic differentiation
(it is exact for polynomials once enough nodes are used).
"""

import os
from fractions import Fraction
from pathlib import Path

import pytest

from courantlab import linalg
from courantlab.bundles import TrivialBundle
from courantlab.courant_core import CourantStructure
from courantlab.polyexpr import Polynomial

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
