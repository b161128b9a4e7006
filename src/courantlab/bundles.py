"""Trivial vector bundles over R^n, their polynomial sections, and morphisms.

A bundle here is nothing but a pair of dimensions: base R^n, fiber R^k.
Sections are polynomial maps R^n -> R^k written in the constant frame
e_1..e_k.  A morphism carries a polynomial base map phi0, a fiber matrix
P(x) acting linearly on fibers, and optionally a polynomial retraction r
with r(phi0(x)) = x, which is what makes section extension along an
embedding constructive and exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import linalg
from .polyexpr import Frozen, Polynomial, PolyMap, _coeff, _is_identity, monomials_up_to

__all__ = ["TrivialBundle", "Section", "BundleMorphism", "compose_morphisms", "check_related",
           "NonExistenceCertificate", "related_section", "LinearSubspace"]


class TrivialBundle(Frozen):
    """The trivial bundle R^base_dim x R^rank -> R^base_dim; two bundles are
    equal when their dimensions are, whatever their labels."""

    __slots__ = ("base_dim", "rank", "label")

    def __init__(self, base_dim: int, rank: int, label: str = "E"):
        if base_dim < 0 or rank < 0:
            raise ValueError("bundle dimensions must be >= 0")
        self._set(base_dim, rank, label)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.base_dim, self.rank) == (other.base_dim, other.rank)

    def __hash__(self):
        return hash((self.base_dim, self.rank))

    def var_names(self) -> list[str]:
        return [f"x{i + 1}" for i in range(self.base_dim)]

    def __repr__(self):
        return f"TrivialBundle({self.label}: R^{self.base_dim} x R^{self.rank})"


class Section(Frozen):
    """A global polynomial section, held as frame coefficients."""

    __slots__ = ("bundle", "coeffs")

    def __init__(self, bundle: TrivialBundle, coeffs: PolyMap):
        if coeffs.num_inputs != bundle.base_dim or len(coeffs) != bundle.rank:
            raise ValueError(
                f"section shape {coeffs.num_inputs}->{len(coeffs)} does not match "
                f"bundle {bundle.base_dim}->{bundle.rank}"
            )
        self._set(bundle, coeffs)

    @classmethod
    def frame(cls, bundle: TrivialBundle, index: int, coeff: Polynomial | None = None) -> "Section":
        """coeff * e_index; constant frame section when coeff is omitted."""
        if not 0 <= index < bundle.rank:
            raise ValueError(f"frame index {index} out of range")
        if coeff is None:
            coeff = Polynomial.constant(bundle.base_dim, 1)
        comps = [Polynomial(bundle.base_dim)] * bundle.rank
        comps[index] = coeff
        return cls(bundle, PolyMap(bundle.base_dim, comps))

    @classmethod
    def from_exprs(cls, bundle: TrivialBundle, exprs: Sequence[str]) -> "Section":
        return cls(bundle, PolyMap.from_exprs(exprs, bundle.var_names()))

    def __getitem__(self, i) -> Polynomial:
        return self.coeffs[i]

    def __iter__(self):
        return iter(self.coeffs)

    def __add__(self, other: "Section") -> "Section":
        self._check(other)
        return Section(
            self.bundle,
            PolyMap(self.bundle.base_dim, [a + b for a, b in zip(self, other)]),
        )

    def __sub__(self, other: "Section") -> "Section":
        self._check(other)
        return Section(
            self.bundle,
            PolyMap(self.bundle.base_dim, [a - b for a, b in zip(self, other)]),
        )

    def __mul__(self, scalar) -> "Section":
        """Multiply by a scalar or by a function on the base."""
        if isinstance(scalar, (int, Fraction, Polynomial)):
            return Section(
                self.bundle,
                PolyMap(self.bundle.base_dim, [a * scalar for a in self]),
            )
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Section):
            return NotImplemented
        return self.bundle == other.bundle and self.coeffs == other.coeffs

    def is_zero(self) -> bool:
        return self.coeffs.is_zero()

    def _check(self, other: "Section"):
        if self.bundle != other.bundle:
            raise ValueError("sections live on different bundles")

    def __repr__(self):
        return f"Section({self.bundle.label}: {self.coeffs.to_strings()})"


class BundleMorphism(Frozen):
    """Vector bundle morphism: base map phi0 and fiber action e -> P(x) e.

    The fiber matrix has shape target.rank x source.rank; its entries are
    exact scalars or polynomials in the source base variables.  The
    morphism keeps it once, as the kernel's canonical sparse rows
    (`fiber_rows`, see `linalg`), which every consumer reads; `fiber_matrix`
    is a dense view with Polynomial entries, formed on each read.  An
    optional retraction r (a left inverse of phi0, checked exactly at
    construction) enables constructive extension of sections along the
    morphism (`related_section`).  The matrices the morphism conditions
    and the pullback read along the image of phi0 are formed once per
    target structure, in the record `morphisms.along_image` keeps in the
    `_along` slot with that structure.
    A composite read off another morphism's columns (see
    `compose_morphisms`) names them in `_selection`, and its record is
    theirs.  Whether phi0 is the identity is tested once, on the first
    `is_identity_base`, and kept in `_identity_base`.
    """

    __slots__ = ("source", "target", "base_map", "fiber_rows", "retraction",
                 "_along", "_selection", "_identity_base")

    def __init__(
        self,
        source: TrivialBundle,
        target: TrivialBundle,
        base_map: PolyMap,
        fiber_matrix: Sequence[Sequence],
        retraction: PolyMap | None = None,
    ):
        if base_map.num_inputs != source.base_dim or len(base_map) != target.base_dim:
            raise ValueError(f"base map shape {base_map.num_inputs}->{len(base_map)} does not "
                             f"match bases {source.base_dim}->{target.base_dim}")
        fm = [list(row) for row in fiber_matrix]
        if len(fm) != target.rank or any(len(row) != source.rank for row in fm):
            raise ValueError(f"fiber matrix must be {target.rank} x {source.rank}")
        if any(p.num_vars != source.base_dim if type(p) is Polynomial
               else type(p) not in (int, Fraction) for row in fm for p in row):
            raise ValueError("fiber matrix entries must be exact scalars or polynomials "
                             "in the source base variables")
        # the record along the image starts empty
        self._set(source, target, base_map, linalg.sparse(fm),
                  _checked_retraction(source, target, base_map, retraction))

    @property
    def fiber_matrix(self) -> list[list[Polynomial]]:
        """P as a dense matrix of polynomials in the source base variables,
        formed from `fiber_rows` on each read."""
        n = self.source.base_dim
        return [[linalg.polynomial(x, n) for x in row]
                for row in linalg.dense(self.fiber_rows, self.source.rank)]

    @classmethod
    def identity(cls, bundle: TrivialBundle) -> "BundleMorphism":
        k = bundle.rank
        return cls.constant(bundle, bundle, [[int(i == j) for j in range(k)] for i in range(k)])

    @classmethod
    def constant(
        cls,
        source: TrivialBundle,
        target: TrivialBundle,
        matrix,
        base_map: PolyMap | None = None,
        retraction: PolyMap | None = None,
    ) -> "BundleMorphism":
        """Morphism with a constant fiber matrix of rationals (default base:
        identity)."""
        if base_map is None:
            if source.base_dim != target.base_dim:
                raise ValueError("identity base requires equal base dimensions")
            base_map = PolyMap.identity(source.base_dim)
            if retraction is None:
                retraction = PolyMap.identity(source.base_dim)
        return cls(source, target, base_map, [[_coeff(v) for v in row] for row in matrix],
                   retraction=retraction)

    def is_identity_base(self) -> bool:
        """Whether phi0 is x -> x: its outputs are the source variables, in
        order, which needs equal base dimensions."""
        if self._identity_base is None:
            object.__setattr__(self, "_identity_base",
                               _is_identity(self.source.base_dim, self.base_map.outputs))
        return self._identity_base

    def apply(self, f: Section) -> PolyMap:
        """The fiberwise image x -> P(x) f(x), indexed by source base points."""
        if f.bundle != self.source:
            raise ValueError("section does not live on the morphism source")
        n = self.source.base_dim
        return PolyMap(n, [linalg.polynomial(x, n) for x in
                           linalg.pmat_vec(self.fiber_rows, f.coeffs.outputs)])

    def __repr__(self):
        return (
            f"BundleMorphism({self.source.label} -> {self.target.label}, "
            f"base {self.base_map.to_strings()})"
        )


def _checked_retraction(source: TrivialBundle, target: TrivialBundle, base_map: PolyMap,
                       retraction: PolyMap | None) -> PolyMap | None:
    """`retraction`, checked to map the target base to the source base and
    to invert `base_map`: r(phi0(x)) = x, an identity test on the composite;
    None passes."""
    if retraction is not None:
        if retraction.num_inputs != target.base_dim or len(retraction) != source.base_dim:
            raise ValueError(f"retraction shape {retraction.num_inputs}->{len(retraction)} "
                             f"does not match bases {target.base_dim}->{source.base_dim}")
        if not _is_identity(source.base_dim, retraction.compose(base_map).outputs):
            raise ValueError("retraction does not invert the base map: r(phi0(x)) != x")
    return retraction


def _coordinate_columns(phi: BundleMorphism) -> list[int] | None:
    """[r_0, r_1, ...] when phi is over the identity and column c of its
    fiber matrix is the unit vector e_(r_c), else None."""
    units = {}
    for r, row in enumerate(phi.fiber_rows):
        for c, x in row.items():
            units[c] = r if c not in units and type(x) is int and x == 1 else None
    if phi.is_identity_base() and len(units) == phi.source.rank and None not in units.values():
        return [units[c] for c in range(phi.source.rank)]
    return None


def compose_morphisms(outer: BundleMorphism, inner: BundleMorphism) -> BundleMorphism:
    """outer . inner; retractions compose contravariantly when both exist.

    The composite's fiber rows are outer's, composed with inner's base map
    unless that is the identity, times inner's, with no dense matrix formed.
    Its retraction r_inner o r_outer inverts its base map because both
    factors do, so it is not checked again.  When inner is a coordinate
    inclusion over the identity (column c of its fiber matrix is e_(r_c)),
    column c of the composite's fiber matrix is column r_c of outer's, and
    its base map and retraction equal outer's.  The composite then names
    (outer, [r_c]) in `_selection`, and its record along the image is a
    column selection of outer's (see `morphisms.along_image`).
    """
    if inner.target != outer.source:
        raise ValueError("morphisms are not composable")
    outer_rows = outer.fiber_rows
    if not inner.is_identity_base():
        outer_rows = linalg.pmat_compose(outer_rows, inner.base_map)
    retraction = None
    if inner.retraction is not None and outer.retraction is not None:
        retraction = inner.retraction.compose(outer.retraction)
    composite = object.__new__(BundleMorphism)
    composite._set(inner.source, outer.target, outer.base_map.compose(inner.base_map),
                   linalg.pmat_mul(outer_rows, inner.fiber_rows), retraction)
    cols = _coordinate_columns(inner)
    if cols is not None:
        object.__setattr__(composite, "_selection", (outer, cols))
    return composite


def check_related(phi: BundleMorphism, f: Section, g: Section) -> bool:
    """Exact test of phi o f = g o phi0."""
    if f.bundle != phi.source or g.bundle != phi.target:
        raise ValueError("sections do not match the morphism's bundles")
    image = phi.apply(f)
    pulled = g.coeffs.compose(phi.base_map)
    return image == pulled


class NonExistenceCertificate(Frozen):
    """Proof that no polynomial section of degree <= degree_cap is related.

    The coefficient matching problem is a linear system A c = b per fiber
    component; `farkas` is an exact vector with farkas @ A = 0 and
    farkas @ b != 0, certifying infeasibility of component `component`.
    `monomials` are exponent tuples; `matrix`, `rhs` and `farkas` are
    tuples of Fractions.
    """

    __slots__ = ("degree_cap", "component", "monomials", "matrix", "rhs", "farkas")

    def __init__(self, degree_cap: int, component: int, monomials, matrix, rhs, farkas):
        self._set(degree_cap, component, monomials, matrix, rhs, farkas)

    def verify(self) -> bool:
        combo = [
            sum((lam * row[j] for lam, row in zip(self.farkas, self.matrix)), Fraction(0))
            for j in range(len(self.monomials))
        ]
        mismatch = sum((lam * b for lam, b in zip(self.farkas, self.rhs)), Fraction(0))
        return all(v == 0 for v in combo) and mismatch != 0


def related_section(
    phi: BundleMorphism, f: Section, degree_cap: int = 8
) -> Section | NonExistenceCertificate:
    """A section g of the target with phi o f = g o phi0, or a certificate.

    With a retraction r the answer is immediate and exact:
    g(y) = P(r(y)) f(r(y)).  Without one, the coefficients of a candidate g
    of degree <= degree_cap are solved for exactly; an inconsistent system
    is returned as a NonExistenceCertificate rather than raised.
    """
    if f.bundle != phi.source:
        raise ValueError("section does not live on the morphism source")
    if phi.retraction is not None:
        r = phi.retraction
        pulled_f = [p.compose(r) for p in f.coeffs]
        comps = linalg.pmat_vec(linalg.pmat_compose(phi.fiber_rows, r), pulled_f)
        big = phi.target.base_dim
        return Section(phi.target, PolyMap(big, [linalg.polynomial(x, big) for x in comps]))

    image = phi.apply(f)  # P(x) f(x), in source variables
    n_target = phi.target.base_dim
    monos = monomials_up_to(n_target, degree_cap)
    columns = [Polynomial.monomial(n_target, exps).compose(phi.base_map).terms for exps in monos]
    solved_components: list[Polynomial] = []
    for comp_index in range(phi.target.rank):
        target = image[comp_index].terms
        row_keys = sorted(set(target).union(*columns))
        a = [[col.get(key, Fraction(0)) for col in columns] for key in row_keys]
        b = [target.get(key, Fraction(0)) for key in row_keys]
        solution, farkas = linalg.solve_with_certificate(a, b)
        if solution is None:
            return NonExistenceCertificate(
                degree_cap=degree_cap,
                component=comp_index,
                monomials=tuple(monos),
                matrix=tuple(tuple(row) for row in a),
                rhs=tuple(b),
                farkas=tuple(farkas),
            )
        solved_components.append(
            Polynomial(n_target, {m: c for m, c in zip(monos, solution) if c})
        )
    return Section(phi.target, PolyMap(n_target, solved_components))


class LinearSubspace(Frozen):
    """A subspace of R^ambient_dim given by a linearly independent basis,
    held as a tuple of Fraction tuples."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis):
        rows = tuple(tuple(Fraction(v) for v in vec) for vec in basis)
        for vec in rows:
            if len(vec) != ambient_dim:
                raise ValueError("basis vector has wrong length")
        if rows and linalg.rank([list(v) for v in rows]) != len(rows):
            raise ValueError("basis vectors are linearly dependent")
        self._set(ambient_dim, rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @classmethod
    def graph_of_matrix(cls, s) -> "LinearSubspace":
        """The graph {(v, S v)} inside R^k + R^k for a square matrix S.

        Its basis (e_i, S e_i) is independent by construction, since the top
        block is I, so the rank check of the constructor is not run.
        """
        s = linalg.mat(s)
        k = len(s)
        graph = object.__new__(cls)
        graph._set(2 * k, tuple(
            tuple(Fraction(int(j == i)) for j in range(k)) + tuple(row[i] for row in s)
            for i in range(k)
        ))
        return graph
