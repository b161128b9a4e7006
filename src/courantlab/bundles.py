"""Trivial vector bundles over R^n, their polynomial sections, and morphisms.

A bundle here is nothing but a pair of dimensions: base R^n, fiber R^k.
Sections are polynomial maps R^n -> R^k written in the constant frame
e_1..e_k.  A morphism carries a polynomial base map phi0, a fiber matrix
P(x) acting linearly on fibers, and optionally a polynomial retraction r
with r(phi0(x)) = x, which is what makes section extension along an
embedding constructive and exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import linalg
from .polyexpr import Polynomial, PolyMap, monomials_up_to


@dataclass(frozen=True)
class TrivialBundle:
    """The trivial bundle R^base_dim x R^rank -> R^base_dim."""

    base_dim: int
    rank: int
    label: str = field(default="E", compare=False)

    def __post_init__(self):
        if self.base_dim < 0 or self.rank < 0:
            raise ValueError("bundle dimensions must be >= 0")

    def var_names(self) -> list[str]:
        return [f"x{i + 1}" for i in range(self.base_dim)]

    def __repr__(self):
        return f"TrivialBundle({self.label}: R^{self.base_dim} x R^{self.rank})"


def whitney_sum(b1: TrivialBundle, b2: TrivialBundle) -> TrivialBundle:
    """Fiberwise direct sum; block order is (b1, b2)."""
    if b1.base_dim != b2.base_dim:
        raise ValueError(
            f"base dimension mismatch: {b1.base_dim} vs {b2.base_dim}"
        )
    return TrivialBundle(b1.base_dim, b1.rank + b2.rank, f"{b1.label}(+){b2.label}")


class Section:
    """A global polynomial section, held as frame coefficients."""

    __slots__ = ("bundle", "coeffs")

    def __init__(self, bundle: TrivialBundle, coeffs: PolyMap):
        if coeffs.num_inputs != bundle.base_dim or len(coeffs) != bundle.rank:
            raise ValueError(
                f"section shape {coeffs.num_inputs}->{len(coeffs)} does not match "
                f"bundle {bundle.base_dim}->{bundle.rank}"
            )
        object.__setattr__(self, "bundle", bundle)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Section is immutable")

    @classmethod
    def zero(cls, bundle: TrivialBundle) -> "Section":
        return cls(bundle, PolyMap.zero(bundle.base_dim, bundle.rank))

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

    @classmethod
    def from_constant(cls, bundle: TrivialBundle, values) -> "Section":
        return cls(bundle, PolyMap.constant(bundle.base_dim, values))

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

    def __neg__(self) -> "Section":
        return Section(self.bundle, PolyMap(self.bundle.base_dim, [-a for a in self]))

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


class BundleMorphism:
    """Vector bundle morphism: base map phi0 and fiber action e -> P(x) e.

    The fiber matrix has shape target.rank x source.rank with entries in the
    source base variables.  An optional retraction r (a left inverse of
    phi0, checked exactly at construction) enables constructive extension of
    sections along the morphism, through P(r(y)) (`extension_matrix`,
    formed on first use).
    """

    __slots__ = ("source", "target", "base_map", "fiber_matrix", "retraction",
                 "_extension")

    def __init__(
        self,
        source: TrivialBundle,
        target: TrivialBundle,
        base_map: PolyMap,
        fiber_matrix: Sequence[Sequence[Polynomial]],
        retraction: PolyMap | None = None,
    ):
        if base_map.num_inputs != source.base_dim or len(base_map) != target.base_dim:
            raise ValueError(
                f"base map shape {base_map.num_inputs}->{len(base_map)} does not match "
                f"bases {source.base_dim}->{target.base_dim}"
            )
        fm = [list(row) for row in fiber_matrix]
        if len(fm) != target.rank or any(len(row) != source.rank for row in fm):
            raise ValueError(
                f"fiber matrix must be {target.rank} x {source.rank}"
            )
        for row in fm:
            for p in row:
                if p.num_vars != source.base_dim:
                    raise ValueError("fiber matrix entries must use source base variables")
        if retraction is not None:
            if retraction.num_inputs != target.base_dim or len(retraction) != source.base_dim:
                raise ValueError(
                    f"retraction shape {retraction.num_inputs}->{len(retraction)} does not "
                    f"match bases {target.base_dim}->{source.base_dim}"
                )
            if retraction.compose(base_map) != PolyMap.identity(source.base_dim):
                raise ValueError("retraction does not invert the base map: r(phi0(x)) != x")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "base_map", base_map)
        object.__setattr__(self, "fiber_matrix", fm)
        object.__setattr__(self, "retraction", retraction)
        object.__setattr__(self, "_extension", None)

    def __setattr__(self, name, value):
        raise AttributeError("BundleMorphism is immutable")

    @property
    def extension_matrix(self) -> list[list[Polynomial]]:
        """P(r(y)), the fiber matrix composed with the retraction, formed on
        first use: g(y) = P(r(y)) f(r(y)) is the section related to f."""
        if self._extension is None:
            if self.retraction is None:
                raise ValueError("extension needs a morphism with a retraction")
            object.__setattr__(
                self, "_extension", linalg.pmat_compose(self.fiber_matrix, self.retraction)
            )
        return self._extension

    @classmethod
    def identity(cls, bundle: TrivialBundle) -> "BundleMorphism":
        n = bundle.base_dim
        return cls(
            bundle,
            bundle,
            PolyMap.identity(n),
            linalg.pmat_constant(linalg.identity(bundle.rank), n),
            retraction=PolyMap.identity(n),
        )

    @classmethod
    def constant(
        cls,
        source: TrivialBundle,
        target: TrivialBundle,
        matrix,
        base_map: PolyMap | None = None,
        retraction: PolyMap | None = None,
    ) -> "BundleMorphism":
        """Morphism with a constant fiber matrix (default base: identity)."""
        if base_map is None:
            if source.base_dim != target.base_dim:
                raise ValueError("identity base requires equal base dimensions")
            base_map = PolyMap.identity(source.base_dim)
            if retraction is None:
                retraction = PolyMap.identity(source.base_dim)
        return cls(
            source,
            target,
            base_map,
            linalg.pmat_constant(linalg.mat(matrix), source.base_dim),
            retraction=retraction,
        )

    def is_identity_base(self) -> bool:
        return (
            self.source.base_dim == self.target.base_dim
            and self.base_map == PolyMap.identity(self.source.base_dim)
        )

    def apply(self, f: Section) -> PolyMap:
        """The fiberwise image x -> P(x) f(x), indexed by source base points."""
        if f.bundle != self.source:
            raise ValueError("section does not live on the morphism source")
        return PolyMap(
            self.source.base_dim,
            linalg.pmat_vec(
                self.fiber_matrix, list(f.coeffs), num_vars=self.source.base_dim
            ),
        )

    def __repr__(self):
        return (
            f"BundleMorphism({self.source.label} -> {self.target.label}, "
            f"base {self.base_map.to_strings()})"
        )


def compose_morphisms(outer: BundleMorphism, inner: BundleMorphism) -> BundleMorphism:
    """outer . inner; retractions compose contravariantly when both exist."""
    if inner.target != outer.source:
        raise ValueError("morphisms are not composable")
    base = outer.base_map.compose(inner.base_map)
    fiber = linalg.pmat_mul(
        linalg.pmat_compose(outer.fiber_matrix, inner.base_map), inner.fiber_matrix
    )
    retraction = None
    if inner.retraction is not None and outer.retraction is not None:
        retraction = inner.retraction.compose(outer.retraction)
    return BundleMorphism(inner.source, outer.target, base, fiber, retraction=retraction)


def check_related(phi: BundleMorphism, f: Section, g: Section) -> bool:
    """Exact test of phi o f = g o phi0."""
    if f.bundle != phi.source or g.bundle != phi.target:
        raise ValueError("sections do not match the morphism's bundles")
    image = phi.apply(f)
    pulled = g.coeffs.compose(phi.base_map)
    return image == pulled


@dataclass(frozen=True)
class NonExistenceCertificate:
    """Proof that no polynomial section of degree <= degree_cap is related.

    The coefficient matching problem is a linear system A c = b per fiber
    component; `farkas` is an exact vector with farkas @ A = 0 and
    farkas @ b != 0, certifying infeasibility of component `component`.
    """

    degree_cap: int
    component: int
    monomials: tuple[tuple[int, ...], ...]
    matrix: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    farkas: tuple[Fraction, ...]

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
        comps = linalg.pmat_vec(phi.extension_matrix, pulled_f, num_vars=phi.target.base_dim)
        return Section(phi.target, PolyMap(phi.target.base_dim, comps))

    image = phi.apply(f)  # P(x) f(x), in source variables
    n_target = phi.target.base_dim
    monos = monomials_up_to(n_target, degree_cap)
    # powers of the base map components, shared across all candidates
    base_powers: list[list[Polynomial]] = [
        [Polynomial.constant(phi.source.base_dim, 1)] for _ in range(n_target)
    ]

    def composed_monomial(exps: tuple[int, ...]) -> Polynomial:
        prod = Polynomial.constant(phi.source.base_dim, 1)
        for i, e in enumerate(exps):
            while len(base_powers[i]) <= e:
                base_powers[i].append(base_powers[i][-1] * phi.base_map[i])
            if e:
                prod = prod * base_powers[i][e]
        return prod

    columns = [composed_monomial(exps) for exps in monos]
    solved_components: list[Polynomial] = []
    for comp_index in range(phi.target.rank):
        target_poly = image[comp_index]
        row_keys = sorted(set(target_poly.terms) | {k for c in columns for k in c.terms})
        a = [
            [col.terms.get(key, Fraction(0)) for col in columns]
            for key in row_keys
        ]
        b = [target_poly.terms.get(key, Fraction(0)) for key in row_keys]
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


@dataclass(frozen=True)
class LinearSubspace:
    """A subspace of R^ambient_dim given by a linearly independent basis."""

    ambient_dim: int
    basis: tuple[tuple[Fraction, ...], ...]

    def __init__(self, ambient_dim: int, basis):
        rows = tuple(tuple(Fraction(v) for v in vec) for vec in basis)
        for vec in rows:
            if len(vec) != ambient_dim:
                raise ValueError("basis vector has wrong length")
        if rows and linalg.rank([list(v) for v in rows]) != len(rows):
            raise ValueError("basis vectors are linearly dependent")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @classmethod
    def graph_of_matrix(cls, s) -> "LinearSubspace":
        """The graph {(v, S v)} inside R^k + R^k for a square matrix S."""
        s = linalg.mat(s)
        k = len(s)
        basis = []
        for i in range(k):
            col = [Fraction(int(j == i)) for j in range(k)]
            basis.append(col + [s[r][i] for r in range(k)])
        return cls(2 * k, basis)
