import random
from fractions import Fraction

import pytest

from courantlab.bundles import (
    BundleMorphism,
    LinearSubspace,
    NonExistenceCertificate,
    Section,
    TrivialBundle,
    check_related,
    compose_morphisms,
    related_section,
)
from courantlab.polyexpr import PolyMap, Polynomial, parse


def line_bundle(n, rank, label="E"):
    return TrivialBundle(n, rank, label)


def cusp_morphism():
    """(x, z) -> (x^2, x^3, z): line bundle over R to a line bundle over R^2."""
    source = TrivialBundle(1, 1, "line/R")
    target = TrivialBundle(2, 1, "line/R^2")
    base = PolyMap.from_exprs(["x1^2", "x1^3"], ["x1"])
    fiber = [[Polynomial.constant(1, 1)]]
    return BundleMorphism(source, target, base, fiber)


class TestApplyMorphism:
    def test_identity(self):
        b = line_bundle(2, 3)
        f = Section.from_exprs(b, ["x1", "x2^2", "1"])
        assert BundleMorphism.identity(b).apply(f) == f.coeffs

    def test_zero_section(self):
        phi = cusp_morphism()
        zero = Section(phi.source, PolyMap.zero(1, 1))
        assert phi.apply(zero).is_zero()

    def test_cusp_image(self):
        # f(x) = (x, x): fiber value x carried over the base image (x^2, x^3)
        phi = cusp_morphism()
        f = Section.from_exprs(phi.source, ["x1"])
        assert phi.apply(f) == PolyMap.from_exprs(["x1"], ["x1"])

    def test_fiberwise_linearity(self):
        rng = random.Random(2)
        phi = cusp_morphism()
        for _ in range(20):
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            f = Section.from_exprs(phi.source, [f"{rng.randint(-3, 3)}*x1^2 + {rng.randint(1, 3)}"])
            g = Section.from_exprs(phi.source, [f"{rng.randint(-3, 3)}*x1 + {rng.randint(-2, 2)}"])
            lhs = phi.apply(a * f + b * g)
            rhs = [a * p + b * q for p, q in zip(phi.apply(f), phi.apply(g))]
            assert list(lhs) == rhs

    def test_respects_composition(self):
        b1 = line_bundle(1, 2)
        b2 = line_bundle(2, 2)
        b3 = line_bundle(2, 1)
        phi1 = BundleMorphism(
            b1, b2,
            PolyMap.from_exprs(["x1", "x1^2"], ["x1"]),
            [[parse("1", ["x1"]), parse("x1", ["x1"])],
             [parse("0", ["x1"]), parse("2", ["x1"])]],
        )
        phi2 = BundleMorphism(
            b2, b3,
            PolyMap.identity(2),
            [[parse("x2", ["x1", "x2"]), parse("1", ["x1", "x2"])]],
        )
        composed = compose_morphisms(phi2, phi1)
        f = Section.from_exprs(b1, ["x1", "1"])
        via_composite = composed.apply(f)
        # stage manually: push phi1's image through phi2's fiber matrix
        # evaluated along phi1's base map
        image1 = phi1.apply(f)
        fiber2_at_source = [
            [p.compose(phi1.base_map) for p in row] for row in phi2.fiber_matrix
        ]
        staged = [
            sum((a * b for a, b in zip(row, image1)), Polynomial(1))
            for row in fiber2_at_source
        ]
        assert list(via_composite) == staged


NEAR_IDENTITY = [["x1", "x2"], ["x2", "x1"], ["2*x1", "x2"], ["x1", "x2 + 1"]]


@pytest.mark.parametrize("exprs", NEAR_IDENTITY)
def test_identity_base_reads_the_whole_map(exprs):
    # phi0 is the identity exactly when it equals PolyMap.identity: a
    # permutation of the variables or a coefficient 2 is not
    plane = line_bundle(2, 1)
    f = PolyMap.from_exprs(exprs, ["x1", "x2"])
    assert BundleMorphism(plane, plane, f, [[1]]).is_identity_base() is (f == PolyMap.identity(2))


@pytest.mark.parametrize("exprs", NEAR_IDENTITY)
def test_retraction_check_reads_the_whole_map(exprs):
    # over the identity base, r o phi0 = r, so the constructor accepts r
    # exactly when it equals PolyMap.identity
    plane = line_bundle(2, 1)
    f = PolyMap.from_exprs(exprs, ["x1", "x2"])
    try:
        BundleMorphism(plane, plane, PolyMap.identity(2), [[1]], retraction=f)
        accepted = True
    except ValueError as exc:
        assert str(exc) == "retraction does not invert the base map: r(phi0(x)) != x"
        accepted = False
    assert accepted is (f == PolyMap.identity(2))


def test_composition_substitutes_the_inner_base_map():
    # the composite's fiber matrix is P_outer(phi0(x)) P_inner(x): along
    # x -> x^2 the outer entry x1 reads x1^2, so the entry is x1^2 + x1, and
    # the composite acts as the two arrows in turn
    line, plane = line_bundle(1, 1), line_bundle(1, 2)
    inner = BundleMorphism(line, plane, PolyMap.from_exprs(["x1^2"], ["x1"]),
                           [[parse("1", ["x1"])], [parse("x1", ["x1"])]])
    outer = BundleMorphism(plane, line, PolyMap.identity(1),
                           [[parse("x1", ["x1"]), parse("1", ["x1"])]])
    composed = compose_morphisms(outer, inner)
    assert composed.fiber_matrix == [[parse("x1^2 + x1", ["x1"])]]
    f = Section.from_exprs(line, ["x1 - 1"])
    staged = [sum((p.compose(inner.base_map) * q for p, q in zip(row, inner.apply(f))),
                  Polynomial(1)) for row in outer.fiber_matrix]
    assert list(composed.apply(f)) == staged


class TestRelatedSections:
    def test_identity_gives_same_section(self):
        b = line_bundle(2, 2)
        f = Section.from_exprs(b, ["x1*x2", "x2^2"])
        g = related_section(BundleMorphism.identity(b), f)
        assert isinstance(g, Section) and g == f

    def test_linear_embedding_with_retraction(self):
        source = line_bundle(1, 1)
        target = line_bundle(2, 1)
        phi = BundleMorphism(
            source, target,
            PolyMap.from_exprs(["x1", "0"], ["x1"]),
            [[parse("x1", ["x1"])]],
            retraction=PolyMap.from_exprs(["x1"], ["x1", "x2"]),
        )
        f = Section.from_exprs(source, ["x1^2 + 1"])
        g = related_section(phi, f)
        assert isinstance(g, Section)
        # g(y1, y2) = P(y1) f(y1), and the relatedness equation holds exactly
        assert g == Section.from_exprs(target, ["x1^3 + x1"])
        assert check_related(phi, f, g)

    def test_retraction_round_trips_check_related(self):
        rng = random.Random(9)
        source = line_bundle(1, 2)
        target = line_bundle(2, 2)
        phi = BundleMorphism(
            source, target,
            PolyMap.from_exprs(["x1", "x1^2"], ["x1"]),
            [[parse("1", ["x1"]), parse("x1", ["x1"])],
             [parse("0", ["x1"]), parse("1", ["x1"])]],
            retraction=PolyMap.from_exprs(["x1"], ["x1", "x2"]),
        )
        for _ in range(10):
            f = Section.from_exprs(
                source,
                [f"{rng.randint(-3, 3)}*x1^{rng.randint(1, 3)} + {rng.randint(-2, 2)}"
                 for _ in range(2)],
            )
            g = related_section(phi, f)
            assert check_related(phi, f, g)

    def test_cusp_has_no_polynomial_related_section(self):
        phi = cusp_morphism()
        f = Section.from_exprs(phi.source, ["x1"])
        for cap in range(1, 9):
            cert = related_section(phi, f, degree_cap=cap)
            assert isinstance(cert, NonExistenceCertificate)
            assert cert.degree_cap == cap
            assert cert.verify()  # farkas @ A = 0 and farkas @ b != 0, exactly

    def test_search_without_retraction_can_succeed(self):
        # along an honest polynomial section of the base map there is a solution
        source = line_bundle(1, 1)
        target = line_bundle(2, 1)
        phi = BundleMorphism(
            source, target,
            PolyMap.from_exprs(["x1", "x1^2"], ["x1"]),
            [[Polynomial.constant(1, 1)]],
        )
        f = Section.from_exprs(source, ["x1^2 + 3"])
        g = related_section(phi, f, degree_cap=2)
        assert isinstance(g, Section)
        assert check_related(phi, f, g)


class TestCheckRelated:
    def test_identity_pairs(self):
        b = line_bundle(1, 2)
        f = Section.from_exprs(b, ["x1", "1"])
        ident = BundleMorphism.identity(b)
        assert check_related(ident, f, f)
        g = Section.from_exprs(b, ["x1", "2"])
        assert not check_related(ident, f, g)

    def test_bundle_mismatch(self):
        b = line_bundle(1, 2)
        other = line_bundle(2, 2)
        with pytest.raises(ValueError):
            check_related(
                BundleMorphism.identity(b),
                Section(b, PolyMap.zero(1, 2)),
                Section(other, PolyMap.zero(2, 2)),
            )


class TestMorphismValidation:
    def test_bad_retraction_rejected(self):
        source = line_bundle(1, 1)
        target = line_bundle(2, 1)
        with pytest.raises(ValueError, match="retraction"):
            BundleMorphism(
                source, target,
                PolyMap.from_exprs(["x1", "0"], ["x1"]),
                [[Polynomial.constant(1, 1)]],
                retraction=PolyMap.from_exprs(["x2"], ["x1", "x2"]),
            )

    def test_shape_validation(self):
        source = line_bundle(1, 2)
        target = line_bundle(1, 1)
        with pytest.raises(ValueError, match="fiber matrix"):
            BundleMorphism(
                source, target, PolyMap.identity(1),
                [[Polynomial.constant(1, 1)]] * 2,
            )


class TestLinearSubspace:
    def test_independence_enforced(self):
        with pytest.raises(ValueError, match="dependent"):
            LinearSubspace(2, [[1, 0], [2, 0]])

    def test_graph_of_matrix(self):
        sub = LinearSubspace.graph_of_matrix([[0, 1], [-1, 0]])
        assert sub.ambient_dim == 4 and sub.dim == 2
