"""Pullback of a Courant algebroid structure along an injective morphism.

Given an ambient structure on E over R^N and an injective bundle morphism
phi: E' -> E whose polynomial base map phi0 comes with a polynomial
retraction r (r o phi0 = id), the pullback structure on E' exists exactly
when

  (a) the anchor is tangent to the image:
      (I - J_phi0(x) J_r(phi0(x))) A(phi0(x)) P(x) = 0,
  (b) the induced pairing G'(x) = P(x)^T G P(x) is nondegenerate
      (its determinant must be a nonzero constant; the structure
      representation additionally needs G' itself constant),
  (c) sections valued in the image are involutive: every bracket of the
      extended frame sections e^_i = phi o e'_i o r lands, along the image,
      in the column space of P.

The construction then reads the anchor, pairing, and structure functions
off the extended frame sections:

  A'(x) = J_r(phi0(x)) A(phi0(x)) P(x),      G' = P^T G P,
  P(x) c'_ij(x) = [[e^_i, e^_j]](phi0(x)),   solved exactly through the
  projector P G'^-1 P^T G onto the column space of P.

Each problem makes one bracket.  The first use of the frame table (a cached
property of the problem) sums the extended frames with inert tags,
F = sum_i t^i e^_i and F' = sum_j s^j e^_j, on the ambient lifted by two
variables, brackets F with F' once, composes the result once with phi0
(lifted by the identity on the tags) and solves it once through the
projector, whose factors are lifted to the tags too.  The coefficient of
t^i s^j in the solution and in its residual is that of the pair (i, j):
  * every step is R-linear in each frame slot;
  * the lifted anchor has zero rows for the tags and the lifted base map is
    the identity on them, so nothing differentiates or substitutes along a
    tag;
  * distinct pairs land on distinct tag monomials, so no two pairs cancel.
The witness of a bracket leaving the image is the least such pair in
row-major order, the pair a scan over (i, j) would meet first.  Hypothesis
(c), `construct` and both well-definedness tests read that table; the
hypothesis report, the constructed structure, and the induced pairing G'
with its determinant and inverse are cached on the problem the same way, so
each is formed once per problem.  The anchor data along the image,
J_r(phi0(x)), A(phi0(x)) and A(phi0(x)) P(x), are kept on the morphism,
which a morphism check on the same ambient then reads too.

Anchor tangency is checked on image fiber elements (the form used by the
uniqueness proof), not on the image submanifold alone.  Well-definedness is
a testable statement here: the construction must not depend on the choice
of retraction nor on perturbing the extensions by sections vanishing on the
image, and `well_definedness_test` / `extension_perturbation_test` verify
exactly that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .bundles import BundleMorphism, Section, TrivialBundle, _lift_polymap
from .courant_core import AxiomCheck, CourantStructure, lift_structure, random_section
from .morphisms import _image_vanishing_multipliers, check_general_base
from .polyexpr import _BITS, Polynomial, PolyMap, _raw, _unpack, poly_sum

__all__ = [
    "PullbackProblem",
    "HypothesisReport",
    "check_hypotheses",
    "construct",
    "well_definedness_test",
    "extension_perturbation_test",
    "uniqueness_test",
]


@dataclass(frozen=True)
class PullbackProblem:
    """Ambient structure, source bundle, and the connecting morphism."""

    ambient: CourantStructure
    source_bundle: TrivialBundle
    morphism: BundleMorphism

    def __post_init__(self):
        phi = self.morphism
        if phi.source != self.source_bundle:
            raise ValueError("morphism source does not match the source bundle")
        if phi.target != self.ambient.bundle:
            raise ValueError("morphism target does not match the ambient bundle")
        if phi.retraction is None:
            raise ValueError("pullback needs a morphism with a retraction")

    @cached_property
    def _induced_metric(self) -> list[list[Polynomial]]:
        """G'(x) = P(x)^T G P(x), formed once per problem; the k x k zero
        matrix for a morphism into a rank-0 bundle."""
        return self.morphism.induced_metric(self.ambient.metric)

    @cached_property
    def _induced_pairing(self):
        """(G', det G') as exact matrices when G' is constant, else None."""
        if not linalg.pmat_is_constant(self._induced_metric):
            return None
        g = linalg.pmat_constant_value(self._induced_metric)
        return g, linalg.det(g)

    @cached_property
    def _induced_inverse(self):
        """G'^-1; needs a constant nondegenerate induced pairing."""
        return linalg.inverse(self._induced_pairing[0])

    @cached_property
    def _tagged(self):
        """(ambient, base map, solve) over two inert tag variables appended.

        The ambient is `lift_structure(ambient, 2)` and the base map is lifted
        by the identity on the tags.  solve(vec) -> (c, residual) solves
        P(x) c(x) = vec(x) through the exact projector P G'^-1 P^T G, with P,
        P^T G and G'^-1 lifted to the n + 2 variables once per problem.
        Needs a constant nondegenerate induced pairing.
        """
        n = self.source_bundle.base_dim + 2
        g_inv = linalg.pmat_constant(self._induced_inverse, n)
        fiber = linalg.pmat_lift(self.morphism.fiber_matrix, n)
        pt_g = linalg.pmat_mul_constant(linalg.pmat_transpose(fiber), self.ambient.metric, n)

        def solve(vec):
            half = linalg.pmat_vec(pt_g, vec, num_vars=n)
            coeffs = linalg.pmat_vec(g_inv, half, num_vars=n)
            reproduced = linalg.pmat_vec(fiber, coeffs, num_vars=n)
            return coeffs, [a - b for a, b in zip(reproduced, vec)]

        return (lift_structure(self.ambient, 2),
                _lift_polymap(self.morphism.base_map, 2), solve)

    @cached_property
    def _frame_table(self):
        """(structure functions, witness) read off one tagged frame bracket.

        Every step is R-linear in each frame slot, nothing differentiates or
        substitutes along the inert tags, and distinct pairs land on distinct
        tag monomials, so the table equals the pairwise one.  The witness is
        {"frame_pair", "residual"} of the least pair (i, j), in row-major
        order, whose bracket leaves the image, else None.  The structure
        functions are those of the pairs before it, inserted in (i, j, h)
        order.  Needs a constant nondegenerate induced pairing.
        """
        coeffs, residual = _frame_brackets(self, _extended_frames(self))
        first = min((key[:2] for key in residual), default=None)
        witness = None
        if first is not None:
            zero = Polynomial(self.source_bundle.base_dim)
            witness = {
                "frame_pair": list(first),
                "residual": [residual.get((*first, h), zero).to_string()
                             for h in range(self.ambient.bundle.rank)],
            }
        structure_functions = {
            key: coeffs[key] for key in sorted(coeffs) if first is None or key[:2] < first
        }
        return structure_functions, witness

    @cached_property
    def hypotheses(self) -> HypothesisReport:
        """`check_hypotheses` of this problem, computed once."""
        return check_hypotheses(self)

    @cached_property
    def _structure(self) -> CourantStructure:
        """The constructed structure; `construct` checks its gates first.

        Those gates make G' constant with nonzero determinant, and G' =
        P^T G P is symmetric because G is, so the constructor's checks are
        not repeated; the anchor and the structure functions are formed
        over the source base, the latter nonzero by construction.  The
        structure shares the problem's G'^-1.
        """
        phi = self.morphism
        along = phi.anchor_along_image(self.ambient.anchor)[0]
        anchor = linalg.pmat_mul(linalg.pmat_mul(phi.retraction_jacobian, along), phi.fiber_matrix)
        metric = linalg.mat(self._induced_pairing[0])
        structure = object.__new__(CourantStructure)
        structure._fill(self.source_bundle, anchor, metric, dict(self._frame_table[0]),
                        (self._induced_inverse, None, None))
        return structure


@dataclass
class HypothesisReport:
    anchor_tangent: AxiomCheck
    pairing_nondegenerate: AxiomCheck
    sections_involutive: AxiomCheck

    @property
    def all_passed(self) -> bool:
        return (
            self.anchor_tangent.passed
            and self.pairing_nondegenerate.passed
            and self.sections_involutive.passed
        )

    def to_json(self) -> dict:
        return {
            "anchor_tangent": self.anchor_tangent.to_json(),
            "pairing_nondegenerate": self.pairing_nondegenerate.to_json(),
            "sections_involutive": self.sections_involutive.to_json(),
        }


def _extended_frames(p: PullbackProblem) -> list[Section]:
    """e^_i = phi o e'_i o r: the i-th column of P(r(y)), a section of E."""
    pulled = p.morphism.extension_matrix
    big = p.ambient.bundle.base_dim
    frames = []
    for i in range(p.source_bundle.rank):
        comps = [row[i] for row in pulled]
        frames.append(Section(p.ambient.bundle, PolyMap(big, comps)))
    return frames


def _frame_brackets(p: PullbackProblem, frames: list[Section]):
    """(c, residual) of every pair of `frames`, from one tagged bracket.

    Both are {(i, j, h): Polynomial} dicts of the nonzero entries:
    P c_ij = [[f_i, f_j]] o phi0 + residual_ij, read off the coefficient of
    t^i s^j (see the module docstring for why that is exact).
    """
    ambient, base_map, solve = p._tagged
    nn = ambient.bundle.base_dim

    def tagged(tag: int) -> Section:
        powers = [Polynomial.monomial(nn, [i * (v == tag) for v in range(nn)])
                  for i in range(len(frames))]
        return Section(ambient.bundle, PolyMap(nn, [
            poly_sum(nn, (f[c].lift(nn) * powers[i]
                          for i, f in enumerate(frames) if not f[c].is_zero()))
            for c in range(ambient.bundle.rank)
        ]))

    bracket = ambient.bracket(tagged(nn - 2), tagged(nn - 1))
    coeffs, residual = solve([q.compose(base_map) for q in bracket.coeffs])
    n = p.source_bundle.base_dim
    return _split_tags(coeffs, n), _split_tags(residual, n)


def _split_tags(polys: list[Polynomial], n: int) -> dict:
    """{(i, j, h): the coefficient of t^i s^j in polys[h]}, over the first n
    variables; t and s are the last two of n + 2."""
    low = (1 << (_BITS * n)) - 1
    parts: dict[tuple[int, int, int], dict] = {}
    for h, q in enumerate(polys):
        for key, c in q._packed.items():
            i, j = _unpack(key >> (_BITS * n), 2)
            parts.setdefault((i, j, h), {})[key & low] = c
    return {key: _raw(n, terms) for key, terms in parts.items()}


def check_hypotheses(p: PullbackProblem) -> HypothesisReport:
    """Exact yes/no for the three pullback hypotheses, with witnesses."""
    phi = p.morphism
    n = p.source_bundle.base_dim
    big = p.ambient.bundle.base_dim

    # (a) anchor tangency on image fiber elements
    projector = linalg.pmat_mul(phi.base_jacobian, phi.retraction_jacobian, big, n)
    complement = linalg.pmat_sub(linalg.pmat_constant(linalg.identity(big), n), projector)
    anchored = phi.anchor_along_image(p.ambient.anchor)[1]
    tangency_defect = linalg.pmat_mul(complement, anchored)
    if linalg.pmat_is_zero(tangency_defect):
        anchor_check = AxiomCheck(True, "anchor maps image fibers into image tangents")
    else:
        anchor_check = AxiomCheck(
            False,
            "anchor leaves the image tangent spaces",
            {"defect": [[q.to_string() for q in row] for row in tangency_defect]},
        )

    # (b) induced pairing
    induced = p._induced_metric
    if p._induced_pairing is not None:
        g_matrix, determinant = p._induced_pairing
        if determinant != 0:
            pairing_check = AxiomCheck(
                True, f"induced pairing constant with determinant {determinant}"
            )
        else:
            pairing_check = AxiomCheck(
                False,
                "induced pairing is degenerate",
                {"induced_metric": [[str(v) for v in row] for row in g_matrix]},
            )
    else:
        offender = next(
            (i, j)
            for i, row in enumerate(induced)
            for j, q in enumerate(row)
            if not q.is_constant()
        )
        pairing_check = AxiomCheck(
            False,
            "induced pairing is not constant on fibers; entry "
            f"{offender} = {induced[offender[0]][offender[1]]}",
            {"entry": list(offender)},
        )

    # (c) involutivity of image-valued sections, via extended frames
    if pairing_check.passed:
        _, witness = p._frame_table
        if witness is None:
            involutive_check = AxiomCheck(
                True, "frame brackets stay in the image along the base image"
            )
        else:
            involutive_check = AxiomCheck(
                False, "a frame bracket leaves the image", witness
            )
    else:
        involutive_check = AxiomCheck(
            False, "blocked: induced pairing is not constant nondegenerate"
        )

    return HypothesisReport(anchor_check, pairing_check, involutive_check)


def construct(p: PullbackProblem, enforce_hypotheses: bool = True) -> CourantStructure:
    """Build the pullback structure; raises if a hypothesis fails.

    With enforce_hypotheses=False only the computability gates remain (the
    induced pairing must be constant nondegenerate, read from hypothesis (b)
    of the problem's report, and the frame brackets must project without
    residual); anchor tangency is reported by check_hypotheses but not
    required.  Callers taking that road own the well-definedness question.
    """
    if enforce_hypotheses:
        report = p.hypotheses
        if not report.all_passed:
            failed = [
                name
                for name, check in (
                    ("anchor_tangent", report.anchor_tangent),
                    ("pairing_nondegenerate", report.pairing_nondegenerate),
                    ("sections_involutive", report.sections_involutive),
                )
                if not check.passed
            ]
            raise ValueError(f"pullback hypotheses fail: {', '.join(failed)}")
    elif not p.hypotheses.pairing_nondegenerate.passed:
        raise ValueError(p.hypotheses.pairing_nondegenerate.detail)
    witness = p._frame_table[1]
    if witness is not None:
        i, j = witness["frame_pair"]
        raise ValueError(
            f"frame bracket ({i},{j}) left the image despite the hypothesis check"
        )
    return p._structure


def well_definedness_test(p: PullbackProblem, alternative_retraction: PolyMap) -> bool:
    """True iff the construction is identical under another retraction.

    The alternative retraction is validated exactly (r' o phi0 = id);
    an invalid one raises.
    """
    phi = p.morphism
    alt = BundleMorphism(
        phi.source, phi.target, phi.base_map, phi.fiber_matrix,
        retraction=alternative_retraction,
    )
    other = PullbackProblem(p.ambient, p.source_bundle, alt)
    return construct(p) == construct(other)


def extension_perturbation_test(
    p: PullbackProblem, n_perturbations: int = 2, seed: int = 0
) -> bool:
    """True iff the constructed structure survives perturbing the extensions.

    Each round adds to every extended frame section a random section scaled
    by a polynomial vanishing on the image of the base map, then reads the
    structure functions off the perturbed brackets along the image (one
    tagged bracket per round, as for the frame table); the result must be
    identical.  This is the constructive face of the well-definedness
    argument ("f^ + z*h leaves the result unchanged").
    """
    base = construct(p, enforce_hypotheses=False)
    multipliers = _image_vanishing_multipliers(p.morphism)
    if not multipliers:
        return True  # the embedding is onto; extensions are unique
    rng = random.Random(seed)
    frames = _extended_frames(p)
    for _ in range(n_perturbations):
        perturbed = [
            frame + rng.choice(multipliers) * random_section(rng, p.ambient.bundle, 1, terms=1)
            for frame in frames
        ]
        if _frame_brackets(p, perturbed)[0] != base.structure_functions:
            return False
    return True


def uniqueness_test(p: PullbackProblem, candidate: CourantStructure) -> bool:
    """True iff the candidate is the constructed structure and the morphism
    verifies against the ambient from it."""
    if candidate.bundle != p.source_bundle:
        raise ValueError("candidate lives on the wrong bundle")
    if candidate != construct(p):
        return False
    verdict = check_general_base(candidate, p.ambient, p.morphism)
    return verdict.is_morphism


def rejection_condition(p: PullbackProblem, candidate: CourantStructure):
    """Name the morphism condition a deviating candidate violates.

    Evaluated on the frame sections with their retraction-generated related
    representatives: a differing pairing breaks the metric condition, a
    differing frame bracket breaks the bracket condition, a differing anchor
    breaks the anchor-compatibility condition.  Returns (condition, defect)
    or None when the candidate matches the construction.
    """
    return _rejection(construct(p, enforce_hypotheses=False), candidate)


def _rejection(constructed: CourantStructure, candidate: CourantStructure):
    """`rejection_condition` against an already constructed structure."""
    n = constructed.bundle.base_dim
    if candidate.metric != constructed.metric:
        defect = linalg.mat_sub(candidate.metric, constructed.metric)
        return "metric", [[str(v) for v in row] for row in defect]
    if candidate.structure_functions != constructed.structure_functions:
        keys = set(candidate.structure_functions) | set(constructed.structure_functions)
        zero = Polynomial(n)
        diffs = [
            (key, (candidate.structure_functions.get(key, zero)
                   - constructed.structure_functions.get(key, zero)))
            for key in sorted(keys)
        ]
        witness = [(key, d.to_string()) for key, d in diffs if not d.is_zero()]
        return "bracket", witness
    if candidate.anchor != constructed.anchor:
        defect = linalg.pmat_sub(candidate.anchor, constructed.anchor)
        return "anchor", [[q.to_string() for q in row] for row in defect]
    return None
