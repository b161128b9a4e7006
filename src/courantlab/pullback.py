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

Each problem brackets its k^2 extended frame pairs once: the first use of
the frame table (a cached property of the problem) brackets every pair,
pulls it back along phi0 and solves it through the projector, stopping at
the first pair whose bracket leaves the image.  Hypothesis (c), `construct`
and both well-definedness tests read that table; the hypothesis report and
the constructed structure are cached on the problem the same way.

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
from fractions import Fraction
from functools import cached_property

from . import linalg
from .bundles import BundleMorphism, Section, TrivialBundle
from .courant_core import AxiomCheck, CourantStructure, random_section
from .morphisms import _image_vanishing_multipliers, check_general_base
from .polyexpr import Polynomial, PolyMap

__all__ = [
    "PullbackProblem",
    "HypothesisReport",
    "check_hypotheses",
    "construct",
    "well_definedness_test",
    "extension_perturbation_test",
    "uniqueness_test",
]

_SAMPLE_COORDS = [0, 1, -1, Fraction(1, 2), 2, Fraction(-1, 3), 3]


def _sample_points(dim: int, count: int = 5):
    pts = []
    for s in range(count):
        pts.append([Fraction(_SAMPLE_COORDS[(s + i) % len(_SAMPLE_COORDS)]) for i in range(dim)])
    return pts


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
        k = self.source_bundle.rank
        if k:
            for point in _sample_points(self.source_bundle.base_dim):
                sampled = linalg.pmat_eval(phi.fiber_matrix, point)
                if linalg.rank(sampled) != k:
                    raise ValueError(
                        f"fiber matrix is column-rank deficient at sample point {point}"
                    )

    @cached_property
    def _frame_table(self):
        """(structure functions, first residual) read off the frame brackets.

        Each pair (i, j) of extended frames is bracketed once, pulled back
        along phi0 and solved for P c'_ij; the scan stops at the first pair
        whose bracket leaves the image, returned as the witness
        {"frame_pair", "residual"}, else the witness is None.  Needs a
        constant nondegenerate induced pairing.
        """
        induced = linalg.pmat_constant_value(_induced_metric(self))
        solve = _fiber_solver(self, linalg.inverse(induced) if induced else [])
        frames = _extended_frames(self)
        base_map = self.morphism.base_map
        structure_functions: dict[tuple[int, int, int], Polynomial] = {}
        for i, ei in enumerate(frames):
            for j, ej in enumerate(frames):
                bracket = self.ambient.bracket(ei, ej)
                coeffs, residual = solve([q.compose(base_map) for q in bracket.coeffs])
                if any(not q.is_zero() for q in residual):
                    return structure_functions, {
                        "frame_pair": [i, j],
                        "residual": [q.to_string() for q in residual],
                    }
                for h, c in enumerate(coeffs):
                    if not c.is_zero():
                        structure_functions[(i, j, h)] = c
        return structure_functions, None

    @cached_property
    def hypotheses(self) -> HypothesisReport:
        """`check_hypotheses` of this problem, computed once."""
        return check_hypotheses(self)

    @cached_property
    def _structure(self) -> CourantStructure:
        """The constructed structure; `construct` checks its gates first."""
        phi = self.morphism
        anchor = linalg.pmat_mul(
            linalg.pmat_mul(
                linalg.pmat_compose(phi.retraction.jacobian(), phi.base_map),
                linalg.pmat_compose(self.ambient.anchor, phi.base_map),
            ),
            phi.fiber_matrix,
        )
        induced = linalg.pmat_constant_value(_induced_metric(self))
        return CourantStructure(self.source_bundle, anchor, induced, self._frame_table[0])


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


def _induced_metric(p: PullbackProblem) -> list[list[Polynomial]]:
    phi = p.morphism
    n = p.source_bundle.base_dim
    return linalg.pmat_mul(
        linalg.pmat_mul(
            linalg.pmat_transpose(phi.fiber_matrix),
            linalg.pmat_constant(p.ambient.metric, n),
        ),
        phi.fiber_matrix,
    )


def _extended_frames(p: PullbackProblem) -> list[Section]:
    """e^_i = phi o e'_i o r: the i-th column of P(r(y)), a section of E."""
    phi = p.morphism
    pulled = linalg.pmat_compose(phi.fiber_matrix, phi.retraction)
    big = p.ambient.bundle.base_dim
    frames = []
    for i in range(p.source_bundle.rank):
        comps = [row[i] if row else Polynomial(big) for row in pulled]
        frames.append(Section(p.ambient.bundle, PolyMap(big, comps)))
    return frames


def _fiber_solver(p: PullbackProblem, g_inv):
    """solve(vec) -> (c, residual): P(x) c(x) = vec(x) through the exact projector.

    The projector's fixed factors P^T G and G'^-1 are built once per solver.
    """
    fiber = p.morphism.fiber_matrix
    n = p.source_bundle.base_dim
    pt_g = linalg.pmat_mul(
        linalg.pmat_transpose(fiber), linalg.pmat_constant(p.ambient.metric, n)
    )
    g_inv_n = linalg.pmat_constant(g_inv, n)

    def solve(vec):
        half = linalg.pmat_vec(pt_g, vec, num_vars=n)
        coeffs = linalg.pmat_vec(g_inv_n, half, num_vars=n)
        reproduced = linalg.pmat_vec(fiber, coeffs, num_vars=n)
        return coeffs, [a - b for a, b in zip(reproduced, vec)]

    return solve


def check_hypotheses(p: PullbackProblem) -> HypothesisReport:
    """Exact yes/no for the three pullback hypotheses, with witnesses."""
    phi = p.morphism
    n = p.source_bundle.base_dim
    big = p.ambient.bundle.base_dim

    # (a) anchor tangency on image fiber elements; over a point the image
    # tangent space is zero and the projector is the zero matrix
    if n == 0:
        projector = linalg.pmat_constant(linalg.zeros(big, big), 0)
    else:
        j_phi0 = phi.base_map.jacobian()
        j_r_at_image = linalg.pmat_compose(phi.retraction.jacobian(), phi.base_map)
        projector = linalg.pmat_mul(j_phi0, j_r_at_image)
    complement = linalg.pmat_sub(linalg.pmat_constant(linalg.identity(big), n), projector)
    anchored = linalg.pmat_mul(
        linalg.pmat_compose(p.ambient.anchor, phi.base_map), phi.fiber_matrix
    )
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
    induced = _induced_metric(p)
    g_const = linalg.pmat_is_constant(induced)
    if g_const:
        g_matrix = linalg.pmat_constant_value(induced)
        determinant = linalg.det(g_matrix)
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
    induced pairing must be constant nondegenerate and the frame brackets
    must project without residual); anchor tangency is reported by
    check_hypotheses but not required.  Callers taking that road own the
    well-definedness question.
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
    else:
        induced = _induced_metric(p)
        if not linalg.pmat_is_constant(induced):
            offender = next(
                (i, j)
                for i, row in enumerate(induced)
                for j, q in enumerate(row)
                if not q.is_constant()
            )
            raise ValueError(
                "induced pairing is not constant on fibers; entry "
                f"{offender} = {induced[offender[0]][offender[1]]}"
            )
        if p.source_bundle.rank and linalg.det(linalg.pmat_constant_value(induced)) == 0:
            raise ValueError("induced pairing is degenerate on the image")
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
    structure functions off the perturbed brackets along the image; the
    result must be identical.  This is the constructive face of the
    well-definedness argument ("f^ + z*h leaves the result unchanged").
    """
    base = construct(p, enforce_hypotheses=False)
    phi = p.morphism
    multipliers = _image_vanishing_multipliers(phi)
    if not multipliers:
        return True  # the embedding is onto; extensions are unique
    rng = random.Random(seed)
    solve = _fiber_solver(p, linalg.inverse(base.metric) if base.metric else [])
    frames = _extended_frames(p)
    zero = Polynomial(base.bundle.base_dim)
    for _ in range(n_perturbations):
        perturbed = [
            frame + rng.choice(multipliers) * random_section(rng, p.ambient.bundle, 1, terms=1)
            for frame in frames
        ]
        for i, ei in enumerate(perturbed):
            for j, ej in enumerate(perturbed):
                bracket = p.ambient.bracket(ei, ej)
                on_image = [q.compose(phi.base_map) for q in bracket.coeffs]
                coeffs, _ = solve(on_image)
                for h, c in enumerate(coeffs):
                    if base.structure_functions.get((i, j, h), zero) != c:
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
