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

Each problem reads one frame table, the brackets [[e^_i, e^_j]] o phi0 in
closed form (`morphisms.frame_table`, derived in the `morphisms`
docstring): with Q = J_r(phi0(x)) A(phi0(x)), the constructed anchor Q P,
and w_ij = ((d_l P)^T G P)_ij,

  [[e^_i, e^_j]] o phi0 = sum_abh P_ai P_bj c_ab^h(phi0) e_h
      + sum_l (Q P)_li d_l(P e_j) - sum_l (Q P)_lj d_l(P e_i) + G^-1 Q^T w_ij,

for any frame data with constant symmetric G.  It is formed from the
nonzero factors only, with no lift and no bracket: when P is constant and
c = 0, as for every intrinsic problem, the table is empty at once and the
structure functions vanish.  Each nonzero pair is solved through the
projector.  The witness of a bracket leaving the image is the least such
pair in row-major order, the pair a scan over (i, j) would meet first.
Hypothesis (c), `construct` and both well-definedness tests read that
table.  The table and every matrix along the image, P, P^T G, G' = P^T G P,
A(phi0(x)), A(phi0(x)) P(x), Q and Q P, come from the one record of the
morphism into the ambient (`morphisms.along_image`), formed once and kept
on the morphism, which a morphism check into the same ambient then reads
too; constant data stay exact scalars there.  Hypothesis (a)'s defect is
N A(phi0) P = A(phi0) P - J_phi0 Q P, so N itself is never formed.  The
hypothesis report, the constructed structure, and the determinant and
inverse of G', both read off one row reduction, are cached on the problem,
so each is formed once per problem; the constructed structure takes its
rows, G', G'^-1 and A' = Q P, from the record and the problem.

Anchor tangency is checked on image fiber elements (the form used by the
uniqueness proof), not on the image submanifold alone.  Well-definedness is
a testable statement here: the construction must not depend on the choice
of retraction nor on perturbing the extensions by sections vanishing on the
image.  `well_definedness_test` rebuilds the structure from another
retraction.  The perturbations are decided by hypothesis (a): such a
section is sum_a q_a w_a with q_a = y_a - phi0(r(y))_a, the rows of
N = I - J_phi0 J_r(phi0) are the gradients of the q_a along the image, and
by the Leibniz rules perturbing e^_j by q_a w changes [[e^_i, e^_j]] along
the image by (N A(phi0) P)_ai w, perturbing e^_i changes it by
-(N A(phi0) P)_aj w + <w, P e_j> G^-1 A(phi0)^T N^T e_a, and the projector
maps the last term to <w, P e_j> G'^-1 (N A(phi0) P)^T e_a.  So every
perturbation leaves the structure functions unchanged iff (a) holds: G'^-1
P^T G has full rank, as G' = P^T G P is invertible, so a nonzero entry
(N A(phi0) P)_ai changes c'_ij for some w = e_k.
"""

from __future__ import annotations

from functools import cached_property

from . import linalg
from .bundles import BundleMorphism, TrivialBundle
from .courant_core import AxiomCheck, CourantStructure
from .morphisms import along_image
from .polyexpr import Frozen, Polynomial, PolyMap

__all__ = [
    "PullbackProblem",
    "HypothesisReport",
    "check_hypotheses",
    "construct",
    "well_definedness_test",
    "extension_perturbation_test",
]


class PullbackProblem(Frozen):
    """Ambient structure, source bundle, and the connecting morphism."""

    def __init__(self, ambient: CourantStructure, source_bundle: TrivialBundle,
                 morphism: BundleMorphism):
        if morphism.source != source_bundle:
            raise ValueError("morphism source does not match the source bundle")
        if morphism.target != ambient.bundle:
            raise ValueError("morphism target does not match the ambient bundle")
        if morphism.retraction is None:
            raise ValueError("pullback needs a morphism with a retraction")
        vars(self).update(ambient=ambient, source_bundle=source_bundle, morphism=morphism)

    @cached_property
    def _record(self):
        """The morphism's record along the image into the ambient
        (`morphisms.along_image`), which a check of the morphism into the
        ambient reads too: P, P^T G, G' = P^T G P, Q, Q P and the frame
        table."""
        return along_image(self.ambient, self.morphism)

    @cached_property
    def _induced_pairing(self):
        """(det G', G'^-1 in sparse rows) when G' = P^T G P, the record's
        rows, is constant, else None; G'^-1 is None when det G' = 0, and one
        reduction gives both.  G' is the k x k zero matrix for a morphism
        into a rank-0 bundle."""
        w = self._record.w
        return linalg.det_inverse(w) if linalg.pmat_is_constant(w) else None

    @cached_property
    def _frame_table(self):
        """(structure functions, witness) read off the frame brackets.

        The nonzero brackets [[e^_i, e^_j]] o phi0 come in closed form from
        the record's frame table, with no bracket made; each is solved
        through the projector G'^-1 P^T G.  The witness is {"frame_pair",
        "residual"} of the least pair (i, j), in row-major order, whose
        bracket leaves the image, else None.  The structure functions are
        those of the pairs before it, inserted in (i, j, h) order.  Needs a
        constant nondegenerate induced pairing.
        """
        n, record, g_inv = self.source_bundle.base_dim, self._record, self._induced_pairing[1]
        structure_functions = {}
        for (i, j), vec in sorted(record.table.items()):
            coeffs = linalg.pmat_vec(g_inv, linalg.pmat_vec(record.pt_g, vec))
            residual = [a - b for a, b in zip(linalg.pmat_vec(record.p, coeffs), vec)]
            if not all(map(linalg.is_zero, residual)):
                return structure_functions, {
                    "frame_pair": [i, j], "residual": [str(q) for q in residual]}
            structure_functions.update(((i, j, h), linalg.polynomial(c, n))
                                       for h, c in enumerate(coeffs) if not linalg.is_zero(c))
        return structure_functions, None

    @cached_property
    def hypotheses(self) -> HypothesisReport:
        """`check_hypotheses` of this problem, computed once."""
        return check_hypotheses(self)

    @cached_property
    def _structure(self) -> CourantStructure:
        """The constructed structure; `construct` checks its gates first.

        Those gates make G' constant with nonzero determinant, and G' =
        P^T G P is symmetric because G is, so the constructor's checks are
        not repeated.  The structure is assembled from rows: G' and
        A' = Q P are the record's, G'^-1 is the problem's, and the structure
        functions, formed over the source base, are nonzero by construction.
        """
        record = self._record
        structure = object.__new__(CourantStructure)
        structure._set(self.source_bundle, dict(self._frame_table[0]),
                       (record.w, self._induced_pairing[1], record.qp))
        return structure


class HypothesisReport:
    def __init__(self, anchor_tangent: AxiomCheck, pairing_nondegenerate: AxiomCheck,
                 sections_involutive: AxiomCheck):
        # `vars(self)` keeps this order for `all_passed` and `to_json`
        self.anchor_tangent = anchor_tangent
        self.pairing_nondegenerate = pairing_nondegenerate
        self.sections_involutive = sections_involutive

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in vars(self).values())

    def to_json(self) -> dict:
        return {name: check.to_json() for name, check in vars(self).items()}


def _tangency_defect(p: PullbackProblem) -> list[list]:
    """Hypothesis (a)'s defect N A(phi0(x)) P(x), N = I - J_phi0 J_r(phi0),
    as A(phi0) P - J_phi0 Q P."""
    return p._record.normal(p._record.ap, p._record.qp)


def check_hypotheses(p: PullbackProblem) -> HypothesisReport:
    """Exact yes/no for the three pullback hypotheses, with witnesses."""
    # (a) anchor tangency on image fiber elements
    tangency_defect = _tangency_defect(p)
    if not any(tangency_defect):
        anchor_check = AxiomCheck(True, "anchor maps image fibers into image tangents")
    else:
        anchor_check = AxiomCheck(
            False,
            "anchor leaves the image tangent spaces",
            {"defect": [[str(q) for q in row]
                        for row in linalg.dense(tangency_defect, p.source_bundle.rank)]},
        )

    # (b) induced pairing
    if p._induced_pairing is not None:
        determinant, _ = p._induced_pairing
        if determinant != 0:
            pairing_check = AxiomCheck(
                True, f"induced pairing constant with determinant {determinant}"
            )
        else:
            pairing_check = AxiomCheck(
                False,
                "induced pairing is degenerate",
                {"induced_metric": [[str(v) for v in row] for row in
                                    linalg.dense(p._record.w, p.source_bundle.rank)]},
            )
    else:
        induced = linalg.dense(p._record.w, p.source_bundle.rank)
        offender = next((i, j) for i, row in enumerate(induced) for j, q in enumerate(row)
                        if type(q) is Polynomial and not q.is_constant())
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
            failed = [name for name, check in vars(report).items() if not check.passed]
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
    alt = BundleMorphism(phi.source, phi.target, phi.base_map,
                         linalg.dense(phi.fiber_rows, phi.source.rank), alternative_retraction)
    other = PullbackProblem(p.ambient, p.source_bundle, alt)
    return construct(p) == construct(other)


def extension_perturbation_test(p: PullbackProblem) -> bool:
    """True iff the constructed structure survives every perturbation of the
    extensions by sections vanishing on the image of the base map.

    This is the constructive face of the well-definedness argument
    ("f^ + z*h leaves the result unchanged"), and it holds iff hypothesis
    (a), N A(phi0) P = 0, does: the Leibniz rules put every change of the
    frame brackets along the image, and its projection, in terms of
    N A(phi0) P (see the module docstring).  The structure must be
    constructible, as for `construct` without enforced hypotheses.
    """
    construct(p, enforce_hypotheses=False)
    return p.hypotheses.anchor_tangent.passed


def rejection_condition(p: PullbackProblem, candidate: CourantStructure):
    """Name the morphism condition a deviating candidate violates.

    Evaluated on the frame sections with their retraction-generated related
    representatives: a differing pairing breaks the metric condition, a
    differing frame bracket breaks the bracket condition, a differing anchor
    breaks the anchor-compatibility condition.  Returns (condition, defect)
    or None when the candidate matches the construction; a candidate on a
    bundle of another shape than the source bundle raises ValueError.
    """
    if candidate.bundle != p.source_bundle:
        raise ValueError("candidate lives on the wrong bundle")
    return _rejection(construct(p, enforce_hypotheses=False), candidate)


def _rejection(constructed: CourantStructure, candidate: CourantStructure):
    """`rejection_condition` against an already constructed structure."""
    n, k = constructed.bundle.base_dim, constructed.bundle.rank
    (g1, _, a1), (g2, _, a2) = candidate.rows, constructed.rows
    if g1 != g2:
        return "metric", [[str(x) for x in row]
                          for row in linalg.dense(linalg.pmat_sub(g1, g2), k)]
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
    if a1 != a2:
        return "anchor", [[linalg.polynomial(x, n).to_string() for x in row]
                          for row in linalg.dense(linalg.pmat_sub(a1, a2), k)]
    return None
