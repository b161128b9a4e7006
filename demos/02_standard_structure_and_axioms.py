"""The standard Courant algebroid and exact axiom certification.

Two independent routes compute the same bracket: explicit Cartan calculus
(Lie brackets, exterior derivatives, contractions) and the Leibniz
expansion of the frame data (anchor, metric, structure functions).  The
axiom checker then certifies the three Courant axioms for all smooth
sections: exact identities on the frame data decide a pass, and a failing
axiom reports its least failing tuple of monomial-coefficient frame
sections of degree <= 1.  Nothing is drawn at random.
"""

from fractions import Fraction

from courantlab import (
    Polynomial,
    Section,
    check_axioms,
    check_leibniz,
    dorfman_bracket,
    scaled_structure,
    standard_structure,
)
from courantlab.courant_core import monomial_frame_basis

s = standard_structure(2)
print(s)
print("anchor row 0:", [str(p) for p in s.anchor[0]])
print("metric:", [[int(v) for v in row] for row in s.metric])

# -- the two bracket routes agree ----------------------------------------------

f = Section.from_exprs(s.bundle, ["x2", "-x1", "0", "0"])   # rotation field
g = Section.from_exprs(s.bundle, ["0", "0", "x1", "0"])     # the form x1 dx1
print("\nCartan route:   ", dorfman_bracket(f, g).coeffs.to_strings())
print("expansion route:", s.bracket(f, g).coeffs.to_strings())

# both brackets are R-bilinear and of order <= 1 in each slot, so agreeing on
# the frame sections x^alpha e_i of degree <= 1 decides it for all sections
family = [Section.frame(s.bundle, i, Polynomial.monomial(s.bundle.base_dim, alpha))
          for i, alpha in monomial_frame_basis(s.bundle, 1)]
agree = all(s.bracket(a, b) == dorfman_bracket(a, b) for a in family for b in family)
print(f"all {len(family) ** 2} pairs of degree-1 frame sections agree exactly:", agree)

# -- axiom certification ---------------------------------------------------------

report = check_axioms(s, degree_cap=3)
for name, check in report.checks.items():
    print(f"axiom ({name}):", "PASS" if check.passed else "FAIL", "|", check.detail)

# scaling the metric by any nonzero rational preserves all three axioms
for lam in (2, -1, "1/3"):
    scaled = scaled_structure(s, Fraction(lam))
    print(f"scaled by {lam}:", check_axioms(scaled).all_passed)

# -- the two-sided Leibniz rule and its falsified variant ------------------------
# The rule [[lam f, mu g]] = lam mu [[f,g]] + lam rho(f)(mu) g
#                            - mu rho(g)(lam) f + <f,g> mu D(lam)
# holds for all smooth f, g, lam, mu by the bracket's expansion, so the checker
# passes it without evaluation.  Replacing the third term's f by g breaks it by
# mu rho(g)(lam) (g - f); that defect is of order <= 1 in each argument, so the
# checker reads its least failing tuple of degree <= 1 off the anchor matrix.

leibniz = check_leibniz(s)
print("\ntwo-sided rule:", "PASS" if leibniz.two_sided.passed else "FAIL")
print("final-slot variant falsified:", leibniz.variant_falsified)
witness = leibniz.variant_witness
print("witness scalars: lam =", witness["lam"], ", mu =", witness["mu"])
