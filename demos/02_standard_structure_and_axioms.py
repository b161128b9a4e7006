"""The standard Courant algebroid and exact axiom certification.

Two independent routes compute the same bracket: explicit Cartan calculus
(Lie brackets, exterior derivatives, contractions) and the Leibniz
expansion of the frame data (anchor, metric, structure functions).  The
axiom checker then certifies the three Courant axioms for all smooth
sections: exact identities on the frame data decide a pass, and a tagged
polynomial identity over the monomial-coefficient frame sections of degree
<= 1 finds a failing tuple when an axiom fails.
"""

import random

from courantlab import (
    Section,
    check_axioms,
    check_leibniz,
    dorfman_bracket,
    scaled_structure,
    standard_structure,
)
from courantlab.courant_core import random_section

s = standard_structure(2)
print(s)
print("anchor row 0:", [str(p) for p in s.anchor[0]])
print("metric:", [[int(v) for v in row] for row in s.metric])

# -- the two bracket routes agree ----------------------------------------------

f = Section.from_exprs(s.bundle, ["x2", "-x1", "0", "0"])   # rotation field
g = Section.from_exprs(s.bundle, ["0", "0", "x1", "0"])     # the form x1 dx1
print("\nCartan route:   ", dorfman_bracket(f, g).coeffs.to_strings())
print("expansion route:", s.bracket(f, g).coeffs.to_strings())

rng = random.Random(0)
agree = all(
    s.bracket(a, b) == dorfman_bracket(a, b)
    for a, b in (
        (random_section(rng, s.bundle, 3), random_section(rng, s.bundle, 3))
        for _ in range(50)
    )
)
print("50 random pairs agree exactly:", agree)

# -- axiom certification ---------------------------------------------------------

report = check_axioms(s, degree_cap=3, n_random=50)
for name, check in report.checks.items():
    print(f"axiom ({name}):", "PASS" if check.passed else "FAIL", "|", check.detail)

# scaling the metric by any nonzero rational preserves all three axioms
for lam in (2, -1, "1/3"):
    from fractions import Fraction
    scaled = scaled_structure(s, Fraction(lam))
    print(f"scaled by {lam}:", check_axioms(scaled, n_random=20).all_passed)

# -- the two-sided Leibniz rule and its falsified variant ------------------------
# The rule [[lam f, mu g]] = lam mu [[f,g]] + lam rho(f)(mu) g
#                            - mu rho(g)(lam) f + <f,g> mu D(lam)
# holds for all smooth f, g, lam, mu by the bracket's expansion, so the checker
# passes it without evaluation.  Replacing the third term's f by g breaks it by
# mu rho(g)(lam) (g - f); the checker sweeps that defect with one tagged
# identity over the degree <= 1 families, complete because it is of order <= 1
# in each argument, and decodes the least failing tuple.

leibniz = check_leibniz(s)
print("\ntwo-sided rule:", "PASS" if leibniz.two_sided.passed else "FAIL")
print("final-slot variant falsified:", leibniz.variant_falsified)
witness = leibniz.variant_witness
print("witness scalars: lam =", witness["lam"], ", mu =", witness["mu"])
