"""Witness bytes of the axiom certificate, pinned against a recorded fixture.

The certificate reports the least failing tuple in one order (see
courant_core), which does not depend on term order, with its defect read
from the frame tables and the first nonzero component of that defect;
`conftest.reference_axiom_witness` re-expands a witness through the plain
bracket as the reference.  Each detail names the requested cap, the degree
decided and the scope, and a failing one whether the frame tables or the
slot tables of (i) gave the witness.  The fixture holds, one line per
probe, the canonical JSON of `check_axioms(...).to_json()` for standard(n),
n = 1, 2, 3, with the metric scaled by -2/5 and one structure function
c_ij^h = 3/2, at degree caps 3, 2 and 1.  The least failing tuple is the
same at every cap >= 1, so the three lines of a probe differ only in their
detail text.

Regenerate it only when a witness change is intended:

    PYTHONPATH=src python tests/test_witness_golden.py > tests/data/axiom_witnesses.jsonl
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from courantlab.courant_core import (
    CourantStructure,
    check_axioms,
    monomial_frame_basis,
    scaled_structure,
    standard_structure,
)
from courantlab.polyexpr import _pack

from conftest import _exchanged, lift_structure, tagged_generating_section

FIXTURE = Path(__file__).resolve().parent / "data" / "axiom_witnesses.jsonl"


def probes():
    for n in (1, 2, 3):
        base = scaled_structure(standard_structure(n), Fraction(-2, 5))
        last = 2 * n - 1
        for bump in ((0, 1, 0), (0, 1, last), (last, 0, 1), (1, 1, 0)):
            s = CourantStructure(base.bundle, base.anchor, base.metric, {bump: Fraction(3, 2)})
            for cap in (3, 2, 1):
                yield f"n{n}_c{bump[0]}{bump[1]}{bump[2]}_cap{cap}", s, cap


def probe_line(name, s, cap) -> str:
    report = check_axioms(s, degree_cap=cap).to_json()
    return json.dumps({"probe": name, "report": report}, sort_keys=True)


PROBES = list(probes())
EXPECTED = FIXTURE.read_text().splitlines() if FIXTURE.exists() else []


def test_fixture_covers_every_probe():
    assert [json.loads(line)["probe"] for line in EXPECTED] == [p[0] for p in PROBES]


@pytest.mark.parametrize("index", range(len(PROBES)), ids=[p[0] for p in PROBES])
def test_witness_bytes(index):
    assert probe_line(*PROBES[index]) == EXPECTED[index]


def test_reports_agree_across_caps_but_for_the_detail():
    by_structure = {}
    for line in EXPECTED:
        record = json.loads(line)
        for check in record["report"].values():
            check.pop("detail")
        structure = record["probe"].rsplit("_cap", 1)[0]
        by_structure.setdefault(structure, []).append(record["report"])
    assert len(by_structure) == len(PROBES) // 3
    for structure, reports in by_structure.items():
        assert len(reports) == 3 and reports[0] == reports[1] == reports[2], structure


def term_lists(comps):
    return [list(p.items()) for p in comps]


@pytest.mark.parametrize("cap", [0, 1])
def test_exchanged_tags_are_the_brackets_term_for_term(cap):
    # the sweep of (i) forms [[b, F3]] by exchanging the tag exponents of
    # [[b, F2]]; the exchange keeps even the term order
    for name, s, _ in PROBES[::3]:
        n, k = s.bundle.base_dim, s.bundle.rank
        lifted = lift_structure(s, 2)
        f2, f3 = (lifted._terms(tagged_generating_section(s.bundle, cap, 2, t))
                  for t in (n, n + 1))
        assert term_lists(_exchanged(lifted._bracket(f2, f3), n)) == \
            term_lists(lifted._bracket(f3, f2)), name
        for i, alpha in monomial_frame_basis(s.bundle, cap):
            b = [{_pack(alpha): 1} if c == i else {} for c in range(k)]
            assert term_lists(_exchanged(lifted._bracket(b, f2), n)) == \
                term_lists(lifted._bracket(b, f3)), (name, i, alpha)


if __name__ == "__main__":
    for probe in PROBES:
        print(probe_line(*probe))
