"""Bytes of the `intrinsic` command, pinned against a recorded fixture.

The fixture holds, one line per probe, the exit code and the `--json`
stdout of `intrinsic --n N --m M --seed S` for every n + m <= 4 with
n >= 1, and for n = m = 0, at seeds 0 and 7.  The structure, the chain
verdicts, their witnesses and the uniqueness verdict all reach that JSON,
so any change to the pullback or the chain checks that moves a byte shows
here.

Regenerate it only when an output change is intended:

    PYTHONPATH=src python tests/test_intrinsic_golden.py > tests/data/intrinsic_reports.jsonl
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from courantlab.cli import main

FIXTURE = Path(__file__).resolve().parent / "data" / "intrinsic_reports.jsonl"

SIZES = [(0, 0)] + [(n, m) for n in range(1, 5) for m in range(0, 5 - n)]
PROBES = [(n, m, seed) for seed in (0, 7) for n, m in SIZES]


def probe_name(n, m, seed) -> str:
    return f"n{n}_m{m}_seed{seed}"


def probe_line(n, m, seed) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["intrinsic", "--n", str(n), "--m", str(m),
                     "--seed", str(seed), "--json"])
    return json.dumps({"probe": probe_name(n, m, seed), "exit_code": code,
                       "stdout": out.getvalue()}, sort_keys=True)


EXPECTED = FIXTURE.read_text().splitlines() if FIXTURE.exists() else []


def test_fixture_covers_every_probe():
    assert [json.loads(line)["probe"] for line in EXPECTED] == \
        [probe_name(*p) for p in PROBES]


@pytest.mark.parametrize("index", range(len(PROBES)),
                         ids=[probe_name(*p) for p in PROBES])
def test_intrinsic_bytes(index):
    assert probe_line(*PROBES[index]) == EXPECTED[index]


if __name__ == "__main__":
    for probe in PROBES:
        print(probe_line(*probe))
