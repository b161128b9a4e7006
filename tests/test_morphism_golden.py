"""Bytes of the `morphism` command, pinned against a recorded fixture.

The fixture holds, one line per probe, the exit code and the `--json`
stdout of `morphism` on the scene `tests/data/morphism_scene.json`, at
degree caps 0, 1 and 3.  The probes cover the identity base and a general
base (zero sections, a translation, a dilation), with morphisms that pass
and morphisms that fail the bracket, the metric or the anchor condition,
so any change to the morphism checks that moves a verdict, a witness or a
defect string shows here.

Regenerate it only when an output change is intended:

    PYTHONPATH=src python tests/test_morphism_golden.py > tests/data/morphism_reports.jsonl
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from courantlab.cli import main

DATA = Path(__file__).resolve().parent / "data"
SCENE = DATA / "morphism_scene.json"
FIXTURE = DATA / "morphism_reports.jsonl"

# (morphism, source structure, target structure)
ARROWS = [
    ("id_identity", "std1", "std1"),
    ("id_identity", "std1", "scaled1"),
    ("id_closed_b_field", "std2", "std2"),
    ("id_doubling", "std1", "std1"),
    ("id_open_b_field", "std3", "std3"),
    ("id_collapse", "std1", "std1"),
    ("gen_zero_section", "std1", "std2"),
    ("gen_zero_section", "std1", "scaled2"),
    ("gen_translation", "std1", "std1"),
    ("gen_translation", "std1", "scaled1"),
    ("gen_cotangent_doubled", "std1", "std2"),
    ("gen_dilation", "std1", "std1"),
    ("gen_tangent_doubled", "std1", "std2"),
    ("gen_tangent_row_doubled", "std1", "std2"),
    ("gen_sheared", "std1", "std2"),
    ("gen_open_b_field", "std3", "std3"),
]
PROBES = [(*arrow, cap) for arrow in ARROWS for cap in (0, 1, 3)]


def probe_name(name, source, target, cap) -> str:
    return f"{name}_{source}_{target}_cap{cap}"


def probe_line(name, source, target, cap) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["morphism", "--scene", str(SCENE), "--source", source,
                     "--target", target, "--map", name, "--degree-cap", str(cap),
                     "--json"])
    return json.dumps({"probe": probe_name(name, source, target, cap), "exit_code": code,
                       "stdout": out.getvalue()}, sort_keys=True)


EXPECTED = FIXTURE.read_text().splitlines() if FIXTURE.exists() else []


def test_fixture_covers_every_probe():
    assert [json.loads(line)["probe"] for line in EXPECTED] == \
        [probe_name(*p) for p in PROBES]


def test_fixture_covers_every_outcome():
    # each base mode has a passing arrow and a failure of every condition
    failed = {"id": set(), "gen": set()}
    passed = set()
    for line in EXPECTED:
        record = json.loads(line)
        mode = record["probe"].split("_")[0]
        verdict = json.loads(record["stdout"])["verdict"]
        if verdict["is_morphism"]:
            passed.add(mode)
        failed[mode] |= {f["condition"] for f in verdict["failures"]}
    assert passed == {"id", "gen"}
    assert failed == {mode: {"bracket", "metric", "anchor"} for mode in failed}


@pytest.mark.parametrize("index", range(len(PROBES)),
                         ids=[probe_name(*p) for p in PROBES])
def test_morphism_bytes(index):
    assert probe_line(*PROBES[index]) == EXPECTED[index]


if __name__ == "__main__":
    for probe in PROBES:
        print(probe_line(*probe))
