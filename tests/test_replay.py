"""The bytes of every benchmark op, pinned against a recorded fixture.

`bench/workloads.make_cycle` generates the ops the benchmark times.  This
test replays the 186 ops of its three workloads at seeds 1-3, cycles 0 and
1, in-process through `cli.main`, each scene written to `<slot>.json` in a
fresh directory as the benchmark writes it.  Each op's digest is the sha256
of its exit code, its stdout with the human rendering's `elapsed:` line
left out, and its stderr.  A change that moves a verdict, a witness, an
exit code or an output byte of any of those ops shows here.

Regenerate the fixture only when an output change is intended, in a
checkout of the commit whose bytes it pins:

    PYTHONPATH=src python tests/test_replay.py > tests/data/replay_digests.jsonl
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from courantlab import cli
from test_bench_layers import _bench_module

FIXTURE = Path(__file__).resolve().parent / "data" / "replay_digests.jsonl"

CYCLES = [(workload, seed, cycle) for workload in ("certify", "pipeline", "simulate")
          for seed in (1, 2, 3) for cycle in (0, 1)]


def _digest(code, stdout: str, stderr: str) -> str:
    kept = "".join(line for line in stdout.splitlines(keepends=True)
                   if not line.startswith("elapsed:"))
    return hashlib.sha256(json.dumps([code, kept, stderr]).encode()).hexdigest()


def replay(workload: str, seed: int, cycle: int) -> list[str]:
    """One fixture line per op of the cycle, in its order."""
    workloads, lines = _bench_module("workloads"), []
    with tempfile.TemporaryDirectory() as workdir:
        for op in workloads.make_cycle(workload, seed, cycle):
            path = Path(workdir) / f"{op.slot}.json"
            if op.scene is not None:
                path.write_bytes(op.scene)
            argv = [str(path) if arg == workloads.SCENE else arg for arg in op.argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            lines.append(json.dumps({"cycle": cycle, "seed": seed, "slot": op.slot,
                                     "digest": _digest(code, out.getvalue(), err.getvalue()),
                                     "workload": workload}, sort_keys=True))
    return lines


# the fixture's lines, by the cycle they belong to
EXPECTED: dict[tuple, list[str]] = {}
for line in FIXTURE.read_text().splitlines() if FIXTURE.exists() else []:
    record = json.loads(line)
    EXPECTED.setdefault((record["workload"], record["seed"], record["cycle"]), []).append(line)


def test_fixture_covers_186_ops():
    assert list(EXPECTED) == CYCLES
    assert sum(map(len, EXPECTED.values())) == 186


def test_each_projection_has_the_bytes_of_its_open_run():
    # `project` writes the open run's rows (see the cli docstring): each
    # project_* op of a cycle has the digest of its simulate_* twin
    twins = 0
    for lines in EXPECTED.values():
        digests = {record["slot"]: record["digest"] for record in map(json.loads, lines)}
        for slot, digest in digests.items():
            if slot.startswith("project_"):
                assert digest == digests["simulate_" + slot.removeprefix("project_")], slot
                twins += 1
    assert twins == 12


@pytest.mark.parametrize("workload, seed, cycle", CYCLES,
                         ids=[f"{w}-seed{s}-cycle{c}" for w, s, c in CYCLES])
def test_replay_bytes(workload, seed, cycle):
    assert replay(workload, seed, cycle) == EXPECTED[workload, seed, cycle]


if __name__ == "__main__":
    for key in CYCLES:
        print("\n".join(replay(*key)))
