"""Import hygiene: the exact commands load only the standard library and
courantlab; numpy arrives with the simulator and changes none of its bytes.

Each check runs in a fresh interpreter, because the test process itself
has numpy loaded.  The snapshot of `sys.modules` is taken before
`courantlab.cli` is imported, since `site` may already have loaded
third-party modules of the environment.
"""

import json
import subprocess
import sys
from pathlib import Path

SCENE = Path(__file__).resolve().parent.parent / "demos" / "scenes" / "oscillator.json"

EXACT_COMMANDS = {
    "axioms": ["axioms", "--structure", "standard2"],
    "leibniz": ["leibniz", "--structure", "standard2"],
    "intrinsic": ["intrinsic", "--n", "2", "--m", "1"],
    "dirac": ["dirac", "--scene", str(SCENE), "--system", "oscillator"],
}

RECORD = """
import contextlib, io, json, sys
before = set(sys.modules)
from courantlab import cli
records = {"import": [0, sorted(set(sys.modules) - before)]}
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    records[name] = [code, sorted(set(sys.modules) - before)]
print(json.dumps(records))
"""

SIMULATE = """
import sys
if sys.argv[2] == "numpy-first":
    import numpy
from courantlab import cli
code = cli.main(["simulate", "--scene", sys.argv[3], "--system", "oscillator",
                 "--input", "ramp", "--x0", "1,-0.5", "--T", "0.3", "--h", "0.001",
                 "--out", sys.argv[1]])
print(code, "numpy" in sys.modules)
"""


def _python(source, *args) -> str:
    result = subprocess.run([sys.executable, "-c", source, *args],
                            capture_output=True, text=True, check=True)
    return result.stdout


def _foreign(modules):
    """The modules that are neither standard library nor courantlab."""
    return [name for name in modules
            if name.partition(".")[0] not in sys.stdlib_module_names
            and name.partition(".")[0] != "courantlab"]


def test_exact_commands_load_only_stdlib_and_courantlab():
    records = json.loads(_python(RECORD, json.dumps(EXACT_COMMANDS)))
    assert list(records) == ["import", *EXACT_COMMANDS]
    # intrinsic --n 2 --m 1 fails its splitting-composite arrow by design
    assert {name: code for name, (code, _) in records.items()} == {
        "import": 0, "axioms": 0, "leibniz": 0, "intrinsic": 1, "dirac": 0}
    assert "courantlab.cli" in records["import"][1]
    for name, (_, modules) in records.items():
        assert _foreign(modules) == [], name
        assert "numpy" not in modules, name


def test_simulate_loads_numpy_and_writes_the_same_bytes(tmp_path):
    lazy, eager = tmp_path / "lazy.csv", tmp_path / "eager.csv"
    assert _python(SIMULATE, str(lazy), "fresh", str(SCENE)).split() == ["0", "True"]
    assert _python(SIMULATE, str(eager), "numpy-first", str(SCENE)).split() == ["0", "True"]
    assert lazy.read_bytes() == eager.read_bytes()
    assert lazy.read_bytes().count(b"\n") == 302
