"""Every layer the benchmark tracer wraps still exists in the package, and
every argv the benchmark sends takes the CLI's direct reader.

`bench/layers.py` names the traced functions by module and attribute path,
and its installer looks methods up in their class's own namespace.  A
rename or deletion in `courantlab` would break `bench/run.py --trace 1`
only when a traced run is made, so the names are checked here.  The bench
files are loaded read-only from their paths; nothing is installed.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

from courantlab import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name):
    """bench/<name>.py, from running the file's source: no bytecode is written."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    # dataclasses look their module up in sys.modules while the file runs
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.mark.parametrize("module_name, path", [entry[:2] for entry in
                                                _bench_module("layers").TRACED])
def test_traced_name_resolves(module_name, path):
    home = importlib.import_module(f"courantlab.{module_name}")
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(home, owner_name) if owner_name else home
    target = owner.__dict__.get(attr) if owner_name else getattr(home, attr, None)
    assert callable(target), f"courantlab.{module_name}.{path} is not a function"


@pytest.mark.parametrize("workload", ["certify", "pipeline", "simulate"])
def test_every_benchmark_argv_is_read_directly(workload):
    # the commands the benchmark times parse their argv without argparse's
    # matcher, so a gain measured there is the direct reader's
    workloads = _bench_module("workloads")
    for seed in (1, 2, 3):
        for cycle in (0, 1):
            for op in workloads.make_cycle(workload, seed, cycle):
                command, *argv = op.argv
                assert cli._read(command, argv) is not None, op.argv
