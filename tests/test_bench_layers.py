"""Every layer the benchmark tracer wraps still exists in the package.

`bench/layers.py` names the traced functions by module and attribute path,
and its installer looks methods up in their class's own namespace.  A
rename or deletion in `courantlab` would break `bench/run.py --trace 1`
only when a traced run is made, so the names are checked here.  The file is
loaded read-only from its path; nothing is installed.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _traced():
    """TRACED, from running the file's source: no bytecode is written."""
    module = types.ModuleType("bench_layers")
    # dataclasses look their module up in sys.modules while the file runs
    sys.modules[module.__name__] = module
    try:
        exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module.TRACED


@pytest.mark.parametrize("module_name, path", [entry[:2] for entry in _traced()])
def test_traced_name_resolves(module_name, path):
    home = importlib.import_module(f"courantlab.{module_name}")
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(home, owner_name) if owner_name else home
    target = owner.__dict__.get(attr) if owner_name else getattr(home, attr, None)
    assert callable(target), f"courantlab.{module_name}.{path} is not a function"
