"""The demos run to completion in a fresh interpreter."""
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_exact_polynomials.py",
                                  "02_standard_structure_and_axioms.py"])
def test_demo_exits_cleanly(name):
    result = subprocess.run([sys.executable, str(DEMOS / name)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
