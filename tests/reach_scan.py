"""Which functions of `courantlab` no command, criterion or demo reaches.

Runs the command-level tests in this interpreter, `test_acceptance.py`,
`test_scene_cli.py` and `test_replay.py` (which replays every bench op
in-process), and then both demos through `runpy`, all under
`sys.setprofile` and `threading.setprofile`.  `test_demos.py` starts the
demos as subprocesses, which a profiler does not follow, so they run here
instead.  Every function and method defined in `src/courantlab` whose code
never ran is a unit nothing reaches; each one stays only with its reason in
`KEPT`.  The script prints the kept units with their reasons and exits 1 on
any other unreached unit, on a `KEPT` name that is no unit, or on a failing
test or demo.

Run from the repository root:

    PYTHONPATH=src python tests/reach_scan.py

pytest does not collect it: its name does not match `test_*.py`.
"""

import ast
import contextlib
import io
import runpy
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "courantlab"
COMMAND_TESTS = ["test_acceptance.py", "test_scene_cli.py", "test_replay.py"]
DEMOS = ["01_exact_polynomials.py", "02_standard_structure_and_axioms.py"]

VIEW = "a view the tests read"
CHECKS_INPUT = "a public constructor that checks its input"
DUNDER = "a dunder of a public record"
ITEM_8 = "ROADMAP item 8 builds the graph oracle in E1 x E2-bar with it"

# module.qualname -> why the unit stays though nothing above reaches it
KEPT = {
    "bundles.BundleMorphism.__repr__": DUNDER,
    "bundles.BundleMorphism.fiber_matrix": VIEW,
    "bundles.LinearSubspace.__init__": CHECKS_INPUT,
    "bundles.Section.__getitem__": DUNDER,
    "bundles.Section.__repr__": DUNDER,
    "bundles.Section.is_zero": VIEW,
    "bundles.TrivialBundle.__hash__": DUNDER,
    "bundles.TrivialBundle.__repr__": DUNDER,
    "courant_core.product_structure": ITEM_8,
    "courant_core.product_structure.<locals>.block": ITEM_8,
    "courant_core.product_structure.<locals>.lifted": ITEM_8,
    "intrinsic.SplittingIso.__init__": CHECKS_INPUT,
    "intrinsic.SplittingIso.fiber_matrix": VIEW,
    "linalg.det": "ROADMAP items 2 and 11 read it",
    "linalg.identity": "the dense identity the tests build frame data from",
    "linalg.rank": "ROADMAP items 2 and 11 read it, and so does the LinearSubspace check",
    "morphisms._first_slot": "`morphism` over a general base reads it for a failing pair whose "
                             "first member has degree 1; the degree-1 sweeps of "
                             "test_morphisms.py reach it",
    "phsim.BalanceReport.to_json": "ROADMAP item 5 prints it",
    "phsim.InputSignal.__repr__": DUNDER,
    "phsim.PHSystem.__repr__": DUNDER,
    "polyexpr.Frozen.__setattr__": "a dunder: it refuses every assignment to a record",
    "polyexpr.PolyMap.__hash__": DUNDER,
    "polyexpr.PolyMap.__repr__": DUNDER,
    "polyexpr.PolyMap.eval": VIEW,
    "polyexpr.PolyMap.is_zero": VIEW,
    "polyexpr.Polynomial.__hash__": DUNDER,
    "polyexpr.Polynomial.__repr__": DUNDER,
    "polyexpr.Polynomial.constant_value": VIEW,
    "polyexpr.Polynomial.degree": VIEW,
    "polyexpr.Polynomial.lift": ITEM_8,
}


def units() -> dict:
    """{(path, qualname): (module.qualname, lines)} over every function and
    method defined in the package, nested ones under `<locals>` as Python
    names them."""
    found = {}

    def walk(path, body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                walk(path, node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + node.name
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[str(path), qualname] = (f"{path.stem}.{qualname}",
                                              node.end_lineno - first + 1)
                walk(path, node.body, f"{qualname}.<locals>.")

    for path in sorted(SRC.glob("*.py")):
        walk(path, ast.parse(path.read_text()).body, "")
    return found


def reached() -> set:
    """(path, qualname) of every code object called while the command tests
    and the demos run; exits 2 unless all of them pass."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    class Rearm:
        """Sets the profiler again before each test: an error inside it, such
        as the RecursionError a parser test provokes, unsets it."""

        @staticmethod
        def pytest_runtest_setup(item):
            sys.setprofile(profile)

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              *(str(ROOT / "tests" / name) for name in COMMAND_TESTS)],
                             plugins=[Rearm()])
        for name in DEMOS:
            sys.setprofile(profile)
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(ROOT / "demos" / name), run_name="__main__")
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    if status != 0:
        sys.exit(f"the command tests did not pass (pytest exit {status})")
    return {(code.co_filename, code.co_qualname) for code in seen}


def main() -> int:
    every, ran = units(), reached()
    missed = {name: lines for key, (name, lines) in every.items() if key not in ran}
    named = {name for name, _ in every.values()}
    print(f"\n{len(every)} units in src/courantlab, {len(missed)} unreached "
          f"({sum(missed.values())} lines)")
    for name in sorted(missed):
        print(f"  kept {name} ({missed[name]} lines): {KEPT[name]}" if name in KEPT
              else f"  UNREACHED {name} ({missed[name]} lines)")
    stale = sorted(set(KEPT) - named)
    for name in stale:
        print(f"  NO SUCH UNIT {name}")
    return 1 if stale or set(missed) - set(KEPT) else 0


if __name__ == "__main__":
    sys.exit(main())
