"""Per-layer tracing, installed from outside the package.

Each traced function is replaced by a wrapper that records a span on a
stack held in memory: calls, busy time (outermost activations only, so
recursion is not counted twice), self time (the span minus the spans it
caused), and for exact layers the size of the output.  Methods are wrapped
on their class; module functions are rebound in every courantlab module
that imported the name.  `uninstall` restores the originals.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass


def _terms(poly) -> int:
    return len(poly.terms)


def _section_terms(section) -> int:
    return sum(len(p.terms) for p in section)


def _trajectory_steps(trajectory) -> int:
    return len(trajectory.times) - 1


# (module, attribute path, layer name, output size or None).  Two entries
# with one layer name (__mul__ and its alias __rmul__) share one record.
TRACED = [
    ("polyexpr", "Polynomial.__mul__", "polyexpr.mul", _terms),
    ("polyexpr", "Polynomial.__rmul__", "polyexpr.mul", _terms),
    ("polyexpr", "Polynomial.__add__", "polyexpr.add", None),
    ("polyexpr", "Polynomial.__radd__", "polyexpr.add", None),
    ("polyexpr", "Polynomial.__sub__", "polyexpr.sub", None),
    ("polyexpr", "Polynomial.diff", "polyexpr.diff", None),
    ("polyexpr", "Polynomial.compose", "polyexpr.compose", None),
    ("polyexpr", "PolyMap.compose", "polyexpr.polymap_compose", None),
    ("polyexpr", "parse", "polyexpr.parse", None),
    ("courant_core", "check_axioms", "courant_core.check_axioms", None),
    ("courant_core", "check_leibniz", "courant_core.check_leibniz", None),
    ("courant_core", "CourantStructure.bracket", "courant_core.bracket", _section_terms),
    ("courant_core", "CourantStructure.pairing", "courant_core.pairing", None),
    ("courant_core", "CourantStructure.anchor_apply", "courant_core.anchor_apply", None),
    ("courant_core", "CourantStructure.derived_operator", "courant_core.derived_operator", None),
    ("linalg", "pmat_mul", "linalg.pmat_mul", None),
    ("linalg", "solve_with_certificate", "linalg.solve_with_certificate", None),
    ("bundles", "BundleMorphism.apply", "bundles.apply", None),
    ("morphisms", "check_identity_base", "morphisms.check_identity_base", None),
    ("morphisms", "check_general_base", "morphisms.check_general_base", None),
    ("pullback", "check_hypotheses", "pullback.check_hypotheses", None),
    ("pullback", "construct", "pullback.construct", None),
    ("pullback", "well_definedness_test", "pullback.well_definedness_test", None),
    ("pullback", "rejection_condition", "pullback.rejection_condition", None),
    ("intrinsic", "build_intrinsic", "intrinsic.build_intrinsic", None),
    ("intrinsic", "uniqueness_check", "intrinsic.uniqueness_check", None),
    ("phsim", "simulate_ph", "phsim.simulate_ph", _trajectory_steps),
    ("phsim", "simulate_interaction", "phsim.simulate_interaction", _trajectory_steps),
    ("phsim", "project_behavior", "phsim.project_behavior", None),
    ("phsim", "write_csv", "phsim.write_csv", None),
    ("phsim", "dirac_structure_of", "phsim.dirac_structure_of", None),
    ("scene", "load_scene", "scene.load_scene", None),
    ("cli", "main", "cli.main", None),
]

# layers whose output size is a term count (reported as <layer>.terms_out)
TERM_LAYERS = ("polyexpr.mul", "courant_core.bracket")
# layers whose output size is an RK4 step count (summed into phsim.steps)
STEP_LAYERS = ("phsim.simulate_ph", "phsim.simulate_interaction")


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    size_out: int = 0
    depth: int = 0       # live activations, so nested calls add no busy time


class Tracer:
    """Span stack and per-layer totals for one traced pass."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        self._stack: list[list[float]] = []   # one [child seconds] cell per open span
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, size):
        stats = self.stats.setdefault(layer, LayerStats())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            stats.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.depth -= 1
                stats.calls += 1
                stats.self_s += elapsed - cell[0]
                if not stats.depth:
                    stats.busy_s += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if size is not None and result is not NotImplemented:
                stats.size_out += size(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "courantlab" or name.startswith("courantlab.")]
        for module_name, path, layer, size in TRACED:
            home = sys.modules[f"courantlab.{module_name}"]
            if "." in path:
                owner_name, attr = path.split(".")
                owner = getattr(home, owner_name)
                original = owner.__dict__[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original, size))
                continue
            original = getattr(home, path)
            wrapper = self._wrap(layer, original, size)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def counts(self) -> dict[str, int]:
        """The exact work counts: calls per layer, terms out, RK4 steps."""
        out = {f"{layer}.calls": s.calls for layer, s in sorted(self.stats.items())}
        for layer in TERM_LAYERS:
            out[f"{layer}.terms_out"] = self.stats[layer].size_out
        out["phsim.steps"] = sum(self.stats[layer].size_out for layer in STEP_LAYERS)
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric by name: (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for layer, s in sorted(self.stats.items()):
            out[f"{layer}.calls"] = (s.calls, "count")
            out[f"{layer}.busy_s"] = (s.busy_s, "s")
            out[f"{layer}.self_s"] = (s.self_s, "s")
        for name, value in self.counts().items():
            if not name.endswith(".calls"):
                out[name] = (value, "count")
        sim_busy = sum(self.stats[layer].busy_s for layer in STEP_LAYERS)
        steps = out["phsim.steps"][0]
        out["phsim.steps_per_s"] = (steps / sim_busy if sim_busy else 0.0, "1/s")
        return out
