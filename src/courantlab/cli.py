"""Command-line entry point.

One executable, eight subcommands:

  axioms     exact Courant axiom certification for a named structure
  leibniz    the two Leibniz rules plus the falsified final-slot variant
  morphism   classical-morphism verdict for a scene morphism
  pullback   hypothesis report and pullback construction
  intrinsic  the canonical intrinsic-structure pipeline
  simulate   port-Hamiltonian trajectory (CSV)
  project    interaction-system behavior projection (CSV)
  dirac      maximal-isotropy check for a system's interconnection graph

Exit codes: 0 all requested verdicts pass, 1 a verification failed,
2 input or schema error.  JSON reports (--json) are canonical: keys are
sorted and nothing time- or machine-dependent is included, so identical
inputs and seeds produce byte-identical output.  Timing appears only in
the human-readable rendering.  `simulate` and `project` write CSV and take
only --scene and --out of the shared flags.

The --json bytes, and the structure `pullback` prints, equal what the json
module's dumps(report, sort_keys=True, indent=2) writes, and `_canonical`
writes them: a report holds only dicts with str keys, lists, tuples, str,
int, bool and None, so one walk joins the pieces, sorting keys and quoting
strings with the C `encode_basestring_ascii`.  dumps with an indent would
take the json module's pure-Python encoder instead.  Anything else in a
report raises TypeError.

`main` parses argv in one pass: a first argument naming a command goes
straight to that command's parser, which is all that argv builds, and
only any other argv, including --help and an option before the command,
builds the top-level parser with every command's.  Both are built from
one function per command's flags, so every error line, help text and exit
code is argparse's and the same either way.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time
from json.encoder import encode_basestring_ascii as _quote

from . import intrinsic as intrinsic_mod
from . import morphisms as morphisms_mod
from . import pullback as pullback_mod
from .courant_core import (
    check_axioms,
    check_degree_cap,
    check_leibniz,
    standard_bundle,
    standard_structure,
)
from .phsim import (
    dirac_structure_of,
    project_behavior,
    simulate_interaction,
    simulate_ph,
    write_csv,
)
from .polyexpr import ExponentOverflowError, PolyMap
from .scene import Scene, SceneError, _expr, _vars, load_scene, structure_to_json

_BUILTIN = re.compile(r"^standard(\d+)$")
# the largest n + m of `intrinsic`: TE (+) T*E has rank 2(n + m), and the
# splitting matrix 4(n + m)^2 entries
MAX_INTRINSIC_DIMENSION = 64
# the most RK4 steps of `simulate` and `project`: each state, output and z
# coordinate keeps one float per grid row
MAX_STEPS = 10 ** 6
# the most floats those grid buffers hold in one run, (steps + 1) times the
# coordinates kept: 80 MB
MAX_GRID_VALUES = 10 ** 7


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors honour the exit-code contract: one
    `error:` line on stderr and exit code 2, with no usage lines.  The
    subcommand parsers are built from the same class."""

    def error(self, message):
        sys.stderr.write(f"error: {message}\n")
        sys.exit(2)


def _add_flags(p, name: str):
    """Add the flags of command `name` to its parser `p` and return it:
    --scene and --out, --seed, --degree-cap and --json for a command with a
    verdict report, and the command's own."""
    p.add_argument("--scene", help="scene JSON file")
    p.add_argument("--out", help="write the report or CSV here instead of stdout")
    if name in ("simulate", "project"):
        p.add_argument("--system", required=True)
        p.add_argument("--input", required=True, dest="input_name")
        p.add_argument("--x0", required=True, help="comma-separated initial state")
        if name == "project":
            p.add_argument("--z0", required=True)
        p.add_argument("--T", type=float, required=True, dest="t_final")
        p.add_argument("--h", type=float, required=True, dest="step")
        return p
    p.add_argument("--seed", type=int, default=0,
                   help="echoed in --json; no verdict depends on it")
    p.add_argument("--degree-cap", type=int, default=3,
                   help="degree cap for section families; the axiom and "
                        "morphism certificates and the sweep of the falsified "
                        "Leibniz variant are complete for all smooth sections "
                        "at any cap >= 1, and cap 0 bounds the claim to "
                        "constant sections; the two Leibniz rules hold by the "
                        "bracket's expansion")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    if name == "axioms":
        p.add_argument("--structure", required=True,
                       help="scene structure name or builtin standard<N>")
    elif name == "leibniz":
        p.add_argument("--structure", required=True)
        p.add_argument("--samples", type=int, default=100,
                       help="not read: the rules are certified exactly")
    elif name == "morphism":
        p.add_argument("--source", required=True, help="source structure name")
        p.add_argument("--target", required=True, help="target structure name")
        p.add_argument("--map", required=True, dest="map_name", help="morphism name")
        p.add_argument("--pairs", default="auto",
                       help="'auto' or a JSON file with [source_section, target_section] names")
    elif name == "pullback":
        p.add_argument("--ambient", required=True, help="ambient structure name")
        p.add_argument("--morphism", required=True, dest="map_name")
        p.add_argument("--verify-only", action="store_true",
                       help="stop after the hypothesis report")
        p.add_argument("--alt-retraction",
                       help="JSON array of expressions; runs the well-definedness test")
    elif name == "intrinsic":
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--phi", help="JSON file with a constant fiber_matrix for the splitting")
    else:
        p.add_argument("--system", required=True)
    return p


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of command `name`, built on the first call: what the
    top-level parser's `add_parser` makes for it."""
    return _add_flags(_Parser(prog=f"courantlab {name}"), name)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser with every command's parser, built on the first
    call; `main` reads it only for an argv whose first argument names no
    command.  Parsing never changes a parser."""
    parser = _Parser(
        prog="courantlab",
        description="Exact Courant algebroid workbench and port-Hamiltonian simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        _add_flags(sub.add_parser(name, help=text), name)
    return parser


def _load(args) -> Scene:
    return load_scene(args.scene) if args.scene else Scene()


def _resolve_structure(scene: Scene, name: str):
    if name in scene.structures:
        return scene.structures[name]
    match = _BUILTIN.match(name)
    if match:
        return standard_structure(int(match.group(1)))
    raise SceneError(f"unknown structure {name!r} (and not a builtin standard<N>)")


def _canonical(value, out: list, newline: str = "\n") -> list:
    """Append to `out` the pieces of the json module's dumps(value,
    sort_keys=True, indent=2) and return it; `newline` is the line break and
    indent of the line `value` starts on.  A list of strings is written with
    one join."""
    kind = type(value)
    if kind is dict or kind is list or kind is tuple:
        inner, brackets = newline + "  ", "{}" if kind is dict else "[]"
        if kind is not dict and value and all(type(x) is str for x in value):
            out += ("[", inner, ("," + inner).join(map(_quote, value)), newline, "]")
            return out
        separator = brackets[0] + inner
        for key in sorted(value) if kind is dict else range(len(value)):
            if kind is dict and type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out += (separator, _quote(key), ": ") if kind is dict else (separator,)
            _canonical(value[key], out, inner)
            separator = "," + inner
        out += (newline, brackets[1]) if value else (brackets,)
    elif kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None or kind is bool:
        out.append("null" if value is None else "true" if value else "false")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return out


def _emit(args, report: dict, human_lines: list[str], elapsed: float) -> None:
    if args.json:
        text = "".join(_canonical(report, [])) + "\n"
    else:
        text = "\n".join(human_lines + [f"elapsed: {elapsed:.3f}s"]) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _verdict_lines(name: str, verdict) -> list[str]:
    """PASS, or FAIL and a line per failed condition."""
    return [f"{name}: {'PASS' if verdict.is_morphism else 'FAIL'}"] + [
        f"  condition {failure.condition}: defect {failure.defect}"
        for failure in verdict.failures]


def _capped_structure(args):
    """The named structure, once the requested --degree-cap is accepted for it.

    A builtin standard<N> is checked on its bundle before it is built, so a
    rejected cap never forms the (2N)^2 metric.
    """
    scene = _load(args)
    match = args.structure not in scene.structures and _BUILTIN.match(args.structure)
    structure = None if match else _resolve_structure(scene, args.structure)
    try:
        check_degree_cap(standard_bundle(int(match.group(1))) if match else structure.bundle,
                         args.degree_cap)
    except ValueError as exc:
        raise SceneError(f"--degree-cap: {exc}") from None
    return standard_structure(int(match.group(1))) if match else structure


def _cmd_axioms(args) -> tuple[dict, list[str]]:
    structure = _capped_structure(args)
    report = check_axioms(structure, degree_cap=args.degree_cap)
    payload = {
        "command": "axioms",
        "structure": args.structure,
        "degree_cap": args.degree_cap,
        "seed": args.seed,
        "axioms": report.to_json(),
        "exit_code": 0 if report.all_passed else 1,
    }
    lines = [
        f"axiom ({name}): {'PASS' if check.passed else 'FAIL'} [{check.detail}]"
        for name, check in report.checks.items()
    ]
    return payload, lines


def _cmd_leibniz(args) -> tuple[dict, list[str]]:
    # the certificate's cap, min(--degree-cap, SWEEP_ORDER), passes the cap check too
    report = check_leibniz(_capped_structure(args), degree_cap=args.degree_cap)
    payload = {
        "command": "leibniz",
        "structure": args.structure,
        "seed": args.seed,
        "report": report.to_json(),
        "exit_code": 0 if report.all_passed else 1,
    }
    lines = [
        f"second-slot rule: {'PASS' if report.second_slot.passed else 'FAIL'}",
        f"two-sided rule: {'PASS' if report.two_sided.passed else 'FAIL'}",
        f"final-slot variant: {'falsified' if report.variant_falsified else 'not falsified'}",
    ]
    return payload, lines


def _cmd_morphism(args):
    scene = _load(args)
    s1 = _resolve_structure(scene, args.source)
    s2 = _resolve_structure(scene, args.target)
    if args.map_name not in scene.morphisms:
        raise SceneError(f"unknown morphism {args.map_name!r}")
    phi = scene.morphisms[args.map_name]
    pairs = "auto"
    if args.pairs != "auto":
        try:
            with open(args.pairs) as fh:
                named = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise SceneError(f"cannot read pairs file: {exc}") from exc
        if not isinstance(named, list):
            raise SceneError(f"pairs file must hold a list of pairs, got {named!r}")
        pairs = []
        for entry in named:
            try:
                src_name, tgt_name = entry
                pairs.append((scene.sections[src_name], scene.sections[tgt_name]))
            except (KeyError, TypeError, ValueError) as exc:
                raise SceneError(f"bad pair entry {entry!r}") from exc
    try:
        if pairs == "auto" and phi.is_identity_base():
            verdict = morphisms_mod.check_identity_base(s1, s2, phi, degree_cap=args.degree_cap)
        else:
            verdict = morphisms_mod.check_general_base(s1, s2, phi, pairs=pairs,
                                                       degree_cap=args.degree_cap)
    except ValueError as exc:
        raise SceneError(str(exc)) from exc
    payload = {
        "command": "morphism",
        "map": args.map_name,
        "seed": args.seed,
        "verdict": verdict.to_json(),
        "exit_code": 0 if verdict.is_morphism else 1,
    }
    return payload, _verdict_lines(f"morphism {args.map_name}", verdict)


def _cmd_pullback(args):
    scene = _load(args)
    ambient = _resolve_structure(scene, args.ambient)
    if args.map_name not in scene.morphisms:
        raise SceneError(f"unknown morphism {args.map_name!r}")
    phi = scene.morphisms[args.map_name]
    try:
        problem = pullback_mod.PullbackProblem(ambient, phi.source, phi)
    except ValueError as exc:
        raise SceneError(str(exc)) from exc
    report = problem.hypotheses
    payload = {
        "command": "pullback",
        "morphism": args.map_name,
        "hypotheses": report.to_json(),
    }
    lines = [
        f"anchor tangency: {'PASS' if report.anchor_tangent.passed else 'FAIL'}",
        f"pairing nondegenerate: {'PASS' if report.pairing_nondegenerate.passed else 'FAIL'}",
        f"image sections involutive: {'PASS' if report.sections_involutive.passed else 'FAIL'}",
    ]
    ok = report.all_passed
    if ok and not args.verify_only:
        structure = pullback_mod.construct(problem)
        payload["structure"] = structure_to_json(structure, phi.source.label)
        lines.append("constructed structure:")
        lines.append("".join(_canonical(payload["structure"], [])))
        if args.alt_retraction:
            try:
                exprs, names = json.loads(args.alt_retraction), _vars(phi.target.base_dim)
                alt = PolyMap(phi.target.base_dim,
                              [_expr(e, names, "bad --alt-retraction", {}) for e in exprs])
            except (ValueError, RecursionError, TypeError) as exc:
                raise SceneError(f"bad --alt-retraction: {exc}") from exc
            try:
                stable = pullback_mod.well_definedness_test(problem, alt)
            except ValueError as exc:
                raise SceneError(f"invalid alternative retraction: {exc}") from exc
            payload["well_defined"] = stable
            lines.append(f"well-definedness across retractions: {'PASS' if stable else 'FAIL'}")
            ok = ok and stable
    payload["exit_code"] = 0 if ok else 1
    return payload, lines


def _cmd_intrinsic(args):
    for flag, value in (("--n", args.n), ("--m", args.m)):
        if value < 0:
            raise SceneError(f"{flag} must be >= 0, got {value}")
    if args.n + args.m > MAX_INTRINSIC_DIMENSION:
        raise SceneError(f"--n + --m must be at most {MAX_INTRINSIC_DIMENSION}, "
                         f"got {args.n + args.m}")
    splitting = None
    if args.phi:
        try:
            with open(args.phi) as fh:
                spec = json.load(fh)
            rows = spec["fiber_matrix"]
        except (OSError, ValueError, RecursionError, KeyError, TypeError) as exc:
            raise SceneError(f"cannot read splitting file: {exc}") from exc
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise SceneError(f"splitting fiber_matrix must be a list of lists, got {rows!r}")
        names, seen = _vars(args.n + args.m), {}

        def constant(entry):
            poly = _expr(str(entry), names, f"splitting entry {entry!r}", seen)
            if not poly.is_constant():
                raise SceneError(
                    "non-constant splitting matrices are not supported in v1: "
                    f"entry {entry!r} varies over the total space"
                )
            return poly.constant_value()

        matrix = [[constant(entry) for entry in row] for row in rows]
        try:
            splitting = intrinsic_mod.SplittingIso(args.n, args.m, matrix)
        except ValueError as exc:
            raise SceneError(str(exc)) from exc
    result = intrinsic_mod.build_intrinsic(
        args.n, args.m, splitting, degree_cap=args.degree_cap
    )
    unique = intrinsic_mod._uniqueness(result.structure, args.m)
    all_arrows = all(v.is_morphism for v in result.chain_verdicts.values())
    payload = {
        "command": "intrinsic",
        "n": args.n,
        "m": args.m,
        "seed": args.seed,
        "structure": structure_to_json(result.structure, result.structure.bundle.label),
        "chain": result.to_json(),
        "unique": unique,
        "exit_code": 0 if (all_arrows and unique) else 1,
    }
    lines = []
    for name, verdict in result.chain_verdicts.items():
        lines.extend(_verdict_lines(f"arrow {name}", verdict))
    lines.append(f"uniqueness: {'PASS' if unique else 'FAIL'}")
    for note in result.notes:
        lines.append(f"note: {note}")
    return payload, lines


def _parse_vector(text: str, expected: int, what: str):
    try:
        values = [float(v) for v in text.split(",")] if text else []
    except ValueError as exc:
        raise SceneError(f"bad {what}: {exc}") from exc
    if len(values) != expected:
        raise SceneError(f"{what} must have {expected} components")
    if not all(map(math.isfinite, values)):
        raise SceneError(f"{what} must be finite, got {text!r}")
    return values


def _cmd_trajectory(args):
    """simulate (the open system) and project (the interaction run's behavior)."""
    scene = _load(args)
    if args.system not in scene.ph_systems:
        raise SceneError(f"unknown ph_system {args.system!r}")
    system = scene.ph_systems[args.system]
    if args.input_name not in scene.inputs:
        raise SceneError(f"unknown input {args.input_name!r}")
    signal = scene.inputs[args.input_name]
    x0 = _parse_vector(args.x0, system.n, "--x0")
    z0 = _parse_vector(args.z0, system.m, "--z0") if args.command == "project" else None
    for flag, value in (("--T", args.t_final), ("--h", args.step)):
        if not (math.isfinite(value) and value > 0):
            raise SceneError(f"{flag} must be positive and finite, got {value!r}")
    if args.step > args.t_final:
        raise SceneError(f"--h {args.step!r} is longer than the horizon --T {args.t_final!r}")
    if args.t_final / args.step > MAX_STEPS:
        raise SceneError(f"--T / --h must be at most {MAX_STEPS} steps, "
                         f"got --T {args.t_final!r} and --h {args.step!r}")
    # the grid buffers hold steps + 1 rows of the states, the outputs and z
    columns = system.n + system.m + (0 if z0 is None else system.m)
    values = (max(1, round(args.t_final / args.step)) + 1) * columns
    if values > MAX_GRID_VALUES:
        raise SceneError(f"the run keeps {values} grid values for {columns} coordinates, "
                         f"more than {MAX_GRID_VALUES}")
    try:
        if z0 is None:
            trajectory = simulate_ph(system, signal, x0, args.t_final, args.step)
            rows = trajectory
        else:
            trajectory = simulate_interaction(system, signal, x0, z0, args.t_final, args.step)
            rows = project_behavior(trajectory)
    except ValueError as exc:
        raise SceneError(f"ph_system {args.system!r}, input {args.input_name!r}: {exc}") from None
    if trajectory.step != args.step:
        sys.stderr.write(f"warning: --h {args.step!r} does not divide --T {args.t_final!r}; "
                         f"the effective step is {trajectory.step!r}\n")
    if trajectory.diverged:
        sys.stderr.write(f"warning: trajectory overflowed before the horizon, at step "
                         f"{len(trajectory.times) - 1} (t = {float(trajectory.times[-1])!r})\n")
    if args.out:
        with open(args.out, "w") as fh:
            write_csv(rows, fh)
    else:
        write_csv(rows, sys.stdout)
    return None, None


def _cmd_dirac(args):
    scene = _load(args)
    if args.system not in scene.ph_systems:
        raise SceneError(f"unknown ph_system {args.system!r}")
    system = scene.ph_systems[args.system]
    subspace, verdict = dirac_structure_of(system)
    payload = {
        "command": "dirac",
        "system": args.system,
        "dimension": subspace.dim,
        "is_dirac": verdict,
        "exit_code": 0 if verdict else 1,
    }
    lines = [
        f"interconnection graph dimension: {subspace.dim}",
        f"maximally isotropic: {'PASS' if verdict else 'FAIL'}",
    ]
    return payload, lines


# each command's handler and its line in the top-level help, in its order
_COMMANDS = {
    "axioms": (_cmd_axioms, "check the three Courant axioms"),
    "leibniz": (_cmd_leibniz, "check the bracket Leibniz rules"),
    "morphism": (_cmd_morphism, "classical Courant morphism verdict"),
    "pullback": (_cmd_pullback, "pullback hypothesis report and construction"),
    "intrinsic": (_cmd_intrinsic, "build the intrinsic structure candidate"),
    "simulate": (_cmd_trajectory, "integrate a port-Hamiltonian system to CSV"),
    "project": (_cmd_trajectory, "interaction run projected to the open behavior"),
    "dirac": (_cmd_dirac, "check the interconnection graph for maximal isotropy"),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = (_command_parser(argv[0]).parse_args(argv[1:], argparse.Namespace(command=argv[0]))
                if argv and argv[0] in _COMMANDS else _build_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "degree_cap", 0) < 0:
        sys.stderr.write(f"error: --degree-cap must be >= 0, got {args.degree_cap}\n")
        return 2
    started = time.perf_counter()
    try:
        payload, lines = _COMMANDS[args.command][0](args)
    except (SceneError, ExponentOverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if payload is None:
        return 0
    _emit(args, payload, lines, time.perf_counter() - started)
    return payload["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
