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
the human-readable rendering.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time

from . import intrinsic as intrinsic_mod
from . import morphisms as morphisms_mod
from . import pullback as pullback_mod
from .courant_core import check_axioms, check_degree_cap, check_leibniz, standard_structure
from .phsim import (
    dirac_structure_of,
    project_behavior,
    simulate_interaction,
    simulate_ph,
    write_csv,
)
from .polyexpr import ExponentOverflowError, ParseError, PolyMap, parse
from .scene import Scene, SceneError, load_scene, structure_to_json

_BUILTIN = re.compile(r"^standard(\d+)$")


def _common_flags(sub):
    sub.add_argument("--scene", help="scene JSON file")
    sub.add_argument("--seed", type=int, default=0, help="seed for random sections")
    sub.add_argument("--degree-cap", type=int, default=3,
                     help="degree cap for section families; the axiom and "
                          "morphism certificates and the sweep of the falsified "
                          "Leibniz variant are complete for all smooth sections "
                          "at any cap >= 1, and cap 0 bounds the claim to "
                          "constant sections; the two Leibniz rules hold by the "
                          "bracket's expansion")
    sub.add_argument("--json", action="store_true", help="machine-readable report")
    sub.add_argument("--out", help="write the report or CSV here instead of stdout")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every later
    `main` call in the process; parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="courantlab",
        description="Exact Courant algebroid workbench and port-Hamiltonian simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("axioms", help="check the three Courant axioms")
    _common_flags(p)
    p.add_argument("--structure", required=True,
                   help="scene structure name or builtin standard<N>")

    p = sub.add_parser("leibniz", help="check the bracket Leibniz rules")
    _common_flags(p)
    p.add_argument("--structure", required=True)
    p.add_argument("--samples", type=int, default=100,
                   help="accepted for compatibility and no longer used: the "
                        "rules are certified exactly")

    p = sub.add_parser("morphism", help="classical Courant morphism verdict")
    _common_flags(p)
    p.add_argument("--source", required=True, help="source structure name")
    p.add_argument("--target", required=True, help="target structure name")
    p.add_argument("--map", required=True, dest="map_name", help="morphism name")
    p.add_argument("--pairs", default="auto",
                   help="'auto' or a JSON file with [source_section, target_section] names")

    p = sub.add_parser("pullback", help="pullback hypothesis report and construction")
    _common_flags(p)
    p.add_argument("--ambient", required=True, help="ambient structure name")
    p.add_argument("--morphism", required=True, dest="map_name")
    p.add_argument("--verify-only", action="store_true",
                   help="stop after the hypothesis report")
    p.add_argument("--alt-retraction",
                   help="JSON array of expressions; runs the well-definedness test")

    p = sub.add_parser("intrinsic", help="build the intrinsic structure candidate")
    _common_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--phi", help="JSON file with a constant fiber_matrix for the splitting")

    for name, text in (("simulate", "integrate a port-Hamiltonian system to CSV"),
                       ("project", "interaction run projected to the open behavior")):
        p = sub.add_parser(name, help=text)
        _common_flags(p)
        p.add_argument("--system", required=True)
        p.add_argument("--input", required=True, dest="input_name")
        p.add_argument("--x0", required=True, help="comma-separated initial state")
        if name == "project":
            p.add_argument("--z0", required=True)
        p.add_argument("--T", type=float, required=True, dest="t_final")
        p.add_argument("--h", type=float, required=True, dest="step")

    p = sub.add_parser("dirac", help="check the interconnection graph for maximal isotropy")
    _common_flags(p)
    p.add_argument("--system", required=True)
    return parser


def _load(args) -> Scene:
    if args.scene:
        return load_scene(args.scene)
    return Scene()


def _resolve_structure(scene: Scene, name: str):
    if name in scene.structures:
        return scene.structures[name]
    match = _BUILTIN.match(name)
    if match:
        return standard_structure(int(match.group(1)))
    raise SceneError(f"unknown structure {name!r} (and not a builtin standard<N>)")


def _emit(args, report: dict, human_lines: list[str], elapsed: float) -> None:
    if args.json:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(human_lines + [f"elapsed: {elapsed:.3f}s"]) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _verdict_lines(name: str, verdict) -> list[str]:
    if verdict.is_morphism:
        return [f"{name}: PASS"]
    lines = [f"{name}: FAIL"]
    for failure in verdict.failures:
        lines.append(f"  condition {failure.condition}: defect {failure.defect}")
    return lines


def _capped_structure(args):
    """The named structure, once the requested --degree-cap is accepted for it."""
    structure = _resolve_structure(_load(args), args.structure)
    try:
        check_degree_cap(structure.bundle, args.degree_cap)
    except ValueError as exc:
        raise SceneError(f"--degree-cap: {exc}") from None
    return structure


def _cmd_axioms(args) -> int:
    structure = _capped_structure(args)
    report = check_axioms(structure, degree_cap=args.degree_cap, seed=args.seed)
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


def _cmd_leibniz(args) -> int:
    structure = _capped_structure(args)
    try:
        report = check_leibniz(structure, degree_cap=args.degree_cap)
    except ValueError as exc:
        raise SceneError(f"--degree-cap: {exc}") from None
    ok = report.all_passed
    payload = {
        "command": "leibniz",
        "structure": args.structure,
        "seed": args.seed,
        "report": report.to_json(),
        "exit_code": 0 if ok else 1,
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
    if args.pairs == "auto":
        if phi.is_identity_base():
            verdict = morphisms_mod.check_identity_base(
                s1, s2, phi, degree_cap=args.degree_cap
            )
        else:
            verdict = morphisms_mod.check_general_base(
                s1, s2, phi, degree_cap=args.degree_cap, seed=args.seed
            )
    else:
        try:
            with open(args.pairs) as fh:
                named = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SceneError(f"cannot read pairs file: {exc}") from exc
        pairs = []
        for entry in named:
            try:
                src_name, tgt_name = entry
                pairs.append((scene.sections[src_name], scene.sections[tgt_name]))
            except (KeyError, TypeError, ValueError) as exc:
                raise SceneError(f"bad pair entry {entry!r}") from exc
        try:
            verdict = morphisms_mod.check_general_base(
                s1, s2, phi, pairs=pairs, degree_cap=args.degree_cap, seed=args.seed
            )
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
        lines.append(json.dumps(payload["structure"], sort_keys=True, indent=2))
        if args.alt_retraction:
            try:
                exprs = json.loads(args.alt_retraction)
                names = [f"x{i + 1}" for i in range(phi.target.base_dim)]
                alt = PolyMap(
                    phi.target.base_dim, [parse(e, names) for e in exprs]
                )
            except (json.JSONDecodeError, ParseError, TypeError) as exc:
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
    splitting = None
    if args.phi:
        try:
            with open(args.phi) as fh:
                spec = json.load(fh)
            rows = spec["fiber_matrix"]
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise SceneError(f"cannot read splitting file: {exc}") from exc
        size = 2 * args.n + 2 * args.m
        names = [f"x{i + 1}" for i in range(args.n + args.m)]
        matrix = []
        for row in rows:
            out_row = []
            for entry in row:
                poly = parse(str(entry), names)
                if not poly.is_constant():
                    raise SceneError(
                        "non-constant splitting matrices are not supported in v1: "
                        f"entry {entry!r} varies over the total space"
                    )
                out_row.append(poly.constant_value())
            matrix.append(out_row)
        if len(matrix) != size or any(len(r) != size for r in matrix):
            raise SceneError(f"splitting fiber_matrix must be {size} x {size}")
        splitting = intrinsic_mod.SplittingIso(args.n, args.m, matrix)
    result = intrinsic_mod.build_intrinsic(
        args.n, args.m, splitting, degree_cap=args.degree_cap
    )
    unique = intrinsic_mod._uniqueness(result.structure, args.m, seed=args.seed)
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


_HANDLERS = {
    "axioms": _cmd_axioms,
    "leibniz": _cmd_leibniz,
    "morphism": _cmd_morphism,
    "pullback": _cmd_pullback,
    "intrinsic": _cmd_intrinsic,
    "simulate": _cmd_trajectory,
    "project": _cmd_trajectory,
    "dirac": _cmd_dirac,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.degree_cap < 0:
        sys.stderr.write(f"error: --degree-cap must be >= 0, got {args.degree_cap}\n")
        return 2
    started = time.perf_counter()
    try:
        payload, lines = _HANDLERS[args.command](args)
    except (SceneError, ExponentOverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if payload is None:
        return 0
    _emit(args, payload, lines, time.perf_counter() - started)
    return payload["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
