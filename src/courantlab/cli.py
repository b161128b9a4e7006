"""Command-line entry point.

One executable, eight subcommands:

  axioms     exact Courant axiom certification for a named structure
  leibniz    the two Leibniz rules plus the falsified final-slot variant
  morphism   classical-morphism verdict for a scene morphism
  pullback   hypothesis report and pullback construction
  intrinsic  the canonical intrinsic-structure pipeline
  simulate   port-Hamiltonian trajectory (CSV)
  project    interaction-system behavior projection (CSV)
  dirac      whether a system's interconnection graph is Dirac (isotropic,
             half rank, closed)

Exit codes: 0 all requested verdicts pass, 1 a verification failed,
2 input or schema error, or an --out that cannot be written (the file is
opened once the command's work is done).  JSON reports (--json) are canonical: keys are
sorted and nothing time- or machine-dependent is included, so identical
inputs and seeds produce byte-identical output.  Timing appears only in
the human-readable rendering.  `simulate` and `project` write CSV and take
only --scene and --out of the shared flags.

`project` writes the interaction run from (x0, z0) projected by
(x, z) -> (x, -dz/dt), and those are the open run's rows from x0, bit for
bit, so both commands run `simulate_ph` and write its rows:
  - the x statements of the interaction loop compute the open loop's floats:
    z never feeds back into x, and sharing a term with Y is exact (`phsim`);
  - the outputs Y(x_k) are emitted the same way in both loops, by the
    stage-1 family at each grid row and by Y alone after the last step;
  - -dz/dt = -(-Y) is Y bit for bit, a sign flipped twice, NaNs included.
So no CSV byte depends on z0.  `project` still reads and checks --z0 before
the run, with the same error lines and exit codes.

The --json bytes, and the structure `pullback` prints, equal what the json
module's dumps(report, sort_keys=True, indent=2) writes, and `_canonical`
writes them: a report holds only dicts with str keys, lists, tuples, str,
int, bool and None, so one walk joins the pieces, sorting keys and quoting
strings with the C `encode_basestring_ascii`.  dumps with an indent would
take the json module's pure-Python encoder instead.  Anything else in a
report raises TypeError.

`main` reads a plain argv without building a parser: each command's flags
are declared once, as data (`_FLAGS`), and `_read` reads an argv whose
first argument names a command and whose flags are exact, each given once
with its value and every required one present, straight from that table.
Only an argv `_read` declines (--help, an abbreviation, an error, an
option before the command) builds a parser from the same table: the
top-level parser with every command's.  So every error line, help text and
exit code is argparse's, and a plain argv imports no `locale`, which
argparse's first message does.

Every structure name is read by one resolver, `_resolve_structure`: a
scene structure, else a builtin standard<N>, whose rank 2N it bounds by
the largest rank of a scene bundle before the structure is built.  No
--degree-cap is too large: every certificate decides at the degree
`courant_core._decided_scope` reads off the cap.
Every other scene object is looked up by `_named`, which names an unknown
one.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
import time
from json.encoder import encode_basestring_ascii as _quote

from . import intrinsic as intrinsic_mod
from . import morphisms as morphisms_mod
from . import pullback as pullback_mod
from .bundles import _checked_retraction
from .courant_core import check_axioms, check_leibniz, standard_structure
from .phsim import dirac_structure_of, simulate_ph, write_csv
from .polyexpr import ExponentOverflowError
from .scene import (MAX_BUNDLE_DIMENSION, Scene, SceneError, _fields, _polymap, _rational, _row,
                    _shown, _vars, load_scene, read_json, structure_to_json)

_BUILTIN = re.compile(r"^standard(\d+)$")
# the largest n + m of `intrinsic`: TE (+) T*E has rank 2(n + m), at most
# the largest rank of a scene bundle
MAX_INTRINSIC_DIMENSION = MAX_BUNDLE_DIMENSION // 2
# the most RK4 steps of `simulate` and `project`: each state and output
# coordinate keeps one float per grid row
MAX_STEPS = 10 ** 6
# the most floats those grid buffers hold in one run, (steps + 1) times the
# n + m coordinates kept: 80 MB
MAX_GRID_VALUES = 10 ** 7


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors honour the exit-code contract: one
    `error:` line on stderr and exit code 2, with no usage lines.  The
    subcommand parsers are built from the same class, and only for an argv
    `_read` declines."""

    def error(self, message):
        sys.stderr.write(f"error: {message}\n")
        sys.exit(2)


# Each command's flags, declared once: option -> (dest, type, required,
# default, help).  The type `bool` marks a store_true flag, None a string
# flag; a default is the value it stands for, as argparse would convert a
# string default through the type.  `_read` reads a plain argv from this
# table and argparse's parsers are built from it.
_FILES = {"--scene": ("scene", None, False, None, "scene JSON file"),
          "--out": ("out", None, False, None, "write the report or CSV here instead of stdout")}
_JSON = {"--json": ("json", bool, False, False, "machine-readable report")}
_VERDICT = {**_FILES,
            "--seed": ("seed", int, False, 0, "echoed in --json; no verdict depends on it"),
            "--degree-cap": ("degree_cap", int, False, 3, "degree cap for section families; "
                             "each verdict's detail names the degree it decided and its "
                             "scope"),
            **_JSON}
_TRAJECTORY = {**_FILES, "--system": ("system", None, True, None, None),
               "--input": ("input_name", None, True, None, None),
               "--x0": ("x0", None, True, None, "comma-separated initial state")}
_TIMES = {"--T": ("t_final", float, True, None, None), "--h": ("step", float, True, None, None)}
_FLAGS = {
    "axioms": {**_VERDICT, "--structure": ("structure", None, True, None,
                                           "scene structure name or builtin standard<N>")},
    "leibniz": {**_VERDICT, "--structure": ("structure", None, True, None, None),
                "--samples": ("samples", int, False, 100,
                              "not read: the rules are certified exactly")},
    "morphism": {**_VERDICT, "--source": ("source", None, True, None, "source structure name"),
                 "--target": ("target", None, True, None, "target structure name"),
                 "--map": ("map_name", None, True, None, "morphism name"),
                 "--pairs": ("pairs", None, False, "auto", "'auto' or a JSON file with "
                             "[source_section, target_section] names")},
    "pullback": {**_FILES, "--seed": ("seed", int, False, 0, "not read: nothing is drawn"),
                 **_JSON, "--ambient": ("ambient", None, True, None, "ambient structure name"),
                 "--morphism": ("map_name", None, True, None, None),
                 "--verify-only": ("verify_only", bool, False, False,
                                   "stop after the hypothesis report"),
                 "--alt-retraction": ("alt_retraction", None, False, None, "JSON array of "
                                      "expressions; runs the well-definedness test")},
    "intrinsic": {**_VERDICT, "--n": ("n", int, True, None, None),
                  "--m": ("m", int, True, None, None),
                  "--phi": ("phi", None, False, None,
                            "JSON file with a constant fiber_matrix for the splitting")},
    "simulate": {**_TRAJECTORY, **_TIMES},
    "project": {**_TRAJECTORY, "--z0": ("z0", None, True, None, "comma-separated initial "
                                        "z, checked; the projection does not depend on it"),
                **_TIMES},
    "dirac": {**_FILES, **_JSON, "--system": ("system", None, True, None, None)},
}


def _read(name: str, argv) -> argparse.Namespace | None:
    """The namespace argparse builds for command `name` from a plain argv,
    read from the flag table; None for any other argv.  An argv is plain
    when every token is a flag of the command, exact and given once, each
    string or typed flag followed by its value or written --flag=value, no
    value after a separate flag starts with "-", no value is "--", no
    store_true flag carries a value, every required flag is given and each
    value converts by its flag's type."""
    flags, values, tokens = _FLAGS[name], {}, iter(argv)
    for token in tokens:
        option, eq, value = token.partition("=")
        flag = flags.get(option)
        if flag is None or flag[0] in values:
            return None
        dest, kind = flag[:2]
        if kind is bool and not eq:
            values[dest] = True
            continue
        # a flag with no token after it reads as followed by a flag
        value = value if eq else next(tokens, "-")
        if kind is bool or value == "--" or value.startswith("-") and not eq:
            return None
        try:
            values[dest] = kind(value) if kind else value
        except ValueError:
            return None
    for dest, _, required, default, _ in flags.values():
        if dest not in values:
            if required:
                return None
            values[dest] = default
    return argparse.Namespace(command=name, **values)


def _with_flags(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """The parser `p` with the flags of command `name` added from the table."""
    for option, (dest, kind, required, default, text) in _FLAGS[name].items():
        p.add_argument(option, dest=dest, help=text, **{"action": "store_true"} if kind is bool
                       else {"type": kind, "required": required, "default": default})
    return p


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser with every command's parser, built on the first
    call; `main` reads it only for an argv `_read` declines.  Parsing never
    changes a parser."""
    parser = _Parser(
        prog="courantlab",
        description="Exact Courant algebroid workbench and port-Hamiltonian simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        _with_flags(sub.add_parser(name, help=text), name)
    return parser


def _parsed(argv) -> argparse.Namespace:
    """argparse's namespace of an argv `_read` declines, from the top-level
    parser.  argparse stores a value "--" as an empty list, which is
    rejected as a missing value."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    for option, (dest, *_) in _FLAGS[args.command].items():
        if type(getattr(args, dest)) is list:
            parser.error(f"argument {option}: expected one argument")
    return args


def _load(args) -> Scene:
    return Scene() if args.scene is None else load_scene(args.scene)


def _resolve_structure(scene: Scene, name: str):
    """The scene structure or builtin standard<N> called `name`.

    A builtin's rank 2N is at most the largest rank of a scene bundle, and
    that is checked before the (2N)^2 metric is formed.  The digit count is
    checked before int(), which refuses a string of more than 4300 digits.
    """
    structure = scene.structures.get(name)
    if structure is not None:
        return structure
    match = _BUILTIN.match(name)
    if not match:
        raise SceneError(f"unknown structure {name!r} (and not a builtin standard<N>)")
    digits = match.group(1).lstrip("0") or "0"
    if len(digits) > 3 or 2 * int(digits) > MAX_BUNDLE_DIMENSION:
        raise SceneError(f"builtin structure {name!r} has rank 2N above "
                         f"{MAX_BUNDLE_DIMENSION}, the largest rank of a scene bundle")
    return standard_structure(int(digits))


def _named(table: dict, kind: str, name: str):
    """The scene's `kind` called `name`, from its table of that kind."""
    if name not in table:
        raise SceneError(f"unknown {kind} {name!r}")
    return table[name]


# the JSON text of each leaf type of a report
_LEAVES = {str: _quote, int: int.__repr__, bool: lambda v: "true" if v else "false",
           type(None): lambda v: "null"}


def _canonical(value, out: list, newline: str = "\n") -> list:
    """Append to `out` the pieces of the json module's dumps(value,
    sort_keys=True, indent=2) and return it; `newline` is the line break and
    indent of the line `value` starts on.  A leaf in a container is written
    in place, and a list of strings with one join."""
    kind = type(value)
    if kind in _LEAVES:
        out.append(_LEAVES[kind](value))
    elif kind is dict or kind is list or kind is tuple:
        inner, brackets = newline + "  ", "{}" if kind is dict else "[]"
        if kind is not dict and value and all(type(x) is str for x in value):
            out += ("[", inner, ("," + inner).join(map(_quote, value)), newline, "]")
            return out
        separator = brackets[0] + inner
        for key in sorted(value) if kind is dict else range(len(value)):
            if kind is dict and type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out += (separator, _quote(key), ": ") if kind is dict else (separator,)
            item = value[key]
            leaf = _LEAVES.get(type(item))
            if leaf is None:
                _canonical(item, out, inner)
            else:
                out.append(leaf(item))
            separator = "," + inner
        out += (newline, brackets[1]) if value else (brackets,)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return out


def _emit(args, report: dict, human_lines: list[str], elapsed: float) -> None:
    if args.json:
        text = "".join(_canonical(report, [])) + "\n"
    else:
        text = "\n".join(human_lines + [f"elapsed: {elapsed:.3f}s"]) + "\n"
    _write_out(args.out, lambda fh: fh.write(text))


def _write_out(path: str | None, write) -> None:
    """write(fh) to the file `path`, or to stdout when --out is not given;
    an OSError opening or writing the file is the one error line of --out."""
    if not path:
        return write(sys.stdout)
    try:
        with open(path, "w") as fh:
            write(fh)
    except OSError as exc:
        raise SceneError(f"cannot write --out {_shown(path)}: {exc}") from None


def _verdict_lines(name: str, verdict) -> list[str]:
    """PASS, or FAIL and a line per failed condition."""
    return [f"{name}: {'PASS' if verdict.is_morphism else 'FAIL'}"] + [
        f"  condition {failure.condition}: defect {failure.defect}"
        for failure in verdict.failures]


def _cmd_axioms(args) -> tuple[dict, list[str]]:
    structure = _resolve_structure(_load(args), args.structure)
    try:
        report = check_axioms(structure, degree_cap=args.degree_cap)
    except ValueError as exc:       # degree-1 tables past MAX_TABLE_WORK
        raise SceneError(str(exc)) from exc
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
    report = check_leibniz(_resolve_structure(_load(args), args.structure),
                           degree_cap=args.degree_cap)
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
    phi = _named(scene.morphisms, "morphism", args.map_name)
    pairs = "auto"
    if args.pairs != "auto":
        named = read_json(args.pairs, "pairs file")
        if not isinstance(named, list):
            raise SceneError(f"pairs file must hold a list of pairs, got {_shown(named)}")
        pairs = []
        for entry in named:
            # a pair is a list of two section names, not any two-item iterable
            if not (type(entry) is list and len(entry) == 2
                    and all(type(name) is str and name in scene.sections for name in entry)):
                raise SceneError(f"bad pair entry {_shown(entry)}")
            pairs.append((scene.sections[entry[0]], scene.sections[entry[1]]))
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
    if args.verify_only and args.alt_retraction is not None:
        raise SceneError("--alt-retraction is tested on the constructed structure, "
                         "which --verify-only does not build")
    scene = _load(args)
    ambient = _resolve_structure(scene, args.ambient)
    phi = _named(scene.morphisms, "morphism", args.map_name)
    alt = None
    if args.alt_retraction is not None:
        # argv holds text; its bytes are read as a file's are
        exprs = read_json(os.fsencode(args.alt_retraction), "--alt-retraction")
        if type(exprs) is not list:
            raise SceneError(f"bad --alt-retraction: expected a JSON array of expressions, "
                             f"got {_shown(exprs)}")
        alt = _polymap(exprs, _vars(phi.target.base_dim), "bad --alt-retraction", {})
        try:
            _checked_retraction(phi.source, phi.target, phi.base_map, alt)
        except ValueError as exc:
            raise SceneError(f"invalid alternative retraction: {exc}") from exc
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
        if alt is not None:
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
    if args.phi is not None:
        # a one-field object whose entries are read as a metric's are
        where, texts, numbers = "splitting file", {}, {}
        spec = _fields(read_json(args.phi, where), {"fiber_matrix": "matrix"}, where, where)
        rows = [_row(row, texts, _rational, where, numbers) for row in spec["fiber_matrix"]]
        try:
            splitting = object.__new__(intrinsic_mod.SplittingIso)._checked(
                args.n, args.m, spec["fiber_matrix"], rows)
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
    values = []
    for v in text.split(",") if text else []:
        try:
            values.append(float(v))
        except ValueError:      # float's own line, with the part cut
            raise SceneError(f"bad {what}: could not convert string to float: "
                             f"{_shown(v)}") from None
    if len(values) != expected:
        raise SceneError(f"{what} must have {expected} components")
    if not all(map(math.isfinite, values)):
        raise SceneError(f"{what} must be finite, got {_shown(text)}")
    return values


def _cmd_trajectory(args):
    """simulate (the open system) and project (the interaction run's
    behavior), both from the open run: the projection's rows are its rows,
    bit for bit (see the module docstring), so `project` checks --z0 and
    never integrates z."""
    scene = _load(args)
    system = _named(scene.ph_systems, "ph_system", args.system)
    signal = _named(scene.inputs, "input", args.input_name)
    x0 = _parse_vector(args.x0, system.n, "--x0")
    if args.command == "project":
        _parse_vector(args.z0, system.m, "--z0")
    for flag, value in (("--T", args.t_final), ("--h", args.step)):
        if not (math.isfinite(value) and value > 0):
            raise SceneError(f"{flag} must be positive and finite, got {value!r}")
    if args.step > args.t_final:
        raise SceneError(f"--h {args.step!r} is longer than the horizon --T {args.t_final!r}")
    if args.t_final / args.step > MAX_STEPS:
        raise SceneError(f"--T / --h must be at most {MAX_STEPS} steps, "
                         f"got --T {args.t_final!r} and --h {args.step!r}")
    # the grid buffers hold steps + 1 rows of the states and the outputs
    columns = system.n + system.m
    values = (max(1, round(args.t_final / args.step)) + 1) * columns
    if values > MAX_GRID_VALUES:
        raise SceneError(f"the run keeps {values} grid values for {columns} coordinates, "
                         f"more than {MAX_GRID_VALUES}")
    try:
        trajectory = simulate_ph(system, signal, x0, args.t_final, args.step)
    except ValueError as exc:
        raise SceneError(f"ph_system {args.system!r}, input {args.input_name!r}: {exc}") from None
    if trajectory.step != args.step:
        sys.stderr.write(f"warning: --h {args.step!r} does not divide --T {args.t_final!r}; "
                         f"the effective step is {trajectory.step!r}\n")
    if trajectory.diverged:
        # the kept last row is the first whose x is not finite
        row = trajectory.x[-1].tolist()
        i = next(i for i, v in enumerate(row) if not math.isfinite(v))
        sys.stderr.write(f"warning: trajectory diverged before the horizon, at step "
                         f"{len(trajectory.times) - 1} (t = {float(trajectory.times[-1])!r}); "
                         f"x{i + 1} is {row[i]!r}\n")
    _write_out(args.out, functools.partial(write_csv, trajectory))
    return None, None


def _cmd_dirac(args):
    scene = _load(args)
    system = _named(scene.ph_systems, "ph_system", args.system)
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
        f"Dirac (isotropic, half rank, closed): {'PASS' if verdict else 'FAIL'}",
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
    "dirac": (_cmd_dirac, "check the graph: Dirac (isotropic, half rank, closed)"),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = argv and argv[0] in _FLAGS and _read(argv[0], argv[1:]) or _parsed(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "degree_cap", 0) < 0:
        sys.stderr.write(f"error: --degree-cap must be >= 0, got {args.degree_cap}\n")
        return 2
    started = time.perf_counter()
    try:
        payload, lines = _COMMANDS[args.command][0](args)
        if payload is not None:
            _emit(args, payload, lines, time.perf_counter() - started)
    except (SceneError, ExponentOverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0 if payload is None else payload["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
