"""JSON scene files: named bundles, sections, structures, morphisms, systems.

A scene is one JSON object.  Polynomial expressions use the grammar from
`polyexpr`; base variables are always named x1..xn for the arity the field
demands, and input signals use the single variable t.  Rational numbers are
JSON integers or strings of an optional minus sign and ASCII digits, with
an optional "/" and a nonzero denominator, like "-3/2".

    {
      "schema_version": 1,
      "bundles":    {NAME: {"base_dim": n, "rank": k, "label"?: str}},
      "sections":   {NAME: {"bundle": BUNDLE, "coeffs": [expr, ...]}},
      "courant_structures": {NAME: {
          "bundle": BUNDLE,
          "anchor": [[expr, ...], ...],          # n rows, k columns
          "metric": [[rational, ...], ...],      # k x k, constant
          "structure_functions"?: {"i,j,h": expr, ...}   # 1-based, zero if absent
      }},
      "morphisms":  {NAME: {
          "source": BUNDLE, "target": BUNDLE,
          "base_map": [expr, ...],               # in source base variables
          "fiber_matrix": [[expr, ...], ...],    # target.rank x source.rank
          "retraction"?: [expr, ...]             # in target base variables
      }},
      "ph_systems": {NAME: {"n": n, "m": m, "J": [[rational]],
                            "B": [[rational]], "H": expr, "label"?: str}},
      "inputs":     {NAME: {"u": [expr in t, ...]}}
    }

Loading validates everything eagerly: field shapes, unknown fields and
references, duplicate names and malformed expressions raise SceneError (CLI
exit code 2).  `read_json` reads every outside JSON input, the CLI's flag
files and flag values too, and `_fields` is the one field rule.  Every field's JSON shape is checked before any object is built,
and a bundle's base_dim and rank, and a ph_system's n and m, are bounded by
MAX_BUNDLE_DIMENSION before anything is sized by them.

Each distinct literal is read once per load: an expression once per text
and variable names, a rational once per JSON type and value (so `true`
never reads as 1), an integer without Fraction's string parser.  The
Polynomials and Fractions read are immutable, so the fields that repeat a
literal share one; nothing is kept from one load to the next.  A
structure's anchor and metric are read straight into canonical sparse
rows (`_row`): each distinct text of an anchor, per variable names, and of
a metric is read once to its canonical entry, a scalar, a non-constant
Polynomial or 0 for a zero, and each further entry repeating it is one
dict lookup; no zero is stored.  The rows go to the constructor's checks,
which find every error in the order a dense read would.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .bundles import BundleMorphism, Section, TrivialBundle
from .courant_core import CourantStructure
from .linalg import dense, entry
from .phsim import InputSignal, PHSystem
from .polyexpr import PolyMap, Polynomial, _shown, parse

__all__ = ["Scene", "SceneError", "load_scene", "read_json", "structure_to_json"]

SCHEMA_VERSION = 1
# the largest base_dim and rank of a scene bundle, and n and m of a ph_system,
# checked before a variable name or an entry is formed for them; `intrinsic`
# builds no larger rank (cli.MAX_INTRINSIC_DIMENSION)
MAX_BUNDLE_DIMENSION = 128


class SceneError(Exception):
    """Schema violation, parse failure, or dangling reference."""


class Scene:
    """The named objects of a scene file, one dict per kind."""

    def __init__(self, bundles: dict[str, TrivialBundle] | None = None,
                 sections: dict[str, Section] | None = None,
                 structures: dict[str, CourantStructure] | None = None,
                 morphisms: dict[str, BundleMorphism] | None = None,
                 ph_systems: dict[str, PHSystem] | None = None,
                 inputs: dict[str, InputSignal] | None = None):
        self.bundles = {} if bundles is None else bundles
        self.sections = {} if sections is None else sections
        self.structures = {} if structures is None else structures
        self.morphisms = {} if morphisms is None else morphisms
        self.ph_systems = {} if ph_systems is None else ph_systems
        self.inputs = {} if inputs is None else inputs


class _DuplicateName(ValueError):
    """A name that one object of a JSON text holds twice."""


def _no_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise _DuplicateName(key)
        seen[key] = value
    return seen


# the one decoder of every outside JSON input; json.loads would build one per call
_DECODER = json.JSONDecoder(object_pairs_hook=_no_duplicates)


def read_json(source, what: str):
    """The JSON value of `source`: the path of a file, or the text itself as
    bytes (an argv value).  A file is read once, as bytes.  The bytes are
    decoded as strict UTF-8 with a text reader's newline translation, so
    every error line and position is the one a text reader gives.  A BOM is
    refused, as json.loads refuses it, and so is an object that holds a name
    twice.  Every error is one SceneError naming `what`."""
    try:
        if type(source) is not bytes:
            with open(source, "rb", buffering=0) as fh:
                source = fh.read()
        text = source.decode().replace("\r\n", "\n").replace("\r", "\n")
        if text.startswith("\ufeff"):     # json.loads's check, which decode skips
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except OSError as exc:
        raise SceneError(f"cannot read {what}: {exc}") from exc
    except _DuplicateName as exc:
        raise SceneError(f"duplicate name {_shown(exc.args[0])} in {what}") from None
    except (ValueError, RecursionError) as exc:     # bad JSON or UTF-8, or nested too deep
        raise SceneError(f"{what} is not valid JSON: {exc}") from exc


# a rational text: an optional minus sign, ASCII digits, and an optional
# "/" and digits
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _rational(value, where: str, seen: dict) -> Fraction:
    """The Fraction of an int, or of a string of the form -?p(/q)? in ASCII
    digits with q nonzero, read once per load: `seen` keeps each one read,
    keyed on its JSON type and value, so that `true` never reads as 1."""
    key = (type(value), value) if type(value) in (int, str) else None
    if key in seen:
        return seen[key]
    try:
        if type(value) is int or key and _RATIONAL.fullmatch(value):
            # an integer text skips Fraction's string parser
            seen[key] = number = Fraction(int(value) if type(value) is str and "/" not in value
                                          else value)
            return number
    except (ValueError, ZeroDivisionError):
        pass
    raise SceneError(f"{where}: expected a rational (integer or 'p/q'), got {_shown(value)}")


def _expr(text, variables: tuple, where: str, seen: dict) -> Polynomial:
    """The expression `text` over `variables`, parsed once per load: `seen`
    keeps each one parsed, keyed on the text and the variable names, since
    one text reads differently, or not at all, over other names."""
    if not isinstance(text, str):
        raise SceneError(f"{where}: expected an expression string, got {_shown(text)}")
    key = (text, variables)
    if key not in seen:
        seen[key] = _built(where, parse, text, variables)
    return seen[key]


def _row(row: list, texts: dict, read, *args) -> dict:
    """A matrix row of literals as a canonical sparse row, in column order.
    A text is read by read(text, *args) once per load and `texts` keeps its
    canonical entry, 0 for a zero, so a repeated text costs one lookup.  A
    literal of another type is read each time, through read's own memo, and
    its entry is stored but never looked up: JSON true equals 1."""
    out = {}
    for j, v in enumerate(row):
        x = texts.get(v) if type(v) is str else None
        if x is None:
            x = texts[v] = entry(read(v, *args))
        if x:
            out[j] = x
    return out


def _polymap(texts: list, variables: tuple, where: str, seen: dict) -> PolyMap:
    """The map over `variables` whose outputs are the expressions `texts`."""
    return PolyMap(len(variables), [_expr(text, variables, where, seen) for text in texts])


def _built(where: str, make, *args):
    """make(*args), a ValueError it raises (a ParseError among them), or
    the RecursionError of parentheses nested too deep, raised as a
    SceneError at `where`."""
    try:
        return make(*args)
    except (ValueError, RecursionError) as exc:
        raise SceneError(f"{where}: {exc}") from exc


def _bounded(spec: dict, keys, where: str) -> None:
    """Raise unless every dimension spec[key] is at most MAX_BUNDLE_DIMENSION."""
    for key in keys:
        if spec[key] > MAX_BUNDLE_DIMENSION:
            raise SceneError(f"{where}: {key} must be at most {MAX_BUNDLE_DIMENSION}, "
                             f"got {spec[key]}")


def _vars(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n))


# The fields of each scene section and the JSON shape of each; a trailing
# "?" marks an optional field.  Expressions and rationals inside a field are
# checked where they are parsed.
_FIELDS = {
    "bundles": {"base_dim": "integer", "rank": "integer", "label?": "string"},
    "sections": {"bundle": "string", "coeffs": "list"},
    "courant_structures": {"bundle": "string", "anchor": "matrix", "metric": "matrix",
                           "structure_functions?": "object"},
    "morphisms": {"source": "string", "target": "string", "base_map": "list",
                  "fiber_matrix": "matrix", "retraction?": "list"},
    "ph_systems": {"n": "integer", "m": "integer", "J": "matrix", "B": "matrix",
                   "H": "string", "label?": "string"},
    "inputs": {"u": "list"},
}
_SHAPES = {
    # the JSON integer 1, not true or 1.0
    "version": (str(SCHEMA_VERSION), lambda v: type(v) is int and v == SCHEMA_VERSION),
    "integer": ("an integer", lambda v: type(v) is int),    # JSON true is no dimension
    "string": ("a string", lambda v: isinstance(v, str)),
    "list": ("a list", lambda v: isinstance(v, list)),
    "matrix": ("a list of lists",
               lambda v: isinstance(v, list) and all(isinstance(row, list) for row in v)),
    "object": ("an object", lambda v: isinstance(v, dict)),
}
# the scene root: the schema version and the sections, each optional
_ROOT = {"schema_version": "version", **{f"{section}?": "object" for section in _FIELDS}}


def _fields(spec, fields: dict, where: str, what: str) -> dict:
    """`spec`, once it is an object (`what` names it otherwise) that holds
    every required field of `fields` in its declared shape and no field
    `fields` does not declare."""
    if not isinstance(spec, dict):
        raise SceneError(f"{what} must be an object, got {_shown(spec)}")
    for field, shape in fields.items():
        key = field.rstrip("?")
        if key in spec:
            noun, fits = _SHAPES[shape]
            if not fits(spec[key]):
                raise SceneError(f"{where}: {key} must be {noun}, got {_shown(spec[key])}")
        elif key == field:
            raise SceneError(f"{where}: missing field {key!r}")
    for key in spec:
        if key not in fields and key + "?" not in fields:
            raise SceneError(f"{where}: unknown field {key!r}")
    return spec


def load_scene(path) -> Scene:
    """The scene in the file at `path`, read by `read_json`, its root and
    every entry of each section checked by `_fields`."""
    raw = _fields(read_json(path, "scene file"), _ROOT, "scene", "scene root")
    entries = {section: raw.get(section, {}) for section in _FIELDS}
    for section, named in entries.items():
        for name, spec in named.items():
            _fields(spec, _FIELDS[section], f"{section[:-1]} {name!r}",
                    f"{section} entry {name!r}")
    # the memos of one load: expressions by text and variable names,
    # rationals by JSON type and value, and the canonical entries of anchor
    # texts, per variable names, and of metric texts
    scene, exprs, numbers, anchor_texts, metric_texts = Scene(), {}, {}, {}, {}

    for name, spec in entries["bundles"].items():
        where = f"bundle {name!r}"
        _bounded(spec, ("base_dim", "rank"), where)
        scene.bundles[name] = _built(where, TrivialBundle, spec["base_dim"], spec["rank"],
                                     spec.get("label", name))

    def bundle_ref(name, where) -> TrivialBundle:
        if name not in scene.bundles:
            raise SceneError(f"{where}: reference to unknown bundle {name!r}")
        return scene.bundles[name]

    for name, spec in entries["sections"].items():
        where = f"section {name!r}"
        bundle = bundle_ref(spec["bundle"], where)
        coeffs = spec["coeffs"]
        if len(coeffs) != bundle.rank:
            raise SceneError(f"{where}: coeffs must list {bundle.rank} expressions")
        scene.sections[name] = Section(bundle, _polymap(coeffs, _vars(bundle.base_dim), where,
                                                        exprs))

    for name, spec in entries["courant_structures"].items():
        where = f"courant_structure {name!r}"
        bundle = bundle_ref(spec["bundle"], where)
        names = _vars(bundle.base_dim)
        if len(spec["anchor"]) != bundle.base_dim:
            raise SceneError(f"{where}: anchor must have {bundle.base_dim} rows")
        # written as canonical sparse rows as they are read
        anchor = [_row(row, anchor_texts.setdefault(names, {}), _expr, names, where, exprs)
                  for row in spec["anchor"]]
        metric = [_row(row, metric_texts, _rational, where, numbers) for row in spec["metric"]]
        functions = {}
        for key, expr_text in spec.get("structure_functions", {}).items():
            try:
                index = [int(part) for part in key.split(",")]
            except ValueError:
                index = []
            # one spelling per index: no sign, space, underscore or leading zero
            if len(index) != 3 or ",".join(map(str, index)) != key or min(index) < 0:
                raise SceneError(f"{where}: structure function key {key!r} is not 'i,j,h'")
            if not all(1 <= x <= bundle.rank for x in index):
                raise SceneError(f"{where}: structure function key {key!r} is out of range "
                                 f"1..{bundle.rank}")
            functions[tuple(x - 1 for x in index)] = _expr(expr_text, names, where, exprs)
        scene.structures[name] = _built(where, object.__new__(CourantStructure)._checked, bundle,
                                        spec["anchor"], anchor, spec["metric"], metric, functions)

    for name, spec in entries["morphisms"].items():
        where = f"morphism {name!r}"
        source = bundle_ref(spec["source"], where)
        target = bundle_ref(spec["target"], where)
        src_names = _vars(source.base_dim)
        if len(spec["base_map"]) != target.base_dim:
            raise SceneError(f"{where}: base_map must list {target.base_dim} expressions")
        base_map = _polymap(spec["base_map"], src_names, where, exprs)
        fiber = [[_expr(e, src_names, where, exprs) for e in row]
                 for row in spec["fiber_matrix"]]
        retraction = None
        if "retraction" in spec:
            retraction = _polymap(spec["retraction"], _vars(target.base_dim), where, exprs)
        scene.morphisms[name] = _built(where, BundleMorphism, source, target, base_map, fiber,
                                       retraction)

    for name, spec in entries["ph_systems"].items():
        where = f"ph_system {name!r}"
        _bounded(spec, ("n", "m"), where)
        n, m = spec["n"], spec["m"]
        jm = [[_rational(v, where, numbers) for v in row] for row in spec["J"]]
        bm = [[_rational(v, where, numbers) for v in row] for row in spec["B"]]
        # B is n x m, or [] when m = 0; with n = 0 no row of B holds the m ports
        b_shaped = (len(bm) == n and (n or not m)) or (not bm and not m)
        if len(jm) != n or not b_shaped or any(len(row) != m for row in bm):
            raise SceneError(f"{where}: J must be {n}x{n} and B {n}x{m}")
        h = _expr(spec["H"], _vars(n), where, exprs)
        scene.ph_systems[name] = _built(where, PHSystem, jm, bm, h, spec.get("label", name))

    for name, spec in entries["inputs"].items():
        where = f"input {name!r}"
        scene.inputs[name] = InputSignal(_polymap(spec["u"], ("t",), where, exprs))

    return scene


def structure_to_json(s: CourantStructure, bundle_name: str) -> dict:
    """Scene fragment for a structure, with canonical expression strings."""
    # printed from the frame rows: str gives a scalar's text and a
    # Polynomial's to_string, and a missing entry is 0
    fragment = {
        "bundle": bundle_name,
        "anchor": [[str(v) for v in row] for row in dense(s.rows[2], s.bundle.rank)],
        "metric": [[str(v) for v in row] for row in dense(s.rows[0], s.bundle.rank)],
    }
    functions = {
        f"{i + 1},{j + 1},{h + 1}": p.to_string()
        for (i, j, h), p in sorted(s.structure_functions.items())
    }
    if functions:
        fragment["structure_functions"] = functions
    return fragment
