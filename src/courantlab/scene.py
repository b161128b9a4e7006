"""JSON scene files: named bundles, sections, structures, morphisms, systems.

A scene is one JSON object.  Polynomial expressions use the grammar from
`polyexpr`; base variables are always named x1..xn for the arity the field
demands, and input signals use the single variable t.  Rational numbers may
be written as JSON integers or as strings like "3/2".

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

Loading validates everything eagerly: field shapes, unknown references,
duplicate names and malformed expressions raise SceneError (CLI exit
code 2).  Every field's JSON shape is checked before any object is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .bundles import BundleMorphism, Section, TrivialBundle
from .courant_core import CourantStructure
from .phsim import InputSignal, PHSystem
from .polyexpr import ParseError, PolyMap, Polynomial, parse

__all__ = ["Scene", "SceneError", "load_scene", "structure_to_json"]

SCHEMA_VERSION = 1


class SceneError(Exception):
    """Schema violation, parse failure, or dangling reference."""


@dataclass
class Scene:
    bundles: dict[str, TrivialBundle] = field(default_factory=dict)
    sections: dict[str, Section] = field(default_factory=dict)
    structures: dict[str, CourantStructure] = field(default_factory=dict)
    morphisms: dict[str, BundleMorphism] = field(default_factory=dict)
    ph_systems: dict[str, PHSystem] = field(default_factory=dict)
    inputs: dict[str, InputSignal] = field(default_factory=dict)


def _no_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise SceneError(f"duplicate name {key!r} in scene object")
        seen[key] = value
    return seen


def _rational(value, where: str) -> Fraction:
    try:
        if isinstance(value, bool):
            raise ValueError
        if isinstance(value, (int, str)):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise SceneError(f"{where}: expected a rational (integer or 'p/q'), got {value!r}")


def _expr(text, variables, where: str) -> Polynomial:
    if not isinstance(text, str):
        raise SceneError(f"{where}: expected an expression string, got {text!r}")
    try:
        return parse(text, variables)
    except ParseError as exc:
        raise SceneError(f"{where}: {exc}") from exc


def _vars(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)]


# The fields of each scene section and the JSON shape of each; a trailing
# "?" marks an optional field.  Expressions and rationals inside a field are
# checked where they are parsed.
_FIELDS = {
    "bundles": {"base_dim": "integer", "rank": "integer"},
    "sections": {"bundle": "string", "coeffs": "list"},
    "courant_structures": {"bundle": "string", "anchor": "matrix", "metric": "matrix",
                           "structure_functions?": "object"},
    "morphisms": {"source": "string", "target": "string", "base_map": "list",
                  "fiber_matrix": "matrix", "retraction?": "list"},
    "ph_systems": {"n": "integer", "m": "integer", "J": "matrix", "B": "matrix",
                   "H": "string"},
    "inputs": {"u": "list"},
}
_SHAPES = {
    "integer": ("an integer", lambda v: isinstance(v, int)),
    "string": ("a string", lambda v: isinstance(v, str)),
    "list": ("a list", lambda v: isinstance(v, list)),
    "matrix": ("a list of lists",
               lambda v: isinstance(v, list) and all(isinstance(row, list) for row in v)),
    "object": ("an object", lambda v: isinstance(v, dict)),
}
_SECTIONS = tuple(_FIELDS)


def _entries(raw: dict, section: str) -> dict:
    """A scene section whose entries have every field in its declared shape."""
    entries = raw.get(section, {})
    if not isinstance(entries, dict):
        raise SceneError(f"scene field {section!r} must be an object, got {entries!r}")
    for name, spec in entries.items():
        if not isinstance(spec, dict):
            raise SceneError(f"{section} entry {name!r} must be an object, got {spec!r}")
        where = f"{section[:-1]} {name!r}"
        for key, shape in _FIELDS[section].items():
            optional = key.endswith("?")
            key = key.rstrip("?")
            if key not in spec:
                if optional:
                    continue
                raise SceneError(f"{where}: missing field {key!r}")
            noun, fits = _SHAPES[shape]
            if not fits(spec[key]):
                raise SceneError(f"{where}: {key} must be {noun}, got {spec[key]!r}")
    return entries


def load_scene(path) -> Scene:
    try:
        with open(path) as fh:
            raw = json.load(fh, object_pairs_hook=_no_duplicates)
    except OSError as exc:
        raise SceneError(f"cannot read scene file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SceneError(f"scene file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SceneError("scene root must be a JSON object")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SceneError(
            f"unsupported schema_version {version!r} (supported: {SCHEMA_VERSION})"
        )
    for key in raw:
        if key != "schema_version" and key not in _SECTIONS:
            raise SceneError(f"unknown scene field {key!r}")
    entries = {section: _entries(raw, section) for section in _SECTIONS}
    scene = Scene()

    for name, spec in entries["bundles"].items():
        where = f"bundle {name!r}"
        try:
            scene.bundles[name] = TrivialBundle(
                spec["base_dim"], spec["rank"], spec.get("label", name)
            )
        except ValueError as exc:
            raise SceneError(f"{where}: {exc}") from exc

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
        names = _vars(bundle.base_dim)
        polys = [_expr(c, names, where) for c in coeffs]
        scene.sections[name] = Section(bundle, PolyMap(bundle.base_dim, polys))

    for name, spec in entries["courant_structures"].items():
        where = f"courant_structure {name!r}"
        bundle = bundle_ref(spec["bundle"], where)
        names = _vars(bundle.base_dim)
        if len(spec["anchor"]) != bundle.base_dim:
            raise SceneError(f"{where}: anchor must have {bundle.base_dim} rows")
        anchor = [[_expr(e, names, where) for e in row] for row in spec["anchor"]]
        metric = [[_rational(v, where) for v in row] for row in spec["metric"]]
        functions = {}
        for key, expr_text in spec.get("structure_functions", {}).items():
            try:
                i, j, h = (int(part) for part in key.split(","))
            except ValueError as exc:
                raise SceneError(
                    f"{where}: structure function key {key!r} is not 'i,j,h'"
                ) from exc
            functions[(i - 1, j - 1, h - 1)] = _expr(expr_text, names, where)
        try:
            scene.structures[name] = CourantStructure(bundle, anchor, metric, functions)
        except ValueError as exc:
            raise SceneError(f"{where}: {exc}") from exc

    for name, spec in entries["morphisms"].items():
        where = f"morphism {name!r}"
        source = bundle_ref(spec["source"], where)
        target = bundle_ref(spec["target"], where)
        src_names = _vars(source.base_dim)
        tgt_names = _vars(target.base_dim)
        if len(spec["base_map"]) != target.base_dim:
            raise SceneError(f"{where}: base_map must list {target.base_dim} expressions")
        base_map = PolyMap(
            source.base_dim, [_expr(e, src_names, where) for e in spec["base_map"]]
        )
        fiber = [[_expr(e, src_names, where) for e in row] for row in spec["fiber_matrix"]]
        retraction = None
        if "retraction" in spec:
            retraction = PolyMap(
                target.base_dim,
                [_expr(e, tgt_names, where) for e in spec["retraction"]],
            )
        try:
            scene.morphisms[name] = BundleMorphism(
                source, target, base_map, fiber, retraction=retraction
            )
        except ValueError as exc:
            raise SceneError(f"{where}: {exc}") from exc

    for name, spec in entries["ph_systems"].items():
        where = f"ph_system {name!r}"
        n, m = spec["n"], spec["m"]
        jm = [[_rational(v, where) for v in row] for row in spec["J"]]
        bm = [[_rational(v, where) for v in row] for row in spec["B"]]
        if len(jm) != n or (m and len(bm) != n):
            raise SceneError(f"{where}: J must be {n}x{n} and B {n}x{m}")
        h = _expr(spec["H"], _vars(n), where)
        try:
            scene.ph_systems[name] = PHSystem(jm, bm, h, spec.get("label", name))
        except ValueError as exc:
            raise SceneError(f"{where}: {exc}") from exc

    for name, spec in entries["inputs"].items():
        where = f"input {name!r}"
        scene.inputs[name] = InputSignal(
            PolyMap(1, [_expr(e, ["t"], where) for e in spec["u"]])
        )

    return scene


def structure_to_json(s: CourantStructure, bundle_name: str) -> dict:
    """Scene fragment for a structure, with canonical expression strings."""
    fragment = {
        "bundle": bundle_name,
        "anchor": [[p.to_string() for p in row] for row in s.anchor],
        "metric": [[str(v) for v in row] for row in s.metric],
    }
    functions = {
        f"{i + 1},{j + 1},{h + 1}": p.to_string()
        for (i, j, h), p in sorted(s.structure_functions.items())
    }
    if functions:
        fragment["structure_functions"] = functions
    return fragment
