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

Loading validates everything eagerly: unknown references, duplicate names,
and malformed expressions raise SceneError (CLI exit code 2).
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


def _require(mapping, key, where):
    if key not in mapping:
        raise SceneError(f"{where}: missing field {key!r}")
    return mapping[key]


_SECTIONS = ("bundles", "sections", "courant_structures", "morphisms", "ph_systems", "inputs")


def _entries(raw: dict, section: str) -> dict:
    """A scene section: an object whose every entry is an object."""
    entries = raw.get(section, {})
    if not isinstance(entries, dict):
        raise SceneError(f"scene field {section!r} must be an object, got {entries!r}")
    for name, spec in entries.items():
        if not isinstance(spec, dict):
            raise SceneError(f"{section} entry {name!r} must be an object, got {spec!r}")
    return entries


def _matrix(spec: dict, key: str, where: str) -> list:
    """A matrix field: a list of rows, each a list."""
    rows = _require(spec, key, where)
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise SceneError(f"{where}: {key} must be a list of lists, got {rows!r}")
    return rows


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
        base_dim = _require(spec, "base_dim", where)
        rank = _require(spec, "rank", where)
        if not isinstance(base_dim, int) or not isinstance(rank, int):
            raise SceneError(f"{where}: base_dim and rank must be integers")
        try:
            scene.bundles[name] = TrivialBundle(base_dim, rank, spec.get("label", name))
        except ValueError as exc:
            raise SceneError(f"{where}: {exc}") from exc

    def bundle_ref(name, where) -> TrivialBundle:
        if name not in scene.bundles:
            raise SceneError(f"{where}: reference to unknown bundle {name!r}")
        return scene.bundles[name]

    for name, spec in entries["sections"].items():
        where = f"section {name!r}"
        bundle = bundle_ref(_require(spec, "bundle", where), where)
        coeffs = _require(spec, "coeffs", where)
        if not isinstance(coeffs, list) or len(coeffs) != bundle.rank:
            raise SceneError(f"{where}: coeffs must list {bundle.rank} expressions")
        names = _vars(bundle.base_dim)
        polys = [_expr(c, names, where) for c in coeffs]
        scene.sections[name] = Section(bundle, PolyMap(bundle.base_dim, polys))

    for name, spec in entries["courant_structures"].items():
        where = f"courant_structure {name!r}"
        bundle = bundle_ref(_require(spec, "bundle", where), where)
        names = _vars(bundle.base_dim)
        anchor_rows = _matrix(spec, "anchor", where)
        if len(anchor_rows) != bundle.base_dim:
            raise SceneError(f"{where}: anchor must have {bundle.base_dim} rows")
        anchor = [[_expr(e, names, where) for e in row] for row in anchor_rows]
        metric = [
            [_rational(v, where) for v in row] for row in _matrix(spec, "metric", where)
        ]
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
        source = bundle_ref(_require(spec, "source", where), where)
        target = bundle_ref(_require(spec, "target", where), where)
        src_names = _vars(source.base_dim)
        tgt_names = _vars(target.base_dim)
        base_exprs = _require(spec, "base_map", where)
        if not isinstance(base_exprs, list) or len(base_exprs) != target.base_dim:
            raise SceneError(f"{where}: base_map must list {target.base_dim} expressions")
        base_map = PolyMap(
            source.base_dim, [_expr(e, src_names, where) for e in base_exprs]
        )
        fiber_rows = _matrix(spec, "fiber_matrix", where)
        fiber = [[_expr(e, src_names, where) for e in row] for row in fiber_rows]
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
        n = _require(spec, "n", where)
        m = _require(spec, "m", where)
        jm = [[_rational(v, where) for v in row] for row in _matrix(spec, "J", where)]
        bm = [[_rational(v, where) for v in row] for row in _matrix(spec, "B", where)]
        if len(jm) != n or (m and len(bm) != n):
            raise SceneError(f"{where}: J must be {n}x{n} and B {n}x{m}")
        h = _expr(_require(spec, "H", where), _vars(n), where)
        try:
            scene.ph_systems[name] = PHSystem(jm, bm, h, spec.get("label", name))
        except ValueError as exc:
            raise SceneError(f"{where}: {exc}") from exc

    for name, spec in entries["inputs"].items():
        where = f"input {name!r}"
        exprs = _require(spec, "u", where)
        scene.inputs[name] = InputSignal(
            PolyMap(1, [_expr(e, ["t"], where) for e in exprs])
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
