import argparse
import contextlib
import copy
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from courantlab import cli, courant_core, intrinsic, linalg, morphisms, phsim, scene as scene_module
from courantlab.cli import main
from courantlab.bundles import BundleMorphism, TrivialBundle
from courantlab.courant_core import CourantStructure, check_axioms, standard_structure
from courantlab.polyexpr import Polynomial, PolyMap, parse
from courantlab.scene import SceneError, _rational, _shown, load_scene, structure_to_json

from conftest import literals
from test_bench_layers import _bench_module

SCENE = Path(__file__).resolve().parent.parent / "demos" / "scenes" / "oscillator.json"
MORPHISM_SCENE = Path(__file__).resolve().parent / "data" / "morphism_scene.json"


def write_scene(tmp_path, payload, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def refuse_large_builtins(monkeypatch) -> list:
    """Make `cli.standard_structure` raise for a rank 2N above the bound of
    a scene bundle instead of building it; return the list of N built."""
    built = []

    def guarded(n):
        if 2 * n > scene_module.MAX_BUNDLE_DIMENSION:
            raise MemoryError(f"standard{n} was built")
        built.append(n)
        return standard_structure(n)

    monkeypatch.setattr(cli, "standard_structure", guarded)
    return built


# a builtin standard<N> whose rank 2N no scene bundle can match, and its line
_TOO_LARGE = ["65", "100000000", "0" + "9" * 5000]


def _too_large(n: str) -> str:
    return (f"error: builtin structure 'standard{n}' has rank 2N above 128, "
            f"the largest rank of a scene bundle")


# builtins of four digits, and of 5000, more than int() converts: the digit
# count is read first
_TOO_MANY_DIGITS = ["1000", "0" + "9" * 5000]


class TestLoadScene:
    def test_minimal_scene(self, tmp_path):
        path = write_scene(tmp_path, {
            "schema_version": 1,
            "bundles": {"E": {"base_dim": 1, "rank": 2}},
        })
        scene = load_scene(path)
        assert scene.bundles["E"].rank == 2

    def test_demo_scene_loads_fully(self):
        scene = load_scene(SCENE)
        assert "standard2" in scene.structures
        assert "oscillator" in scene.ph_systems
        assert scene.morphisms["zero_section_embedding"].retraction is not None

    def test_dangling_reference(self, tmp_path):
        path = write_scene(tmp_path, {
            "schema_version": 1,
            "sections": {"s": {"bundle": "missing", "coeffs": ["0"]}},
        })
        with pytest.raises(SceneError, match="unknown bundle"):
            load_scene(path)

    def test_duplicate_names(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            '{"schema_version": 1, "bundles": {"E": {"base_dim": 1, "rank": 1}, '
            '"E": {"base_dim": 1, "rank": 2}}}'
        )
        with pytest.raises(SceneError, match="duplicate"):
            load_scene(path)

    def test_bad_schema_version(self, tmp_path):
        path = write_scene(tmp_path, {"schema_version": 99})
        with pytest.raises(SceneError, match="schema_version"):
            load_scene(path)

    def test_parse_error_located(self, tmp_path):
        path = write_scene(tmp_path, {
            "schema_version": 1,
            "bundles": {"E": {"base_dim": 1, "rank": 1}},
            "sections": {"s": {"bundle": "E", "coeffs": ["x1 +"]}},
        })
        with pytest.raises(SceneError, match="section 's'"):
            load_scene(path)

    def test_unknown_field(self, tmp_path):
        path = write_scene(tmp_path, {"schema_version": 1, "bundlez": {}})
        with pytest.raises(SceneError, match="^scene: unknown field 'bundlez'$"):
            load_scene(path)

    @pytest.mark.parametrize("root, message", [
        ([1], "scene root must be an object, got [1]"),
        ({}, "scene: missing field 'schema_version'"),
        ({"schema_version": 2}, "scene: schema_version must be 1, got 2"),
        ({"schema_version": 1, "bundles": 5}, "scene: bundles must be an object, got 5"),
        ({"schema_version": 1, "bundlez": {}}, "scene: unknown field 'bundlez'"),
        # a refused value is shown in at most 80 characters
        (list(range(30)), "scene root must be an object, got " + repr(list(range(30)))[:77] + "..."),
    ], ids=["not_an_object", "no_version", "other_version", "section_not_an_object",
            "unknown_section", "long_root"])
    def test_the_root_is_read_by_the_field_rule(self, tmp_path, root, message):
        with pytest.raises(SceneError) as err:
            load_scene(write_scene(tmp_path, root))
        assert str(err.value) == message

    def test_structure_roundtrip(self, tmp_path):
        # structures emitted as JSON fragments reload and pass the axioms
        s = standard_structure(2)
        fragment = structure_to_json(s, "P2")
        path = write_scene(tmp_path, {
            "schema_version": 1,
            "bundles": {"P2": {"base_dim": 2, "rank": 4}},
            "courant_structures": {"roundtrip": fragment},
        })
        scene = load_scene(path)
        reloaded = scene.structures["roundtrip"]
        assert reloaded == s
        assert check_axioms(reloaded).all_passed

    @settings(max_examples=200, deadline=None, database=None)
    @given(literals)
    def test_rational_literals_read_as_fraction_reads_them(self, text):
        # only an optional minus sign and ASCII digits, then optionally "/"
        # and ASCII digits, are a literal; Fraction reads it
        head, slash, tail = text.removeprefix("-").partition("/")
        try:
            if not all(part.isascii() and part.isdigit() for part in [head] + [tail] * len(slash)):
                raise ValueError(text)
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(SceneError) as err:
                _rational(text, "here", {})
            assert str(err.value) == ("here: expected a rational (integer or 'p/q'), got "
                                      + _shown(text))
        else:
            got = _rational(text, "here", {})
            assert type(got) is Fraction and got == expected

    def test_a_structure_reduces_its_metric_once(self, tmp_path, monkeypatch):
        # the constructor's inverse is its nonsingularity check, and the
        # axiom certificate reads it; the one reduction runs on the sparse
        # rows of [G | I]
        reductions = []
        reduce = linalg._reduce
        monkeypatch.setattr(linalg, "_reduce", lambda m, cols: reductions.append(
            [dict(row) for row in m]) or reduce(m, cols))
        path = write_scene(tmp_path, {"schema_version": 1,
                                      "bundles": {"P1": {"base_dim": 1, "rank": 2}},
                                      "courant_structures": {"s": {
                                          "bundle": "P1", "anchor": [["1", "0"]],
                                          "metric": [["0", "2/3"], ["2/3", "0"]]}}})
        s = load_scene(path).structures["s"]
        assert check_axioms(s).all_passed
        assert reductions == [[{1: Fraction(2, 3), 2: 1}, {0: Fraction(2, 3), 3: 1}]]
        assert s.rows[1] == [{1: Fraction(3, 2)}, {0: Fraction(3, 2)}]
        assert s.metric_inverse == linalg.inverse(s.metric) == [[0, Fraction(3, 2)],
                                                              [Fraction(3, 2), 0]]

    def test_a_certify_scene_load_converts_no_dense_matrix(self, tmp_path, monkeypatch):
        # scaled standard(3), as the certify workload writes it: the metric
        # is reduced once, on rows, no dense inverse or Fraction matrix is
        # formed, and the only constants are the two anchor literals' parses,
        # none for the zeros of the rows
        counts = Counter()
        for name in ("_reduce", "inverse", "mat", "dense"):
            original = getattr(linalg, name)
            monkeypatch.setattr(linalg, name, lambda *args, name=name, original=original:
                                counts.update([name]) or original(*args))
        constant = Polynomial.constant.__func__
        monkeypatch.setattr(Polynomial, "constant", classmethod(
            lambda cls, n, v: counts.update(["constant"]) or constant(cls, n, v)))
        spec = {"bundle": "P3",
                "anchor": [["1" if i == a else "0" for i in range(6)] for a in range(3)],
                "metric": [["-2/5" if abs(i - j) == 3 else "0" for j in range(6)]
                           for i in range(6)]}
        path = write_scene(tmp_path, {"schema_version": 1,
                                      "bundles": {"P3": {"base_dim": 3, "rank": 6}},
                                      "courant_structures": {"s": spec}})
        s = load_scene(path).structures["s"]
        monkeypatch.undo()
        assert counts == {"_reduce": 1, "constant": 2}
        assert s.rows[2] == [{0: 1}, {1: 1}, {2: 1}]

    def test_singular_metric_keeps_its_message(self, tmp_path):
        path = write_scene(tmp_path, {"schema_version": 1,
                                      "bundles": {"P1": {"base_dim": 1, "rank": 2}},
                                      "courant_structures": {"s": {
                                          "bundle": "P1", "anchor": [["1", "0"]],
                                          "metric": [["1", "2"], ["2", "4"]]}}})
        with pytest.raises(SceneError) as err:
            load_scene(path)
        assert str(err.value) == "courant_structure 's': metric must have nonzero determinant"


class TestCLI:
    def test_axioms_builtin_pass(self, capsys):
        code = main(["axioms", "--structure", "standard1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["exit_code"] == 0

    def test_axioms_scene_structure(self, capsys):
        code = main([
            "axioms", "--scene", str(SCENE), "--structure", "scaled2x", "--json",
        ])
        assert code == 0

    def test_leibniz(self, capsys):
        code = main([
            "leibniz", "--structure", "standard1", "--samples", "20", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["report"]["final_slot_variant"]["status"] == "falsified"

    def test_morphism_failure_names_metric(self, capsys):
        code = main([
            "morphism", "--scene", str(SCENE),
            "--source", "standard1", "--target", "scaled2x",
            "--map", "metric_scaling_probe", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["verdict"]["failures"][0]["condition"] == "metric"

    def test_morphism_pass(self, capsys):
        code = main([
            "morphism", "--scene", str(SCENE),
            "--source", "standard1", "--target", "standard2",
            "--map", "zero_section_embedding", "--json",
        ])
        assert code == 0

    def test_pullback_with_alt_retraction(self, capsys):
        code = main([
            "pullback", "--scene", str(SCENE),
            "--ambient", "standard2", "--morphism", "zero_section_embedding",
            "--alt-retraction", '["x1 + x2^2"]', "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["well_defined"] is True
        assert payload["structure"]["metric"] == [["0", "1"], ["1", "0"]]

    @pytest.mark.parametrize("exprs, message", [
        ("[1]", "bad --alt-retraction: expected an expression string, got 1"),
        ('["x1", null]', "bad --alt-retraction: expected an expression string, got None"),
        ('["x3"]', "bad --alt-retraction: unknown identifier 'x3' (at position 0)"),
        ("5", "bad --alt-retraction: expected a JSON array of expressions, got 5"),
        ('{"x1 + x2^2": 7}',
         "bad --alt-retraction: expected a JSON array of expressions, got {'x1 + x2^2': 7}"),
        ('"1"', "bad --alt-retraction: expected a JSON array of expressions, got '1'"),
        ("null", "bad --alt-retraction: expected a JSON array of expressions, got None"),
    ], ids=["integer", "null", "unknown", "not_a_list", "object", "string", "bare_null"])
    def test_bad_alt_retraction_entries_exit_2(self, capsys, exprs, message):
        # a non-string entry once reached the parser and ended in an
        # AttributeError traceback; an object was once read as the list of
        # its keys and a string as the list of its characters
        code = main(["pullback", "--scene", str(SCENE), "--ambient", "standard2",
                     "--morphism", "zero_section_embedding", "--alt-retraction", exprs])
        assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")

    def test_intrinsic_m0(self, capsys):
        code = main(["intrinsic", "--n", "2", "--m", "0", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["unique"] is True

    def test_intrinsic_m1_reports_anchor_defect(self, capsys):
        code = main(["intrinsic", "--n", "1", "--m", "1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1  # the splitting-composite arrow cannot verify
        assert payload["unique"] is True
        chain = payload["chain"]["chain_verdicts"]
        assert chain["inclusion"]["is_morphism"] is True
        assert chain["splitting_composite"]["is_morphism"] is False

    @pytest.mark.parametrize("n, m", [(-1, 1), (1, -1)])
    def test_intrinsic_negative_dimension_exit_2(self, capsys, n, m):
        assert main(["intrinsic", "--n", str(n), "--m", str(m)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        flag = "--n" if n < 0 else "--m"
        assert lines == [f"error: {flag} must be >= 0, got -1"]

    def test_intrinsic_rank_zero_is_vacuously_unique(self, capsys):
        code = main(["intrinsic", "--n", "0", "--m", "0", "--json"])
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert code == 0 and captured.err == ""
        assert payload["unique"] is True and payload["structure"]["metric"] == []

    def test_unknown_structure_exit_2(self, capsys):
        assert main(["axioms", "--structure", "nope", "--json"]) == 2

    def test_unknown_command_exit_2(self):
        assert main(["frobnicate"]) == 2

    def test_parser_is_built_once_and_keeps_no_state(self, capsys):
        # a command prints the same and exits the same before and after
        # other calls, with other flag values and with parses that fail
        argv = ["axioms", "--structure", "standard1", "--json"]
        first = main(argv), capsys.readouterr()
        assert "degree cap 3" in first[1].out
        assert main(["axioms", "--structure", "standard1", "--degree-cap", "1",
                     "--seed", "4", "--json"]) == 0
        assert main(["axioms"]) == 2   # --structure is required
        assert main(["axioms", "--structure", "standard1", "--degree-cap", "x"]) == 2
        assert main(["frobnicate"]) == 2
        assert main(["intrinsic", "--n", "1", "--m", "1"]) == 1
        capsys.readouterr()
        assert (main(argv), capsys.readouterr()) == first
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("argv", [
        ["axioms", "--structure", "standard3", "--degree-cap", "-1"],
        ["axioms", "--structure", "standard3", "--degree-cap", "9.0"],
        ["leibniz", "--structure", "standard1", "--degree-cap", "-1"],
        ["leibniz", "--structure", "standard12", "--degree-cap", "-10"],
        ["intrinsic", "--n", "1", "--m", "0", "--degree-cap", "-1"],
    ])
    def test_bad_degree_cap_exit_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "degree-cap" in lines[0]

    @pytest.mark.parametrize("argv", [
        ["leibniz", "--structure", "standard3", "--degree-cap", "40"],
        ["leibniz", "--structure", "standard4"],
        ["axioms", "--structure", "standard4"],
    ])
    def test_leibniz_checks_the_requested_cap_as_axioms_does(self, capsys, argv):
        # both decide at min(cap, 1): caps whose families of 280 sections or
        # more were once refused pass in both, and a negative cap exits 2 in both
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "PASS" in captured.out
        for command in ("axioms", "leibniz"):
            assert main([command, *argv[1:3], "--degree-cap", "-1"]) == 2
            assert capsys.readouterr().err == "error: --degree-cap must be >= 0, got -1\n"

    def test_no_degree_cap_is_too_large(self, capsys):
        # standard1 at caps 128 and 10^40, whose families once exceeded 256
        # sections, decides at degree 1 as at every cap >= 1
        for cap in (128, 10 ** 40):
            assert check_axioms(standard_structure(1), degree_cap=cap).checks["i"].detail == (
                f"certified: degree cap {cap}, decided at degree 1, scope all smooth sections")
            assert main(["axioms", "--structure", "standard1", "--degree-cap", str(cap)]) == 0
        assert capsys.readouterr().err == ""

    def test_builtin_cap_is_checked_before_the_structure_is_built(self, capsys, monkeypatch):
        # standard600, of rank 1200, is refused at every cap by its rank,
        # and its (2N)^2 metric is never formed; standard64, of rank 128, is
        # built at the default cap 3
        built = []
        monkeypatch.setattr(cli, "standard_structure",
                            lambda n: built.append(n) or standard_structure(n))
        for command in ("axioms", "leibniz"):
            assert main([command, "--structure", "standard600", "--degree-cap", "0"]) == 2
            lines = capsys.readouterr().err.splitlines()
            assert lines == [_too_large("600")]
        assert built == []
        assert main(["axioms", "--structure", "standard1", "--degree-cap", "0"]) == 0
        assert main(["axioms", "--structure", "standard64"]) == 0
        assert built == [1, 64]

    def test_simulate_csv(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main([
            "simulate", "--scene", str(SCENE), "--system", "oscillator",
            "--input", "unit", "--x0", "1,0", "--T", "0.01", "--h", "0.001",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x1,x2,y1" and len(lines) == 12

    def test_project_csv_matches_simulate(self, tmp_path):
        sim, proj = tmp_path / "sim.csv", tmp_path / "proj.csv"
        base = ["--scene", str(SCENE), "--system", "oscillator",
                "--input", "ramp", "--x0", "1,0", "--T", "0.05", "--h", "0.001"]
        assert main(["simulate", *base, "--out", str(sim)]) == 0
        assert main(["project", *base, "--z0", "0", "--out", str(proj)]) == 0
        assert proj.read_bytes() == sim.read_bytes() and len(sim.read_text().splitlines()) == 52

    def test_project_runs_the_open_system_with_no_z(self, tmp_path, monkeypatch):
        # the projection of the interaction run is the open run, bit for bit
        # (see the cli docstring): `project` sizes no z buffer
        runs = []
        run = phsim._run
        monkeypatch.setattr(phsim, "_run",
                            lambda *args, **kw: runs.append(kw.get("z0")) or run(*args, **kw))
        assert not hasattr(cli, "simulate_interaction") and not hasattr(cli, "project_behavior")
        assert main(["project", "--scene", str(SCENE), "--system", "oscillator", "--input",
                     "ramp", "--x0", "1,0", "--z0", "0.5", "--T", "0.01", "--h", "0.001",
                     "--out", str(tmp_path / "proj.csv")]) == 0
        assert runs == [None]

    @pytest.mark.parametrize("command, override", [
        ("simulate", ["--x0=nan,0"]),
        ("simulate", ["--x0=inf,0"]),
        ("project", ["--z0=nan"]),
        ("simulate", ["--h", "0"]),
        ("simulate", ["--h", "-0.001"]),
        ("project", ["--h", "nan"]),
        ("simulate", ["--T", "nan"]),
        ("project", ["--T", "inf"]),
        ("simulate", ["--T", "1", "--h", "5"]),
    ])
    def test_bad_trajectory_input_exit_2(self, command, override):
        # captured without a fixture, so that a mutant row can run it
        argv = [command, "--scene", str(SCENE), "--system", "oscillator",
                "--input", "unit", "--x0", "1,0", "--T", "0.01", "--h", "0.001"]
        if command == "project":
            argv += ["--z0", "0"]
        argv += override  # argparse keeps the last value of a repeated flag
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 2
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize("command", ["simulate", "project"])
    def test_coefficient_outside_float_range_exit_2(self, tmp_path, capsys, command):
        scene = json.loads(SCENE.read_text())
        scene["ph_systems"]["oscillator"]["H"] = "10^400*x1^2 + 1/2*x2^2"
        argv = [command, "--scene", str(write_scene(tmp_path, scene)),
                "--system", "oscillator", "--input", "unit", "--x0", "1,0",
                "--T", "0.01", "--h", "0.001"]
        if command == "project":
            argv += ["--z0", "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "float range" in lines[0]

    @pytest.mark.parametrize("command", ["simulate", "project"])
    def test_input_coefficient_outside_float_range_exit_2(self, tmp_path, capsys, command):
        # V = B u is compiled into the RK4 loop apart from F and Y
        scene = json.loads(SCENE.read_text())
        scene["inputs"]["huge"] = {"u": ["10^400*t"]}
        argv = [command, "--scene", str(write_scene(tmp_path, scene)),
                "--system", "oscillator", "--input", "huge", "--x0", "1,0",
                "--T", "0.01", "--h", "0.001"]
        if command == "project":
            argv += ["--z0", "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "float range" in lines[0]

    @pytest.mark.parametrize("command", ["simulate", "project"])
    def test_run_metadata_warnings(self, tmp_path, capsys, command):
        # T / h = 10 / 3 rounds to 3 steps of 1/3; x1 = 1e100 overflows
        # x1^4 + x2^4 on the first step and the row kept holds a NaN
        self.check_divergence_warnings(tmp_path, capsys, command, "x1^4 + x2^4",
                                       "1e100,1", "x1 is nan")

    @pytest.mark.parametrize("command", ["simulate", "project"])
    def test_divergence_names_an_infinite_coordinate(self, tmp_path, capsys, command):
        # x1 = 1e200 keeps x1 finite under x1^3 while x2' = -3 x1^2 is -inf
        self.check_divergence_warnings(tmp_path, capsys, command, "x1^3",
                                       "1e200,1", "x2 is -inf")

    @staticmethod
    def check_divergence_warnings(tmp_path, capsys, command, hamiltonian, x0, named):
        scene = json.loads(SCENE.read_text())
        scene["ph_systems"]["oscillator"]["H"] = hamiltonian
        argv = [command, "--scene", str(write_scene(tmp_path, scene)),
                "--system", "oscillator", "--input", "off", f"--x0={x0}",
                "--T", "1", "--h", "0.3"]
        if command == "project":
            argv += ["--z0", "0"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "warning: --h 0.3 does not divide --T 1.0; the effective step is "
            "0.3333333333333333",
            "warning: trajectory diverged before the horizon, at step 1 "
            f"(t = 0.3333333333333333); {named}",
        ]
        rows = captured.out.splitlines()
        assert len(rows) == 3 and rows[2].startswith("0.33333333333333331,")

    def test_exact_grid_prints_no_warning(self, capsys):
        assert main(["simulate", "--scene", str(SCENE), "--system", "oscillator",
                     "--input", "unit", "--x0", "1,0", "--T", "10", "--h", "0.001"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("fragment, message", [
        ({"bundles": {"b": 5}}, "bundles entry 'b' must be an object"),
        ({"bundles": {"E": {"base_dim": 1, "rank": 2}},
          "courant_structures": {"s": {"bundle": "E", "anchor": [["1", "0"]],
                                       "metric": 5}}},
         "metric must be a list of lists"),
        ({"bundles": {"E": {"base_dim": 1, "rank": 2}},
          "courant_structures": {"s": {"bundle": "E", "anchor": [["1", "0"]],
                                       "metric": [[0, 1], [1, 0]],
                                       "structure_functions": 5}}},
         "structure_functions must be an object"),
        ({"bundles": {"E": {"base_dim": 1, "rank": 2}},
          "morphisms": {"f": {"source": "E", "target": "E", "base_map": ["x1"],
                              "fiber_matrix": [["1", "0"], ["0", "1"]],
                              "retraction": 5}}},
         "retraction must be a list"),
        ({"inputs": {"u0": {"u": 5}}}, "u must be a list"),
        ({"bundles": {"E": {"base_dim": 1, "rank": 2}},
          "courant_structures": {"s": {"bundle": ["E"], "anchor": [["1", "0"]],
                                       "metric": [[0, 1], [1, 0]]}}},
         "bundle must be a string"),
        ({"bundles": {"E": {"base_dim": 1, "rank": 2, "lable": "E"}}},
         "bundle 'E': unknown field 'lable'"),
        ({"bundles": {"E": {"base_dim": 1, "rank": 2}},
          "morphisms": {"f": {"source": "E", "target": "E", "base_map": ["x1"],
                              "fiber_matrix": [["1", "0"], ["0", "1"]],
                              "retracton": ["x1"]}}},
         "morphism 'f': unknown field 'retracton'"),
        ({"bundles": {"pontryagin2": {"base_dim": 2, "rank": 4}},
          "sections": {"rotation": {"bundle": "pontryagin2", "coeffs": ["x2", "-x1", "0"]}}},
         "error: section 'rotation': coeffs must list 4 expressions"),
        ({"bundles": {"pontryagin1": {"base_dim": 1, "rank": 2}},
          "courant_structures": {"standard1": {"bundle": "pontryagin1",
                                               "anchor": [["1", "0"], ["0", "1"]],
                                               "metric": [[0, 1], [1, 0]]}}},
         "error: courant_structure 'standard1': anchor must have 1 rows"),
    ], ids=["bundle_not_object", "metric_not_matrix", "structure_functions_not_object",
            "retraction_not_list", "input_not_list", "bundle_name_not_string",
            "unknown_bundle_field", "misspelt_retraction", "section_coeffs_not_rank",
            "anchor_rows_not_base_dim"])
    def test_malformed_scene_shape_exit_2(self, tmp_path, capsys, fragment, message):
        path = write_scene(tmp_path, {"schema_version": 1, **fragment})
        assert main(["axioms", "--scene", str(path), "--structure", "standard1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert message in lines[0]

    def test_supplied_pair_on_the_wrong_bundle_exit_2(self, tmp_path, capsys):
        # "rotation" lives on pontryagin2, the target, not on the source
        pairs = tmp_path / "pairs.json"
        pairs.write_text('[["rotation", "rotation"]]')
        assert main([
            "morphism", "--scene", str(SCENE), "--source", "standard1",
            "--target", "standard2", "--map", "zero_section_embedding",
            "--pairs", str(pairs),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: sections do not match the morphism's bundles"]

    def test_dirac(self, capsys):
        code = main(["dirac", "--scene", str(SCENE), "--system", "oscillator", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["is_dirac"] is True


def _fiber_matrices(rows: int, cols: int, limit: int = 16):
    """Up to `limit` rows x cols matrices with entries in {0, 1, -1, 2}, taken
    at an even stride through all of them."""
    every = list(itertools.product(("0", "1", "-1", "2"), repeat=rows * cols))
    return [[list(flat[r * cols:(r + 1) * cols]) for r in range(rows)]
            for flat in every[::max(1, len(every) // limit)]]


def _pullback_scenes():
    """(label, scene, ambient name, morphism names) for every small constant
    pullback problem: source base n in {0, 1}, target base n or n + 1 (the
    identity or the zero section, with the obvious retraction), ranks 0-2,
    and an ambient that is standard<N> or anchor-free with the identity
    metric."""
    for n in (0, 1):
        for big in (n, n + 1):
            ambients = [(f"standard{big}", 2 * big)] if 2 * big <= 2 else []
            ambients += [("flat", rank) for rank in range(3)]
            for ambient, target_rank in ambients:
                for k in range(3):
                    bundles = {"E": {"base_dim": n, "rank": k},
                               "T": {"base_dim": big, "rank": target_rank}}
                    base_map = [f"x{i + 1}" for i in range(n)] + ["0"] * (big - n)
                    retraction = [f"x{i + 1}" for i in range(n)]
                    morphisms = {
                        f"phi{index}": {"source": "E", "target": "T", "base_map": base_map,
                                        "fiber_matrix": matrix, "retraction": retraction}
                        for index, matrix in enumerate(_fiber_matrices(target_rank, k))
                    }
                    scene = {"schema_version": 1, "bundles": bundles, "morphisms": morphisms}
                    if ambient == "flat":
                        scene["courant_structures"] = {"flat": {
                            "bundle": "T",
                            "anchor": [["0"] * target_rank for _ in range(big)],
                            "metric": [[int(i == j) for j in range(target_rank)]
                                       for i in range(target_rank)],
                        }}
                    label = f"n{n}_N{big}_{ambient}{target_rank}_k{k}"
                    yield label, scene, ambient, list(morphisms)


class TestPullbackContract:
    """`pullback` honours the exit-code contract on every small constant scene."""

    def test_grid_exit_codes(self, tmp_path, capsys):
        runs = 0
        for label, scene, ambient, names in _pullback_scenes():
            path = write_scene(tmp_path, scene, f"{label}.json")
            for name in names:
                argv = ["pullback", "--scene", str(path), "--ambient", ambient,
                        "--morphism", name]
                full = main(argv)
                verify_only = main(argv + ["--verify-only"])
                capsys.readouterr()
                assert full in (0, 1, 2) and verify_only in (0, 1, 2), (label, name)
                # the full command adds construction, never a verdict
                assert verify_only != 0 or full == 0, (label, name)
                runs += 2
        assert runs > 500

    @pytest.mark.parametrize("n", _TOO_LARGE)
    def test_a_builtin_ambient_above_the_bound_is_not_built(self, capsys, monkeypatch, n):
        built = refuse_large_builtins(monkeypatch)
        code, captured = TestMorphismContract.run(
            ["pullback", "--scene", str(SCENE), "--ambient", f"standard{n}",
             "--morphism", "zero_section_embedding"], capsys)
        assert code == 2 and captured.err.splitlines() == [_too_large(n)] and built == []

    @staticmethod
    def rank_zero_target(tmp_path, base_dim):
        """A scene whose morphism phi into the rank-0 bundle of the
        structure "flat" fails hypothesis (b)."""
        flat = {"bundle": "T", "anchor": [[]] * base_dim, "metric": []}
        names = [f"x{i + 1}" for i in range(base_dim)]
        return write_scene(tmp_path, {
            "schema_version": 1,
            "bundles": {"E": {"base_dim": base_dim, "rank": 2},
                        "T": {"base_dim": base_dim, "rank": 0}},
            "courant_structures": {"flat": flat},
            "morphisms": {"phi": {"source": "E", "target": "T", "base_map": names,
                                  "fiber_matrix": [], "retraction": names}},
        })

    @pytest.mark.parametrize("base_dim", [0, 1])
    def test_rank_zero_target_fails_hypothesis_b(self, tmp_path, capsys, base_dim):
        # P^T G P over a rank-0 target is the zero 2 x 2 matrix, not 0 x 0
        path = self.rank_zero_target(tmp_path, base_dim)
        argv = ["pullback", "--scene", str(path), "--ambient", "flat", "--morphism", "phi",
                "--json"]
        for extra in ([], ["--verify-only"]):
            assert main(argv + extra) == 1
            captured = capsys.readouterr()
            pairing = json.loads(captured.out)["hypotheses"]["pairing_nondegenerate"]
            assert captured.err == ""
            assert pairing["status"] == "fail"
            assert pairing["detail"] == "induced pairing is degenerate"
            assert pairing["witness"] == {"induced_metric": [["0", "0"], ["0", "0"]]}

    @pytest.mark.parametrize("value, lines", [
        ("", ["--alt-retraction is not valid JSON: Expecting value: line 1 column 1 (char 0)"] * 2),
        ('{"a": 1}',
         ["bad --alt-retraction: expected a JSON array of expressions, got {'a': 1}"] * 2),
        ('["0"]', ["invalid alternative retraction: retraction does not invert the base map: "
                   "r(phi0(x)) != x"] * 2),
        ('["x1", "x1"]',
         ["invalid alternative retraction: retraction shape 2->2 does not match bases 2->1",
          "invalid alternative retraction: retraction shape 1->2 does not match bases 1->1"]),
        ('["x1"]', [None, None]),
    ], ids=["empty", "object", "not_inverting", "wrong_shape", "valid"])
    def test_a_given_alt_retraction_is_read_before_the_construction(self, tmp_path, capsys,
                                                                    value, lines):
        # the value was once read only after a construction that passed:
        # `--alt-retraction=` exited 0 unread, and any value exited 1 unread
        # when a hypothesis failed; a retraction that does not invert phi0,
        # or has the wrong shape, was then checked only on the construction
        scenes = [["--scene", str(SCENE), "--ambient", "standard2", "--morphism",
                   "zero_section_embedding"],
                  ["--scene", str(self.rank_zero_target(tmp_path, 1)), "--ambient", "flat",
                   "--morphism", "phi"]]
        for argv, code, line in zip(scenes, (0, 1), lines):
            found = TestMorphismContract.run(["pullback", *argv, f"--alt-retraction={value}"],
                                             capsys)
            assert found[0] == (code if line is None else 2)
            assert found[1].err == ("" if line is None else f"error: {line}\n")

    @pytest.mark.parametrize("value", ["", '{"a": 1}', '["x1 + x2^2"]'],
                             ids=["empty", "object", "valid"])
    def test_verify_only_with_alt_retraction_exits_2(self, capsys, value):
        # --verify-only stops before the construction the value is tested
        # on, so the pair once exited 0 with the value unread
        code, captured = TestMorphismContract.run(
            ["pullback", "--scene", str(SCENE), "--ambient", "standard2", "--morphism",
             "zero_section_embedding", "--verify-only", "--alt-retraction", value], capsys)
        assert (code, captured.err) == (2, "error: --alt-retraction is tested on the "
                                           "constructed structure, which --verify-only does "
                                           "not build\n")


_STANDARD = {
    "std1": {"bundle": "P1", "anchor": [["1", "0"]], "metric": [[0, 1], [1, 0]]},
    "std2": {"bundle": "P2", "anchor": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
             "metric": [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]},
}
_ZERO_SECTION = {"source": "P1", "target": "P2", "base_map": ["x1", "0"],
                 "fiber_matrix": [["1", "0"], ["0", "0"], ["0", "1"], ["0", "0"]]}


def _morphism_scene(morphisms: dict) -> dict:
    return {"schema_version": 1,
            "bundles": {"P1": {"base_dim": 1, "rank": 2}, "P2": {"base_dim": 2, "rank": 4}},
            "courant_structures": _STANDARD, "morphisms": morphisms}


def _morphism_scenes():
    """(label, scene, argv tail, expected exit) for a grid of small
    `morphism` runs.  It varies whether the named structures live on the
    map's bundles, whether the map has a retraction, and whether its base
    is the identity; two of the fiber maps fail the conditions."""
    maps = {
        # name: (target bundle, base map, fiber matrix, retraction, verdict)
        "identity": ("P1", ["x1"], [["1", "0"], ["0", "1"]], ["x1"], 0),
        "doubling": ("P1", ["x1"], [["2", "0"], ["0", "1/2"]], ["x1"], 1),
        "zero_section": ("P2", _ZERO_SECTION["base_map"], _ZERO_SECTION["fiber_matrix"],
                         ["x1"], 0),
        "dilation": ("P1", ["2*x1"], [["1", "0"], ["0", "1"]], ["1/2*x1"], 1),
    }
    for name, (target, base, fiber, retraction, verdict) in maps.items():
        for retracted in (True, False):
            spec = {"source": "P1", "target": target, "base_map": base, "fiber_matrix": fiber}
            if retracted:
                spec["retraction"] = retraction
            scene = _morphism_scene({name: spec})
            identity_base = base == ["x1"]
            for source in _STANDARD:
                for target_name in _STANDARD:
                    matched = source == "std1" and _STANDARD[target_name]["bundle"] == target
                    expected = verdict if matched and (retracted or identity_base) else 2
                    label = f"{name}_{'r' if retracted else 'bare'}_{source}_{target_name}"
                    argv = ["--source", source, "--target", target_name, "--map", name]
                    yield label, scene, argv, expected


_CONSTANTS = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/2"])


@st.composite
def _fuzzed_arrows(draw):
    """(scene, argv without --scene) for `morphism` or `pullback`: scaled or
    bumped standard(1-2) structures and a map with constant or linear fiber
    entries, over the identity or along x -> (x, h) into one dimension
    more, with or without a retraction."""
    n, embed = draw(st.integers(1, 2)), draw(st.booleans())
    big, names = n + embed, [f"x{i + 1}" for i in range(n)]

    def structure(dim):
        k, lam = 2 * dim, draw(st.sampled_from(["1", "-2", "1/3"]))
        spec = {"bundle": f"P{dim}",
                "anchor": [["1" if i == a else "0" for i in range(k)] for a in range(dim)],
                "metric": [[lam if abs(i - j) == dim else "0" for j in range(k)]
                           for i in range(k)]}
        if draw(st.booleans()):
            key = ",".join(str(draw(st.integers(1, k))) for _ in range(3))
            spec["structure_functions"] = {key: draw(st.sampled_from(["1", "-1/2", "x1"]))}
        return spec

    linear = st.builds("{}*{}".format, st.sampled_from(["1", "-2", "1/2"]), st.sampled_from(names))
    entry = draw(st.sampled_from([_CONSTANTS, st.one_of(_CONSTANTS, linear), None]))
    # None: the inclusion (v, p) -> (v, 0, p, 0), the identity when not embedded
    fiber = [["1" if (r < n and c == r) or (r >= big and c == r - embed) else "0"
              for c in range(2 * n)] for r in range(2 * big)] if entry is None else [
        [draw(entry) for _ in range(2 * n)] for _ in range(2 * big)]
    phi = {"source": f"P{n}", "target": f"P{big}", "fiber_matrix": fiber,
           "base_map": names + [draw(st.sampled_from(["0", "1", "x1", "2*x1 - 1"]))] * embed}
    if draw(st.integers(0, 3)):
        phi["retraction"] = names
    scene = {"schema_version": 1,
             "bundles": {f"P{d}": {"base_dim": d, "rank": 2 * d} for d in {n, big}},
             "courant_structures": {"s": structure(n), "t": structure(big)},
             "morphisms": {"phi": phi}}
    if draw(st.booleans()):
        argv = ["morphism", "--source", "s", "--target", "t", "--map", "phi",
                "--degree-cap", str(draw(st.integers(0, 3)))]
    else:
        argv = ["pullback", "--ambient", "t", "--morphism", "phi"]
        if embed and draw(st.booleans()):
            argv += ["--alt-retraction", json.dumps([f"{v} + x{big}^2" for v in names])]
    return scene, argv + draw(st.sampled_from([[], ["--json"]]))


class TestMorphismContract:
    """`morphism` and `intrinsic --phi` honour the exit-code contract."""

    @staticmethod
    def run(argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        assert "Traceback" not in captured.err
        if code == 2:
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
        return code, captured

    def test_grid_exit_codes(self, tmp_path, capsys):
        runs = 0
        for label, scene, argv, expected in _morphism_scenes():
            path = write_scene(tmp_path, scene, f"{label}.json")
            for cap in ("0", "1"):
                code, _ = self.run(["morphism", "--scene", str(path), *argv,
                                    "--degree-cap", cap], capsys)
                assert code == expected, (label, cap)
                runs += 1
        assert runs == 64

    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(_fuzzed_arrows())
    def test_fuzzed_arrows_keep_the_contract(self, tmp_path, capsys, case):
        # exit 0, 1 or 2 with no traceback, and exit 2 with one error line
        scene, argv = case
        self.run([argv[0], "--scene", str(write_scene(tmp_path, scene)), *argv[1:]], capsys)

    @pytest.mark.parametrize("argv, message", [
        (["--source", "std2", "--target", "std2", "--map", "zero_section"],
         "error: morphism source does not match the first structure"),
        (["--source", "std1", "--target", "std1", "--map", "zero_section"],
         "error: morphism target does not match the second structure"),
        (["--source", "std1", "--target", "std2", "--map", "bare"],
         "error: auto mode needs a morphism with a retraction"),
    ], ids=["source_bundle", "target_bundle", "no_retraction"])
    def test_auto_mode_input_errors(self, tmp_path, capsys, argv, message):
        path = write_scene(tmp_path, _morphism_scene({
            "zero_section": {**_ZERO_SECTION, "retraction": ["x1"]}, "bare": _ZERO_SECTION}))
        code, captured = self.run(["morphism", "--scene", str(path), *argv], capsys)
        assert code == 2 and captured.err.splitlines() == [message]

    @pytest.mark.parametrize("n", _TOO_LARGE)
    def test_a_builtin_above_the_bundle_bound_is_not_built(self, capsys, monkeypatch, n):
        # the bound is checked before the structure is built, for --source
        # and --target alike; standard64, of rank 128, is still built
        built = refuse_large_builtins(monkeypatch)
        for source, target in ((f"standard{n}", "standard1"), ("standard64", f"standard{n}")):
            code, captured = self.run(["morphism", "--scene", str(SCENE), "--source", source,
                                       "--target", target, "--map", "nope"], capsys)
            assert code == 2 and captured.err.splitlines() == [_too_large(n)]
        assert built == [64]

    def test_pairs_file_that_is_not_a_list(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.json"
        pairs.write_text("5")
        code, captured = self.run([
            "morphism", "--scene", str(SCENE), "--source", "standard1",
            "--target", "standard2", "--map", "zero_section_embedding",
            "--pairs", str(pairs)], capsys)
        assert code == 2
        assert captured.err.splitlines() == ["error: pairs file must hold a list of pairs, got 5"]

    @pytest.mark.parametrize("entry, printed", [("fg", "'fg'"),
                                                ({"f": 0, "g": 1}, "{'f': 0, 'g': 1}")],
                             ids=["two_letter_string", "two_key_object"])
    def test_a_pair_entry_is_a_list_of_two_names(self, tmp_path, capsys, entry, printed):
        # f and g are equal under the identity, so ["f", "g"] passes; a
        # string or an object that unpacks to the two names is no pair
        sections = {name: {"bundle": "P1", "coeffs": ["x1", "1"]} for name in "fg"}
        identity = {"source": "P1", "target": "P1", "base_map": ["x1"],
                    "fiber_matrix": [["1", "0"], ["0", "1"]], "retraction": ["x1"]}
        scene = write_scene(tmp_path, {**_morphism_scene({"identity": identity}),
                                       "sections": sections})
        pairs = tmp_path / "pairs.json"
        argv = ["morphism", "--scene", str(scene), "--source", "std1", "--target", "std1",
                "--map", "identity", "--pairs", str(pairs)]
        pairs.write_text(json.dumps([["f", "g"]]))
        assert self.run(argv, capsys)[0] == 0
        pairs.write_text(json.dumps([entry]))
        code, captured = self.run(argv, capsys)
        assert code == 2 and captured.err.splitlines() == [f"error: bad pair entry {printed}"]

    def test_supplied_pairs_read_no_cap(self, tmp_path, capsys):
        # the supplied-pairs verdict brackets the pairs it is given, at no
        # cap: its report is the same at every cap and names its pairs
        # instead; the report on the same arrow in auto mode names the cap
        scene = json.loads(SCENE.read_text())
        scene["morphisms"]["identity2"] = {
            "source": "pontryagin2", "target": "pontryagin2", "base_map": ["x1", "x2"],
            "fiber_matrix": [[str(int(i == j)) for j in range(4)] for i in range(4)],
            "retraction": ["x1", "x2"]}
        pairs = tmp_path / "pairs.json"
        pairs.write_text('[["rotation", "rotation"], ["radial_form", "radial_form"]]')
        argv = ["morphism", "--scene", str(write_scene(tmp_path, scene)), "--source",
                "standard2", "--target", "standard2", "--map", "identity2", "--json"]
        reports = set()
        for cap in ("0", "3", "7"):
            code, captured = self.run(argv + ["--pairs", str(pairs), "--degree-cap", cap], capsys)
            assert code == 0 and captured.err == ""
            reports.add(captured.out)
        detail = json.loads(reports.pop())["verdict"]["detail"]
        assert not reports and detail == (
            "general-base criteria on the 2 supplied pairs, scope those sections only")
        code, captured = self.run(argv + ["--degree-cap", "7"], capsys)
        assert code == 0 and json.loads(captured.out)["verdict"]["detail"] == (
            "identity-base criteria: degree cap 7, decided at degree 1, scope all smooth sections")

    @pytest.mark.parametrize("count, expected", [(16, 0), (17, 2)])
    def test_pairs_file_is_bounded(self, tmp_path, capsys, count, expected):
        # every ordered pair of supplied pairs is checked: at most MAX_PAIRS = 16
        sections = {}
        for k in range(1, count + 1):
            sections[f"f{k}"] = {"bundle": "P1", "coeffs": [f"{k}*x1", f"{k}"]}
            sections[f"g{k}"] = {"bundle": "P2", "coeffs": [f"{k}*x1", "0", f"{k}", "0"]}
        scene = {**_morphism_scene({"zero_section": {**_ZERO_SECTION, "retraction": ["x1"]}}),
                 "sections": sections}
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([[f"f{k}", f"g{k}"] for k in range(1, count + 1)]))
        code, captured = self.run([
            "morphism", "--scene", str(write_scene(tmp_path, scene)), "--source", "std1",
            "--target", "std2", "--map", "zero_section", "--pairs", str(pairs)], capsys)
        assert code == expected
        if expected == 2:
            assert captured.err.splitlines() == [
                "error: too many supplied pairs: 17, more than 16"]

    @pytest.mark.parametrize("text, message", [
        ('{"fiber_matrix": [[0, 0], [0, 0]]}', "splitting matrix must be invertible"),
        ('{"fiber_matrix": [["1+", 0], [0, 1]]}',
         "splitting file: expected a rational (integer or 'p/q'), got '1+'"),
        ('{"fiber_matrix": [["y", 0], [0, 1]]}',
         "splitting file: expected a rational (integer or 'p/q'), got 'y'"),
        ('{"fiber_matrix": [[1e400, 0], [0, 1]]}',
         "splitting file: expected a rational (integer or 'p/q'), got inf"),
        ('{"fiber_matrix": [["2*3", 0], [0, 1]]}',
         "splitting file: expected a rational (integer or 'p/q'), got '2*3'"),
        ('{"fiber_matrix": 5}', "splitting file: fiber_matrix must be a list of lists, got 5"),
        ('{"fiber_matrix": [[1, 0], [0]]}', "splitting matrix must be 2 x 2"),
        ('{"matrix": [[1, 0], [0, 1]]}', "splitting file: missing field 'fiber_matrix'"),
        ('{"fiber_matrix": [[1, 0], [0, 1]], "label": "x"}',
         "splitting file: unknown field 'label'"),
        ('{"fiber_matrix": [[2, 0], [0, 1]], "fiber_matrix": [[1, 0], [0, 1]]}',
         "duplicate name 'fiber_matrix' in splitting file"),
        ("[[1, 0], [0, 1]]", "splitting file must be an object, got [[1, 0], [0, 1]]"),
    ], ids=["singular", "truncated_entry", "unknown_variable", "infinite_entry",
            "constant_expression", "not_a_matrix", "ragged", "missing_field", "unknown_field",
            "duplicate_field", "not_an_object"])
    def test_bad_splitting_file_exit_2(self, tmp_path, capsys, text, message):
        # the file is a one-field object under the scene's field rule, and
        # its entries are rationals, read as a metric's are
        phi = tmp_path / "phi.json"
        phi.write_text(text)
        code, captured = self.run(["intrinsic", "--n", "1", "--m", "0", "--phi", str(phi)],
                                  capsys)
        assert (code, captured.err) == (2, f"error: {message}\n")

    def test_splitting_entries_read_as_a_metric_reads_them(self, tmp_path, capsys):
        # an integer, a 'p/q' string and the same value spelled another way
        # give one splitting, and the report of the swap of v and p equals
        # the one of the same matrix written with other literals
        reports = []
        for rows in ([[0, 1], [1, 0]], [["0", "1/1"], ["2/2", "-0"]]):
            phi = tmp_path / "phi.json"
            phi.write_text(json.dumps({"fiber_matrix": rows}))
            code, captured = self.run(["intrinsic", "--n", "1", "--m", "0", "--phi", str(phi),
                                       "--json"], capsys)
            reports.append((code, captured.out))
        assert reports[0] == reports[1] and reports[0][1]


_FUZZED_TERMS = ["0", "1", "-1", "2", "1/2", "-3/2", "x1", "-2*x1", "x1^2", "x1*x2",
                 "x2 - 1", "3*x2^2", "x1^16384"]


@st.composite
def _fuzzed_structures(draw, command):
    """(scene, argv without --scene) for `axioms` or `leibniz` on one drawn
    structure over R^1 or R^2 of rank 1-4, odd ranks included: a scaled
    hyperbolic or a drawn metric (singular or not symmetric at times),
    sparse polynomial anchor entries (one near half the exponent limit) and
    a few bumped structure functions; or a builtin standard<N>, at caps -1
    to 4."""
    n, k = draw(st.integers(1, 2)), draw(st.integers(1, 4))

    def term():
        text = draw(st.sampled_from(_FUZZED_TERMS))
        return text.replace("x2", "x1") if n == 1 else text

    if k % 2 == 0 and draw(st.booleans()):
        lam = draw(st.sampled_from(["1", "-2", "1/3"]))
        metric = [[lam if abs(i - j) == k // 2 else "0" for j in range(k)] for i in range(k)]
    else:
        metric = [["0"] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                metric[i][j] = metric[j][i] = draw(st.sampled_from(["0", "0", "1", "-1", "2"]))
        if draw(st.integers(0, 9)) == 0:
            metric[0][k - 1] = "3"
    spec = {"bundle": "E", "metric": metric,
            "anchor": [[term() if draw(st.integers(0, 2)) == 0 else "0" for _ in range(k)]
                       for _ in range(n)]}
    functions = {",".join(str(draw(st.integers(1, k))) for _ in range(3)): term()
                 for _ in range(draw(st.integers(0, 3)))}
    if functions:
        spec["structure_functions"] = functions
    scene = {"schema_version": 1, "bundles": {"E": {"base_dim": n, "rank": k}},
             "courant_structures": {"s": spec}}
    name = draw(st.sampled_from(["s", "s", "s", "standard1", "standard3", "standard9"]))
    return scene, [command, "--structure", name, "--degree-cap", str(draw(st.integers(-1, 4))),
                   *draw(st.sampled_from([[], ["--json"]]))]


def _fuzzed_contract(tmp_path, capsys, case):
    # exit 0, 1 or 2 with no traceback, and exit 2 with one error line; a
    # scratch run of 6,000 such scenes found no input that breaks it
    scene, argv = case
    TestMorphismContract.run([argv[0], "--scene", str(write_scene(tmp_path, scene)), *argv[1:]],
                             capsys)


class TestAxiomsContract:
    """`axioms` honours the exit-code contract on drawn structures."""

    @settings(max_examples=400, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(_fuzzed_structures("axioms"))
    def test_fuzzed_structures_keep_the_contract(self, tmp_path, capsys, case):
        _fuzzed_contract(tmp_path, capsys, case)

    # each constructor rejection and the one error line it prints
    REJECTIONS = {
        "metric_not_k_by_k": ({"metric": [["0", "1"]]}, "metric must be 2 x 2"),
        "ragged_metric_row": ({"metric": [["0", "1"], ["1"]]}, "metric must be 2 x 2"),
        "asymmetric_below_the_diagonal": ({"metric": [["1", "0"], ["2", "1"]]},
                                          "metric must be symmetric"),
        "singular_monomial_metric": ({"metric": [["1", "0"], ["0", "0"]]},
                                     "metric must have nonzero determinant"),
        "singular_metric": ({"metric": [["1", "2"], ["2", "4"]]},
                            "metric must have nonzero determinant"),
        "anchor_not_n_by_k": ({"anchor": [["1"]]}, "anchor must be 1 x 2"),
        "structure_function_index": ({"structure_functions": {"1,3,1": "1"}},
                                     "structure function key '1,3,1' is out of range 1..2"),
    }

    @pytest.mark.parametrize("name", REJECTIONS)
    def test_constructor_rejection_keeps_its_error_line(self, name):
        fields, message = self.REJECTIONS[name]
        spec = {"bundle": "P1", "anchor": [["1", "0"]], "metric": [["0", "1"], ["1", "0"]],
                **fields}
        assert _axioms_beside({"courant_structures": {"s": spec}}, "s") == (
            2, f"error: courant_structure 's': {message}\n")

    def test_a_double_dash_value_is_a_missing_value(self, capsys):
        # argparse stores --structure=-- as an empty list
        assert TestMorphismContract.run(["axioms", "--structure=--"], capsys) == (2, (
            "", "error: argument --structure: expected one argument\n"))

    def test_an_unwritable_out_is_one_error_line(self, tmp_path, capsys):
        # a directory as --out once ended in a traceback of IsADirectoryError
        out = str(tmp_path)
        assert TestMorphismContract.run(["axioms", *_REQUIRED["axioms"], "--out", out],
                                        capsys) == (2, ("", (
            f"error: cannot write --out {out!r}: [Errno 21] Is a directory: {out!r}\n")))

    @pytest.mark.parametrize("n", _TOO_MANY_DIGITS, ids=["4_digits", "5001_digits"])
    def test_a_builtin_of_four_digits_names_the_structure(self, capsys, monkeypatch, n):
        built = refuse_large_builtins(monkeypatch)
        assert TestMorphismContract.run(["axioms", "--structure", f"standard{n}"], capsys) == (
            2, ("", _too_large(n) + "\n"))
        assert built == []

    def test_a_rank_0_bundle_still_loads(self):
        spec = {"bundle": "P0", "anchor": [[]], "metric": []}
        assert _axioms_beside({"bundles": {"P0": {"base_dim": 1, "rank": 0}},
                               "courant_structures": {"s": spec}}, "s") == (0, "")

    @pytest.mark.parametrize("cap, expected", [(-1, 2), (1, 0), (2, 0), (3, 0)])
    def test_every_cap_of_0_or_more_is_decided(self, capsys, cap, expected):
        # standard9 decides at min(cap, 1) at every cap; its families of
        # 990 and 3960 sections at caps 2 and 3 once exited 2
        code, captured = TestMorphismContract.run(
            ["axioms", "--structure", "standard9", "--degree-cap", str(cap)], capsys)
        assert code == expected
        if cap >= 0:
            assert captured.err == "" and captured.out.count(
                f"certified: degree cap {cap}, decided at degree {min(cap, 1)}") == 3

    @pytest.mark.parametrize("cap", [1, 10 ** 40])
    def test_a_wide_base_decides_at_any_cap(self, tmp_path, capsys, cap):
        # rank 2 over R^128: no cap is too large, and no detail prints a
        # family size, which at cap 10^40 would pass the digits str() writes
        spec = {"bundle": "E", "anchor": [["0", "0"]] * 128, "metric": [["0", "1"], ["1", "0"]]}
        path = write_scene(tmp_path, {"schema_version": 1,
                                      "bundles": {"E": {"base_dim": 128, "rank": 2}},
                                      "courant_structures": {"s": spec}})
        code, captured = TestMorphismContract.run(
            ["axioms", "--scene", str(path), "--structure", "s", "--degree-cap", str(cap),
             "--json"], capsys)
        assert code == 0 and json.loads(captured.out)["degree_cap"] == cap

    @pytest.mark.parametrize("n", [127, 128])
    def test_the_walk_skips_the_variables_no_slot_differentiates(self, tmp_path, capsys, n):
        # rank 2 over R^n with anchor row 1 = [1, 1]: only x1 is walked, so
        # (i) fails first on (x1 e_0, e_1, x1 e_0) without the (n+1)^3
        # places; at n = 128 the slot tables' (n k)^2 is MAX_TABLE_WORK itself
        spec = {"bundle": "E", "anchor": [["1", "1"]] + [["0", "0"]] * (n - 1),
                "metric": [["0", "1"], ["1", "0"]]}
        path = write_scene(tmp_path, {"schema_version": 1,
                                      "bundles": {"E": {"base_dim": n, "rank": 2}},
                                      "courant_structures": {"s": spec}})
        code, captured = TestMorphismContract.run(
            ["axioms", "--scene", str(path), "--structure", "s", "--degree-cap", "1", "--json"],
            capsys)
        check = json.loads(captured.out)["axioms"]["i"]
        assert code == 1 and check["witness"]["sections"] == [["x1", "0"], ["0", "1"],
                                                              ["x1", "0"]]
        assert check["detail"].endswith("least failing tuple from the slot tables of (i)")

    PAST_THE_WORK_BOUND = {
        # rank 3 over R^128 with anchor row 1 = [0, 0, 1]: rho o D = 1 is
        # nonzero, so (i), which holds on every frame triple, needs the slot
        # tables, whose (128 * 3)^2 keys are never built (the cap-1 family
        # of 387 sections once exited 2 as well)
        "slot_tables": (128, 3, [["0", "0", "1"]] + [["0", "0", "0"]] * 127,
                        [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]],
                        "147456 slot-table keys, (n k)^2"),
        # a dense constant anchor at rank 128 over R^128 with the split
        # pairing: rho o D would take 128 products per anchor entry
        "anchor_products": (128, 128, [[str((a + b) % 3 + 1) for b in range(128)]
                                       for a in range(128)],
                            [[str(int(i == (j + 64) % 128)) for j in range(128)]
                             for i in range(128)],
                            "2097152 anchor products"),
    }

    @pytest.mark.parametrize("name", PAST_THE_WORK_BOUND)
    def test_degree_1_tables_past_the_work_bound_exit_2(self, tmp_path, capsys, name):
        n, k, anchor, metric, work = self.PAST_THE_WORK_BOUND[name]
        path = write_scene(tmp_path, {"schema_version": 1,
                                      "bundles": {"E": {"base_dim": n, "rank": k}},
                                      "courant_structures": {"s": {
                                          "bundle": "E", "anchor": anchor, "metric": metric}}})
        assert TestMorphismContract.run(["axioms", "--scene", str(path), "--structure", "s"],
                                        capsys) == (2, ("", (
            f"error: deciding axiom (i) at degree 1 takes {work}, more than the 65536 "
            "the certificate allows\n")))

    def test_a_dense_rank_128_scene_is_refused_before_its_tables_are_formed(self, tmp_path):
        # dense invertible G, a dense constant anchor and c = 0 at rank 128
        # over R^128: (i) holds on every frame triple and rho o D is nonzero,
        # so the degree-1 tables would decide it, the slot tables with some
        # 2.7e8 keys; their work is counted from the anchor's nonzero entries
        # and refused with no G^-1 A^T, product or table formed
        n = k = 128
        spec = {"bundle": "E",
                "anchor": [[str((a * 7 + b * 3) % 5 + 1) for b in range(k)] for a in range(n)],
                "metric": [["2" if i == j else "1" for j in range(k)] for i in range(k)]}
        s = load_scene(write_scene(tmp_path, {
            "schema_version": 1, "bundles": {"E": {"base_dim": n, "rank": k}},
            "courant_structures": {"s": spec}})).structures["s"]
        tracemalloc.start()
        try:
            started = time.perf_counter()
            with pytest.raises(ValueError, match="takes 2097152 anchor products"):
                check_axioms(s, degree_cap=3)
            elapsed, peak = time.perf_counter() - started, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 0.2 s and 9 MB measured, most of it the anchor's frame tables,
        # which every axiom reads; the slot tables alone would take GBs
        assert s._dual is None and elapsed < 10 and peak < 2 ** 24


class TestLeibnizContract:
    """`leibniz` honours the exit-code contract on drawn structures."""

    @settings(max_examples=400, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(_fuzzed_structures("leibniz"))
    def test_fuzzed_structures_keep_the_contract(self, tmp_path, capsys, case):
        _fuzzed_contract(tmp_path, capsys, case)

    def test_a_double_dash_value_is_a_missing_value(self, capsys):
        # argparse stores --structure=-- as an empty list
        assert TestMorphismContract.run(["leibniz", "--structure=--"], capsys) == (2, (
            "", "error: argument --structure: expected one argument\n"))

    @pytest.mark.parametrize("n", _TOO_MANY_DIGITS, ids=["4_digits", "5001_digits"])
    def test_a_builtin_of_four_digits_names_the_structure(self, capsys, monkeypatch, n):
        built = refuse_large_builtins(monkeypatch)
        assert TestMorphismContract.run(["leibniz", "--structure", f"standard{n}"], capsys) == (
            2, ("", _too_large(n) + "\n"))
        assert built == []

    def test_an_anchor_entry_at_the_exponent_limit_overflows(self, tmp_path, capsys):
        # the witness g = x1 e_0 shifts A_00 = x1^32767 past the limit of the
        # packed keys
        path = write_scene(tmp_path, {
            "schema_version": 1, "bundles": {"P1": {"base_dim": 1, "rank": 2}},
            "courant_structures": {"s": {"bundle": "P1", "anchor": [["x1^32767", "0"]],
                                         "metric": [["0", "1"], ["1", "0"]]}}})
        assert TestMorphismContract.run(["leibniz", "--scene", str(path), "--structure", "s"],
                                        capsys) == (2, ("", (
            "error: a product has an exponent above 32767, the per-variable limit of the "
            "packed monomial keys\n")))


class TestParserBounds:
    """Powers too large to form are input errors on every parsing path.

    Each command runs in a child interpreter capped at 512 MiB of address
    space and 60 s, so an unbounded power fails there instead of exhausting
    the machine's memory.
    """

    BOMBS = ["2^99999999999", "(2^32767)^32767", "1" + "0" * 5000, "(1+x1)^32767",
             "(1+x1)^3000", "*".join(["2^32767"] * 2000), "+".join(["(1+x1)^700"] * 50)]
    IDS = ["exponent", "nested", "literal", "sum_power", "sum_power_3000", "product",
           "total"]

    @staticmethod
    def run_capped(argv):
        def cap_memory():
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))

        result = subprocess.run([sys.executable, "-m", "courantlab.cli", *argv],
                                capture_output=True, text=True, timeout=60,
                                preexec_fn=cap_memory)
        assert result.returncode == 2, result.stderr[-500:]
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        return lines[0]

    @pytest.mark.parametrize("entry", BOMBS, ids=IDS)
    def test_intrinsic_phi(self, tmp_path, entry):
        # a splitting entry is a rational, as a metric's is: no power is formed
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps({"fiber_matrix": [[entry, "0"], ["0", "1"]]}))
        line = self.run_capped(["intrinsic", "--n", "1", "--m", "0", "--phi", str(phi)])
        assert line == f"error: splitting file: expected a rational (integer or 'p/q'), " \
            f"got {_shown(entry)}"

    @pytest.mark.parametrize("entry", BOMBS, ids=IDS)
    def test_scene_expression(self, tmp_path, entry):
        path = write_scene(tmp_path, _morphism_scene({
            "bomb": {**_ZERO_SECTION, "fiber_matrix": [[entry, "0"], ["0", "0"],
                                                        ["0", "1"], ["0", "0"]]}}))
        line = self.run_capped(["morphism", "--scene", str(path), "--source", "std1",
                                "--target", "std2", "--map", "bomb"])
        assert "morphism 'bomb'" in line

    @pytest.mark.parametrize("entry", BOMBS, ids=IDS)
    def test_alt_retraction(self, entry):
        line = self.run_capped(["pullback", "--scene", str(SCENE), "--ambient", "standard2",
                                "--morphism", "zero_section_embedding",
                                "--alt-retraction", json.dumps([f"x1 + {entry}"])])
        assert line.startswith("error: bad --alt-retraction")


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        outputs = []
        for run in range(2):
            result = subprocess.run(
                [sys.executable, "-m", "courantlab.cli", "axioms",
                 "--structure", "standard2", "--seed", "0", "--json"],
                capture_output=True, check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]

    def test_scene_command_byte_identical(self):
        outputs = []
        for run in range(2):
            result = subprocess.run(
                [sys.executable, "-m", "courantlab.cli", "morphism",
                 "--scene", str(SCENE), "--source", "standard1",
                 "--target", "scaled2x", "--map", "metric_scaling_probe",
                 "--seed", "0", "--json"],
                capture_output=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1] and outputs[0]


    def test_no_report_depends_on_the_seed(self, capsys):
        commands = [
            ["axioms", "--structure", "standard2"],
            ["leibniz", "--structure", "standard2"],
            ["morphism", "--scene", str(SCENE), "--source", "standard1", "--target",
             "standard2", "--map", "zero_section_embedding"],
            ["pullback", "--scene", str(SCENE), "--ambient", "standard2", "--morphism",
             "zero_section_embedding", "--alt-retraction", '["x1 + x2^2"]'],
            ["intrinsic", "--n", "1", "--m", "1"],
        ]
        for argv in commands:
            outputs = []
            for seed in ("0", "987654"):
                code = main([*argv, "--seed", seed, "--json"])
                text = capsys.readouterr().out
                outputs.append((code, text.replace(f'"seed": {seed},', '"seed": S,')))
            assert outputs[0] == outputs[1], argv[0]


class TestWitnessDeterminism:
    """Every witness is the least failing tuple in one order, so writing a
    scene's structure functions in another key order, with their terms in
    another order, changes no report byte."""

    FUNCTIONS = {"3,3,1": "1*x1*x2 + 2*1", "1,3,4": "1*x1 + 2*x1*x2", "1,2,4": "1/2*x2 + 2*1"}

    @staticmethod
    def scene(functions):
        metric = [["-2/5" if abs(i - j) == 2 else "0" for j in range(4)] for i in range(4)]
        identity = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
        return {"schema_version": 1, "bundles": {"P2": {"base_dim": 2, "rank": 4}},
                "courant_structures": {
                    "s": {"bundle": "P2", "anchor": _STANDARD["std2"]["anchor"],
                          "metric": metric, "structure_functions": functions},
                    "std2": _STANDARD["std2"]},
                "morphisms": {"id": {"source": "P2", "target": "P2", "base_map": ["x1", "x2"],
                                     "fiber_matrix": identity}}}

    def test_reordered_scene_gives_identical_reports(self, tmp_path, capsys):
        reordered = {key: " + ".join(reversed(expr.split(" + ")))
                     for key, expr in reversed(self.FUNCTIONS.items())}
        assert list(reordered) == ["1,2,4", "1,3,4", "3,3,1"]
        assert reordered["1,3,4"] == "2*x1*x2 + 1*x1"
        commands = [(["axioms", "--structure", "s"], 1), (["leibniz", "--structure", "s"], 0),
                    (["morphism", "--source", "s", "--target", "std2", "--map", "id"], 1)]
        outputs = []
        for name, functions in (("given.json", self.FUNCTIONS), ("reordered.json", reordered)):
            path = str(write_scene(tmp_path, self.scene(functions), name))
            for argv, code in commands:
                assert main([*argv, "--scene", path, "--degree-cap", "1", "--json"]) == code
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].count('"witness"') >= 5


# -- intrinsic and load_scene under fuzzing --------------------------------------

_WRONG_TYPES = [None, True, 1.5, -1, "x1", "", [], {}, [[1]], [["1", "0"], ["0"]], {"a": 1}]


@st.composite
def _intrinsic_runs(draw):
    """(argv without --phi, phi file text or None) for `intrinsic`: --n,
    --m and --degree-cap small, negative or large, and a splitting file that
    is valid, non-square, singular, ragged or wrong-typed."""
    dimension = st.one_of(st.integers(-2, 3), st.sampled_from([-10 ** 9, 40, 10 ** 9]))
    n, m = draw(dimension), draw(dimension)
    argv = ["intrinsic", "--n", str(n), "--m", str(m), "--degree-cap",
            str(draw(st.one_of(st.integers(-2, 4), st.sampled_from([10 ** 6, 10 ** 30]))))]
    argv += draw(st.sampled_from([[], ["--json"]]))
    if not draw(st.booleans()):
        return argv, None
    size = max(0, min(2 * n + 2 * m, 6)) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    entry = st.sampled_from(["1", "0", "-1", "1/2", "2", "x1", 3, 0, 1])
    rows = [[draw(entry) for _ in range(size + draw(st.sampled_from([0, 0, 0, 0, 1, -1])))]
            for _ in range(max(size, 0))]
    kind = draw(st.sampled_from(["permutation", "drawn", "singular", "wrong_type", "shape"]))
    if kind == "permutation" and size > 0:
        order = draw(st.permutations(range(size)))
        rows = [[int(j == order[i]) for j in range(size)] for i in range(size)]
    elif kind == "singular":
        rows = [[0] * size for _ in range(size)]
    elif kind == "wrong_type" and rows and rows[0]:
        rows[draw(st.integers(0, len(rows) - 1))][0] = draw(st.sampled_from(_WRONG_TYPES))
    spec = {"fiber_matrix": rows}
    if kind == "shape":
        spec = draw(st.sampled_from([rows, {"fiber_matrix": draw(st.sampled_from(_WRONG_TYPES))},
                                     {"matrix": rows}, "text", 5]))
    return argv, json.dumps(spec)


class TestIntrinsicContract:
    """`intrinsic` honours the exit-code contract on fuzzed dimensions, caps
    and splitting files."""

    @settings(max_examples=400, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(_intrinsic_runs())
    def test_fuzzed_runs_keep_the_contract(self, tmp_path, capsys, case):
        argv, phi = case
        if phi is not None:
            path = tmp_path / "phi.json"
            path.write_text(phi)
            argv = argv + ["--phi", str(path)]
        TestMorphismContract.run(argv, capsys)

    def test_a_double_dash_value_is_a_missing_value(self, capsys):
        # argparse stores --n=-- as an empty list
        assert TestMorphismContract.run(["intrinsic", "--n=--", "--m", "1"], capsys) == (2, (
            "", "error: argument --n: expected one argument\n"))

    @pytest.mark.parametrize("n, m", [(10 ** 9, 0), (0, 10 ** 9), (40, 25)])
    def test_dimensions_are_bounded(self, capsys, n, m):
        # the splitting matrix has (2n + 2m)^2 entries: a rank above 128 is
        # an input error, not a MemoryError
        code, captured = TestMorphismContract.run(
            ["intrinsic", "--n", str(n), "--m", str(m)], capsys)
        assert code == 2
        assert captured.err == f"error: --n + --m must be at most 64, got {n + m}\n"

    def test_largest_dimension_runs(self, capsys):
        code, _ = TestMorphismContract.run(["intrinsic", "--n", "40", "--m", "24"], capsys)
        assert code == 1


def _scene_paths(value, path=()):
    """Every path to a value inside a JSON value, the root excluded."""
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _scene_paths(child, path + (key,))


_LOAD_BASE = {
    "schema_version": 1,
    "bundles": {"P1": {"base_dim": 1, "rank": 2}, "P2": {"base_dim": 2, "rank": 4}},
    "courant_structures": {**_STANDARD, "bumped": {**_STANDARD["std1"],
                                                   "structure_functions": {"1,1,2": "x1"}}},
    "morphisms": {"phi": {**_ZERO_SECTION, "retraction": ["x1"]}},
    "sections": {"f": {"bundle": "P1", "coeffs": ["x1", "1"]}},
    "ph_systems": {"osc": {"n": 2, "m": 1, "J": [[0, 1], [-1, 0]], "B": [[1], [0]],
                           "H": "1/2*x1^2 + 1/2*x2^2"}},
    "inputs": {"u": {"u": ["1"]}},
}
_LOAD_PATHS = list(_scene_paths(_LOAD_BASE))
_LOAD_COMMANDS = [
    ["axioms", "--structure", "std1"],
    ["morphism", "--source", "std1", "--target", "std2", "--map", "phi"],
    ["pullback", "--ambient", "std2", "--morphism", "phi"],
    ["dirac", "--system", "osc"],
]


_GONE = object()


def _held(value, key):
    """value[key] when value is a dict or a list that holds key, else _GONE."""
    if isinstance(value, dict) and key in value:
        return value[key]
    if isinstance(value, list) and isinstance(key, int) and key < len(value):
        return value[key]
    return _GONE


def _square(value):
    return isinstance(value, list) and all(isinstance(row, list) for row in value) and value


@st.composite
def _corrupted_scenes(draw):
    """(scene, argv without --scene): the base scene with one to three
    corruptions, each a deleted key, a value of the wrong type, or a matrix
    made non-square, ragged or singular."""
    scene = json.loads(json.dumps(_LOAD_BASE))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(_LOAD_PATHS))
        parent = scene
        for key in path[:-1]:
            parent = _held(parent, key)
        value = _held(parent, path[-1])
        if value is _GONE:
            continue    # an earlier corruption removed the path
        how = draw(st.sampled_from(["delete", "wrong_type", "ragged", "drop_row", "singular"]))
        if how == "delete":
            del parent[path[-1]]
        elif how == "wrong_type" or not _square(value):
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(_WRONG_TYPES)))
        elif how == "ragged":
            value[draw(st.integers(0, len(value) - 1))].append("0")
        elif how == "drop_row":
            value.pop()
        else:
            parent[path[-1]] = [[0] * len(row) for row in value]
    return scene, draw(st.sampled_from(_LOAD_COMMANDS))


# each fault of a JSON input and its error line, which names the input
_UNREADABLE = {
    "not_utf8": (b'["\xff"]', "{} is not valid JSON: 'utf-8' codec can't decode byte 0xff in "
                              "position 2: invalid start byte"),
    "too_deep": (b"[" * 100_000, "{} is not valid JSON: maximum recursion depth exceeded"),
    "duplicate_key": (b'[{"a": 1, "a": 2}]', "duplicate name 'a' in {}"),
    "bom": (b"\xef\xbb\xbf[]", "{} is not valid JSON: Unexpected UTF-8 BOM (decode using "
                                "utf-8-sig): line 1 column 1 (char 0)"),
}
# every JSON input with each fault; argv holds text, never bytes that are not UTF-8
_JSON_FAULTS = [(reader, fault) for reader in ("scene", "pairs", "phi", "alt_retraction")
                for fault in _UNREADABLE if (reader, fault) != ("alt_retraction", "not_utf8")]


class TestLoadSceneContract:
    """Scene loading honours the exit-code contract on corrupted scenes."""

    @settings(max_examples=800, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(_corrupted_scenes())
    def test_corrupted_scenes_keep_the_contract(self, tmp_path, capsys, case):
        scene, argv = case
        TestMorphismContract.run([argv[0], "--scene", str(write_scene(tmp_path, scene)),
                                  *argv[1:]], capsys)

    @pytest.mark.parametrize("key", ["base_dim", "rank"])
    def test_bundle_sizes_are_bounded_before_loading(self, tmp_path, capsys, key):
        # a morphism source with base_dim 10^12 once made loading list 10^12
        # variable names; the bound rejects it before any name is formed
        scene = {"schema_version": 1,
                 "bundles": {"B": {"base_dim": 1, "rank": 1, key: 10 ** 12},
                             "T": {"base_dim": 1, "rank": 1}},
                 "morphisms": {"phi": {"source": "B", "target": "T", "base_map": ["x1"],
                                       "fiber_matrix": [["1"]]}}}
        code, captured = TestMorphismContract.run(
            ["morphism", "--scene", str(write_scene(tmp_path, scene)), "--source", "standard1",
             "--target", "standard1", "--map", "phi"], capsys)
        assert code == 2
        assert captured.err == f"error: bundle 'B': {key} must be at most 128, got {10 ** 12}\n"

    @pytest.mark.parametrize("data, message", [
        (b'\xef\xbb\xbf{"schema_version": 1}',
         "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        ('{"schema_version": 1}'.encode("utf-16"),
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b'{\r\n "schema_version": 1,\r\n "bundles": {\r\n  "B": {"base_dim": 1 "rank": 2}'
         b'\r\n }\r\n}\r\n', "Expecting ',' delimiter: line 4 column 23 (char 60)"),
        (b'{\r "schema_version": 1,\r "bundles": {"B": {"base_dim": 1,\r "rank": 2,}}\r}\r',
         "Expecting property name enclosed in double quotes: line 4 column 12 (char 69)"),
    ], ids=["utf8_bom", "utf16", "crlf_syntax_error", "lone_cr_syntax_error"])
    def test_scene_reader_error_lines(self, tmp_path, capsys, data, message):
        # the lines a text reader gives: strict UTF-8, so a BOM is not
        # skipped, and positions counted after \r\n and \r become \n
        path = tmp_path / "scene.json"
        path.write_bytes(data)
        assert main(["axioms", "--scene", str(path), "--structure", "standard1"]) == 2
        assert capsys.readouterr() == ("", f"error: scene file is not valid JSON: {message}\n")

    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
    def test_the_schema_version_is_the_json_integer_1(self, tmp_path, capsys, version):
        # JSON true and 1.0 once read as version 1 and exited 0
        argv = ["axioms", "--scene", str(write_scene(tmp_path, {"schema_version": version})),
                "--structure", "standard1"]
        assert TestMorphismContract.run(argv, capsys) == (
            2, ("", f"error: scene: schema_version must be 1, got {version!r}\n"))

    def test_a_refused_value_is_cut_in_its_error_line(self, tmp_path, capsys):
        # a 300,000-character metric entry once gave a 300,077-byte line;
        # every refused value is shown in at most 80 characters: an entry, an
        # expression that is no string, an unknown name or trailing input, a
        # duplicate name, an --x0 part or the whole --x0, a pair entry and an
        # --alt-retraction that is no array
        long = "7" * 150_000 + "/" + "3" * 149_999
        lists = tmp_path / "list.json"
        lists.write_text(json.dumps([[long]]))
        structure = {"bundle": "P1", "anchor": [["1", "0"]], "metric": [[long, 1], [1, 0]]}
        duplicate = tmp_path / "duplicate.json"
        duplicate.write_text('{"schema_version": 1, "%s": 1, "%s": 2}' % (long, long))
        run = ["simulate", "--scene", str(SCENE), *_REQUIRED["simulate"]]
        lines = [_axioms_beside({"courant_structures": {"s": structure}}, "s")[1],
                 *(_axioms_beside({"sections": {"s": {"bundle": "P1", "coeffs": [coeff, "0"]}}})[1]
                   for coeff in ([long], "y" * 300_000, "1 y" + "y" * 300_000))]
        for argv in (["axioms", "--scene", str(duplicate), "--structure", "standard1"],
                     [*run, "--x0", "1," + long], [*run, "--x0", "1," + "0" * 300_000 + "1e999"],
                     ["morphism", "--scene", str(SCENE), *_REQUIRED["morphism"],
                      "--pairs", str(lists)],
                     ["pullback", "--scene", str(SCENE), "--ambient", "standard2", "--morphism",
                      "zero_section_embedding", "--alt-retraction", json.dumps(long)]):
            code, captured = TestMorphismContract.run(argv, capsys)
            assert code == 2
            lines.append(captured.err)
        for line in lines:
            assert line.startswith("error: ") and line.count("\n") == 1 and len(line) < 200, line
        assert lines[0].endswith("got " + repr(long)[:77] + "...\n")

    @pytest.mark.parametrize("reader, fault", _JSON_FAULTS,
                             ids=[f"{reader}_{fault}" for reader, fault in _JSON_FAULTS])
    def test_unreadable_json_exits_2(self, tmp_path, capsys, reader, fault):
        # bytes that are not UTF-8 and arrays nested past the recursion
        # limit once ended in a traceback; every JSON input goes through the
        # scene's one reader, so each refuses a duplicate key and a BOM alike
        text, line = _UNREADABLE[fault]
        path = tmp_path / "input.json"
        path.write_bytes(text)
        argv, what = {
            "scene": (["axioms", "--scene", str(path), "--structure", "standard1"],
                      "scene file"),
            "pairs": (["morphism", "--scene", str(SCENE), *_REQUIRED["morphism"],
                       "--pairs", str(path)], "pairs file"),
            "phi": (["intrinsic", *_REQUIRED["intrinsic"], "--phi", str(path)],
                    "splitting file"),
            "alt_retraction": (["pullback", "--scene", str(SCENE), "--ambient", "standard2",
                                "--morphism", "zero_section_embedding",
                                "--alt-retraction", text.decode("utf-8", "surrogateescape")],
                               "--alt-retraction"),
        }[reader]
        code, captured = TestMorphismContract.run(argv, capsys)
        assert code == 2 and captured.err.startswith(f"error: {line.format(what)}")

    @pytest.mark.parametrize("argv, what", [
        (["axioms", "--scene=", "--structure", "standard1"], "scene file"),
        (["morphism", "--scene", str(SCENE), "--source", "standard1", "--target", "standard1",
          "--map", "identity1", "--pairs="], "pairs file"),
        (["intrinsic", "--n", "1", "--m", "1", "--phi="], "splitting file"),
    ], ids=["scene", "pairs", "phi"])
    def test_an_empty_path_is_read(self, capsys, argv, what):
        # `--scene=` once read as no scene and `--phi=` as no splitting
        code, captured = TestMorphismContract.run(argv, capsys)
        assert (code, captured.err) == (
            2, f"error: cannot read {what}: [Errno 2] No such file or directory: ''\n")

    def test_parentheses_nested_too_deep_exit_2(self, tmp_path, capsys):
        # the expression parser's RecursionError once ended in a traceback
        text = "(" * 5000 + "x1" + ")" * 5000
        path = write_scene(tmp_path, {"schema_version": 1,
                                      "bundles": {"E": {"base_dim": 1, "rank": 1}},
                                      "sections": {"s": {"bundle": "E", "coeffs": [text]}}})
        code, captured = TestMorphismContract.run(
            ["axioms", "--scene", str(path), "--structure", "standard1"], capsys)
        assert code == 2
        assert captured.err.startswith("error: section 's': maximum recursion depth exceeded")

    @pytest.mark.parametrize("section, entry, key", [
        ("bundles", {"base_dim": True, "rank": 2}, "base_dim"),
        ("bundles", {"base_dim": 1, "rank": False}, "rank"),
        ("ph_systems", {"n": True, "m": False, "J": [[0]], "B": [], "H": "x1^2"}, "n"),
        ("ph_systems", {"n": 1, "m": False, "J": [[0]], "B": [], "H": "x1^2"}, "m"),
    ], ids=["base_dim", "rank", "n", "m"])
    def test_a_json_boolean_is_no_dimension(self, tmp_path, capsys, section, entry, key):
        # bool is a subclass of int, so true once loaded as 1 and false as 0
        scene = write_scene(tmp_path, {"schema_version": 1, section: {"s": entry}})
        noun = {"bundles": "bundle", "ph_systems": "ph_system"}[section]
        code, captured = TestMorphismContract.run(
            ["axioms", "--scene", str(scene), "--structure", "standard1"], capsys)
        assert (code, captured.err) == (
            2, f"error: {noun} 's': {key} must be an integer, got {entry[key]}\n")

    @pytest.mark.parametrize("key, reason", [
        ("01,1,2", "is not 'i,j,h'"), ("1_0,1,1", "is not 'i,j,h'"),
        (" 1 ,1,1", "is not 'i,j,h'"), ("0,1,1", "is out of range 1..2"),
        ("3,1,1", "is out of range 1..2"), ("a,1,1", "is not 'i,j,h'"),
        ("1,2", "is not 'i,j,h'"),
    ], ids=["leading_zero", "underscore", "spaces", "index_0", "past_the_rank", "not_a_number",
            "two_parts"])
    def test_a_structure_function_key_has_one_spelling(self, key, reason):
        # int() read "01" and "1_0" as 1 and 10, and a key out of range was
        # named by its 0-based index, as "(2, 0, 0)" for "3,1,1"
        spec = {"bundle": "P1", "anchor": [["1", "0"]], "metric": [["0", "1"], ["1", "0"]],
                "structure_functions": {key: "1"}}
        assert _axioms_beside({"courant_structures": {"s": spec}}, "s") == (
            2, f"error: courant_structure 's': structure function key {key!r} {reason}\n")

    @pytest.mark.parametrize("functions", [{"1,1,2": "1", "01,1,2": "0"},
                                           {"01,1,2": "0", "1,1,2": "1"}], ids=["first", "last"])
    def test_two_spellings_of_one_key_exit_2_in_either_order(self, functions):
        # both spellings once named c_11^2, and the later one won: the
        # verdict depended on the order of the keys
        spec = {"bundle": "P1", "anchor": [["1", "0"]], "metric": [["0", "1"], ["1", "0"]],
                "structure_functions": functions}
        assert _axioms_beside({"courant_structures": {"s": spec}}, "s") == (
            2, "error: courant_structure 's': structure function key '01,1,2' is not 'i,j,h'\n")

    @pytest.mark.parametrize("section, label", [
        ("bundles", [1, 2]), ("bundles", 7), ("ph_systems", {"x": 1}), ("ph_systems", None),
    ], ids=["bundle_list", "bundle_integer", "ph_system_object", "ph_system_null"])
    def test_a_label_must_be_a_string(self, section, label):
        # a bundle's label is printed as the "bundle" of a built structure,
        # which then no scene could load
        entry = {"bundles": {"base_dim": 1, "rank": 2},
                 "ph_systems": {"n": 1, "m": 0, "J": [[0]], "B": [], "H": "x1^2"}}[section]
        noun = {"bundles": "bundle", "ph_systems": "ph_system"}[section]
        assert _axioms_beside({section: {"P1": {**entry, "label": label}}}) == (
            2, f"error: {noun} 'P1': label must be a string, got {label!r}\n")

    def test_largest_bundle_loads(self, tmp_path, capsys):
        scene = {"schema_version": 1, "bundles": {"B": {"base_dim": 128, "rank": 128}}}
        code, _ = TestMorphismContract.run(
            ["axioms", "--scene", str(write_scene(tmp_path, scene)), "--structure", "standard1"],
            capsys)
        assert code == 0


# -- the canonical JSON writer and the per-load literal memo -----------------------

_CHARACTERS = st.one_of(st.characters(), st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé\u2028😀'))
_LEAVES = st.one_of(
    st.text(_CHARACTERS, max_size=6), st.integers(),
    st.integers(2 ** 64, 2 ** 200).flatmap(lambda v: st.sampled_from([v, -v])),
    st.booleans(), st.none())
_REPORTS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(_CHARACTERS, max_size=4), inner, max_size=4)), max_leaves=30)


@settings(max_examples=300, deadline=None, database=None)
@given(_REPORTS)
def test_canonical_writer_equals_json_dumps(value):
    assert "".join(cli._canonical(value, [])) == json.dumps(value, sort_keys=True, indent=2)


def test_canonical_writer_equals_json_dumps_on_a_fixed_report():
    # lists of strings, written with one join, at the top and one level
    # down, beside a list of ints, an empty list and a tuple of strings
    report = {"anchor": [["1", "x1"], ["0", "-x1^2 + 1/2"]], "notes": ["a", "é\n"],
              "pair": (0, 1), "empty": [], "names": ("x1", "x2"), "exit_code": 1}
    assert "".join(cli._canonical(report, [])) == json.dumps(report, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [1.5, Fraction(1, 2), {1: "a"}, ["a", {"b": {2}}], b"x"],
                         ids=["float", "fraction", "int_key", "nested_set", "bytes"])
def test_canonical_writer_refuses_what_reports_do_not_hold(value):
    with pytest.raises(TypeError):
        cli._canonical(value, [])


def test_report_keys_are_sorted():
    # the payload lists "command" first and "axioms" later; the report sorts them
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["axioms", "--structure", "standard1", "--json"]) == 0
    text = out.getvalue()
    assert text.index('"axioms"') < text.index('"command"')
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def _axioms_beside(sections: dict, structure: str = "standard1") -> tuple[int, str]:
    """(exit code, stderr) of `axioms --structure <structure>` on a scene
    with a bundle P1 over x1 and the given sections."""
    payload = {"schema_version": 1, "bundles": {"P1": {"base_dim": 1, "rank": 2}}, **sections}
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "scene.json"
        path.write_text(json.dumps(payload))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["axioms", "--scene", str(path), "--structure", structure])
    return code, err.getvalue()


def test_an_input_reads_x1_as_unknown_beside_a_p1_section():
    # one text over other variable names is another literal: a section over
    # x1 reads "x1" first, and the signal over t still rejects it
    assert _axioms_beside({"sections": {"s": {"bundle": "P1", "coeffs": ["x1", "0"]}},
                           "inputs": {"u": {"u": ["x1"]}}}) == (
        2, "error: input 'u': unknown identifier 'x1' (at position 0)\n")


@pytest.mark.parametrize("text", ["+1", " 1", "1.5", "1e3", "1_000", "\u0661", "1/\u0662"])
def test_a_metric_entry_is_an_integer_or_p_over_q_in_ascii_digits(text):
    # texts Fraction() reads but the literal rule does not
    structure = {"bundle": "P1", "anchor": [["0", "0"]], "metric": [["0", text], [text, "0"]]}
    assert _axioms_beside({"courant_structures": {"s": structure}}) == (
        2, f"error: courant_structure 's': expected a rational (integer or 'p/q'), "
           f"got {text!r}\n")
    structure["metric"] = [["0", "-03/2"], ["-03/2", "0"]]
    assert _axioms_beside({"courant_structures": {"s": structure}}) == (0, "")


def test_a_base_map_lists_one_expression_per_target_variable():
    morphism = {"source": "P1", "target": "P1", "base_map": ["x1", "0"],
                "fiber_matrix": [["1", "0"], ["0", "1"]]}
    assert _axioms_beside({"morphisms": {"f": morphism}}) == (
        2, "error: morphism 'f': base_map must list 1 expressions\n")


def _guarded_oscillator():
    return phsim.PHSystem([[0, 1], [-1, 0]], [[1], [0]],
                          parse("1/2*x1^2 + 1/2*x2^2", ["x1", "x2"]))


def _translation():
    s = standard_structure(1)
    fiber = [[Polynomial.constant(1, int(i == j)) for j in range(2)] for i in range(2)]
    return s, s, BundleMorphism(s.bundle, s.bundle, PolyMap.from_exprs(["x1 + 1"], ["x1"]),
                                fiber)


# the library's input guards that no command reaches, each with its whole line
LIBRARY_GUARDS = {
    "identity_base_off_the_identity": (
        lambda: morphisms.check_identity_base(*_translation()), "base map is not the identity"),
    "negative_splitting": (lambda: intrinsic.canonical_splitting(-1, 0),
                           "dimensions must be >= 0"),
    "splitting_of_other_dimensions": (
        lambda: intrinsic.splitting_composite(1, 0, intrinsic.canonical_splitting(1, 1)),
        "splitting dimensions do not match"),
    "zero_step": (lambda: phsim.simulate_ph(_guarded_oscillator(), phsim.InputSignal.zero(1),
                                            [1.0, 0.0], 1.0, 0.0),
                  "horizon and step must be positive"),
    "input_channels": (lambda: phsim.simulate_ph(_guarded_oscillator(),
                                                 phsim.InputSignal.zero(2), [1.0, 0.0], 1.0, 0.1),
                       "input has 2 channels, system has 1 ports"),
    "x0_length": (lambda: phsim.simulate_ph(_guarded_oscillator(), phsim.InputSignal.zero(1),
                                            [1.0], 1.0, 0.1),
                  "x0 must have 2 coordinates"),
    "z0_length": (lambda: phsim.simulate_interaction(_guarded_oscillator(),
                                                     phsim.InputSignal.zero(1), [1.0, 0.0],
                                                     [0.0, 0.0], 1.0, 0.1),
                  "z0 must have 1 coordinates"),
    "balance_without_a_system": (
        lambda: phsim.energy_balance(phsim.Trajectory(None, None, None, 0.5),
                                     phsim.InputSignal.zero(1)),
        "trajectory carries no system"),
    "negative_degree_cap": (lambda: courant_core._decided_scope(-1),
                            "degree cap must be >= 0, got -1"),
}


@pytest.mark.parametrize("name", LIBRARY_GUARDS)
def test_a_library_guard_raises_its_line(name):
    call, message = LIBRARY_GUARDS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_a_metric_reads_true_as_no_rational_beside_1():
    # JSON true equals 1 in Python; read after 1, it is still no rational
    structure = {"bundle": "P1", "anchor": [["0", "0"]], "metric": [[1, 0], [0, True]]}
    assert _axioms_beside({"courant_structures": {"s": structure}}) == (
        2, "error: courant_structure 's': expected a rational (integer or 'p/q'), got True\n")


def test_each_distinct_literal_is_read_once_per_load(monkeypatch):
    # the demo scene repeats most of its literals: a repeated one is shared,
    # and a second load reads every one again
    texts = []
    monkeypatch.setattr(scene_module, "parse",
                        lambda text, names: texts.append((text, names)) or parse(text, names))
    first = load_scene(SCENE)
    read = list(texts)
    assert len(read) == len(set(read))
    second = load_scene(SCENE)
    assert texts == read + read
    # "x2" is read once for two sections; a structure keeps its anchor's
    # constants as scalars in its rows, so the sections show the sharing
    one, other = ((s.sections["rotation"].coeffs.outputs[0],
                   s.sections["radial_form"].coeffs.outputs[3]) for s in (first, second))
    assert one[0] is one[1] and one[0] is not other[0]


def typed_rows(rows):
    return [[(j, type(x), x) for j, x in row.items()] for row in rows]


def assert_rows_read_again(path):
    """Every structure of the scene at `path` stores as its A and G rows
    `linalg.sparse` of the matrices read again from the file's JSON, by
    `parse` and `Fraction`: the same columns in the same order, values and
    types (int, Fraction or Polynomial)."""
    raw, loaded = json.loads(Path(path).read_text()), load_scene(path)
    for name, spec in raw.get("courant_structures", {}).items():
        names = tuple(f"x{i + 1}" for i in range(raw["bundles"][spec["bundle"]]["base_dim"]))
        anchor = [[parse(e, names) for e in row] for row in spec["anchor"]]
        metric = [[Fraction(v) for v in row] for row in spec["metric"]]
        g, _, a = loaded.structures[name].rows
        assert typed_rows(a) == typed_rows(linalg.sparse(anchor)), name
        assert typed_rows(g) == typed_rows(linalg.sparse(metric)), name


def _benchmark_scenes():
    workloads = _bench_module("workloads")
    return [op.scene for workload in ("certify", "pipeline", "simulate") for seed in (1, 2, 3)
            for cycle in (0, 1) for op in workloads.make_cycle(workload, seed, cycle) if op.scene]


def test_a_scene_reads_its_structures_straight_into_rows(tmp_path):
    # the benchmark's scenes, the demo scene and the morphism fixture scene
    scenes = _benchmark_scenes()
    assert len(scenes) > 100
    for i, data in enumerate(scenes):
        path = tmp_path / f"{i}.json"
        path.write_bytes(data)
        assert_rows_read_again(path)
    assert_rows_read_again(SCENE)
    assert_rows_read_again(MORPHISM_SCENE)


def test_a_structure_is_printed_from_its_rows(monkeypatch, capsys):
    # the dense views `anchor` and `metric` form one constant Polynomial per
    # scalar anchor entry and one Fraction per metric entry (24 and 64 for
    # this op); printed from the rows, a structure forms neither
    counts, printed, inside = Counter(), [], []
    new, constant = Fraction.__new__, Polynomial.constant

    def counted(kind, make):
        def wrapper(*args, **kwargs):
            if inside:
                counts[kind] += 1
            return make(*args, **kwargs)
        return wrapper

    def printing(s, bundle_name):
        inside.append(s)
        try:
            printed.append((s, structure_to_json(s, bundle_name)))
        finally:
            inside.pop()
        return printed[-1][1]

    monkeypatch.setattr(Fraction, "__new__", counted("Fraction", new))
    monkeypatch.setattr(Polynomial, "constant", staticmethod(counted("constant", constant)))
    monkeypatch.setattr(cli, "structure_to_json", printing)
    assert main(["intrinsic", "--n", "3", "--m", "1", "--json"]) == 1
    assert counts == {} and len(printed) == 1
    monkeypatch.undo()
    assert json.loads(capsys.readouterr().out)["structure"] == printed[0][1]
    # the same text as the dense views give: a scalar by str, a polynomial
    # by to_string and a missing entry as 0
    x1 = Polynomial.variable(1, 0)
    mixed = CourantStructure(TrivialBundle(1, 2, "E"), [[x1 * x1 - 2, Fraction(-1, 3)]],
                             [[0, Fraction(3, 2)], [Fraction(3, 2), -1]])
    for s, fragment in printed + [(mixed, structure_to_json(mixed, "E"))]:
        assert fragment["anchor"] == [[p.to_string() for p in row] for row in s.anchor]
        assert fragment["metric"] == [[str(v) for v in row] for row in s.metric]


# -- argparse failures, simulate, project and dirac under fuzzing ------------------

_REQUIRED = {
    "axioms": ["--structure", "standard1"],
    "leibniz": ["--structure", "standard1"],
    "morphism": ["--source", "standard1", "--target", "standard1", "--map", "identity1"],
    "pullback": ["--ambient", "standard1", "--morphism", "identity1"],
    "intrinsic": ["--n", "1", "--m", "1"],
    "simulate": ["--system", "oscillator", "--input", "unit", "--x0", "1,0", "--T", "0.01",
                 "--h", "0.001"],
    "project": ["--system", "oscillator", "--input", "unit", "--x0", "1,0", "--z0", "0",
                "--T", "0.01", "--h", "0.001"],
    "dirac": ["--system", "oscillator"],
}


# (command, argv after it, whether `_read` reads it rather than
# leaving it to argparse)
_SIM = ["--scene", str(SCENE), "--system", "oscillator", "--input", "unit"]
_READER_CASES = {
    "plain": ("axioms", ["--structure", "standard1", "--json"], True),
    "defaults": ("leibniz", ["--structure", "standard1"], True),
    "equals_form": ("axioms", ["--structure=standard1", "--seed=-3", "--degree-cap", "2"], True),
    "empty_value": ("axioms", ["--structure", "", "--json"], True),
    "value_holding_equals": ("pullback", ["--scene", str(SCENE), "--ambient", "standard1",
                                          "--morphism", "identity1", "--alt-retraction", "a=b"],
                             True),
    "store_true_flag": ("pullback", ["--scene", str(SCENE), "--ambient", "standard1",
                                     "--morphism=identity1", "--verify-only"], True),
    "every_flag": ("morphism", ["--scene", str(SCENE), "--source", "standard1", "--target",
                                "standard1", "--map", "identity1", "--pairs", "auto", "--seed",
                                "7", "--degree-cap", "1", "--json"], True),
    "negative_after_equals": ("simulate", [*_SIM, "--x0=-1,0", "--T", "1e-2", "--h=0.001"],
                              True),
    "floats": ("project", [*_SIM, "--x0", "1,0", "--z0", "0", "--T", "0.01", "--h", "1e-3"],
               True),
    "missing_required": ("morphism", ["--source", "standard1", "--target", "standard1"], False),
    "repeated_flag": ("axioms", ["--structure", "standard1", "--structure", "standard2"], False),
    "dash_value": ("axioms", ["--structure", "--json"], False),
    "negative_value": ("intrinsic", ["--n", "-5", "--m", "1"], False),
    "double_dash_value": ("axioms", ["--structure=--", "--json"], False),
    "missing_value": ("axioms", ["--json", "--structure"], False),
    "abbreviation": ("axioms", ["--struct", "standard1"], False),
    "abbreviation_with_equals": ("axioms", ["--struct=standard1"], False),
    "help": ("axioms", ["--structure", "standard1", "-h"], False),
    "double_dash": ("axioms", ["--structure", "standard1", "--", "x"], False),
    "store_true_with_value": ("axioms", ["--structure", "standard1", "--json=1"], False),
    "bad_int": ("intrinsic", ["--n", "x", "--m", "1"], False),
    "empty_int": ("intrinsic", ["--n=", "--m", "1"], False),
    "positional": ("dirac", ["oscillator"], False),
    "unknown_flag": ("dirac", ["--system", "oscillator", "--bogus"], False),
}


def _subparser(name):
    """The top-level parser's parser of command `name`."""
    return next(action for action in cli._build_parser()._actions
                if action.dest == "command").choices[name]


@st.composite
def _drawn_argvs(draw):
    """(command, argv after it): the command's required flags with their
    values, or none, and up to four flags more, in a drawn order.  A flag is
    exact, abbreviated or -h; it stands alone, takes a value after it or is
    written --flag=value, from a pool of values that look like numbers,
    flags or assignments.  Half the argvs keep the required flags and only
    exact flags, a store_true flag alone and any other with a value."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    actions = _subparser(command)._option_string_actions
    flags = [flag for flag in actions if flag not in ("-h", "--help")]
    plain = draw(st.booleans())
    words = st.sampled_from(flags) if plain else st.one_of(
        st.sampled_from(flags), st.sampled_from(["-h", "--help"] + [
            flag[:k] for flag in flags if flag.startswith("--") for k in range(3, len(flag))]))
    values = st.sampled_from(["3", "-5", "", "x", "1e-3", "--json", "a=b"])
    required = _REQUIRED[command] if plain or draw(st.booleans()) else []
    units = [required[i:i + 2] for i in range(0, len(required), 2)]
    for flag, value, form in draw(st.lists(st.tuples(words, values, st.integers(0, 2)),
                                           max_size=4)):
        if plain:
            form = 0 if actions[flag].nargs == 0 else form or 1
        units.append([[flag], [flag, value], [f"{flag}={value}"]][form])
    return command, [token for unit in draw(st.permutations(units)) for token in unit]


class TestCommandParser:
    """`main` reads a plain argv from the flag table and hands any other
    argv to the top-level parser, whose subparser for a command is built
    from the same table."""

    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_command_parser_equals_the_subparser(self, capsys, monkeypatch, name):
        # a command's -h is read by the top-level parser's subparser for it
        monkeypatch.setenv("COLUMNS", "80")
        sub = _subparser(name)
        assert type(sub) is cli._Parser and sub.prog == f"courantlab {name}"
        assert main([name, "-h"]) == 0
        assert capsys.readouterr() == (sub.format_help(), "")

    def test_a_plain_argv_builds_no_parser(self, capsys, monkeypatch):
        built = []
        init = cli._Parser.__init__
        monkeypatch.setattr(cli._Parser, "__init__", lambda self, *args, **kwargs:
                            built.append(kwargs.get("prog")) or init(self, *args, **kwargs))
        cli._build_parser.cache_clear()
        assert main(["axioms", "--structure", "standard1", "--json"]) == 0
        assert main(["leibniz", "--structure", "standard1"]) == 0
        assert built == [] and cli._build_parser.cache_info().currsize == 0
        # help and an error argv build the top-level parser, once
        assert main(["axioms", "-h"]) == 0
        assert main(["intrinsic", "--n", "x", "--m", "1"]) == 2
        assert built == ["courantlab", *(f"courantlab {name}" for name in cli._COMMANDS)]
        capsys.readouterr()

    def test_a_plain_argv_imports_no_locale(self):
        # argparse's messages go through gettext, whose first call imports
        # locale; a fresh interpreter reading a plain argv makes none
        code = ("import sys\nfrom courantlab.cli import main\n"
                "main(['axioms', '--structure', 'standard2', '--json'])\n"
                "sys.stderr.write(str('locale' in sys.modules))")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert run.stderr == "False" and json.loads(run.stdout)["exit_code"] == 0


class TestArgumentContract:
    """A value argparse cannot convert, and a missing flag, exit 2 with
    exactly one `error:` line and no usage lines."""

    @pytest.mark.parametrize("command", list(_REQUIRED))
    def test_non_integer_degree_cap(self, capsys, command):
        # `simulate`, `project`, `pullback` and `dirac` take no --degree-cap at all
        code, captured = TestMorphismContract.run(
            [command, "--scene", str(SCENE), *_REQUIRED[command], "--degree-cap", "x"], capsys)
        assert code == 2
        assert captured.err == ("error: unrecognized arguments: --degree-cap x\n"
                                if command in ("simulate", "project", "pullback", "dirac") else
                                "error: argument --degree-cap: invalid int value: 'x'\n")

    def test_non_integer_dimension(self, capsys):
        code, captured = TestMorphismContract.run(["intrinsic", "--n", "x", "--m", "1"], capsys)
        assert code == 2
        assert captured.err == "error: argument --n: invalid int value: 'x'\n"

    @pytest.mark.parametrize("argv, message", [
        (["morphism"], "the following arguments are required: --source, --target, --map"),
        (["intrinsic", "--n", "1"], "the following arguments are required: --m"),
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
    ], ids=["morphism_flags", "intrinsic_m", "command", "unknown_command"])
    def test_missing_or_unknown_argument(self, capsys, argv, message):
        code, captured = TestMorphismContract.run(argv, capsys)
        assert code == 2
        assert captured.err.startswith(f"error: {message}")

    def test_help_is_unchanged(self, capsys, monkeypatch):
        # the bytes argparse printed when every argv went through the
        # top-level parser; a command's argv now goes to its parser alone
        monkeypatch.setenv("COLUMNS", "80")
        assert main(["axioms", "--help"]) == 0
        assert capsys.readouterr() == (_AXIOMS_HELP, "")
        for argv in (["--help"], ["-h", "axioms"]):
            assert main(argv) == 0
            assert capsys.readouterr() == (_TOP_LEVEL_HELP, ""), argv

    def test_abbreviated_flag(self, capsys):
        assert main(["axioms", "--structure", "standard1", "--json"]) == 0
        full = capsys.readouterr()
        assert main(["axioms", "--struct", "standard1", "--json"]) == 0
        assert capsys.readouterr() == full and json.loads(full.out)["structure"] == "standard1"
        assert main(["axioms", "--s", "standard1"]) == 2
        assert capsys.readouterr() == (
            "", "error: ambiguous option: --s could match --scene, --seed, --structure\n")

    def test_main_without_argv_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["axioms", "--structure", "standard1", "--json"]
        assert main(argv) == 0
        expected = capsys.readouterr()
        monkeypatch.setattr(sys, "argv", ["courantlab", *argv])
        assert main() == 0
        assert capsys.readouterr() == expected
        monkeypatch.setattr(sys, "argv", ["courantlab"])
        assert main() == 2
        assert capsys.readouterr() == (
            "", "error: the following arguments are required: command\n")

    @pytest.mark.parametrize("argv, message", [
        (["--json", "axioms", "--structure", "standard1"], "unrecognized arguments: --json"),
        (["--seed", "1", "axioms"], "argument command: invalid choice: '1' (choose from "
         "'axioms', 'leibniz', 'morphism', 'pullback', 'intrinsic', 'simulate', 'project', "
         "'dirac')"),
        (["axioms", "--structure", "standard1", "--", "x"], "unrecognized arguments: -- x"),
    ], ids=["flag", "option", "double_dash"])
    def test_option_before_the_command(self, capsys, argv, message):
        # the top-level parser reads an argv whose first argument names no
        # command, and reports what it reported before
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @staticmethod
    def read_as_argparse_does(command, argv):
        """What `_read` makes of a command's argv, once checked to be None
        or what argparse alone builds; argparse's output is dropped."""
        parser = _subparser(command)
        read = cli._read(command, argv)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                expected = argparse.ArgumentParser.parse_args(
                    parser, argv, argparse.Namespace(command=command))
        except SystemExit:
            expected = None
        assert read is None or expected is not None and vars(read) == vars(expected)
        return read

    @pytest.mark.parametrize("command, argv, accepted", list(_READER_CASES.values()),
                             ids=list(_READER_CASES))
    def test_direct_reader_equals_argparse(self, command, argv, accepted):
        # `_read` reads a plain argv into argparse's namespace and leaves
        # every other argv to argparse
        assert (self.read_as_argparse_does(command, argv) is not None) == accepted

    @settings(max_examples=500, deadline=None, database=None, derandomize=True)
    @given(_drawn_argvs())
    def test_direct_reader_equals_argparse_on_drawn_argvs(self, case):
        self.read_as_argparse_does(*case)

    def test_the_flag_table_holds_only_what_the_reader_reads(self):
        # the reader knows no choices, nargs or string default under a type:
        # each flag argparse builds from the table is a plain store or a
        # store_true flag, with the table's dest, type, default and
        # requirement
        for name, flags in cli._FLAGS.items():
            actions = _subparser(name)._option_string_actions
            assert set(actions) == {*flags, "-h", "--help"}, name
            for option, (dest, kind, required, default, text) in flags.items():
                action = actions[option]
                assert type(action) is (argparse._StoreTrueAction if kind is bool
                                        else argparse._StoreAction), option
                assert action.nargs in (None, 0) and action.choices is None
                assert (action.dest, action.required, action.default, action.help) == (
                    dest, required, default, text)
                assert kind is bool or action.type is kind and not (
                    kind and isinstance(default, str))

    @pytest.mark.parametrize("command, argv", [case[:2] for case in _READER_CASES.values()],
                             ids=list(_READER_CASES))
    def test_main_is_unchanged_when_argparse_reads_every_argv(self, capsys, monkeypatch,
                                                             command, argv):
        def run():
            code = main([command, *argv])
            out, err = capsys.readouterr()
            return code, [line for line in out.splitlines()
                          if not line.startswith("elapsed:")], err

        direct = run()
        monkeypatch.setattr(cli, "_read", lambda name, argv: None)
        assert run() == direct


_AXIOMS_HELP = """\
usage: courantlab axioms [-h] [--scene SCENE] [--out OUT] [--seed SEED]
                         [--degree-cap DEGREE_CAP] [--json] --structure
                         STRUCTURE

options:
  -h, --help            show this help message and exit
  --scene SCENE         scene JSON file
  --out OUT             write the report or CSV here instead of stdout
  --seed SEED           echoed in --json; no verdict depends on it
  --degree-cap DEGREE_CAP
                        degree cap for section families; each verdict's detail
                        names the degree it decided and its scope
  --json                machine-readable report
  --structure STRUCTURE
                        scene structure name or builtin standard<N>
"""

_TOP_LEVEL_HELP = """\
usage: courantlab [-h]
                  {axioms,leibniz,morphism,pullback,intrinsic,simulate,project,dirac}
                  ...

Exact Courant algebroid workbench and port-Hamiltonian simulator

positional arguments:
  {axioms,leibniz,morphism,pullback,intrinsic,simulate,project,dirac}
    axioms              check the three Courant axioms
    leibniz             check the bracket Leibniz rules
    morphism            classical Courant morphism verdict
    pullback            pullback hypothesis report and construction
    intrinsic           build the intrinsic structure candidate
    simulate            integrate a port-Hamiltonian system to CSV
    project             interaction run projected to the open behavior
    dirac               check the graph: Dirac (isotropic, half rank, closed)

options:
  -h, --help            show this help message and exit
"""


_SYSTEM_TERMS = ["1", "x1", "-x1", "1/2*x1^2", "x1*x2", "x2^2", "-3/2*x3", "x1^60",
                 "2*x1^3 - x2"]
_SYSTEM_ENTRIES = [0, 0, 1, -1, 2, "1/2", "-3/2"]
_BAD_ENTRIES = ["x1", 1.5, None, True, "1/0", [1]]


def _negated(value):
    if isinstance(value, int):
        return -value
    return value[1:] if value.startswith("-") else f"-{value}"


@st.composite
def _fuzzed_systems(draw, broken: bool):
    """A ph_system spec: n in 0-3 states and m in 0-2 ports, J skew, B of
    the declared shape and H a sum of drawn terms.  When `broken`, one part
    is malformed: J not skew or ragged, B of the wrong shape, an entry of
    the wrong type, or an H outside the float range or naming a variable
    the system lacks."""
    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    entry = st.sampled_from(_SYSTEM_ENTRIES)
    j = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            j[a][b] = draw(entry)
            j[b][a] = _negated(j[a][b])
    b = [[draw(entry) for _ in range(m)] for _ in range(n)]
    terms = [draw(st.sampled_from([t for t in _SYSTEM_TERMS
                                   if not any(f"x{k}" in t for k in range(n + 1, 4))]))
             for _ in range(draw(st.integers(0, 3)))]
    how = draw(st.sampled_from(["not_skew", "ragged", "b_rows", "b_columns", "wrong_type",
                                "float_range", "variable"])) if broken else None
    target = j if draw(st.booleans()) and n else b
    if how == "not_skew" and n:
        j[0][0] = 1
    elif how == "ragged" and target and target[0]:
        target[0].append(0)
    elif how == "b_rows":
        b = b[:-1] if b and draw(st.booleans()) else b + [[1] * m]
    elif how == "b_columns" and b:
        b = [row[:-1] if row and draw(st.booleans()) else row + [1] for row in b]
    elif how == "wrong_type" and target and target[0]:
        target[0][0] = draw(st.sampled_from(_BAD_ENTRIES))
    elif how == "float_range":
        terms.append("10^400*x1" if n else "10^400")
    elif how == "variable":
        terms.append(f"x{n + 1}")
    return {"n": n, "m": m, "J": j, "B": b, "H": " + ".join(terms) or "0"}


def _vector(draw, size, broken: bool):
    """A comma-separated float vector of `size` components; when `broken`,
    one that is too short, too long, non-finite or not a number."""
    values = [draw(st.sampled_from(["0", "1", "-0.5", "1e100", "2.5"])) for _ in range(size)]
    how = draw(st.sampled_from(["short", "long", "nan", "inf", "a", "1e400"])) if broken else None
    if how == "short":
        values = values[:-1] if values else ["1"]
    elif how == "long":
        values.append("1")
    elif how is not None:
        values = [how] + values[1:]
    return ",".join(values)


_FAULTS = [None, None, None, None, None, None, "system", "name", "input", "signal", "x0",
           "z0", "T", "h", "steps"]
_BAD_TIMES = ["0", "-1", "nan", "inf", "-inf"]


@st.composite
def _trajectory_runs(draw, command):
    """(scene, argv without --scene) for `simulate`, `project` or `dirac`
    on one drawn system and input signal, with drawn --x0, --z0, --T and
    --h.  Most runs are well-formed; the rest carry one fault: a malformed
    system, an unknown system or input name, a signal of the wrong length or
    outside the float range, a bad vector, a bad --T or --h, or more steps
    than MAX_STEPS."""
    fault = draw(st.sampled_from(_FAULTS))
    system = draw(_fuzzed_systems(fault == "system"))
    ports = system["m"] + (draw(st.sampled_from([-1, 1])) if fault == "input" else 0)
    signal = [draw(st.sampled_from(["0", "1", "t", "-2*t^2"])) for _ in range(max(ports, 0))]
    if fault == "signal":
        signal.append(draw(st.sampled_from(["10^400*t", "x1", "t^"])))
    scene = {"schema_version": 1, "ph_systems": {"s": system}, "inputs": {"u": {"u": signal}}}
    name = "missing" if fault == "name" else "s"
    if command == "dirac":
        return scene, ["dirac", "--system", name, *draw(st.sampled_from([[], ["--json"]]))]
    t_final, step = draw(st.sampled_from([("0.01", "0.001"), ("0.1", "0.01"), ("1", "0.3"),
                                          ("0.3", "0.3"), ("1e308", "1e308")]))
    if fault == "T":
        t_final = draw(st.sampled_from(_BAD_TIMES))
    elif fault == "h":
        step = draw(st.sampled_from(_BAD_TIMES + ["2"]))
    elif fault == "steps":
        t_final, step = draw(st.sampled_from([("1e300", "0.3"), ("0.01", "1e-300"),
                                              ("1e-300", "5e-324"), ("1e308", "1e-308")]))
    argv = [command, "--system", name, "--input", "u",
            f"--x0={_vector(draw, system['n'], fault == 'x0')}"]
    if command == "project":
        argv.append(f"--z0={_vector(draw, system['m'], fault == 'z0')}")
    return scene, argv + ["--T", t_final, "--h", step]


def _run_contract(tmp_path, capsys, case):
    # exit 0, 1 or 2 with no traceback, and exit 2 with one error line
    scene, argv = case
    return TestMorphismContract.run(
        [argv[0], "--scene", str(write_scene(tmp_path, scene)), *argv[1:]], capsys)


_FUZZ = settings(max_examples=500, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture,
                                        HealthCheck.too_slow])


class TestSimulateContract:
    """`simulate` honours the exit-code contract on drawn systems and runs."""

    @_FUZZ
    @given(_trajectory_runs("simulate"))
    def test_fuzzed_runs_keep_the_contract(self, tmp_path, capsys, case):
        _run_contract(tmp_path, capsys, case)

    @pytest.mark.parametrize("t_final, step", [("1e300", "0.3"), ("0.01", "1e-300"),
                                               ("1e-300", "5e-324"), ("1.000001", "1e-6")])
    def test_step_count_is_bounded(self, capsys, t_final, step):
        # T / h once sized one float buffer per coordinate with no bound: an
        # OverflowError when the step count overflowed to inf or passed an
        # index, and a buffer of any size that fits
        argv = ["simulate", "--scene", str(SCENE), *_REQUIRED["simulate"][:6],
                "--T", t_final, "--h", step]
        code, captured = TestMorphismContract.run(argv, capsys)
        assert code == 2
        assert captured.err.startswith("error: --T / --h must be at most 1000000 steps")

    @pytest.mark.parametrize("command", ["simulate", "project"])
    def test_an_unwritable_out_is_one_error_line(self, tmp_path, capsys, command):
        # a path in a missing directory once ended in a traceback of
        # FileNotFoundError
        out = str(tmp_path / "missing" / "x.csv")
        argv = [command, "--scene", str(SCENE), *_REQUIRED[command], "--out", out]
        assert TestMorphismContract.run(argv, capsys) == (2, ("", (
            f"error: cannot write --out {out!r}: [Errno 2] No such file or directory: "
            f"{out!r}\n")))

    @staticmethod
    def unreachable(monkeypatch):
        """Make every run that sizes its grid buffers fail the test."""
        def sized(*args):
            raise AssertionError("a grid buffer was sized")
        monkeypatch.setattr(cli, "simulate_ph", sized)

    @pytest.mark.parametrize("key", ["n", "m"])
    def test_system_dimensions_are_bounded(self, tmp_path, capsys, monkeypatch, key):
        # a ph_system's n and m once sized its J, B and grid buffers with no
        # bound; they are checked before J or B is read, here an empty J and B
        self.unreachable(monkeypatch)
        system = {"n": 0, "m": 0, "J": [], "B": [], "H": "0", key: 10 ** 12}
        scene = write_scene(tmp_path, {"schema_version": 1, "ph_systems": {"s": system},
                                       "inputs": {"u": {"u": []}}})
        run = ["--input", "u", "--x0=", "--T", "1", "--h", "1"]
        for argv in (["simulate", *run], ["project", *run, "--z0="], ["dirac"]):
            code, captured = TestMorphismContract.run(
                [*argv, "--scene", str(scene), "--system", "s"], capsys)
            assert (code, captured.err) == (
                2, f"error: ph_system 's': {key} must be at most 128, got {10 ** 12}\n")

    def test_declared_m_is_the_column_count_of_b(self, tmp_path, capsys, monkeypatch):
        # m = 0 with a B of one column once loaded as a system of one port,
        # and the run wrote a y1 column
        self.unreachable(monkeypatch)
        system = {"n": 2, "m": 0, "J": [[0, 1], [-1, 0]], "B": [[1], [0]], "H": "x1^2"}
        scene = write_scene(tmp_path, {"schema_version": 1, "ph_systems": {"s": system},
                                       "inputs": {"u": {"u": ["1"]}}})
        code, captured = TestMorphismContract.run(
            ["simulate", "--scene", str(scene), "--system", "s", "--input", "u", "--x0=1,0",
             "--T", "1", "--h", "1"], capsys)
        assert (code, captured.err) == (2, "error: ph_system 's': J must be 2x2 and B 2x0\n")

    @pytest.mark.parametrize("command", ["simulate", "project"])
    def test_grid_values_are_bounded(self, tmp_path, capsys, monkeypatch, command):
        # 10^6 steps are within MAX_STEPS, but 10^6 + 1 grid rows of 10
        # coordinates (the states and an output, for `project` too, which
        # keeps no z) pass MAX_GRID_VALUES, which 9 coordinates would not
        self.unreachable(monkeypatch)
        columns, m = 10, 1
        n = columns - m
        system = {"n": n, "m": m, "J": [[0] * n for _ in range(n)], "B": [[0]] * n, "H": "0"}
        scene = write_scene(tmp_path, {"schema_version": 1, "ph_systems": {"s": system},
                                       "inputs": {"u": {"u": ["0"]}}})
        argv = [command, "--scene", str(scene), "--system", "s", "--input", "u",
                "--x0=" + ",".join(["0"] * n), "--T", "1", "--h", "1e-6"]
        if command == "project":
            argv.append("--z0=0")
        code, captured = TestMorphismContract.run(argv, capsys)
        assert (code, captured.err) == (2, f"error: the run keeps {1000001 * columns} grid values "
                                           f"for {columns} coordinates, more than 10000000\n")
        assert 1000001 * (columns - 1) <= cli.MAX_GRID_VALUES < 1000001 * columns


class TestProjectContract:
    """`project` honours the exit-code contract on drawn systems and runs."""

    def test_the_grid_bound_counts_no_z(self, tmp_path, capsys, monkeypatch):
        # n = 8 and m = 1 keep (n + m) 1000001 values, within MAX_GRID_VALUES,
        # which the n + 2m of a run with z once passed: the run is reached
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached
        monkeypatch.setattr(cli, "simulate_ph", reached)
        n = 8
        system = {"n": n, "m": 1, "J": [[0] * n for _ in range(n)], "B": [[0]] * n, "H": "0"}
        scene = write_scene(tmp_path, {"schema_version": 1, "ph_systems": {"s": system},
                                       "inputs": {"u": {"u": ["0"]}}})
        assert (n + 1) * 1000001 <= cli.MAX_GRID_VALUES < (n + 2) * 1000001
        with pytest.raises(Reached):
            main(["project", "--scene", str(scene), "--system", "s", "--input", "u",
                  "--x0=" + ",".join(["0"] * n), "--z0=0", "--T", "1", "--h", "1e-6"])

    @_FUZZ
    @given(_trajectory_runs("project"))
    def test_fuzzed_runs_keep_the_contract(self, tmp_path, capsys, case):
        _run_contract(tmp_path, capsys, case)

    def test_step_count_is_bounded(self, capsys):
        argv = ["project", "--scene", str(SCENE), *_REQUIRED["project"][:8],
                "--T", "1e300", "--h", "1"]
        code, captured = TestMorphismContract.run(argv, capsys)
        assert code == 2
        assert captured.err.startswith("error: --T / --h must be at most 1000000 steps")


class TestDiracContract:
    """`dirac` honours the exit-code contract on drawn systems."""

    def test_a_double_dash_value_is_a_missing_value(self, capsys):
        # argparse stores --system=-- as an empty list
        assert TestMorphismContract.run(["dirac", "--system=--"], capsys) == (2, (
            "", "error: argument --system: expected one argument\n"))

    @pytest.mark.parametrize("n, m, b", [
        (2, 1, [[1, 2], [0, 1]]), (2, 0, [[1], [0]]), (2, 1, []), (0, 1, []), (2, 0, [[]]),
    ], ids=["two_columns_for_one_port", "a_column_for_no_port", "no_rows_for_one_port",
            "one_port_without_states", "one_row_for_two_states"])
    def test_b_of_another_shape_than_declared_exits_2(self, tmp_path, capsys, n, m, b):
        # B was read for its own shape, so a system declared with one port and
        # a B of two columns reported dimension 4 and exit 0
        system = {"n": n, "m": m, "J": [[0] * n for _ in range(n)], "B": b, "H": "0"}
        scene = write_scene(tmp_path, {"schema_version": 1, "ph_systems": {"s": system}})
        assert TestMorphismContract.run(["dirac", "--scene", str(scene), "--system", "s"],
                                        capsys) == (2, ("", f"error: ph_system 's': J must be "
                                                            f"{n}x{n} and B {n}x{m}\n"))

    @pytest.mark.parametrize("b", [[], [[], []]], ids=["empty", "empty_rows"])
    def test_b_without_ports_may_be_empty(self, tmp_path, capsys, b):
        system = {"n": 2, "m": 0, "J": [[0, 1], [-1, 0]], "B": b, "H": "x1^2"}
        scene = write_scene(tmp_path, {"schema_version": 1, "ph_systems": {"s": system}})
        code, captured = TestMorphismContract.run(
            ["dirac", "--scene", str(scene), "--system", "s", "--json"], capsys)
        assert code == 0 and json.loads(captured.out)["dimension"] == 2

    @settings(max_examples=600, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(_trajectory_runs("dirac"))
    def test_fuzzed_systems_keep_the_contract(self, tmp_path, capsys, case):
        code, captured = _run_contract(tmp_path, capsys, case)
        # the graph of a skew block is always maximally isotropic
        assert code in (0, 2)
