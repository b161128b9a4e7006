import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from courantlab import cli
from courantlab.cli import main
from courantlab.courant_core import check_axioms, check_degree_cap, standard_structure
from courantlab.scene import SceneError, load_scene, structure_to_json

SCENE = Path(__file__).resolve().parent.parent / "demos" / "scenes" / "oscillator.json"


def write_scene(tmp_path, payload, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


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
        with pytest.raises(SceneError, match="unknown scene field"):
            load_scene(path)

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
        assert check_axioms(reloaded, n_random=10).all_passed


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
        # 6 * C(12, 3) = 1320 monomial frame sections, over the 256 accepted
        ["axioms", "--structure", "standard3", "--degree-cap", "9"],
        ["leibniz", "--structure", "standard1", "--degree-cap", "-1"],
        # the requested (default) cap 3: 24 * C(15, 3) = 10920 sections
        ["leibniz", "--structure", "standard12"],
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
        # the default cap 3: 8 * C(7, 3) = 280 sections
        ["leibniz", "--structure", "standard4"],
        ["axioms", "--structure", "standard4"],
    ])
    def test_leibniz_checks_the_requested_cap_as_axioms_does(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --degree-cap: degree cap ")

    def test_family_limit_is_256_sections(self, capsys):
        # standard1 has rank 2 over R^1: cap 127 gives 2 * 128 = 256 sections
        assert check_degree_cap(standard_structure(1).bundle, 127) == 256
        with pytest.raises(ValueError, match="258 sections"):
            check_axioms(standard_structure(1), degree_cap=128, n_random=0)
        assert main(["axioms", "--structure", "standard1", "--degree-cap", "128"]) == 2

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
        sim_rows = sim.read_text().splitlines()
        proj_rows = proj.read_text().splitlines()
        assert sim_rows[0] == proj_rows[0]
        for a, b in zip(sim_rows[1:], proj_rows[1:]):
            va, vb = a.split(","), b.split(",")
            assert va[:3] == vb[:3]  # identical x columns, bitwise
            assert abs(float(va[3]) - float(vb[3])) <= 1e-12

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
    def test_bad_trajectory_input_exit_2(self, capsys, command, override):
        argv = [command, "--scene", str(SCENE), "--system", "oscillator",
                "--input", "unit", "--x0", "1,0", "--T", "0.01", "--h", "0.001"]
        if command == "project":
            argv += ["--z0", "0"]
        argv += override  # argparse keeps the last value of a repeated flag
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
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
        # x1^4 + x2^4 on the first step
        scene = json.loads(SCENE.read_text())
        scene["ph_systems"]["oscillator"]["H"] = "x1^4 + x2^4"
        argv = [command, "--scene", str(write_scene(tmp_path, scene)),
                "--system", "oscillator", "--input", "off", "--x0=1e100,1",
                "--T", "1", "--h", "0.3"]
        if command == "project":
            argv += ["--z0", "0"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "warning: --h 0.3 does not divide --T 1.0; the effective step is "
            "0.3333333333333333",
            "warning: trajectory overflowed before the horizon, at step 1 "
            "(t = 0.3333333333333333)",
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
    ], ids=["bundle_not_object", "metric_not_matrix", "structure_functions_not_object",
            "retraction_not_list", "input_not_list", "bundle_name_not_string"])
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

    @pytest.mark.parametrize("base_dim", [0, 1])
    def test_rank_zero_target_fails_hypothesis_b(self, tmp_path, capsys, base_dim):
        # P^T G P over a rank-0 target is the zero 2 x 2 matrix, not 0 x 0
        flat = {"bundle": "T", "anchor": [[]] * base_dim, "metric": []}
        names = [f"x{i + 1}" for i in range(base_dim)]
        path = write_scene(tmp_path, {
            "schema_version": 1,
            "bundles": {"E": {"base_dim": base_dim, "rank": 2},
                        "T": {"base_dim": base_dim, "rank": 0}},
            "courant_structures": {"flat": flat},
            "morphisms": {"phi": {"source": "E", "target": "T", "base_map": names,
                                  "fiber_matrix": [], "retraction": names}},
        })
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

    def test_pairs_file_that_is_not_a_list(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.json"
        pairs.write_text("5")
        code, captured = self.run([
            "morphism", "--scene", str(SCENE), "--source", "standard1",
            "--target", "standard2", "--map", "zero_section_embedding",
            "--pairs", str(pairs)], capsys)
        assert code == 2
        assert captured.err.splitlines() == ["error: pairs file must hold a list of pairs, got 5"]

    @pytest.mark.parametrize("text, message", [
        ('{"fiber_matrix": [[0, 0], [0, 0]]}', "splitting matrix must be invertible"),
        ('{"fiber_matrix": [["1+", 0], [0, 1]]}', "splitting entry '1+'"),
        ('{"fiber_matrix": [["y", 0], [0, 1]]}', "unknown identifier 'y'"),
        ('{"fiber_matrix": [[1e400, 0], [0, 1]]}', "splitting entry inf"),
        ('{"fiber_matrix": 5}', "fiber_matrix must be a list of lists"),
        ('{"fiber_matrix": [[1, 0], [0]]}', "splitting matrix must be 2 x 2"),
    ], ids=["singular", "truncated_entry", "unknown_variable", "infinite_entry",
            "not_a_matrix", "ragged"])
    def test_bad_splitting_file_exit_2(self, tmp_path, capsys, text, message):
        phi = tmp_path / "phi.json"
        phi.write_text(text)
        code, captured = self.run(["intrinsic", "--n", "1", "--m", "0", "--phi", str(phi)],
                                  capsys)
        assert code == 2 and message in captured.err


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
