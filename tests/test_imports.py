"""Import hygiene: the exact commands load only the standard library and
courantlab; numpy arrives with the simulator and changes none of its bytes.

Each check runs in a fresh interpreter, because the test process itself
has numpy loaded.  The snapshot of `sys.modules` is taken before
`courantlab.cli` is imported, since `site` may already have loaded
third-party modules of the environment.

The records of `src/` are plain classes with hand-written constructors, so
a cold start builds no dataclass and loads neither `dataclasses` nor what
it brings in (`inspect`, `ast`, `dis`, `tokenize`).  The tests below pin
what the dataclass versions gave: each constructor's parameters, a fresh
default container per instance, and `TrivialBundle`'s equality on its
dimensions.  Twelve immutable records, `Polynomial` and `PolyMap` among
them, derive from `polyexpr.Frozen`, which refuses every assignment with
"<Class> is immutable"; each declares `__slots__` and so keeps no
`__dict__`, except `PullbackProblem`, whose cached properties live in one.
"""

import argparse
import ast
import importlib
import inspect
import io
import json
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

SCENE = Path(__file__).resolve().parent.parent / "demos" / "scenes" / "oscillator.json"

EXACT_COMMANDS = {
    "axioms": ["axioms", "--structure", "standard2"],
    "leibniz": ["leibniz", "--structure", "standard2"],
    "intrinsic": ["intrinsic", "--n", "2", "--m", "1"],
    "dirac": ["dirac", "--scene", str(SCENE), "--system", "oscillator"],
}

RECORD = """
import contextlib, io, json, sys
before = set(sys.modules)
from courantlab import cli
records = {"import": [0, sorted(set(sys.modules) - before)]}
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    records[name] = [code, sorted(set(sys.modules) - before)]
print(json.dumps(records))
"""

SIMULATE = """
import sys
if sys.argv[2] == "numpy-first":
    import numpy
from courantlab import cli
code = cli.main(["simulate", "--scene", sys.argv[3], "--system", "oscillator",
                 "--input", "ramp", "--x0", "1,-0.5", "--T", "0.3", "--h", "0.001",
                 "--out", sys.argv[1]])
print(code, "numpy" in sys.modules)
"""


def _python(source, *args) -> str:
    result = subprocess.run([sys.executable, "-c", source, *args],
                            capture_output=True, text=True, check=True)
    return result.stdout


def _foreign(modules):
    """The modules that are neither standard library nor courantlab."""
    return [name for name in modules
            if name.partition(".")[0] not in sys.stdlib_module_names
            and name.partition(".")[0] != "courantlab"]


def test_exact_commands_load_only_stdlib_and_courantlab():
    records = json.loads(_python(RECORD, json.dumps(EXACT_COMMANDS)))
    assert list(records) == ["import", *EXACT_COMMANDS]
    # intrinsic --n 2 --m 1 fails its splitting-composite arrow by design
    assert {name: code for name, (code, _) in records.items()} == {
        "import": 0, "axioms": 0, "leibniz": 0, "intrinsic": 1, "dirac": 0}
    assert "courantlab.cli" in records["import"][1]
    for name, (_, modules) in records.items():
        assert _foreign(modules) == [], name
        assert "numpy" not in modules, name
        assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(modules), name


def test_simulate_loads_numpy_and_writes_the_same_bytes(tmp_path):
    lazy, eager = tmp_path / "lazy.csv", tmp_path / "eager.csv"
    assert _python(SIMULATE, str(lazy), "fresh", str(SCENE)).split() == ["0", "True"]
    assert _python(SIMULATE, str(eager), "numpy-first", str(SCENE)).split() == ["0", "True"]
    assert lazy.read_bytes() == eager.read_bytes()
    assert lazy.read_bytes().count(b"\n") == 302


# -- the plain record classes ---------------------------------------------------

REQUIRED = inspect.Parameter.empty

# each record's constructor parameters and defaults, as the dataclass versions
# took them; a `field(default_factory=...)` default is now None, which the
# constructor replaces by a fresh container
RECORD_PARAMETERS = {
    ("bundles", "TrivialBundle"): {"base_dim": REQUIRED, "rank": REQUIRED, "label": "E"},
    ("bundles", "NonExistenceCertificate"): dict.fromkeys(
        ["degree_cap", "component", "monomials", "matrix", "rhs", "farkas"], REQUIRED),
    ("bundles", "LinearSubspace"): dict.fromkeys(["ambient_dim", "basis"], REQUIRED),
    ("courant_core", "AxiomCheck"): {"passed": REQUIRED, "detail": REQUIRED, "witness": None},
    ("courant_core", "AxiomReport"): {"checks": REQUIRED},
    ("courant_core", "LeibnizReport"): dict.fromkeys(
        ["second_slot", "two_sided", "variant_falsified", "variant_witness"], REQUIRED),
    ("intrinsic", "SplittingIso"): dict.fromkeys(["n", "m", "fiber_matrix"], REQUIRED),
    ("intrinsic", "IntrinsicResult"): {"structure": REQUIRED, "chain_verdicts": REQUIRED,
                                       "hypotheses": REQUIRED, "notes": None},
    ("morphisms", "ConditionFailure"): dict.fromkeys(["condition", "witness", "defect"], REQUIRED),
    ("morphisms", "MorphismVerdict"): {"failures": None, "detail": ""},
    ("morphisms", "GraphSubbundle"): dict.fromkeys(
        ["source", "target", "base_embedding", "fiber_generators"], REQUIRED),
    ("phsim", "Trajectory"): {"times": REQUIRED, "states": REQUIRED, "outputs": REQUIRED,
                              "step": REQUIRED, "system": None, "zdot": None, "z_dim": 0,
                              "energy_drift": None, "diverged": False},
    ("phsim", "BalanceReport"): dict.fromkeys(["delta_energy", "supplied", "residual"], REQUIRED),
    ("pullback", "PullbackProblem"): dict.fromkeys(
        ["ambient", "source_bundle", "morphism"], REQUIRED),
    ("pullback", "HypothesisReport"): dict.fromkeys(
        ["anchor_tangent", "pairing_nondegenerate", "sections_involutive"], REQUIRED),
    ("scene", "Scene"): dict.fromkeys(
        ["bundles", "sections", "structures", "morphisms", "ph_systems", "inputs"], None),
}


def test_records_keep_their_constructors():
    for (module, name), expected in RECORD_PARAMETERS.items():
        cls = getattr(importlib.import_module(f"courantlab.{module}"), name)
        parameters = inspect.signature(cls).parameters.values()
        assert [(p.name, p.default) for p in parameters] == list(expected.items()), name
        assert {p.kind for p in parameters} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}, name


def test_default_containers_are_fresh_per_instance():
    from courantlab.intrinsic import IntrinsicResult
    from courantlab.morphisms import MorphismVerdict
    from courantlab.scene import Scene

    kinds = RECORD_PARAMETERS["scene", "Scene"]
    first, second = Scene(), Scene()
    for kind in kinds:
        assert getattr(first, kind) == {} and getattr(first, kind) is not getattr(second, kind)
    given = {kind: {} for kind in kinds}
    assert all(getattr(Scene(**given), kind) is given[kind] for kind in kinds)
    first, second = MorphismVerdict(), MorphismVerdict()
    assert first.failures == [] and first.failures is not second.failures
    first, second = IntrinsicResult(None, {}, None), IntrinsicResult(None, {}, None)
    assert first.notes == [] and first.notes is not second.notes
    notes = ["kept"]
    assert IntrinsicResult(None, {}, None, notes=notes).notes is notes


def test_frozen_records_refuse_assignment():
    from fractions import Fraction

    from courantlab.bundles import (BundleMorphism, LinearSubspace, NonExistenceCertificate,
                                    Section, TrivialBundle)
    from courantlab.courant_core import standard_structure
    from courantlab.intrinsic import _chi_problem, canonical_splitting
    from courantlab.phsim import InputSignal, PHSystem
    from courantlab.polyexpr import Frozen, PolyMap, parse

    one = (Fraction(1),)
    bundle = TrivialBundle(1, 2)
    morphism, splitting = BundleMorphism.identity(bundle), canonical_splitting(1, 1)
    problem = _chi_problem(1, 1, None)
    records = [
        (parse("x1 + 1", ["x1"]), "num_vars"),
        (PolyMap.identity(1), "outputs"),
        (bundle, "rank"),
        (Section.zero(bundle), "coeffs"),
        (morphism, "fiber_rows"),
        (NonExistenceCertificate(1, 0, ((0,),), (one,), one, one), "farkas"),
        (LinearSubspace(2, [[1, 0]]), "basis"),
        (standard_structure(1), "rows"),
        (splitting, "rows"),
        (PHSystem([[0, 1], [-1, 0]], [[0], [1]], parse("x1^2 + x2^2", ["x1", "x2"])),
         "hamiltonian"),
        (InputSignal.zero(1), "u"),
        (problem, "morphism"),
    ]
    for record, field in records:
        cls = type(record).__name__
        assert isinstance(record, Frozen), cls
        before = getattr(record, field)
        for name in (field, "unknown"):
            with pytest.raises(AttributeError, match=f"^{cls} is immutable$"):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match=f"^{cls} is immutable$"):
                delattr(record, name)
        assert getattr(record, field) is before and not hasattr(record, "unknown")
        assert record == record, cls
        assert hasattr(record, "__dict__") == (cls == "PullbackProblem"), cls
    # the cached properties still fill in once; the dense views are formed
    # on each read and keep no slot
    assert problem._record is problem._record and problem.hypotheses is problem.hypotheses
    assert morphism.fiber_matrix == morphism.fiber_matrix
    assert morphism.fiber_matrix is not morphism.fiber_matrix
    assert splitting.fiber_matrix == splitting.fiber_matrix
    for record, slot in ((morphism, "_fiber"), (morphism, "_extension"),
                         (splitting, "_matrix")):
        assert slot not in type(record).__slots__


def test_bundles_compare_by_dimensions_only():
    from courantlab.bundles import TrivialBundle

    assert TrivialBundle(1, 2, "A") == TrivialBundle(1, 2, "B")
    assert hash(TrivialBundle(1, 2, "A")) == hash(TrivialBundle(1, 2, "B"))
    assert TrivialBundle(1, 2) != TrivialBundle(2, 1) and TrivialBundle(1, 2) != (1, 2)
    assert TrivialBundle(1, 2).__eq__((1, 2)) is NotImplemented
    assert len({TrivialBundle(1, 2, "A"), TrivialBundle(1, 2, "B"), TrivialBundle(1, 3)}) == 2


def test_morphism_checks_import_no_tagged_sweep():
    # the bracket condition and the pullback frame table are closed forms in
    # the unlifted frame data: neither module imports the lift, the tagged
    # families, the tag decoder or the tag splitter, and a morphism keeps no
    # lift and no bracket
    from courantlab import courant_core, morphisms, pullback
    from courantlab.bundles import BundleMorphism

    tagged = {"lift_structure", "tagged_generating_section", "_least_failing_tuple",
              "_split_tags"}
    for module in (morphisms, pullback):
        tree = ast.parse(Path(module.__file__).read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert not imported & tagged, module.__name__
        assert not set(vars(module)) & tagged, module.__name__
    assert not hasattr(courant_core, "_split_tags")
    assert not hasattr(BundleMorphism, "lifted") and not hasattr(BundleMorphism, "kept_bracket")


def test_certificates_define_no_tag_layer():
    # axiom (i) on degree-1 tuples is read from the slot tables, so the lift,
    # the tagged families, their decoder and the tagged sweep left the
    # package: neither courant_core nor linalg defines or imports them, and
    # a structure keeps no lift
    from courantlab import courant_core, linalg
    from courantlab.courant_core import CourantStructure

    deleted = {"lift_structure", "_lifted", "tagged_generating_section", "decode_tag",
               "_least_failing_tuple", "_exchanged", "_sweep_axiom_i", "pmat_lift"}
    for module in (courant_core, linalg):
        assert not set(vars(module)) & deleted, module.__name__
    assert "_lifts" not in CourantStructure.__slots__


# -- what the certificate and kernel designs left behind --------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "courantlab"


def _code_lines(path: Path) -> int:
    """Lines holding a token other than a comment, outside docstrings."""
    source = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in skipped:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def test_no_module_imports_random():
    # no verdict draws at random; the seeded draws live in tests/conftest.py.
    # No record is a dataclass: `dataclasses` loads `inspect` and builds each
    # record's methods through `exec`, on every cold start
    banned = {"random", "dataclasses"}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.name.partition(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {(node.module or "").partition(".")[0] for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)}
        assert not banned & imported, path.name


def test_verdicts_take_no_sampling_parameters():
    from courantlab import courant_core, intrinsic, morphisms, pullback

    expected = {
        courant_core.check_axioms: ["s", "degree_cap"],
        courant_core.check_leibniz: ["s", "degree_cap"],
        morphisms.check_general_base: ["s1", "s2", "phi", "pairs", "degree_cap", "strict"],
        pullback.extension_perturbation_test: ["p"],
        intrinsic.uniqueness_check: ["n", "m", "splitting"],
        intrinsic._uniqueness: ["structure", "m"],
    }
    for function, names in expected.items():
        assert list(inspect.signature(function).parameters) == names, function.__name__
    assert not hasattr(courant_core, "random_section")
    assert not hasattr(courant_core, "random_polynomial")
    assert not hasattr(courant_core, "_COEFF_POOL")
    assert not hasattr(intrinsic, "_perturbed_candidates")
    # the cap-0 pool of supplied sections left with the parameter; the
    # plain re-expansion it ran is the witness oracle in tests/conftest.py
    for name in ("MAX_POOL", "_plain_witness", "_defect_i", "_defect_ii", "_defect_iii",
                 "_AXIOM_DEFECTS"):
        assert not hasattr(courant_core, name), name


def test_no_helper_only_the_tests_read():
    # the Whitney sum, the frame bracket (the structure functions hold it),
    # the extension rows (P(r(y)) is formed where a section is extended),
    # the interconnection helper, the dense zero matrix and the CSV's z
    # columns had no caller but the tests.  Every structure name is read by
    # `_resolve_structure`, which takes no cap since no cap is too large,
    # the certificate is `check_axioms` itself, and the split pairing of
    # `dirac_structure_of` is the standard structure's metric, read through
    # `dirac_check`
    import courantlab
    from courantlab import bundles, cli, courant_core, linalg, phsim
    from courantlab.bundles import BundleMorphism
    from courantlab.courant_core import CourantStructure

    assert not hasattr(courantlab, "whitney_sum") and not hasattr(bundles, "whitney_sum")
    assert not hasattr(CourantStructure, "frame_bracket")
    assert not hasattr(BundleMorphism, "extension_rows")
    assert not hasattr(phsim, "interconnection_matrix") and not hasattr(linalg, "zeros")
    assert list(inspect.signature(phsim.write_csv).parameters) == ["trajectory", "path"]
    assert not hasattr(cli, "_capped_structure") and not hasattr(courant_core, "_certify_axioms")
    assert list(inspect.signature(cli._resolve_structure).parameters) == ["scene", "name"]
    tree = ast.parse(Path(phsim.__file__).read_text())
    assert not [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "courant_core" for alias in node.names
                if alias.name.startswith("_")]


# -- one declaration of the public names ------------------------------------------

# the modules whose `__all__` the package republishes, in its import order
PUBLISHED = ["polyexpr", "bundles", "courant_core", "morphisms", "pullback", "intrinsic",
             "phsim", "scene"]

# the names `courantlab/__init__.py` listed itself before it republished each
# module's `__all__`; every one still imports from the root
LISTED_AT_THE_ROOT = """
    ParseError PolyMap Polynomial monomials_up_to parse
    BundleMorphism LinearSubspace NonExistenceCertificate Section TrivialBundle check_related
    compose_morphisms related_section
    AxiomReport CourantStructure LeibnizReport check_axioms check_leibniz dirac_check
    dorfman_bracket product_structure scaled_structure standard_structure
    MorphismVerdict check_general_base check_identity_base graph_subbundle
    HypothesisReport PullbackProblem check_hypotheses construct extension_perturbation_test
    uniqueness_test well_definedness_test
    IntrinsicResult SplittingIso build_intrinsic canonical_splitting pontryagin_embedding
    splitting_composite uniqueness_check
    BalanceReport InputSignal PHSystem Trajectory dirac_structure_of energy_balance
    project_behavior simulate_interaction simulate_ph simulate_poisson
    Scene SceneError load_scene structure_to_json
""".split()


def test_the_root_republishes_each_modules_all():
    import courantlab

    init = ast.parse(Path(courantlab.__file__).read_text())
    statements = init.body[1:]   # after the docstring
    assert [(node.level, node.module, [a.name for a in node.names]) for node in statements[:-1]] \
        == [(1, name, ["*"]) for name in PUBLISHED]
    assert [t.id for t in statements[-1].targets] == ["__version__"]
    assert courantlab.__version__ == "0.1.0"
    declared = [name for module in PUBLISHED
                for name in importlib.import_module(f"courantlab.{module}").__all__]
    assert len(declared) == len(set(declared))
    public = {name for name in vars(courantlab) if not name.startswith("_")}
    submodules = {name for name in public if inspect.ismodule(getattr(courantlab, name))}
    assert submodules <= {path.stem for path in SRC.glob("*.py")}
    assert public - submodules == set(declared)
    # every module that declares its public names is republished
    for path in sorted(SRC.glob("*.py")):
        names = {target.id for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.Assign) for target in node.targets
                 if isinstance(target, ast.Name)}
        assert ("__all__" in names) == (path.stem in PUBLISHED), path.name


def test_every_name_the_root_listed_still_imports():
    import courantlab

    assert len(LISTED_AT_THE_ROOT) == 55
    namespace = {}
    exec(f"from courantlab import {', '.join(LISTED_AT_THE_ROOT)}", namespace)
    assert all(namespace[name] is getattr(courantlab, name) for name in LISTED_AT_THE_ROOT)
    # among them the names public in their module and once missing at the root
    from courantlab import ExponentOverflowError, write_csv  # noqa: F401


def test_a_wildcard_import_of_bundles_binds_its_all():
    from courantlab import bundles

    assert bundles.__all__ == ["TrivialBundle", "Section", "BundleMorphism",
                               "compose_morphisms", "check_related", "NonExistenceCertificate",
                               "related_section", "LinearSubspace"]
    namespace = {}
    exec("from courantlab.bundles import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(bundles.__all__)


def test_one_substitution_path_and_one_matrix_kernel():
    from courantlab import linalg, polyexpr

    for name in ("_substitute_monomials", "_monomial_table"):
        assert not hasattr(polyexpr, name)
    assert "_table" not in polyexpr.PolyMap.__slots__
    for name in ("mat_vec", "mat_sub", "mat_scale"):
        assert not hasattr(linalg, name)


def test_no_flag_or_environment_variable_is_added():
    from courantlab import cli

    # `simulate` and `project` write CSV and read no --seed, --degree-cap or
    # --json, so they take only --scene and --out of the shared flags;
    # `pullback` and `dirac` read no --degree-cap, and `dirac` no --seed
    common = ["--degree-cap", "--help", "--json", "--out", "--scene", "--seed", "-h"]
    csv = ["--help", "--out", "--scene", "-h"]
    expected = {
        "axioms": ["--structure"],
        "leibniz": ["--samples", "--structure"],
        "morphism": ["--map", "--pairs", "--source", "--target"],
        "pullback": ["--alt-retraction", "--ambient", "--morphism", "--verify-only"],
        "intrinsic": ["--m", "--n", "--phi"],
        "simulate": ["--T", "--h", "--input", "--system", "--x0"],
        "project": ["--T", "--h", "--input", "--system", "--x0", "--z0"],
        "dirac": ["--system"],
    }
    dropped = {"pullback": ["--degree-cap"], "dirac": ["--degree-cap", "--seed"]}
    parser = cli._build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    assert list(commands) == list(expected)
    for name, sub in commands.items():
        flags = sorted(flag for action in sub._actions for flag in action.option_strings)
        shared = csv if name in ("simulate", "project") else [
            flag for flag in common if flag not in dropped.get(name, [])]
        assert flags == sorted(shared + expected[name]), name
    for path in sorted(SRC.glob("*.py")):
        assert "environ" not in path.read_text() and "getenv" not in path.read_text(), path.name


def test_no_module_calls_json_dumps():
    # `cli._canonical` writes the canonical report bytes: json.dumps with an
    # indent takes the json module's pure-Python encoder
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        called = {node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
                  for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Call)
                  and isinstance(node.func, (ast.Attribute, ast.Name))}
        assert "json.dumps" not in text and "dumps" not in called, path.name


def test_only_the_scene_decodes_json():
    # `scene.read_json` is the one reader of outside JSON (the scene file,
    # --pairs, --phi and --alt-retraction), with the one decoder that
    # refuses a duplicate key
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        called = {node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
                  for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Call)
                  and isinstance(node.func, (ast.Attribute, ast.Name))}
        if path.stem == "scene":
            assert text.count("JSONDecoder(") == 1 and not {"load", "loads"} & called
        else:
            assert not {"load", "loads", "JSONDecoder"} & called, path.name
            assert "json.load" not in text and "JSONDecoder" not in text, path.name


def test_code_lines_fell():
    # 3,421 code lines before the unread sampling parameters, the draw
    # helpers, the monomial substitution path and the dense rational helpers
    # left the package, 3,310 after; with the frame rows stored once,
    # `pmat_constant` gone and the simulator's bounds added, 3,297, which
    # the report writer, the one-pass dispatch and the literal memo kept,
    # with cuts in the same modules; with every witness's defect read from
    # the frame tables and the plain re-expansion moved to the tests, 3,283;
    # with a structure's frame data stored only as sparse rows, the dense
    # copies and their fallbacks gone and `_reduce` run on rows, 3,267; with
    # every record a plain class, whose constructor replaces the field
    # declarations and the `dataclasses` imports, 3,259; with the simulator's
    # term-sharing emitter (14 lines more than the `_expr` and `_template` it
    # replaced, less 4 for `PHSystem`'s slot loop) and the structure
    # printer's `linalg` import, 3,270; with the sparse-row kernel's one
    # type dispatch per entry (`_nonzero`, 10 lines more than the dict
    # comprehension over `is_zero` and `entry`, which other modules and the
    # tests still use), the identity test of substitution and of the base
    # map (`_is_identity`, 3), and the intrinsic chain's constant maps
    # written as rows, whose invertibility and retraction checks moved into
    # helpers they share with the dense paths (4), less `morphisms._terms`
    # and `courant_core._anchor_identities_hold` (4), 3,283; with the CLI's
    # direct reader of a plain argv (`_Parser.parse_args` and `_read`, 27)
    # and the one-pass `pmat_transpose` (4 more than the comprehension
    # probing every row for every column), 3,314; with each command's flags
    # declared once as a table that the argv reader and the argparse
    # fallback both read (cli +3 net, the fallback's rejection of a "--"
    # value among them), the checked-rows path shared by a scene's rows and
    # the dense constructor, whose conversion runs inside the checks to keep
    # their order (+11 with the witnesses printed from the frame index),
    # the pivot product read off the reduced rows and the quotient memo of
    # the read-off (+9), and the one scene decoder with json.loads's BOM
    # check and the integer literal read without Fraction's parser (+6),
    # 3,341; with one `polyexpr.Frozen` base in place of the twelve records'
    # `__setattr__` methods and slot-writing loops, the term view a
    # `MappingProxyType` over a plain dict, the evaluator the plain sum of
    # the terms in place of the Horner recursion, and the CLI's per-command
    # parser cache deleted (3 lines) while the bound on a builtin standard<N>
    # of `morphism` and `pullback` came in (5), 3,267; with the scene's
    # literal row reader, which reads each distinct anchor and metric text
    # once to its canonical entry (`scene._row`, +8), the digit-count
    # rejection of a builtin standard<N> of four digits in `axioms` and
    # `leibniz` (+4) and the records' refusal of `del` (+1), while the
    # Leibniz witness read from the anchor rows and the walk over the slot
    # table's pairs came in at no net line, 3,280; with the plain bracket
    # written as the four terms of its expansion, composed from the anchor,
    # derived-operator and G g helpers (the derivative caches, the inline
    # anchor and D loops and the grouped c table gone), the frame tables cut
    # to the anchor columns, and the declared m of a ph_system checked
    # against B (+1), 3,234; with the cap-0 pool of supplied sections (the
    # plain re-expansion it ran moved to tests/conftest.py), the frame
    # bracket, the Whitney sum, the extension rows, the interconnection
    # helper with `linalg.zeros`, the dense views' caches, the CSV's z
    # columns and the unset `IntrinsicResult.unique` gone, while a scene
    # reads each structure-function key in one spelling and range (+3),
    # 3,168; with each public name declared once, in its module's
    # `__all__` (the root's import lists, 61 code lines, became eight
    # wildcard imports, 9, and `bundles` gained its `__all__`), one CLI
    # resolver of structure names and one lookup of the other scene
    # objects (the capped resolver folded in), the split pairing left to
    # `standard_structure`, `check_axioms` the certificate itself and the
    # morphism witnesses printed with `_member`, while `--pairs` and
    # `--alt-retraction` check the type of what they read (+3), 3,102; with
    # `scene.read_json` the one reader of every outside JSON input (the
    # CLI's three decoders, their except blocks and the splitting entries'
    # `constant()` closure gone, cli -16), `_fields` the one field rule,
    # which now refuses an unknown field (scene +3), the splitting file's
    # rows checked by `SplittingIso._checked` (+2) and each map's identity
    # tested once per composition and per morphism (+7), 3,098; with the
    # family bound `MAX_FAMILY` gone (its count and check in
    # `check_degree_cap`, the resolver's cap and second builtin rule: cli
    # -9, courant_core -8 with the walk of (i) skipping the variables a slot
    # does not differentiate, +2), the morphism pairs yielded in the
    # witness order instead of sorted (-1 with `MAX_PAIRS`), and the scene
    # root read by `_fields` (scene -7 with the strict rational literal and
    # `_shown`, +3, which cuts a refused value to 80 characters), 3,073;
    # with the degree-1 tables of (i) bounded by their work,
    # `MAX_TABLE_WORK`, counted before they are formed, and the anchor
    # brackets walked over a gradient index (courant_core +17, the CLI's
    # exit 2 on that bound +3), 3,093
    assert sum(_code_lines(path) for path in SRC.glob("*.py")) <= 3093
