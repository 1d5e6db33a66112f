"""Import structure: the lazy top-level names, the modules each CLI command
loads, and that every module imports on its own."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twolayer as tl

PACKAGE_DIR = Path(tl.__file__).parent
REPO = Path(__file__).resolve().parent.parent

# `twolayer.__all__` before its names became lazy.  It also listed the
# submodules, which `import *` no longer binds.
PREVIOUS_ALL = [
    "ALL_CHECKS", "AuditReport", "AuditViolation", "BagContradiction",
    "BipartiteGraph", "CapExceededError", "CertificateError", "ChainCover",
    "CheckStats", "ConnectivityError", "CountingBoundReport", "CrossingWitness",
    "DecompositionCertificate", "DecompositionError", "Edge", "FailureDump",
    "FuzzConfig", "FuzzReport", "GraphError", "LayoutCertificate",
    "NotCaterpillarError", "PathDecomposition", "TwoLayerDrawing",
    "TwoLayerError", "Violation", "analysis", "analysis_report",
    "audit_counting_bounds", "bipartition_from_edges", "caterpillar_layout",
    "certificate_bags", "certificate_to_json", "check_counting_bound",
    "complete_binary_tree", "connected_components", "crossed_runs",
    "crossings_per_edge", "decompose", "decompose_drawing",
    "decomposition_from_json", "decomposition_to_json", "drawing_from_json",
    "drawing_to_json", "drop_isolated_a", "edges_cross", "errors",
    "explain_oversized_bag", "fuzz", "graph_from_json", "graph_to_json",
    "graphs", "grid_graph", "intro_intervals", "is_caterpillar", "is_connected",
    "layout", "layout_certificate_to_json", "layout_decomposition",
    "max_crossing_set", "maximal_noncrossing_matching",
    "maximum_noncrossing_matching", "min_chain_cover", "minimal_unachievable",
    "normalize_unique_intro", "order_to_decomposition", "pathdecomp",
    "pathwidth_exact", "random_drawing", "render", "render_decomposition",
    "render_drawing", "replay_failure", "report_to_json", "run_fuzz",
    "st_crossing_exists", "st_profile", "star_fan_drawing", "subdivided_star",
    "validate_decomposition", "width_bound",
]
SUBMODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if not p.stem.startswith("_"))


def fresh_python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=60,
    )


def loaded_after(code: str, cwd: Path) -> list[str]:
    """The twolayer modules a fresh interpreter holds after running code."""
    proc = fresh_python(
        code + "\nprint(sorted(m for m in sys.modules if m.startswith('twolayer')))",
        cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


# ----------------------------------------------------------- public API

def test_public_api_is_unchanged(monkeypatch):
    assert tl.__all__ == [n for n in PREVIOUS_ALL if n not in SUBMODULES]
    for name in PREVIOUS_ALL:
        # Drop any binding so that both lookups go through __getattr__.
        monkeypatch.delattr(tl, name, raising=False)
        namespace = {}
        exec(f"from twolayer import {name}", namespace)
        assert namespace[name] is getattr(tl, name)
        if name in SUBMODULES:
            assert namespace[name] is sys.modules[f"twolayer.{name}"]
    namespace = {}
    exec("from twolayer import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == tl.__all__


def test_benchmark_spans_name_public_functions_of_their_module():
    """The benchmark names a function's span after the module that defines
    it, so each `<module>.<function>.self_s` or `.calls` metric declared in
    BENCHMARK.json needs `twolayer.<module>.<function>` to be a public
    function defined in that module.  Deleting such a function, or moving it
    to another module, fails here."""
    declared = json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]
    spans = [
        m["name"].rsplit(".", 1)[0]
        for m in declared
        if m["name"].endswith((".self_s", ".calls"))
    ]
    assert spans
    for span in spans:
        module, function = span.split(".")
        obj = getattr(importlib.import_module(f"twolayer.{module}"), function, None)
        assert inspect.isfunction(obj) and not function.startswith("_"), span
        assert obj.__module__ == f"twolayer.{module}", span


def test_unknown_top_level_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tl.no_such_name
    assert not hasattr(tl, "brute_max_crossing_set")
    with pytest.raises(ImportError):
        exec("from twolayer import no_such_name", {})


# ------------------------------------------------------- import structure

def test_import_twolayer_loads_no_submodule(tmp_path):
    assert loaded_after("import sys, twolayer", tmp_path) == ["twolayer"]
    # A submodule attribute loads that submodule and what it imports.
    assert loaded_after("import sys, twolayer\ntwolayer.render", tmp_path) == [
        "twolayer", "twolayer.errors", "twolayer.graphs", "twolayer.render"
    ]


@pytest.mark.parametrize("module", SUBMODULES)
def test_each_module_imports_on_its_own(tmp_path, module):
    """A cycle between modules would fail here for the one imported first,
    where the lazy imports could hide it until some command ran."""
    proc = fresh_python(f"import twolayer.{module}", tmp_path)
    assert proc.returncode == 0, proc.stderr


BASE = ["twolayer", "twolayer.cli", "twolayer.errors", "twolayer.graphs"]


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["gen", "tree", "--height", "2"], ["generators"]),
        (["gen", "tree", "--height", "2", "--format", "svg"], ["generators", "render"]),
        (["analyze", "--in", "d.json"], ["analysis"]),
        (["decompose", "--in", "d.json"], ["analysis", "decompose", "pathdecomp"]),
        (["layout", "--in", "pd.json", "--graph", "g.json"],
         ["analysis", "layout", "pathdecomp"]),
        (["pathwidth", "--in", "g.json"], ["pathdecomp"]),
        (["check-pd", "--in", "pd.json", "--graph", "g.json"], ["pathdecomp"]),
        (["render", "--in", "pd.json"], ["pathdecomp", "render"]),
        (["render", "--in", "d.json"], ["pathdecomp", "render"]),
        (["fuzz", "--trials", "2"],
         ["analysis", "decompose", "fuzz", "layout", "pathdecomp"]),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, extra):
    graph, drawing = tl.complete_binary_tree(2)
    (tmp_path / "d.json").write_text(tl.drawing_to_json(drawing))
    (tmp_path / "g.json").write_text(tl.graph_to_json(graph))
    pd, _ = tl.decompose_drawing(drawing)
    (tmp_path / "pd.json").write_text(tl.decomposition_to_json(pd))
    code = (
        "import sys\nfrom twolayer.cli import main\n"
        f"assert main({json.dumps([*argv, '--out', 'out.txt'])}) == 0"
    )
    expected = sorted(BASE + [f"twolayer.{m}" for m in extra])
    assert loaded_after(code, tmp_path) == expected
    assert (tmp_path / "out.txt").stat().st_size > 0


# Loaded by `dataclasses` (with `copy`); no command needs them.
HEAVY = ("ast", "dataclasses", "dis", "inspect", "tokenize")


@pytest.mark.parametrize("command", ["analyze", "decompose"])
def test_commands_load_no_dataclasses_or_inspect(tmp_path, command):
    _, drawing = tl.complete_binary_tree(2)
    (tmp_path / "d.json").write_text(tl.drawing_to_json(drawing))
    argv = [command, "--in", "d.json", "--out", "out.txt"]
    # Whatever the interpreter's start-up loaded before the command is not
    # the command's doing.
    code = (
        "import sys\nbefore = set(sys.modules)\nfrom twolayer.cli import main\n"
        f"assert main({json.dumps(argv)}) == 0\n"
        f"print(sorted((set(sys.modules) - before) & {set(HEAVY)!r}))"
    )
    proc = fresh_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_generator_names_keep_their_old_homes():
    """The generators moved from graphs to generators; `twolayer.graphs.<name>`
    and `twolayer.<name>` still give the very objects defined there."""
    from twolayer import generators, graphs

    moved = [
        name for name, value in vars(generators).items()
        if callable(value) and getattr(value, "__module__", None) == generators.__name__
    ]
    assert sorted(moved) == sorted(graphs._GENERATOR_NAMES)
    for name in moved:
        assert getattr(graphs, name) is vars(generators)[name]
        assert getattr(tl, name) is vars(generators)[name]
        namespace = {}
        exec(f"from twolayer.graphs import {name}", namespace)
        assert namespace[name] is vars(generators)[name]
    with pytest.raises(AttributeError, match="no_such_name"):
        graphs.no_such_name
