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
# The bodies that only some commands run, each imported where it is used.
PRIVATE_MODULES = sorted(
    p.stem for p in PACKAGE_DIR.glob("_*.py") if not p.stem.startswith("__")
)


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


def test_every_private_body_module_is_reachable_from_the_package(tmp_path):
    """Stubs call their bodies as `twolayer.<module>.<name>`; the package
    imports such a module on first access only if it names it."""
    assert tl._PRIVATE == {m for m in PRIVATE_MODULES if not m.startswith("_cmd_")}
    assert loaded_after("import sys, twolayer\ntwolayer._exact", tmp_path) == [
        "twolayer", "twolayer._exact", "twolayer.errors", "twolayer.graphs",
        "twolayer.pathdecomp",
    ]


# ------------------------------------------------------- import structure

def test_import_twolayer_loads_no_submodule(tmp_path):
    assert loaded_after("import sys, twolayer", tmp_path) == ["twolayer"]
    # A submodule attribute loads that submodule and what it imports.
    assert loaded_after("import sys, twolayer\ntwolayer.render", tmp_path) == [
        "twolayer", "twolayer.errors", "twolayer.graphs", "twolayer.render"
    ]


@pytest.mark.parametrize("module", SUBMODULES + PRIVATE_MODULES)
def test_each_module_imports_on_its_own(tmp_path, module):
    """A cycle between modules would fail here for the one imported first,
    where the lazy imports could hide it until some command ran."""
    proc = fresh_python(f"import twolayer.{module}", tmp_path)
    assert proc.returncode == 0, proc.stderr


BASE = ["twolayer", "twolayer.cli", "twolayer.errors", "twolayer.graphs"]


def write_inputs(tmp_path: Path) -> None:
    """d.json, g.json and pd.json of complete_binary_tree(2)."""
    graph, drawing = tl.complete_binary_tree(2)
    (tmp_path / "d.json").write_text(tl.drawing_to_json(drawing))
    (tmp_path / "g.json").write_text(tl.graph_to_json(graph))
    pd, _ = tl.decompose_drawing(drawing)
    (tmp_path / "pd.json").write_text(tl.decomposition_to_json(pd))


def main_code(argv: list[str]) -> str:
    return (
        "import sys\nfrom twolayer.cli import main\n"
        f"assert main({json.dumps([*argv, '--out', 'out.txt'])}) == 0"
    )


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["gen", "tree", "--height", "2"], ["_cmd_gen", "generators"]),
        (["gen", "tree", "--height", "2", "--format", "svg"],
         ["_cmd_gen", "generators", "render"]),
        (["analyze", "--in", "d.json"], ["_cmd_analyze", "_witness", "analysis"]),
        (["decompose", "--in", "d.json"],
         ["_cmd_decompose", "analysis", "decompose", "pathdecomp"]),
        (["layout", "--in", "pd.json", "--graph", "g.json"],
         ["_cmd_layout", "_reader", "_witness", "analysis", "layout", "pathdecomp"]),
        (["pathwidth", "--in", "g.json"], ["_cmd_pathwidth", "_exact", "pathdecomp"]),
        (["check-pd", "--in", "pd.json", "--graph", "g.json"],
         ["_cmd_check_pd", "_reader", "pathdecomp"]),
        (["render", "--in", "pd.json"], ["_cmd_render", "_reader", "pathdecomp", "render"]),
        (["render", "--in", "d.json"], ["_cmd_render", "_reader", "pathdecomp", "render"]),
        (["fuzz", "--trials", "2"],
         ["_checks", "_cmd_fuzz", "_exact", "_random", "_witness", "analysis", "decompose",
          "fuzz", "layout", "pathdecomp"]),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, extra):
    """Each command loads its own CLI module and the modules whose code it
    runs.  decompose and analyze, the commands that a drawing goes through,
    load neither the exact search, nor the pd.json reader, nor the audit,
    nor another command's CLI module."""
    write_inputs(tmp_path)
    expected = sorted(BASE + [f"twolayer.{m}" for m in extra])
    loaded = loaded_after(main_code(argv), tmp_path)
    assert loaded == expected
    assert (tmp_path / "out.txt").stat().st_size > 0
    if argv[0] in ("decompose", "analyze"):
        unrun = {"twolayer._exact", "twolayer._reader", "twolayer._checks"}
        assert not unrun & set(loaded)
        commands = [m for m in loaded if m.startswith("twolayer._cmd_")]
        assert commands == [f"twolayer._cmd_{argv[0]}"]


# The AST nodes of the twolayer modules that each command of the benchmark's
# workloads compiles on complete_binary_tree(2)-sized inputs: the count reached
# (in the comment) plus 3 %.  When every body sat in its public module,
# decompose compiled 16,186 and analyze 9,784.  A body that a command never
# runs, pulled back into a module that the command loads, fails here.
COMPILED_NODES = {
    "decompose": 10511,  # 10,205
    "analyze": 6934,  # 6,732
    "check-pd": 6353,  # 6,168
    "layout": 10638,  # 10,328
    "render": 7085,  # 6,879
    "pathwidth": 6249,  # 6,067
    "fuzz": 17265,  # 16,762
}
WORKLOAD_ARGV = {
    "decompose": ["decompose", "--in", "d.json", "--cert", "c.json"],
    "analyze": ["analyze", "--in", "d.json"],
    "check-pd": ["check-pd", "--in", "pd.json", "--graph", "g.json"],
    "layout": ["layout", "--in", "pd.json", "--graph", "g.json", "--cert", "c.json"],
    "render": ["render", "--in", "pd.json"],
    "pathwidth": ["pathwidth", "--in", "g.json"],
    "fuzz": ["fuzz", "--trials", "20", "--na-max", "6", "--nb-max", "6"],
}


@pytest.mark.parametrize("command", COMPILED_NODES)
def test_each_command_compiles_at_most_its_budget(tmp_path, command):
    write_inputs(tmp_path)
    code = main_code(WORKLOAD_ARGV[command]) + (
        "\nprint(sorted(m.__file__ for n, m in sys.modules.items()"
        " if n.startswith('twolayer')))"
    )
    proc = fresh_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    files = ast.literal_eval(proc.stdout.splitlines()[-1])
    nodes = sum(
        sum(1 for _ in ast.walk(ast.parse(Path(f).read_text(encoding="utf-8"))))
        for f in files
    )
    assert nodes <= COMPILED_NODES[command], nodes


# Writing, reading or forcing compiled bytecode is the environment's choice.
BYTECODE_NAMES = {"dont_write_bytecode", "pycache_prefix", "py_compile", "compileall", "marshal"}


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE_DIR.glob("*.py")))
def test_no_module_touches_the_bytecode_cache(module):
    """Start-up falls by compiling less code, not by caching it: no module
    names the interpreter's bytecode settings or the modules that write or
    read bytecode, as a name, an attribute, an import or a string."""
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.update(node.module.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(n for n in BYTECODE_NAMES if n in node.value)
    assert not names & BYTECODE_NAMES


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE_DIR.glob("*.py")))
def test_no_module_uses_functools_cached_property(module):
    """Cached attributes go through ``graphs._cached_property``, which takes
    no lock on a first read, as ``functools.cached_property`` does in Python
    3.11: no module imports that one or reads it from ``functools``."""
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8"))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.ImportFrom)
            and node.module == "functools"
            and "cached_property" in {alias.name for alias in node.names}
        )
        or (isinstance(node, ast.Attribute) and node.attr == "cached_property")
    ]
    assert not found


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
    assert sorted(moved) == sorted(tl._EXPORTS["generators"])
    for name in moved:
        assert getattr(graphs, name) is vars(generators)[name]
        assert getattr(tl, name) is vars(generators)[name]
        namespace = {}
        exec(f"from twolayer.graphs import {name}", namespace)
        assert namespace[name] is vars(generators)[name]
    with pytest.raises(AttributeError, match="no_such_name"):
        graphs.no_such_name
