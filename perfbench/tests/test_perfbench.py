"""Self-tests of the benchmark: span arithmetic, restoring the wrapped
functions, deterministic inputs, and a tiny-size pass over every workload.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import importlib
import json

import pytest

import run
import spans
import workloads


@pytest.fixture(scope="module")
def launcher():
    helper = run.Launcher()
    yield helper
    helper.close()


def _layer_bindings():
    modules = [importlib.import_module(f"twolayer.{name}") for name in spans.LAYERS]
    return {(m.__name__, attr): obj for m in modules for attr, obj in vars(m).items()}


def test_self_time_of_synthetic_nested_call():
    ticks = iter(range(0, 1000, 10))
    recorder = spans.SpanRecorder(clock=lambda: next(ticks))
    inner = recorder.wrap("m.inner", lambda: None)

    def outer_body():
        inner()
        inner()

    outer = recorder.wrap("m.outer", outer_body)
    recorder.command = "c"
    outer()
    # outer [0, 50] holds inner [10, 20] and [30, 40].
    assert spans.self_times(recorder.spans) == {"m.outer": (30, 1), "m.inner": (20, 2)}
    assert spans.tree_problems(recorder.spans, root="m.outer") == []


def test_tree_check_flags_a_child_outlasting_its_parent():
    bad = [["m.outer", -1, 0, 10, "c"], ["m.inner", 0, 2, 30, "c"]]
    assert spans.tree_problems(bad, root="m.outer")


def test_wrapped_attributes_are_restored(launcher):
    before = _layer_bindings()
    result = run.run("small-exact", 3, 0, True, launcher, sizes=workloads.TINY)
    assert result["failed"] == 0
    assert result["values"]["trace.spans"] > 0
    after = _layer_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    modules = [importlib.import_module(f"twolayer.{name}") for name in spans.LAYERS]
    with pytest.raises(RuntimeError):
        with spans.SpanRecorder().installed(modules):
            assert _layer_bindings()[("twolayer.cli", "main")] is not before[("twolayer.cli", "main")]
            raise RuntimeError
    after = _layer_bindings()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    def files(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        workloads.workload(name, seed, workloads.TINY).make_inputs(d)
        return {str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*.json"))}

    first = files(5, "a")
    assert first == files(5, "b")
    inputs = workloads.workload(name, 5, workloads.TINY).inputs
    assert set(first) == {f"{w}/{f}" for w in inputs for f in ("drawing.json", "graph.json")}
    assert first != files(6, "c")


def _declared(key):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec[key]}


def test_smoke_pass_runs_every_command_and_check(launcher):
    produced = set()
    for name in workloads.NAMES:
        plain = run.run(name, 2, 0, False, launcher, sizes=workloads.TINY)
        traced = run.run(name, 2, 0, True, launcher, sizes=workloads.TINY)
        commands = workloads.workload(name, 2, workloads.TINY).commands
        assert plain["attempted"] == len(commands) and plain["failed"] == 0, plain["detail"]
        assert traced["attempted"] == 2 * len(commands) and traced["failed"] == 0, traced["detail"]
        assert _declared("end_to_end") <= plain["values"].keys()
        assert all(plain["values"][m] > 0 for m in _declared("end_to_end"))
        assert traced["values"]["cli.main.calls"] == len(commands)
        produced |= traced["values"].keys()
    assert _declared("per_layer") <= produced


def test_checks_reject_broken_outputs(tmp_path):
    workloads.workload("small-exact", 1, workloads.TINY).make_inputs(tmp_path)
    tmp_path = tmp_path / "small"
    graph = json.loads((tmp_path / "graph.json").read_text())
    all_vertices = graph["a"] + graph["b"]
    (tmp_path / "pd.json").write_text(json.dumps({"bags": [all_vertices]}))
    assert workloads.decomposition_valid(tmp_path) == []
    (tmp_path / "pd.json").write_text(json.dumps({"bags": [all_vertices[1:]]}))
    assert workloads.decomposition_valid(tmp_path)

    stats = {c: {"run": 1, "passed": 1, "failed": 0, "skipped": 0} for c in workloads.fuzz.ALL_CHECKS}
    report = {"trials": 1, "checks": stats, "failures": []}
    (tmp_path / "fuzz.json").write_text(json.dumps(report))
    assert workloads.fuzz_clean(1)(tmp_path) == []
    assert workloads.fuzz_clean(2)(tmp_path)


def test_independent_bag_check():
    graph = {"a": ["a0", "a1"], "b": ["b0"], "edges": [["a0", "b0"], ["a1", "b0"]]}
    assert workloads.bags_decompose(graph, [["a0", "b0"], ["b0", "a1"]]) == []
    assert workloads.bags_decompose(graph, [["a0", "b0"], ["a1"], ["b0"]])  # b0 not contiguous
    assert workloads.bags_decompose(graph, [["a0", "b0"], ["a1"]])  # edge a1-b0 in no bag
    assert workloads.bags_decompose(graph, [["a0", "b0", "a1", "x"]])  # unknown id
    assert workloads.bags_decompose(graph, [["a0", "b0"]])  # a1 missing
