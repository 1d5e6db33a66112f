"""End-to-end CLI behaviour: subcommands, formats, exit codes."""

import argparse
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import twolayer as tl
from twolayer import _reader, cli
from twolayer.cli import _output, _write, main

from conftest import record_bag_builds, record_interval_passes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- gen

def test_gen_tree_writes_drawing(capsys, tmp_path):
    out = tmp_path / "tree.json"
    code, _, _ = run(capsys, "gen", "tree", "--height", "2", "--out", str(out))
    assert code == 0
    d = tl.drawing_from_json(out.read_text())
    assert d == tl.complete_binary_tree(2)[1]


def test_gen_star_graph_only(capsys):
    code, out, _ = run(capsys, "gen", "star", "--legs", "3")
    assert code == 0
    g = tl.graph_from_json(out)
    assert g == tl.subdivided_star(3)
    assert "orderA" not in json.loads(out)


def test_gen_star_fan_is_a_drawing(capsys):
    code, out, _ = run(capsys, "gen", "star", "--legs", "3", "--fan")
    assert code == 0
    assert tl.drawing_from_json(out) == tl.star_fan_drawing(3)[1]


def test_gen_random_respects_seed(capsys):
    args = ("gen", "random", "--na", "4", "--nb", "4", "--p", "0.5", "--seed", "9")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_svg_needs_a_drawing(capsys):
    code, out, _ = run(capsys, "gen", "grid", "--side", "2", "--format", "svg")
    assert code == 0 and out.startswith("<svg")
    code2, _, err = run(capsys, "gen", "star", "--legs", "3", "--format", "svg")
    assert code2 == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("random", "--na", "-1", "--nb", "2", "--p", "0.5"), 2, "side sizes must be >= 0"),
        (("random", "--na", "2", "--nb", "2", "--p", "1.5"), 2, "edge probability"),
        (("random", "--na", "2", "--nb", "2", "--p", "nan"), 2, "edge probability"),
        (("random", "--na", "2", "--nb", "2", "--p", "inf"), 2, "edge probability"),
        (("tree", "--height", "-1"), 2, "height must be >= 0"),
        (("grid", "--side", "0"), 2, "grid side must be >= 1"),
        (("star", "--legs", "0"), 2, "star needs at least one leg"),
        (("tree", "--height", "11"), 3, "exceeds cap 10"),
    ],
)
def test_gen_domain_errors_are_usage_errors(capsys, argv, code, message):
    """Arguments outside a generator's domain exit 2; a size over its cap
    still exits 3."""
    got, out, err = run(capsys, "gen", *argv)
    assert got == code
    assert out == "" and err.startswith("error: ") and message in err


def test_gen_cap_exceeded_is_exit_3(capsys):
    code, _, _ = run(capsys, "gen", "tree", "--height", "99")
    assert code == 3
    code, _, _ = run(capsys, "gen", "tree", "--height", "11", "--cap-n", "11")
    assert code == 0


# -------------------------------------------------------- analyze/decompose

@pytest.fixture
def tree_drawing_file(tmp_path):
    path = tmp_path / "tree3.json"
    path.write_text(tl.drawing_to_json(tl.complete_binary_tree(3)[1]))
    return path


def test_analyze_tree(capsys, tree_drawing_file):
    code, out, _ = run(capsys, "analyze", "--in", str(tree_drawing_file))
    assert code == 0
    rep = json.loads(out)
    assert rep["k"] == 2
    assert rep["stFrontier"] == [[1, 3], [3, 1]]


def test_decompose_then_check(capsys, tmp_path, tree_drawing_file):
    pd_path = tmp_path / "pd.json"
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(
        capsys, "decompose", "--in", str(tree_drawing_file),
        "--out", str(pd_path), "--cert", str(cert_path),
    )
    assert code == 0
    cert = json.loads(cert_path.read_text())
    assert cert["widthBound"] == 46

    graph_path = tmp_path / "g.json"
    graph_path.write_text(tl.graph_to_json(tl.complete_binary_tree(3)[0]))
    code, out, _ = run(
        capsys, "check-pd", "--in", str(pd_path), "--graph", str(graph_path)
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict == {"ok": True, "width": 6, "violations": []}


def test_check_pd_makes_one_interval_pass(capsys, tmp_path, monkeypatch):
    """pd.json is decoded once, by the stream reader, whose interval pass is
    the only one."""
    g, d = tl.grid_graph(3)
    graph_path = tmp_path / "g.json"
    graph_path.write_text(tl.graph_to_json(g))
    pd_path = tmp_path / "pd.json"
    pd_path.write_text(tl.decomposition_to_json(tl.decompose_drawing(d)[0]))
    reads = []
    real_reader = _reader._read_decomposition
    monkeypatch.setattr(
        _reader, "_read_decomposition", lambda *a: reads.append(a) or real_reader(*a)
    )
    passes = record_interval_passes(monkeypatch)
    code, out, _ = run(
        capsys, "check-pd", "--in", str(pd_path), "--graph", str(graph_path)
    )
    assert code == 0 and json.loads(out)["ok"] is True
    assert len(reads) == len(passes) == 1


@pytest.fixture(scope="module")
def wide_pd_dir(tmp_path_factory):
    """pd.json (6.4 MB) and graph.json of random_drawing(400, 400, 0.0125, 1);
    broken.json, pd.json with its first bag repeated at the end, so that the
    vertices of that bag are not contiguous; and keyed.json, pd.json with
    keys after the bags."""
    g, d = tl.random_drawing(400, 400, 0.0125, 1)
    path = tmp_path_factory.mktemp("wide")
    pd = tl.decompose_drawing(d)[0]
    with open(path / "pd.json", "w", encoding="utf-8") as fh:
        tl.decomposition_to_json(pd, fh)
    with open(path / "broken.json", "w", encoding="utf-8") as fh:
        tl.decomposition_to_json(tl.PathDecomposition((*pd.bags, pd.bags[0])), fh)
    text = (path / "pd.json").read_text(encoding="utf-8")
    keys = ',\n  "width": %d,\n  "source": {"command": "decompose"}\n}' % pd.width
    (path / "keyed.json").write_text(text[: text.rindex("}")].rstrip() + keys)
    (path / "g.json").write_text(tl.graph_to_json(g))
    return path


@pytest.mark.parametrize("command", ["check-pd", "layout", "render"])
def test_pd_json_readers_build_no_bag_list(capsys, monkeypatch, wide_pd_dir, command):
    """Each command reads pd.json as bag intervals and never builds the
    decomposition's bag list."""
    built = record_bag_builds(monkeypatch)
    argv = [command, "--in", str(wide_pd_dir / "pd.json"), "--out", os.devnull]
    if command != "render":
        argv += ["--graph", str(wide_pd_dir / "g.json")]
    assert run(capsys, *argv)[0] == 0
    assert built == []


@pytest.mark.parametrize("command", ["check-pd", "layout", "render"])
def test_pd_json_readers_build_no_bag_list_when_bags_are_not_contiguous(
    capsys, monkeypatch, wide_pd_dir, command
):
    """A vertex that comes back to a bag is kept as its bag indices beside
    the intervals: check-pd reports it and layout refuses it from those,
    and render draws the bags from the sweep, all without a bag list."""
    built = record_bag_builds(monkeypatch)
    argv = [command, "--in", str(wide_pd_dir / "broken.json"), "--out", os.devnull]
    if command != "render":
        argv += ["--graph", str(wide_pd_dir / "g.json")]
    assert run(capsys, *argv)[0] == (0 if command == "render" else 1)
    assert built == []


@pytest.mark.parametrize("name", ["pd.json", "broken.json", "keyed.json"])
def test_reading_and_validating_pd_json_holds_a_small_part_of_it(wide_pd_dir, name):
    """Reading the 6.4 MB pd.json and validating it peaks below a quarter
    of the file (0.5 MiB traced), where the whole text and every bag were
    held at once before; so do the copy whose first bag comes back at the
    end and the copy with keys after the bags, both of which json.loads
    read whole, one str per id occurrence."""
    graph = tl.graph_from_json((wide_pd_dir / "g.json").read_text())
    path = wide_pd_dir / name
    tracemalloc.start()
    try:
        pd = _reader._read_pd(str(path), tl.decomposition_from_json)
        violations = tl.validate_decomposition(graph, pd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {v.kind for v in violations} == ({"contiguity"} if name == "broken.json" else set())
    assert path.stat().st_size > 6_000_000
    assert peak < path.stat().st_size / 4, peak


@pytest.mark.parametrize("command", ["check-pd", "layout", "render"])
def test_pd_json_readers_skip_keys_after_the_bags(capsys, monkeypatch, wide_pd_dir, command):
    """Keys after the bags are skipped by the stream reader, so each command
    decodes the file once and writes what it writes for the same bags alone,
    the bytes that the json.loads path gave."""
    loads = []
    real_loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text: loads.append(text) or real_loads(text))
    outputs = []
    for name in ("pd.json", "keyed.json"):
        argv = [command, "--in", str(wide_pd_dir / name)]
        if command != "render":
            argv += ["--graph", str(wide_pd_dir / "g.json")]
        outputs.append(run(capsys, *argv))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
    assert not [text for text in loads if '"bags"' in text]


def test_pd_json_readers_read_a_pipe_once(capsys, tmp_path, tree_drawing_file):
    """A path that can be read only once, such as /dev/fd/N of a pipe, is
    read whole from the one handle opened on it and gives what its file
    gives: render of a drawing, check-pd of a pd.json whose bags are not
    contiguous, and layout of pathwidth's output."""
    g = tl.bipartition_from_edges((("a0", "b1"), ("b1", "a2")))
    graph_path = tmp_path / "g.json"
    graph_path.write_text(tl.graph_to_json(g))
    pd_path = tmp_path / "pd.json"
    pd_path.write_text(tl.decomposition_to_json(tl.PathDecomposition(
        (("a0", "b1"), ("b1",), ("a0", "a2", "b1"))
    )))
    pw_path = tmp_path / "pw.json"
    assert run(capsys, "pathwidth", "--in", str(graph_path), "--out", str(pw_path))[0] == 0
    graph = ["--graph", str(graph_path)]
    for argv, path, code in (
        (["render"], tree_drawing_file, 0),
        (["check-pd", *graph], pd_path, 1),
        (["layout", *graph], pw_path, 0),
    ):
        from_file = run(capsys, *argv, "--in", str(path))
        r, w = os.pipe()
        try:
            os.write(w, path.read_bytes())  # within the pipe's buffer
            os.close(w)
            assert run(capsys, *argv, "--in", f"/dev/fd/{r}") == from_file
        finally:
            os.close(r)
        assert from_file[0] == code and from_file[1]


_STDIN_PDS = {
    "contiguous": tl.PathDecomposition((("a0",), ("a0", "b1"), ("b1",))),
    "not contiguous": tl.PathDecomposition((("a0", "b1"), ("b1",), ("a0", "b1"))),
}


@pytest.mark.parametrize("pd", _STDIN_PDS.values(), ids=_STDIN_PDS)
@pytest.mark.parametrize("command", ["check-pd", "layout", "render"])
def test_pd_json_on_stdin_reads_as_the_file(capsys, monkeypatch, tmp_path, command, pd):
    """stdin is read whole, the file as a stream, with the same exit code,
    output and error, whichever reader the document takes."""
    text = tl.decomposition_to_json(pd)
    (tmp_path / "pd.json").write_text(text)
    graph_path = tmp_path / "g.json"
    graph_path.write_text(tl.graph_to_json(tl.bipartition_from_edges((("a0", "b1"),))))
    graph = ["--graph", str(graph_path)] if command != "render" else []
    from_file = run(capsys, command, "--in", str(tmp_path / "pd.json"), *graph)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(capsys, command, "--in", "-", *graph) == from_file
    assert from_file[1] or from_file[2]


def test_check_pd_reports_violations(capsys, tmp_path):
    graph_path = tmp_path / "g.json"
    g = tl.bipartition_from_edges((("u", "v"), ("v", "w")))
    graph_path.write_text(tl.graph_to_json(g))
    pd_path = tmp_path / "pd.json"
    pd_path.write_text(
        tl.decomposition_to_json(tl.PathDecomposition((("u",), ("v",), ("w",))))
    )
    code, out, _ = run(
        capsys, "check-pd", "--in", str(pd_path), "--graph", str(graph_path)
    )
    assert code == 1
    verdict = json.loads(out)
    assert verdict["ok"] is False
    assert {v["kind"] for v in verdict["violations"]} == {"edge"}


# --------------------------------------------------------- pathwidth/layout

def test_pathwidth_and_layout_pipeline(capsys, tmp_path):
    g, _ = tl.grid_graph(2)
    graph_path = tmp_path / "g.json"
    graph_path.write_text(tl.graph_to_json(g))

    code, out, _ = run(capsys, "pathwidth", "--in", str(graph_path))
    assert code == 0
    result = json.loads(out)
    assert result["pathwidth"] == 2
    assert sorted(result["order"]) == sorted(g.vertices)
    pd = tl.PathDecomposition(tuple(tuple(bag) for bag in result["bags"]))
    assert tl.validate_decomposition(g, pd) == ()

    pd_path = tmp_path / "pd.json"
    pd_path.write_text(tl.decomposition_to_json(pd))
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys, "layout", "--in", str(pd_path), "--graph", str(graph_path),
        "--cert", str(cert_path),
    )
    assert code == 0
    d = tl.drawing_from_json(out)
    assert d.graph == g
    cert = json.loads(cert_path.read_text())
    assert cert["maxCrossingOk"] is True and cert["stOk"] is True


@pytest.mark.parametrize("bags", [[[]], []])
def test_layout_of_empty_graph_exits_1(capsys, tmp_path, bags):
    graph_path = tmp_path / "g.json"
    graph_path.write_text(tl.graph_to_json(tl.BipartiteGraph((), (), ())))
    pd_path = tmp_path / "pd.json"
    pd_path.write_text(json.dumps({"bags": bags}))
    code, out, err = run(
        capsys, "layout", "--in", str(pd_path), "--graph", str(graph_path)
    )
    assert code == 1 and out == ""
    assert err == "error: layout is undefined for the empty graph\n"


@pytest.mark.parametrize(
    "seed, digest",
    [
        (1, "66ad2986d4b968ef32d07a82ce51730957989d7ef6b9124b45aad7551e4a97a2"),
        (2, "e6ba245911895fe320489bae9d226a5abba623d006a5da49c174dd7badcbd411"),
        (3, "e22252317489ebb0b78b876262cfe8f2bde66b23a8153e63a5b344050b7e7c30"),
        (None, "969b24e3fd0d016366ebf1024cfc757d9a3bb33876abca01a727d4ea0a2ae4ef"),
    ],
)
def test_pathwidth_output_bytes_are_pinned(capsys, tmp_path, seed, digest):
    """Width, order and bags are pinned for three 18-vertex random graphs and
    K_{4,4}: the exact search must give the subset DP's order, not merely
    another optimal one."""
    if seed is None:
        a, b = ("a0", "a1", "a2", "a3"), ("b0", "b1", "b2", "b3")
        g = tl.BipartiteGraph(a, b, tuple((u, v) for u in a for v in b))
    else:
        g, _ = tl.random_drawing(9, 9, 0.3, seed)
    graph_path = tmp_path / "g.json"
    graph_path.write_text(tl.graph_to_json(g))
    code, out, _ = run(capsys, "pathwidth", "--in", str(graph_path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pathwidth_cap_is_exit_3(capsys, tmp_path):
    g, _ = tl.random_drawing(12, 12, 0.3, 4)
    graph_path = tmp_path / "g.json"
    graph_path.write_text(tl.graph_to_json(g))
    code, _, _ = run(capsys, "pathwidth", "--in", str(graph_path), "--cap-n", "10")
    assert code == 3


# ---------------------------------------------------------------- outputs

WIDE_DIGESTS = {
    "pd.json": "9809c544358332853dd39d126f2083036c56efb155f4488de3ce0575d7f67792",
    "cert.json": "2bdc3c02f118d4282817df846b1a393fa5d3e96edd2a670ad4793a74ba76bc64",
    "check.json": "6cc15492178bb63a6ca07b39b5f1137dbe764647b93b98e9eeab7a9d0986faf5",
    "layout.json": "931a8393c6ab24713527a03afe25a10db38be74dd73f86a8c32686fddb014b01",
    "lcert.json": "7dbb3cfd0644eee372956cf80b053dc7b95a86bd05ce2dc4546a3c60b9f643a7",
    "pd.svg": "5a2ab42dd4143b78bd3cfe8db8d06c473e8328a46494e2efc8237da6221131c3",
    "drawing.svg": "d70c0316698b536d317f3234beb2a58e0b67dd746906b61a8abb31141ef0c5a6",
    "gen.svg": "d70c0316698b536d317f3234beb2a58e0b67dd746906b61a8abb31141ef0c5a6",
}


def test_wide_output_bytes_are_pinned(capsys, tmp_path):
    """The streamed pd.json, cert.json and SVG writers keep the bytes of the
    join-based ones on a 160x160 drawing with bags up to 271 wide, and
    check-pd, layout and render read that pd.json back to the same bytes."""
    path = {name: str(tmp_path / name) for name in ("drawing.json", *WIDE_DIGESTS)}
    gen = ("gen", "random", "--na", "160", "--nb", "160", "--p", "0.032", "--seed", "3")
    for argv in (
        (*gen, "--out", path["drawing.json"]),
        (*gen, "--format", "svg", "--out", path["gen.svg"]),
        ("decompose", "--in", path["drawing.json"],
         "--out", path["pd.json"], "--cert", path["cert.json"]),
        ("check-pd", "--in", path["pd.json"], "--graph", path["drawing.json"],
         "--out", path["check.json"]),
        ("layout", "--in", path["pd.json"], "--graph", path["drawing.json"],
         "--out", path["layout.json"], "--cert", path["lcert.json"]),
        ("render", "--in", path["pd.json"], "--out", path["pd.svg"]),
        ("render", "--in", path["drawing.json"], "--out", path["drawing.svg"]),
    ):
        assert run(capsys, *argv)[0] == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in WIDE_DIGESTS
    }
    assert digests == WIDE_DIGESTS


INDENTED_DIGESTS = {
    "drawing.json": "b506e87ed9e13a5f62b2b676218a6a1f0c13f35d7e13f886a482913332abbcac",
    "star.json": "97d59b4eb3a34ef901a38dad97c453a244b4fe9255f0ff9a92b8f3fae83030f7",
    "analyze.json": "947ce8cc064d9945c5ba04241cd46908a81e05ef726b2835294b8e3b788b073d",
    "fan-cert.json": "2e4ebdb176ff9c2b95f18de45a2c27cea10c3edc2234a4ed33ffeac58576ebba",
    "check.json": "c5c0e1a21e11de31754cc4a70652eaf8e1c4cbbae27601aa05d042b364393243",
}


def test_indented_json_output_bytes_are_pinned(capsys, tmp_path):
    """The drawing and graph JSON from `gen`, `analyze` on the 160x160
    drawing, the 500-leg star fan's cert.json and a failing check-pd report
    (violations with null fields) keep the bytes of ``json.dumps(...,
    indent=2)``."""
    path = {name: str(tmp_path / name) for name in (*INDENTED_DIGESTS, "fan.json", "pd.json", "g.json")}
    (tmp_path / "g.json").write_text(
        '{"a": ["a0", "a1"], "b": ["b0", "b1"], '
        '"edges": [["a0", "b0"], ["a1", "b0"], ["a1", "b1"]]}'
    )
    (tmp_path / "pd.json").write_text('{"bags": [["a0", "b0"], ["b1"], ["a0"]]}')
    for argv, code in (
        (("gen", "random", "--na", "160", "--nb", "160", "--p", "0.032", "--seed", "3",
          "--out", path["drawing.json"]), 0),
        (("gen", "star", "--legs", "12", "--out", path["star.json"]), 0),
        (("analyze", "--in", path["drawing.json"], "--out", path["analyze.json"]), 0),
        (("gen", "star", "--legs", "500", "--fan", "--out", path["fan.json"]), 0),
        (("decompose", "--in", path["fan.json"], "--out", os.devnull,
          "--cert", path["fan-cert.json"]), 0),
        (("check-pd", "--in", path["pd.json"], "--graph", path["g.json"],
          "--out", path["check.json"]), 1),
    ):
        assert run(capsys, *argv)[0] == code
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in INDENTED_DIGESTS
    }
    assert digests == INDENTED_DIGESTS


def test_failed_render_writes_no_output(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bags": [["u", 1]]}')
    out = tmp_path / "x.svg"
    code, _, err = run(capsys, "render", "--in", str(bad), "--out", str(out))
    assert code == 1
    assert err == "error: 'bags' must be a list of lists of ids\n"
    assert not out.exists()


def test_capped_decompose_writes_no_output(capsys, tmp_path):
    g = tl.BipartiteGraph(("a0", "a1"), ("b0",), (("a0", "b0"), ("a1", "b0")))
    drawing_path = tmp_path / "d.json"
    drawing_path.write_text(tl.drawing_to_json(tl.TwoLayerDrawing(g, g.a, g.b)))
    pd_path, cert_path = tmp_path / "pd.json", tmp_path / "cert.json"
    code, out, err = run(
        capsys, "decompose", "--in", str(drawing_path), "--cap-edges", "1",
        "--out", str(pd_path), "--cert", str(cert_path),
    )
    assert code == 3 and out == "" and err.startswith("error: ")
    assert not pd_path.exists() and not cert_path.exists()


def _pipeline_inputs(tmp_path):
    """argv prefixes of decompose and layout on the complete binary tree of
    height 2, whose input files are written to tmp_path."""
    g, d = tl.complete_binary_tree(2)
    (tmp_path / "d.json").write_text(tl.drawing_to_json(d))
    (tmp_path / "g.json").write_text(tl.graph_to_json(g))
    (tmp_path / "in_pd.json").write_text(tl.decomposition_to_json(tl.decompose_drawing(d)[0]))
    return {
        "decompose": ["decompose", "--in", str(tmp_path / "d.json")],
        "layout": [
            "layout", "--in", str(tmp_path / "in_pd.json"), "--graph", str(tmp_path / "g.json")
        ],
    }


@pytest.mark.parametrize("command", ["decompose", "layout"])
def test_unopenable_cert_leaves_no_output(capsys, tmp_path, command):
    """Every output is opened before any is written, so a --cert that cannot
    be opened leaves no --out behind, nor anything on stdout."""
    argv = _pipeline_inputs(tmp_path)[command]
    out_path, cert_path = tmp_path / "out.json", tmp_path / "missing" / "c.json"
    code, out, err = run(capsys, *argv, "--out", str(out_path), "--cert", str(cert_path))
    assert code == 2 and out == "" and "No such file or directory" in err
    assert not out_path.exists()
    code, out, err = run(capsys, *argv, "--cert", str(cert_path))
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("command", ["decompose", "layout"])
def test_failed_cert_write_removes_both_outputs(capsys, tmp_path, monkeypatch, command):
    from twolayer import decompose, layout

    def fail(cert):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(decompose, "certificate_to_json", fail)
    monkeypatch.setattr(layout, "layout_certificate_to_json", fail)
    argv = _pipeline_inputs(tmp_path)[command]
    out_path, cert_path = tmp_path / "out.json", tmp_path / "c.json"
    code, _, err = run(capsys, *argv, "--out", str(out_path), "--cert", str(cert_path))
    assert code == 2 and "No space left on device" in err
    assert not out_path.exists() and not cert_path.exists()


@pytest.mark.parametrize("command", ["decompose", "layout"])
def test_cert_naming_the_out_file_is_a_usage_error(capsys, tmp_path, command):
    argv = _pipeline_inputs(tmp_path)[command]
    out_path = tmp_path / "out.json"
    alias = os.path.join(tmp_path, ".", "out.json")
    code, _, err = run(capsys, *argv, "--out", str(out_path), "--cert", alias)
    assert code == 2 and "--cert names the --out file" in err
    assert not out_path.exists()


def _fail_while_writing(path):
    with pytest.raises(RuntimeError, match="renderer failed"):
        with _output(str(path)) as fh:
            fh.write("<svg>\n")
            raise RuntimeError("renderer failed")


def test_output_removes_a_file_that_fails_part_way(tmp_path):
    out = tmp_path / "x.svg"
    _fail_while_writing(out)
    assert not out.exists()


def test_output_removes_no_fifo_and_no_symlink(tmp_path):
    """Only a regular file named directly is removed; a FIFO, a device or a
    symlink given as --out stays where it is."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so opening to write does not block
    try:
        _fail_while_writing(fifo)
    finally:
        os.close(reader)
    assert fifo.exists()

    target, link = tmp_path / "target", tmp_path / "link"
    link.symlink_to(target)
    _fail_while_writing(link)
    assert link.is_symlink() and target.exists()


def test_output_keeps_the_error_when_removal_fails(tmp_path, monkeypatch):
    def refuse(path):
        raise PermissionError(path)

    monkeypatch.setattr(os, "remove", refuse)
    out = tmp_path / "x.svg"
    _fail_while_writing(out)
    assert out.exists()


@pytest.mark.parametrize("text, written", [("", "\n"), ("a", "a\n"), ("a\n", "a\n")])
def test_write_ends_the_output_with_one_newline(capsys, tmp_path, text, written):
    _write(None, text)
    assert capsys.readouterr().out == written
    _write(str(tmp_path / "out"), text)
    assert (tmp_path / "out").read_text() == written


# ----------------------------------------------------------------- render

def test_render_dispatches_on_payload(
    capsys, monkeypatch, tmp_path, tree_drawing_file
):
    """Either payload kind is decoded once: the decode that picks the kind
    also feeds the renderer.  A pd.json is decoded by the decomposition's
    stream reader, anything else by json.loads."""
    decodes = []
    real_loads = json.loads
    real_reader = _reader._read_decomposition

    def loads(text):
        decodes.append("json.loads")
        return real_loads(text)

    def reader(source):
        pd = real_reader(source)
        if pd is not None:
            decodes.append("bag reader")
        return pd

    monkeypatch.setattr(json, "loads", loads)
    monkeypatch.setattr(_reader, "_read_decomposition", reader)
    code, out, _ = run(capsys, "render", "--in", str(tree_drawing_file))
    assert code == 0 and out.startswith("<svg")
    assert decodes == ["json.loads"]

    pd_path = tmp_path / "pd.json"
    pd_path.write_text(
        tl.decomposition_to_json(tl.PathDecomposition((("u",), ("u", "v"))))
    )
    code, out, _ = run(capsys, "render", "--in", str(pd_path))
    assert code == 0 and "<rect" in out
    assert decodes == ["json.loads", "bag reader"]

    code, _, err = run(capsys, "render", "--in", str(pd_path), "--format", "json")
    assert code == 2 and "error" in err


# ------------------------------------------------------------------- fuzz

def test_fuzz_subcommand(capsys):
    code, out, _ = run(capsys, "fuzz", "--trials", "20", "--seed", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["trials"] == 20
    assert all(s["failed"] == 0 for s in rep["checks"].values())


FUZZ_HELP = """\
usage: twolayer fuzz [-h] [--trials TRIALS] [--seed SEED] [--na-max NA_MAX]
                     [--nb-max NB_MAX] [--p-min P_MIN] [--p-max P_MAX]
                     [--checks CHECKS] [--invert INVERT] [--out OUT]

options:
  -h, --help       show this help message and exit
  --trials TRIALS
  --seed SEED
  --na-max NA_MAX
  --nb-max NB_MAX
  --p-min P_MIN
  --p-max P_MAX
  --checks CHECKS  comma list from decompose,audit,layout,counting,per-edge
  --invert INVERT  negate one check's verdict (harness self-test)
  --out OUT
"""


def test_fuzz_help_bytes_are_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, "fuzz", "--help") == (0, FUZZ_HELP, "")


def test_fuzz_help_names_every_check(capsys):
    """The parser spells the check names out so that it need not import
    fuzz; they must stay equal to fuzz.ALL_CHECKS."""
    _, out, _ = run(capsys, "fuzz", "--help")
    listed = out.split("comma list from ")[1].split()[0]
    assert tuple(listed.split(",")) == tl.ALL_CHECKS


def test_fuzz_check_selection(capsys):
    code, out, _ = run(
        capsys, "fuzz", "--trials", "5", "--seed", "1", "--checks", "decompose"
    )
    assert code == 0
    assert set(json.loads(out)["checks"]) == {"decompose"}


# ------------------------------------------------------------- error paths

@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--cap-st", "0"),
        ("decompose", "--cap-st", "0"),
        ("analyze", "--cap-edges", "-1"),
        ("decompose", "--cap-edges", "-1"),
        ("layout", "--graph", "g.json", "--cap-edges", "-1"),
        ("pathwidth", "--cap-n", "-1"),
        ("gen", "tree", "--height", "2", "--cap-n", "-1"),
    ],
)
def test_out_of_domain_caps_are_usage_errors(capsys, tree_drawing_file, argv):
    """--cap-st below 1 and --cap-edges/--cap-n below 0 are usage errors,
    reported before any input is read."""
    if argv[0] != "gen":
        argv = (*argv, "--in", str(tree_drawing_file))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and "error: argument --cap-" in err and "must be >=" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "--in", "/nonexistent/x.json")
    assert code == 2
    assert "error" in err


def test_malformed_payload_is_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"a": 1}')
    code, _, err = run(capsys, "analyze", "--in", str(bad))
    assert code == 1
    assert "error" in err


def test_no_arguments_is_usage_error(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "frobnicate")[0] == 2


# ----------------------------------------------------------------- parser

PARSER_EXITS = [
    [],
    ["--help"],
    ["nosuch"],
    *([command, "--help"] for command in cli._SUBCOMMANDS),
    *(["gen", family, "--help"] for family in ("tree", "grid", "star", "random")),
    # one usage error per command
    ["gen", "random", "--na", "3"],
    ["analyze", "--out", "a.json"],
    ["decompose", "--in", "d.json", "--cap-st", "0"],
    ["layout", "--in", "pd.json", "--graph", "g.json", "extra"],
    ["pathwidth", "--in", "g.json", "--cap-n", "-1"],
    ["check-pd", "--in", "pd.json"],
    ["fuzz", "--trials", "x"],
    ["render", "--in", "x.json", "--format", "json"],
]


def _full_tree_exit(capsys, argv):
    """(exit code, stdout, stderr) of the parser of every subcommand on an
    argv that it answers with help or a usage error."""
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_EXITS, ids=" ".join)
def test_parser_of_one_command_answers_as_the_full_tree(capsys, monkeypatch, argv):
    """main builds only the subparser that argv names, and writes the same
    help and usage errors, byte for byte, as the parser of every command."""
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv) == _full_tree_exit(capsys, argv)


def _subcommands(parser):
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "star", "--legs", "3", "--fan"],
        ["analyze", "--in", "d.json", "--cap-edges", "5"],
        ["decompose", "--in", "d.json", "--cert", "c.json"],
        ["layout", "--in", "pd.json", "--graph", "g.json"],
        ["pathwidth", "--in", "g.json"],
        ["check-pd", "--in", "pd.json", "--graph", "g.json", "--out", "o.json"],
        ["fuzz", "--checks", "layout", "--p-max", "0.5"],
        ["render", "--in", "pd.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_parser_of_one_command_parses_as_the_full_tree(argv):
    parser = cli.build_parser(argv[0])
    assert _subcommands(parser) == [argv[0]]
    assert parser.parse_args(argv) == cli.build_parser().parse_args(argv)


def test_parser_without_a_command_has_every_subcommand():
    for command in (None, "--help", "nosuch"):
        assert _subcommands(cli.build_parser(command)) == list(cli._SUBCOMMANDS)
    gen = cli.build_parser("gen")
    assert gen.parse_args(["gen", "grid", "--side", "2"]).family == "grid"


def test_stdin_convention_in_subprocess(tmp_path):
    g = tl.bipartition_from_edges((("u", "v"), ("v", "w")))
    proc = subprocess.run(
        [sys.executable, "-m", "twolayer", "pathwidth", "--in", "-"],
        input=tl.graph_to_json(g),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pathwidth"] == 1


def test_render_malformed_json_is_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bags": [')
    code, _, err = run(capsys, "render", "--in", str(bad))
    assert code == 1
    assert err.startswith("error: invalid JSON")


@pytest.mark.parametrize("shape", ["{\"bags\": %s}", "%s"], ids=["object", "array"])
@pytest.mark.parametrize(
    "command, flag",
    [
        *(("check-pd", f) for f in ("--in", "--graph")),
        *(("layout", f) for f in ("--in", "--graph")),
        *((c, "--in") for c in ("render", "analyze", "decompose", "pathwidth")),
    ],
)
def test_deeply_nested_json_is_invalid_json(capsys, tmp_path, command, flag, shape):
    """JSON nested deeper than the decoder recurses is invalid JSON, exit 1,
    from the stream reader and from the ``json.loads`` fallback alike."""
    deep = tmp_path / "deep.json"
    deep.write_text(shape % ("[" * 200_000 + "]" * 200_000))
    g, d = tl.grid_graph(2)
    pd_path = tmp_path / "pd.json"
    pd_path.write_text(tl.decomposition_to_json(tl.decompose_drawing(d)[0]))
    graph_path = tmp_path / "g.json"
    graph_path.write_text(tl.graph_to_json(g))
    files = {"--in": pd_path, "--graph": graph_path, flag: deep}
    argv = [command, "--in", str(files["--in"])]
    if command in ("check-pd", "layout"):
        argv += ["--graph", str(files["--graph"])]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid JSON: maximum recursion depth exceeded")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["render", "check-pd"])
def test_non_utf8_input_is_exit_1(capsys, tmp_path, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"bags": [["\xff"]]}')
    graph_path = tmp_path / "g.json"
    graph_path.write_text(tl.graph_to_json(tl.BipartiteGraph(("u",), (), ())))
    argv = [command, "--in", str(bad)]
    if command == "check-pd":
        argv += ["--graph", str(graph_path)]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and "not UTF-8" in err


@pytest.mark.parametrize(
    "flags",
    [
        ("--na-max", "-1"),
        ("--nb-max", "-1"),
        ("--p-min", "0.8", "--p-max", "0.2"),
        ("--trials", "-1"),
        ("--p-min", "-1", "--p-max", "0.5"),
        ("--p-min", "1.5", "--p-max", "2"),
        ("--p-max", "2"),
        ("--checks", "nosuch"),
        ("--checks", "decompose,nosuch"),
        ("--invert", "nosuch"),
    ],
)
def test_fuzz_rejects_empty_ranges_as_usage_error(capsys, flags):
    """Every fuzz argument-domain error is a usage error (exit 2); with
    --p-max 2 alone the run could otherwise pass when no drawn p exceeds 1."""
    code, out, err = run(capsys, "fuzz", "--trials", "3", *flags)
    assert code == 2
    assert out == "" and err.startswith("error: ")

