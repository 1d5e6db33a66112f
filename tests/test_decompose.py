"""Drawing-to-decomposition construction, width bound, and audits."""

import ast
import itertools
import json
import pathlib
import random

import pytest
from hypothesis import given, settings

import twolayer as tl
from twolayer import BipartiteGraph, GraphError, TwoLayerDrawing

from conftest import drawings, random_corpus
from oracles import naive_minimal_unachievable, set_audit_counting_bounds, set_build_bags


# ------------------------------------------------------------ width bound

def test_width_bound_values():
    assert tl.width_bound(1, 1, 1) == 9
    assert tl.width_bound(2, 3, 4) == 174
    assert tl.width_bound(1, 2, 1) == 9


def test_width_bound_rejects_nonpositive_parameters():
    for bad in ((0, 1, 1), (1, 0, 1), (1, 1, 0), (-1, 2, 2)):
        with pytest.raises(GraphError):
            tl.width_bound(*bad)


def test_width_bound_monotone():
    for k, s, t in itertools.product(range(1, 4), repeat=3):
        assert tl.width_bound(k + 1, s, t) >= tl.width_bound(k, s, t)
        assert tl.width_bound(k, s + 1, t) >= tl.width_bound(k, s, t)
        assert tl.width_bound(k, s, t + 1) >= tl.width_bound(k, s, t)


# ------------------------------------------------------ frontier boundary

def test_minimal_unachievable_of_empty_frontier():
    assert tl.minimal_unachievable(()) == ((1, 1),)


def test_minimal_unachievable_examples():
    assert tl.minimal_unachievable(((3, 4), (4, 3))) == ((1, 5), (4, 4), (5, 1))
    assert tl.minimal_unachievable(((1, 3), (3, 1))) == ((1, 4), (2, 2), (4, 1))
    assert tl.minimal_unachievable(((2, 2),)) == ((1, 3), (3, 1))


def test_minimal_unachievable_matches_all_pairs_filter():
    """The staircase corners equal the all-pairs dominance filter on random
    point sets, dominated points and repeats included."""
    rng = random.Random(61)
    for _ in range(20000):
        pts = [
            (rng.randint(1, 8), rng.randint(1, 8)) for _ in range(rng.randint(0, 6))
        ]
        assert tl.minimal_unachievable(pts) == naive_minimal_unachievable(pts), pts


def test_minimal_unachievable_points_are_incomparable():
    pts = tl.minimal_unachievable(((3, 4), (4, 3)))
    for p, q in itertools.combinations(pts, 2):
        assert not (p[0] <= q[0] and p[1] <= q[1])
        assert not (q[0] <= p[0] and q[1] <= p[1])


# ------------------------------------------------------------- construction

def test_decompose_complete_binary_tree():
    g, d = tl.complete_binary_tree(3)
    pd, cert = tl.decompose_drawing(d)
    assert tl.validate_decomposition(g, pd) == ()
    assert cert.k == 2
    assert pd.width == 6
    assert cert.frontier == ((1, 3), (3, 1))
    assert cert.unachievable == ((1, 4), (2, 2), (4, 1))
    assert cert.frontier_exact
    assert cert.width_bound == 46
    assert pd.width <= cert.width_bound


def test_decompose_caterpillar_is_narrow():
    spine = [f"s{i}" for i in range(1, 6)]
    edges = [(spine[i], spine[i + 1]) for i in range(4)]
    for s, leaves in {
        "s1": ["p1"], "s2": ["p2", "p3"], "s3": ["p6"], "s4": ["p4"], "s5": ["p5"],
    }.items():
        edges.extend((s, p) for p in leaves)
    g = tl.bipartition_from_edges(tuple(edges))
    d = tl.caterpillar_layout(g)
    pd, cert = tl.decompose_drawing(d)
    assert cert.k == 1
    assert cert.frontier == ()
    assert cert.width_bound == tl.width_bound(1, 1, 1) == 9
    assert pd.width <= 9
    assert tl.validate_decomposition(g, pd) == ()


def test_decompose_empty_and_edgeless_drawings():
    pd, cert = tl.decompose_drawing(TwoLayerDrawing(BipartiteGraph((), (), ()), (), ()))
    assert pd.bags == () and cert.k == 0

    g = BipartiteGraph(("a1", "a2"), ("b1",), ())
    pd2, cert2 = tl.decompose_drawing(TwoLayerDrawing(g, ("a1", "a2"), ("b1",)))
    assert tl.validate_decomposition(g, pd2) == ()
    assert pd2.width == 0  # isolated vertices get singleton bags
    assert cert2.k == 0 and cert2.frontier == ()


def test_certificate_matches_decomposition():
    _, d = tl.complete_binary_tree(3)
    pd, cert = tl.decompose_drawing(d)
    assert tl.certificate_bags(d, cert) == pd.bags
    assert len(cert.per_bag) == len(pd.bags)
    # matching edges are a non-crossing matching of the drawing
    seen: set[str] = set()
    for e in cert.matching:
        assert e in d.graph.edge_set
        assert not set(e) & seen
        seen |= set(e)
    for e, f in itertools.combinations(cert.matching, 2):
        assert not tl.edges_cross(d, e, f)


def test_gap_classes_partition_unmatched_vertices():
    for d in random_corpus(30, seed=53, max_side=7):
        _, cert = tl.decompose_drawing(d)
        matched = {v for e in cert.matching for v in e}
        unmatched = [v for v in d.graph.vertices if v not in matched]
        flat = [v for gap in cert.gaps for v in gap]
        assert sorted(flat) == sorted(unmatched)


def test_decompose_random_sweep_valid_and_bounded():
    for d in random_corpus(150, seed=59, max_side=6):
        pd, cert = tl.decompose_drawing(d)
        assert tl.validate_decomposition(d.graph, pd) == ()
        assert cert.frontier_exact  # matchings of small drawings fit the caps
        if pd.bags:
            assert pd.width <= cert.width_bound
            for s, t in cert.unachievable:
                assert pd.width <= tl.width_bound(max(cert.k, 1), s, t)


def test_decompose_respects_caps_in_certificate():
    _, d = tl.complete_binary_tree(2)
    _, cert = tl.decompose_drawing(d, st_cap=3)
    assert cert.st_cap == 3
    payload = json.loads(tl.certificate_to_json(cert))
    assert payload["sCap"] == payload["tCap"] == 3


# ------------------------------------------------------------------- audit

def test_audit_tree_certificate():
    _, d = tl.complete_binary_tree(3)
    _, cert = tl.decompose_drawing(d)
    rep = tl.audit_counting_bounds(d, cert)
    assert rep.ok and not rep.vacuous
    assert rep.k == 2
    assert rep.points == ((1, 4), (2, 2), (4, 1))
    assert rep.violations == ()


def test_audit_finds_the_crossed_runs_once(monkeypatch):
    """The audit reads the runs the bag builder found; it does not find
    them again on the same matching."""
    from twolayer import decompose

    _, d = tl.complete_binary_tree(3)
    _, cert = tl.decompose_drawing(d)
    calls = []
    real = decompose.crossed_runs
    monkeypatch.setattr(
        decompose, "crossed_runs", lambda *args: calls.append(1) or real(*args)
    )
    assert tl.audit_counting_bounds(d, cert).ok
    assert len(calls) == 1


def test_decompose_finds_the_crossed_runs_once(monkeypatch):
    """The matching's maximality check reads gap indices, so the bag build
    is the only caller of crossed_runs in one decomposition."""
    from twolayer import analysis, decompose

    calls = []
    real = analysis.crossed_runs
    counted = lambda *args: calls.append(1) or real(*args)
    monkeypatch.setattr(analysis, "crossed_runs", counted)
    monkeypatch.setattr(decompose, "crossed_runs", counted)
    _, d = tl.complete_binary_tree(3)
    pd, cert = tl.decompose_drawing(d)
    assert cert.matching and tl.validate_decomposition(d.graph, pd) == ()
    assert len(calls) == 1


def test_audit_vacuous_without_matching_edges():
    g = BipartiteGraph(("a1",), ("b1",), ())
    d = TwoLayerDrawing(g, ("a1",), ("b1",))
    _, cert = tl.decompose_drawing(d)
    rep = tl.audit_counting_bounds(d, cert)
    assert rep.ok and rep.vacuous


def test_audit_random_sweep_clean():
    for d in random_corpus(120, seed=61, max_side=7):
        _, cert = tl.decompose_drawing(d)
        rep = tl.audit_counting_bounds(d, cert)
        assert rep.ok, [v for v in rep.violations]


# ------------------------------------------- interval form vs set-based build

def _agrees_with_set_based_build(d, pd, cert):
    """The interval-backed construction against the set-based one: bags,
    tags, rebuilt bags, audit, validation in both forms and width."""
    _, _, bags, tags = set_build_bags(d, cert.matching, cert.gaps, cert.cover)
    assert not bags or pd.width == max(map(len, bags)) - 1
    assert tl.validate_decomposition(d.graph, pd) == ()
    assert pd.bags == tuple(bags) and cert.per_bag == tuple(tags)
    assert tl.validate_decomposition(d.graph, tl.PathDecomposition(bags)) == ()
    assert tl.certificate_bags(d, cert) == pd.bags
    assert tl.audit_counting_bounds(d, cert) == set_audit_counting_bounds(d, cert)


@given(drawings(max_side=8))
@settings(max_examples=300, deadline=None)
def test_interval_construction_equals_set_based_build(d):
    pd, cert = tl.decompose_drawing(d)
    assert "bags" not in vars(pd)
    _agrees_with_set_based_build(d, pd, cert)


def test_interval_construction_equals_set_based_build_on_the_corpus(decomposed_10k):
    for d, pd, cert in decomposed_10k:
        _agrees_with_set_based_build(d, pd, cert)


def test_audit_equals_set_based_audit_past_the_cap():
    """complete_binary_tree(9)'s default certificate lists cap points that
    the drawing achieves (334 violations), and a wide drawing audited at
    points picked to fail exercises |P_i| over long runs."""
    _, d = tl.complete_binary_tree(9)
    _, cert = tl.decompose_drawing(d)
    report = tl.audit_counting_bounds(d, cert)
    assert len(report.violations) == 334
    assert report == set_audit_counting_bounds(d, cert)
    _, d = tl.random_drawing(120, 120, 0.04, 2)
    _, cert = tl.decompose_drawing(d)
    cert = _certificate_with(cert, unachievable=((1, 2), (2, 1), (3, 3), (5, 1), (1, 7)))
    report = tl.audit_counting_bounds(d, cert)
    assert {v.check for v in report.violations} >= {"Pi", "Vi"}
    assert report == set_audit_counting_bounds(d, cert)


def test_decompose_builds_no_bags_until_read():
    _, d = tl.complete_binary_tree(4)
    pd, cert = tl.decompose_drawing(d)
    assert pd.width == 11 and tl.validate_decomposition(d.graph, pd) == ()
    assert tl.audit_counting_bounds(d, cert).ok
    assert "bags" not in vars(pd)
    assert pd.bags == tl.certificate_bags(d, cert) and "bags" in vars(pd)


# ------------------------------------------------------------------- JSON

def test_certificate_json_shape():
    _, d = tl.complete_binary_tree(3)
    _, cert = tl.decompose_drawing(d)
    payload = json.loads(tl.certificate_to_json(cert))
    assert set(payload) == {
        "k", "matching", "gaps", "chains", "arcs", "perBag", "stFrontier",
        "unachievable", "frontierExact", "widthBound", "sCap", "tCap",
    }
    assert payload["k"] == 2
    assert payload["widthBound"] == 46
    assert payload["stFrontier"] == [[1, 3], [3, 1]]
    assert payload["frontierExact"] is True


# ------------------------------------------------------- certified output

def test_invalid_construction_raises_certificate_error(monkeypatch, tmp_path, capsys):
    """The span builder's contiguity check is a raise, not an assert, so it
    also runs under `python -O` and maps to CLI exit 1.  Moving the crossed
    run of an arc into the root to the last matching edge punches a hole in
    the root's bags: it stays in bags 1-2 and joins bags 8-10."""
    from twolayer import decompose
    from twolayer.cli import main

    drawing = tl.complete_binary_tree(3)[1]
    pd, cert = tl.decompose_drawing(drawing)
    assert pd._intervals[0]["r"] == (1, 2) and len(pd.bags) == 10
    n = len(cert.matching)
    f = next(f for f, (_, head) in cert.cover.arcs.items() if head == "r")
    real = decompose.crossed_runs
    monkeypatch.setattr(decompose, "crossed_runs", lambda *args: {**real(*args), f: (n, n)})
    hole = "invalid decomposition: vertex 'r' is in bags 1 and 10 but not 3"
    with pytest.raises(tl.CertificateError, match=hole):
        tl.decompose_drawing(drawing)
    with pytest.raises(tl.CertificateError, match=hole):
        tl.certificate_bags(drawing, cert)

    path = tmp_path / "tree3.json"
    path.write_text(tl.drawing_to_json(drawing))
    assert main(["decompose", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: construction produced an invalid")


def test_oversized_closed_neighborhood_raises(monkeypatch):
    drawing = tl.complete_binary_tree(3)[1]
    everyone = tuple(sorted(drawing.graph.vertices))
    monkeypatch.setattr(
        tl.ChainCover, "closed_out_neighborhood", lambda self, v: everyone
    )
    with pytest.raises(tl.CertificateError, match="closed neighborhoods"):
        tl.decompose_drawing(drawing)


def test_gap_classes_that_miss_a_vertex_raise(monkeypatch):
    from twolayer import decompose

    real = decompose._gap_classes

    def drop_one(*args):
        gaps = list(real(*args))
        i = next(i for i, ys in enumerate(gaps) if ys)
        gaps[i] = gaps[i][1:]
        return tuple(gaps)

    monkeypatch.setattr(decompose, "_gap_classes", drop_one)
    with pytest.raises(tl.CertificateError, match="partition the unmatched"):
        tl.decompose_drawing(tl.complete_binary_tree(3)[1])


def test_edge_inside_a_gap_class_raises(monkeypatch):
    """An empty matching leaves every vertex in gap 0, edges included."""
    from twolayer import decompose

    monkeypatch.setattr(decompose, "maximal_noncrossing_matching", lambda d: ())
    with pytest.raises(tl.CertificateError, match="inside gap class 0"):
        tl.decompose_drawing(tl.complete_binary_tree(3)[1])


def test_certificate_bags_rejects_mismatched_tags(monkeypatch):
    from twolayer import decompose

    _, d = tl.complete_binary_tree(3)
    _, cert = tl.decompose_drawing(d)
    real = decompose._spans

    def drop_last_tag(*args):
        runs, at, pd, tags = real(*args)
        return runs, at, pd, tags[:-1]

    monkeypatch.setattr(decompose, "_spans", drop_last_tag)
    with pytest.raises(tl.CertificateError, match="per-bag tags"):
        tl.certificate_bags(d, cert)


def _certificate_with(cert, **changes):
    """A copy of cert with the given fields changed, built by the constructor."""
    fields = {
        "k": cert.k,
        "matching": cert.matching,
        "gaps": cert.gaps,
        "cover": cert.cover,
        "per_bag": cert.per_bag,
        "frontier": cert.frontier,
        "unachievable": cert.unachievable,
        "frontier_exact": cert.frontier_exact,
        "width_bound": cert.width_bound,
        "st_cap": cert.st_cap,
    }
    return tl.DecompositionCertificate(**{**fields, **changes})


def test_certificate_with_crossing_matching_raises():
    a, b = ("a1", "a2"), ("b1", "b2")
    d = TwoLayerDrawing(BipartiteGraph(a, b, tuple(itertools.product(a, b))), a, b)
    _, cert = tl.decompose_drawing(d)
    bad = _certificate_with(cert, matching=(("a1", "b2"), ("a2", "b1")))
    with pytest.raises(tl.CertificateError, match="does not rise"):
        tl.audit_counting_bounds(d, bad)
    with pytest.raises(tl.CertificateError, match="does not rise"):
        tl.certificate_bags(d, bad)

    foreign = tl.min_chain_cover(tl.random_drawing(3, 3, 1.0, 1)[1])
    bad = _certificate_with(cert, cover=foreign)
    with pytest.raises(tl.CertificateError, match="not an edge"):
        tl.audit_counting_bounds(d, bad)
    with pytest.raises(tl.CertificateError, match="not an edge"):
        tl.certificate_bags(d, bad)


def test_cover_arc_that_does_not_orient_its_edge_raises():
    """The span builder gives an arc's head the block of its tail, so an arc
    must join the two ends of the edge it is keyed by."""
    _, d = tl.complete_binary_tree(3)
    _, cert = tl.decompose_drawing(d)
    f, (tail, _) = next(iter(cert.cover.arcs.items()))
    other = next(v for v in d.graph.vertices if v not in f)
    cover = tl.ChainCover(cert.cover.chains, {**cert.cover.arcs, f: (tail, other)})
    bad = _certificate_with(cert, cover=cover)
    for check in (tl.certificate_bags, tl.audit_counting_bounds):
        with pytest.raises(tl.CertificateError, match="not an edge"):
            check(d, bad)


_PACKAGE_DIR = pathlib.Path(tl.__file__).parent


@pytest.mark.parametrize("module", sorted(p.stem for p in _PACKAGE_DIR.glob("*.py")))
def test_decompose_module_has_no_assert_statements(module):
    """Invariants on the decompose path, the analysis and layout checks it
    relies on, and every other module of the package must survive
    `python -O`.  No module takes `itertools.combinations` either: every
    crossing question is a sweep over rank pairs, not a loop over edge
    pairs.  Nor does any import `dataclasses`, which would load `inspect` and
    `ast` into every command.  The files are parsed, not imported: importing
    `__main__` would run the CLI."""
    path = _PACKAGE_DIR / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    combinations = [
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.ImportFrom)
            and node.module == "itertools"
            and "combinations" in {alias.name for alias in node.names}
        )
        or (isinstance(node, ast.Attribute) and node.attr == "combinations")
    ]
    assert not combinations
    dataclass_imports = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert not dataclass_imports


def _indented_json_calls(tree: ast.AST) -> list[tuple[int, str | None]]:
    """(line, enclosing function) of each call of ``dumps``, ``dump`` or
    ``JSONEncoder`` that passes ``indent``, by any name or attribute."""
    found = []

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in {"dumps", "dump", "JSONEncoder"} and any(
                    k.arg == "indent" for k in child.keywords
                ):
                    found.append((child.lineno, owner))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            visit(child, inner)

    visit(tree, None)
    return found


@pytest.mark.parametrize("module", sorted(p.stem for p in _PACKAGE_DIR.glob("*.py")))
def test_indented_json_goes_through_one_writer(module):
    """Every indented JSON output goes through ``graphs._dumps``, whose
    fallback is the one call of ``json.dumps`` with ``indent``: the pure
    Python encoder that ``indent`` selects runs a generator frame per value."""
    tree = ast.parse((_PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8"))
    owners = [owner for _, owner in _indented_json_calls(tree)]
    assert owners == (["_dumps"] if module == "graphs" else [])
