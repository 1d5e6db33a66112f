"""Decomposition-to-drawing layout and the oversized-bag explanation."""

import random

import pytest
from hypothesis import given, settings

import twolayer as tl
from twolayer import BipartiteGraph, DecompositionError, GraphError, PathDecomposition

from conftest import (
    crossing_pairs,
    decompositions,
    random_corpus,
    record_interval_passes,
)
from oracles import row_scan_st_splits


def _exact_pd(g):
    pw, order = tl.pathwidth_exact(g)
    return pw, tl.order_to_decomposition(g, order)


# ----------------------------------------------------------------- layout

def test_layout_path_graph():
    g = tl.bipartition_from_edges((("u", "v"), ("v", "w")))
    pw, pd = _exact_pd(g)
    d, cert = tl.layout_decomposition(g, pd)
    assert pw == 1
    assert crossing_pairs(d) == []
    assert cert.k == 1
    assert cert.max_crossing <= 2
    assert cert.max_crossing_ok and cert.st_ok


def test_layout_tree_certificate():
    g, _ = tl.complete_binary_tree(3)
    pw, pd = _exact_pd(g)
    d, cert = tl.layout_decomposition(g, pd)
    assert pw == 2 and cert.k == 2
    assert cert.max_crossing == 2  # within the k+1 = 3 budget
    assert cert.max_crossing_ok and cert.st_ok
    assert sorted(d.order_a) == sorted(g.a)
    assert sorted(d.order_b) == sorted(g.b)


def test_layout_orders_vertices_by_first_bag():
    g = tl.bipartition_from_edges((("u", "v"), ("v", "w")))
    _, pd = _exact_pd(g)
    d, cert = tl.layout_decomposition(g, pd)
    intervals = tl.intro_intervals(tl.normalize_unique_intro(pd))
    for order in (d.order_a, d.order_b):
        firsts = [intervals[v][0] for v in order]
        assert firsts == sorted(firsts)
    assert set(cert.ell) == set(g.vertices)


def test_layout_rejects_invalid_decomposition():
    g = tl.bipartition_from_edges((("u", "v"), ("v", "w")))
    bad = PathDecomposition((("u",), ("v",), ("w",)))
    with pytest.raises(DecompositionError):
        tl.layout_decomposition(g, bad)


def test_layout_checks_contiguity_once(monkeypatch):
    """Layout reads each vertex's staged first bag off the input's bag
    intervals, which the one interval pass gave when the input was built:
    layout runs no pass, and neither builds nor scans a staged
    decomposition."""
    from twolayer import layout, pathdecomp

    g, _ = tl.grid_graph(3)
    _, pd = _exact_pd(g)
    merged = PathDecomposition(
        (tuple(sorted(set(pd.bags[0]) | set(pd.bags[1]))),) + pd.bags[2:]
    )
    normalized = tl.normalize_unique_intro(PathDecomposition(merged.bags))
    assert normalized != merged  # its first bag introduces several vertices
    staged_first = {v: lo for v, (lo, _) in tl.intro_intervals(normalized).items()}
    passes = record_interval_passes(monkeypatch)

    def staged_decomposition(*args):
        raise AssertionError("layout went through a staged decomposition")

    for module, name in (
        (pathdecomp, "normalize_unique_intro"),
        (pathdecomp, "intro_intervals"),
        (layout, "_staged_bags"),
    ):
        monkeypatch.setattr(module, name, staged_decomposition)
    built = []
    init = PathDecomposition.__init__
    monkeypatch.setattr(
        PathDecomposition, "__init__", lambda p, bags: built.append(p) or init(p, bags)
    )
    _, cert = tl.layout_decomposition(g, merged)
    assert passes == [] and built == []
    assert cert.ell == staged_first


@given(decompositions())
@settings(max_examples=60, deadline=None)
def test_layout_ell_is_first_bag_of_staged_decomposition(pair):
    g, pd = pair
    _, cert = tl.layout_decomposition(g, pd)
    first: dict[str, int] = {}
    for i, bag in enumerate(tl.normalize_unique_intro(pd).bags, start=1):
        for v in bag:
            first.setdefault(v, i)
    assert list(cert.ell.items()) == list(first.items())


def test_layout_rejects_empty_graph():
    g = BipartiteGraph((), (), ())
    for bags in ((), ((),)):
        with pytest.raises(GraphError, match="layout is undefined for the empty graph"):
            tl.layout_decomposition(g, PathDecomposition(bags))


def test_layout_is_deterministic():
    g, _ = tl.grid_graph(3)
    _, pd = _exact_pd(g)
    d1, c1 = tl.layout_decomposition(g, pd)
    d2, c2 = tl.layout_decomposition(g, pd)
    assert d1 == d2 and c1 == c2


def test_layout_random_graphs_meet_crossing_budget():
    for d0 in random_corpus(60, seed=67, max_side=5):
        g = d0.graph
        if not g.vertices:
            continue
        pw, pd = _exact_pd(g)
        _, cert = tl.layout_decomposition(g, pd)
        assert cert.k == pw
        assert cert.max_crossing_ok, (g, cert.max_crossing, pw)
        assert cert.st_ok


def test_layout_stages_merged_bags_on_fuzz_sized_graphs(monkeypatch):
    """Merging adjacent bags of exact-pathwidth decompositions gives bags
    that introduce several vertices at once, which the fuzz layout check
    never passes: its bags come from vertex orders.  On such inputs the
    placement map is the staged decomposition's first bags, both crossing
    bounds hold, and every (k+1, k+1) split search that runs returns the
    row scan's map."""
    from twolayer import analysis

    searches = []
    st_splits = analysis._st_splits

    def checked_splits(d, s_cap, t_cap, edge_cap):
        got = st_splits(d, s_cap, t_cap, edge_cap)
        want = row_scan_st_splits(d, s_cap, t_cap, edge_cap)
        assert list(got.items()) == list(want.items()), (d, s_cap, t_cap)
        searches.append((s_cap, t_cap))
        return got

    monkeypatch.setattr(analysis, "_st_splits", checked_splits)
    rng = random.Random(79)
    staged = staged_searches = 0
    for _ in range(400):
        na, nb, p = rng.randint(4, 10), rng.randint(4, 10), rng.uniform(0.05, 0.3)
        g = tl.random_drawing(na, nb, p, seed=rng.randrange(1 << 30))[1].graph
        _, pd = _exact_pd(g)
        bags = list(pd.bags)
        for _ in range(rng.randrange(min(4, len(bags)))):
            i = rng.randrange(len(bags) - 1)
            bags[i : i + 2] = [tuple(sorted(set(bags[i]) | set(bags[i + 1])))]
        merged = PathDecomposition(tuple(bags))
        ran = len(searches)
        _, cert = tl.layout_decomposition(g, merged)
        normalized = tl.normalize_unique_intro(merged)
        first: dict[str, int] = {}
        for i, bag in enumerate(normalized.bags, start=1):
            for v in bag:
                first.setdefault(v, i)
        assert list(cert.ell.items()) == list(first.items())
        assert cert.k == merged.width
        assert cert.max_crossing_ok and cert.st_ok, (g, merged)
        if normalized != merged:
            staged += 1
            staged_searches += len(searches) - ran
    assert staged > 250 and staged_searches > 30, (staged, staged_searches)


def test_layout_round_trip_back_to_decomposition():
    g, _ = tl.complete_binary_tree(3)
    pw, pd = _exact_pd(g)
    d, _ = tl.layout_decomposition(g, pd)
    pd2, cert2 = tl.decompose_drawing(d)
    assert tl.validate_decomposition(g, pd2) == ()
    assert pd2.width <= cert2.width_bound
    # both crossing patterns stay below the k+1 threshold, so the recovered
    # width is bounded by a function of the original pathwidth alone
    assert pd2.width <= tl.width_bound(pw + 1, pw + 1, pw + 1)


def test_layout_certificate_json():
    import json

    g = tl.bipartition_from_edges((("u", "v"), ("v", "w")))
    _, pd = _exact_pd(g)
    _, cert = tl.layout_decomposition(g, pd)
    payload = json.loads(tl.layout_certificate_to_json(cert))
    assert set(payload) == {
        "k", "ell", "maxCrossing", "maxCrossingOk", "stOk", "edgeCap",
    }
    assert payload["maxCrossingOk"] is True


# ------------------------------------------------------- oversized-bag proof

def _crossing_pair_instance():
    g = BipartiteGraph(("a1", "a2"), ("b1", "b2"), (("a1", "b2"), ("a2", "b1")))
    pd = tl.order_to_decomposition(g, ("a1", "b1", "a2", "b2"))
    witness = tl.max_crossing_set(
        tl.TwoLayerDrawing(g, ("a1", "a2"), ("b1", "b2"))
    )[1]
    return g, pd, witness


def test_explain_oversized_bag_example():
    g, pd, witness = _crossing_pair_instance()
    con = tl.explain_oversized_bag(g, pd, witness)
    assert con.p == 2
    assert con.bag == ("a1", "b1")
    assert con.intervals == ((1, 4), (2, 3))
    assert con.witness_size == 2
    assert con.bag_size >= con.witness_size


def test_explain_rejects_non_crossing_witness():
    g, pd, _ = _crossing_pair_instance()
    bogus = tl.CrossingWitness("k", edges=(("a1", "b2"),))
    with pytest.raises(DecompositionError):
        tl.explain_oversized_bag(g, pd, bogus)
    not_crossing = tl.CrossingWitness("st", s_edges=(("a1", "b2"),))
    with pytest.raises(DecompositionError):
        tl.explain_oversized_bag(g, pd, not_crossing)


def test_explain_rejects_invalid_decomposition():
    g, _, witness = _crossing_pair_instance()
    with pytest.raises(DecompositionError):
        tl.explain_oversized_bag(g, PathDecomposition((("a1",),)), witness)


def test_explain_stages_from_its_placement_map(monkeypatch):
    """The staged decomposition comes from the placement map the induced
    drawing used: the input's bag intervals, given when it was built, serve
    validation and staging, and no interval pass runs."""
    g, pd, witness = _crossing_pair_instance()
    merged = PathDecomposition(pd.bags[1:])  # bag 1 introduces a1 and b1
    passes = record_interval_passes(monkeypatch)
    con = tl.explain_oversized_bag(g, merged, witness)
    assert passes == []
    assert con.normalized == tl.normalize_unique_intro(merged)
    assert con.normalized.bags == pd.bags


def test_explain_bag_checks_raise_certificate_error(monkeypatch):
    """The interval-overlap and bag-membership checks are raises, not
    asserts, so they also run under `python -O`."""
    from twolayer import layout

    g, pd, witness = _crossing_pair_instance()
    staged_bags = layout._staged_bags

    def hollow_bags(pd, first):
        return PathDecomposition(tuple(("zz",) for _ in staged_bags(pd, first).bags))

    monkeypatch.setattr(layout, "_staged_bags", hollow_bags)
    with pytest.raises(tl.CertificateError, match="misses edge"):
        tl.explain_oversized_bag(g, pd, witness)

    # Crossing edges always get overlapping intervals from a true placement,
    # so the witness must re-verify in a drawing that this one does not induce.
    monkeypatch.setattr(
        layout, "_staged_first_bags", lambda pd: {"a1": 1, "b2": 2, "a2": 3, "b1": 4}
    )
    monkeypatch.setattr(tl.CrossingWitness, "verify", lambda self, drawing: True)
    with pytest.raises(tl.CertificateError, match="do not overlap"):
        tl.explain_oversized_bag(g, pd, witness)


def test_explain_bag_dominates_witness_on_random_instances():
    checked = 0
    for d0 in random_corpus(200, seed=71, max_side=5):
        g = d0.graph
        if not g.vertices:
            continue
        _, pd = _exact_pd(g)
        drawing, _ = tl.layout_decomposition(g, pd)
        k, witness = tl.max_crossing_set(drawing)
        if k < 2:
            continue
        con = tl.explain_oversized_bag(g, pd, witness)
        assert con.bag_size >= k
        assert con.bag in con.normalized.bags
        checked += 1
    assert checked >= 20
