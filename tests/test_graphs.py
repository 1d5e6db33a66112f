"""Graph/drawing models, caterpillar recognition, generators, JSON."""

import enum
import itertools
import json
import re

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twolayer as tl
from twolayer import (
    BipartiteGraph,
    CapExceededError,
    ConnectivityError,
    GraphError,
    TwoLayerDrawing,
    graphs,
)

from conftest import caterpillar_graphs, crossing_pairs, drawings
from oracles import brute_max_crossing_set


# ---------------------------------------------------------------- model

def test_graph_normalizes_edge_orientation():
    g = BipartiteGraph(("a",), ("b",), (("b", "a"),))
    assert g.edges == (("a", "b"),)


def test_graph_rejects_bad_input():
    with pytest.raises(GraphError):
        BipartiteGraph(("x",), ("x",), ())  # sides overlap
    with pytest.raises(GraphError):
        BipartiteGraph(("a", "a"), ("b",), ())  # duplicate id
    with pytest.raises(GraphError):
        BipartiteGraph(("a",), ("b",), (("a", "c"),))  # unknown endpoint
    with pytest.raises(GraphError):
        BipartiteGraph(("a", "c"), ("b",), (("a", "c"),))  # edge within a side
    with pytest.raises(GraphError):
        BipartiteGraph(("a",), ("b",), (("a", "b"), ("b", "a")))  # duplicate


def test_graph_accessors():
    g = BipartiteGraph(("a1", "a2"), ("b1",), (("a1", "b1"),))
    assert g.vertices == ("a1", "a2", "b1")
    assert g.side("a2") == "A" and g.side("b1") == "B"
    assert g.neighbors["a1"] == ("b1",) and g.neighbors["a2"] == ()
    assert g.degree("b1") == 1
    with pytest.raises(GraphError):
        g.side("zz")


def test_cached_property_computes_once_into_the_instance_dict():
    """The package's cached attributes run their function on the first read
    alone and keep the value in the instance's ``__dict__``, where later
    reads find it before the descriptor; frozen instances included."""
    calls = []

    class Pair(graphs._Frozen):
        _fields = ("x",)

        def __init__(self, x):
            vars(self).update(x=x)

        @graphs._cached_property
        def doubled(self):
            """Twice x."""
            calls.append(self)
            return 2 * self.x

    p = Pair(21)
    assert "doubled" not in vars(p)
    assert p.doubled == 42 and p.doubled == 42
    assert calls == [p] and vars(p)["doubled"] == 42
    assert Pair(1).doubled == 2 and len(calls) == 2
    with pytest.raises(AttributeError):
        p.doubled = 0


def test_cached_property_on_the_class_is_the_descriptor():
    """Read on the class, a cached attribute is its descriptor, whose
    ``func`` is the undecorated function; conftest.record_bag_builds wraps
    that of ``PathDecomposition.bags``."""
    for cls, name in [
        (tl.PathDecomposition, "bags"),
        (BipartiteGraph, "neighbors"),
        (TwoLayerDrawing, "_by_rank"),
        (tl.ChainCover, "out_map"),
        (tl.fuzz._Trial, "decomposition"),
    ]:
        prop = getattr(cls, name)
        assert prop is cls.__dict__[name]
        assert isinstance(prop, graphs._cached_property) and callable(prop.func)
    assert TwoLayerDrawing._by_rank.__doc__ == TwoLayerDrawing._by_rank.func.__doc__
    g = BipartiteGraph(("a1",), ("b1",), (("a1", "b1"),))
    assert BipartiteGraph.neighbors.func(g) == g.neighbors


def test_drawing_requires_permutations():
    g = BipartiteGraph(("a1", "a2"), ("b1",), ())
    with pytest.raises(GraphError):
        TwoLayerDrawing(g, ("a1",), ("b1",))  # missing a2
    with pytest.raises(GraphError):
        TwoLayerDrawing(g, ("a1", "a1"), ("b1",))
    with pytest.raises(GraphError):
        TwoLayerDrawing(g, ("a1", "b1"), ("a2",))  # wrong sides


def test_positions_are_one_based():
    g = BipartiteGraph(("a1", "a2"), ("b1", "b2"), ())
    d = TwoLayerDrawing(g, ("a2", "a1"), ("b1", "b2"))
    assert d.pos_a == {"a2": 1, "a1": 2}
    assert d.pos_b == {"b1": 1, "b2": 2}


def test_connected_components():
    g = BipartiteGraph(
        ("a1", "a2", "a3"), ("b1", "b2"), (("a1", "b1"), ("a2", "b1"))
    )
    comps = tl.connected_components(g)
    assert comps == (("a1", "a2", "b1"), ("a3",), ("b2",))
    assert not tl.is_connected(g)
    assert tl.is_connected(BipartiteGraph(("a1",), ("b1",), (("a1", "b1"),)))


# --------------------------------------------------- caterpillar recognition

def test_caterpillar_path_five():
    # deleting the two end leaves of a path leaves the middle three
    g = tl.bipartition_from_edges(
        (("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5"))
    )
    assert tl.is_caterpillar(g) == (True, ("v2", "v3", "v4"))


def test_caterpillar_star():
    g = BipartiteGraph(
        ("c",), ("l1", "l2", "l3", "l4"), tuple(("c", f"l{i}") for i in (1, 2, 3, 4))
    )
    assert tl.is_caterpillar(g) == (True, ("c",))


def test_caterpillar_rejects_subdivided_star():
    ok, spine = tl.is_caterpillar(tl.subdivided_star(3))
    assert ok is False and spine is None


def test_caterpillar_tiny_graphs():
    assert tl.is_caterpillar(BipartiteGraph(("u",), (), ())) == (True, ("u",))
    k2 = BipartiteGraph(("u",), ("v",), (("u", "v"),))
    assert tl.is_caterpillar(k2) == (True, ())


def test_caterpillar_requires_connected_nonempty():
    with pytest.raises(GraphError):
        tl.is_caterpillar(BipartiteGraph((), (), ()))
    with pytest.raises(ConnectivityError):
        tl.is_caterpillar(BipartiteGraph(("a1", "a2"), ("b1",), (("a1", "b1"),)))


def _nx_to_graph(nxg) -> BipartiteGraph:
    labels = {v: f"v{v}" for v in nxg.nodes}
    return tl.bipartition_from_edges(
        tuple((labels[u], labels[v]) for u, v in nxg.edges)
    )


def _has_dominating_path(nxg) -> bool:
    # independent reference: a tree is a caterpillar iff some path between two
    # vertices dominates every vertex
    nodes = list(nxg)
    if len(nodes) == 1:
        return True
    for u, v in itertools.combinations(nodes, 2):
        on_path = set(nx.shortest_path(nxg, u, v))
        if all(
            w in on_path or any(x in on_path for x in nxg[w]) for w in nodes
        ):
            return True
    return False


def test_caterpillar_agrees_with_dominating_path_oracle():
    # exhaustive over all trees on up to 8 vertices (isomorphism classes)
    for n in range(2, 9):
        for nxg in nx.nonisomorphic_trees(n):
            expect = _has_dominating_path(nxg)
            assert tl.is_caterpillar(_nx_to_graph(nxg))[0] == expect


# ---------------------------------------------------------- caterpillar layout

def test_caterpillar_layout_of_ten_edge_example_has_no_crossings():
    spine = [f"s{i}" for i in range(1, 6)]
    edges = [(spine[i], spine[i + 1]) for i in range(4)]
    for s, leaves in {
        "s1": ["p1"], "s2": ["p2", "p3"], "s3": ["p6"], "s4": ["p4"], "s5": ["p5"],
    }.items():
        edges.extend((s, p) for p in leaves)
    g = tl.bipartition_from_edges(tuple(edges))
    assert len(g.edges) == 10
    d = tl.caterpillar_layout(g)
    assert len(list(itertools.combinations(g.edges, 2))) == 45
    assert crossing_pairs(d) == []


def test_caterpillar_layout_tiny():
    d = tl.caterpillar_layout(BipartiteGraph(("u",), (), ()))
    assert d.order_a == ("u",) and d.order_b == ()


def test_caterpillar_layout_rejects_non_caterpillars():
    with pytest.raises(tl.NotCaterpillarError):
        tl.caterpillar_layout(tl.subdivided_star(3))


@given(caterpillar_graphs())
@settings(max_examples=60, deadline=None)
def test_caterpillar_layout_is_always_crossing_free(g):
    ok, _ = tl.is_caterpillar(g)
    assert ok
    assert crossing_pairs(tl.caterpillar_layout(g)) == []


# ------------------------------------------------------ bipartition helper

def test_bipartition_from_edges_two_colours():
    g = tl.bipartition_from_edges((("u", "v"), ("v", "w")))
    # min-id root of the component goes on side A
    assert g.a == ("u", "w") and g.b == ("v",)
    assert set(g.edges) == {("u", "v"), ("w", "v")}


def test_bipartition_isolated_vertices_and_odd_cycle():
    g = tl.bipartition_from_edges((("u", "v"),), isolated=("z",))
    assert "z" in g.a  # its own component, min id, lands on A
    with pytest.raises(GraphError):
        tl.bipartition_from_edges((("u", "v"), ("v", "w"), ("w", "u")))


# ------------------------------------------------------------- generators

def test_tree_generator_structure():
    g, d = tl.complete_binary_tree(3)
    assert len(g.vertices) == 15 and len(g.edges) == 14
    # sides split by depth parity
    assert "r" in g.a and "r.0" in g.b and "r.0.1" in g.a
    # every child is adjacent to the id obtained by dropping its last ".x"
    for u, v in g.edges:
        child = max(u, v, key=len)
        assert child[:-2] in (u, v)
    # rails are level order: depth ascending, lexicographic within a depth
    for order in (d.order_a, d.order_b):
        keys = [(len(v), v) for v in order]
        assert keys == sorted(keys)


def test_tree_max_crossing_values():
    # brute-checked for h <= 3 (larger trees exceed the subset-DP budget)
    for h, expect in ((0, 0), (1, 1), (2, 2), (3, 2), (4, 2)):
        g, d = tl.complete_binary_tree(h)
        assert tl.max_crossing_set(d)[0] == expect
        if len(g.edges) <= 20:
            assert brute_max_crossing_set(d) == expect


def test_grid_generator_structure():
    g, d = tl.grid_graph(3)
    assert len(g.vertices) == 9 and len(g.edges) == 12
    assert g.side("(1,1)") == "A" and g.side("(1,2)") == "B"
    # neighbours differ by one in exactly one coordinate
    for u, v in g.edges:
        iu, ju = map(int, u.strip("()").split(","))
        iv, jv = map(int, v.strip("()").split(","))
        assert abs(iu - iv) + abs(ju - jv) == 1


def test_grid_max_crossing_values():
    for h, expect in ((1, 0), (2, 2), (3, 2), (4, 2), (5, 2)):
        _, d = tl.grid_graph(h)
        assert tl.max_crossing_set(d)[0] == expect
        if len(d.graph.edges) <= 20:
            assert brute_max_crossing_set(d) == expect


def test_subdivided_star_structure():
    g = tl.subdivided_star(3)
    assert sorted(g.a) == ["c", "l1", "l2", "l3"]
    assert sorted(g.b) == ["s1", "s2", "s3"]
    assert len(g.edges) == 6
    assert g.degree("c") == 3 and g.degree("l1") == 1 and g.degree("s2") == 2


def test_star_fan_drawing_worst_edge():
    for n, expect in ((5, 4), (9, 8)):
        _, d = tl.star_fan_drawing(n)
        assert max(tl.crossings_per_edge(d).values()) == expect


def test_generator_caps():
    with pytest.raises(CapExceededError):
        tl.complete_binary_tree(99)
    with pytest.raises(CapExceededError):
        tl.grid_graph(99)
    with pytest.raises(CapExceededError):
        tl.subdivided_star(10**9)
    with pytest.raises(CapExceededError):
        tl.random_drawing(10**9, 1, 0.5, 1)


def test_random_drawing_is_deterministic():
    g, d = tl.random_drawing(5, 5, 0.5, 12345)
    assert len(g.edges) == 17
    assert d.order_a == ("a1", "a2", "a0", "a3", "a4")
    assert d.order_b == ("b2", "b0", "b3", "b4", "b1")
    _, again = tl.random_drawing(5, 5, 0.5, 12345)
    assert tl.drawing_to_json(again) == tl.drawing_to_json(d)


def test_random_drawing_density_extremes_and_seed_type():
    g0, _ = tl.random_drawing(4, 3, 0.0, 7)
    assert g0.edges == ()
    g1, _ = tl.random_drawing(4, 3, 1.0, 7)
    assert len(g1.edges) == 12
    with pytest.raises(GraphError):
        tl.random_drawing(3, 3, 0.5, 1.5)  # float seeds drift across platforms
    with pytest.raises(GraphError):
        tl.random_drawing(3, 3, 1.5, 1)


# ------------------------------------------------------------------- JSON

def test_graph_json_round_trip():
    g = BipartiteGraph(("a1", "a2"), ("b1",), (("a1", "b1"),))
    assert tl.graph_from_json(tl.graph_to_json(g)) == g
    payload = json.loads(tl.graph_to_json(g))
    assert set(payload) == {"a", "b", "edges"}


def test_drawing_json_round_trip():
    _, d = tl.random_drawing(4, 4, 0.5, 3)
    back = tl.drawing_from_json(tl.drawing_to_json(d))
    assert back == d
    payload = json.loads(tl.drawing_to_json(d))
    assert set(payload) == {"a", "b", "edges", "orderA", "orderB"}


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '{"a": ["x"], "b": []}',
        '{"a": ["x"], "b": [], "edges": [["x"]]}',
        '{"a": ["x"], "b": [1], "edges": []}',
        '{"a": ["x"], "b": ["y"], "edges": [["x", "z"]]}',
    ],
)
def test_graph_json_rejects_malformed(text):
    with pytest.raises(GraphError):
        tl.graph_from_json(text)


def test_drawing_json_rejects_bad_orders():
    g = BipartiteGraph(("a1",), ("b1",), ())
    blob = json.loads(tl.drawing_to_json(TwoLayerDrawing(g, ("a1",), ("b1",))))
    blob["orderA"] = []
    with pytest.raises(GraphError):
        tl.drawing_from_json(json.dumps(blob))


@given(drawings(max_side=4))
@settings(max_examples=40, deadline=None)
def test_drawing_json_round_trip_property(d):
    assert tl.drawing_from_json(tl.drawing_to_json(d)) == d


# ------------------------------------------------------- indented writer

def _same_as_json_dumps(obj):
    """``graphs._dumps(obj)`` gives ``json.dumps(obj, indent=2)``, or the
    same error."""
    try:
        expected = json.dumps(obj, indent=2)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            graphs._dumps(obj)
    else:
        assert graphs._dumps(obj) == expected


# Quotes, backslashes, control, non-ASCII and astral characters, and braces
# that a format template would read.
JSON_TEXT = st.one_of(
    st.sampled_from(["", "{}", "{0}", "{0!r}", "}{", '"\\', "é", "😀", "\x00\x1f\n"]),
    st.text(
        st.one_of(
            st.sampled_from('"\\{}'),
            st.characters(max_codepoint=0x1F),
            st.characters(min_codepoint=0x80, max_codepoint=0x7FF),
            st.characters(min_codepoint=0x10000),
            st.characters(),
        ),
        max_size=4,
    ),
)
JSON_INTS = st.one_of(st.integers(-5, 5), st.integers(), st.sampled_from([2**64, -(2**80)]))
JSON_SCALARS = st.one_of(
    JSON_TEXT, JSON_INTS, st.booleans(), st.none(),
    st.floats(), st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.5]),
)
# Rows as the certificates hold them: edges, ragged ("Vi", i) and ("Vij", i,
# j) tags, arcs with a nested pair, and lists of up to 3 scalars.
ROW_KINDS = (
    st.tuples(JSON_TEXT, JSON_TEXT),
    st.one_of(
        st.tuples(st.just("Vi"), JSON_INTS),
        st.tuples(st.just("Vij"), JSON_INTS, st.one_of(JSON_INTS, st.booleans())),
    ),
    st.tuples(st.tuples(JSON_TEXT, JSON_TEXT), JSON_TEXT, st.one_of(JSON_TEXT, JSON_INTS)),
    st.lists(st.one_of(JSON_TEXT, JSON_INTS, st.booleans(), st.none()), max_size=3),
)
JSON_ROWS = st.one_of(
    *(st.lists(kind, max_size=8) for kind in ROW_KINDS),
    st.lists(st.one_of(*ROW_KINDS), max_size=8),
)
JSON_KEYS = st.one_of(JSON_TEXT, JSON_INTS, st.booleans(), st.none(), st.floats(), st.tuples())
JSON_TREES = st.recursive(
    st.one_of(JSON_SCALARS, JSON_ROWS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.dictionaries(JSON_TEXT, inner, max_size=5),
        st.dictionaries(JSON_KEYS, inner, max_size=3),
    ),
    max_leaves=20,
)


@given(JSON_TREES)
@settings(max_examples=200, deadline=None)
def test_indented_writer_is_json_dumps(obj):
    _same_as_json_dumps(obj)


class _Rank(enum.IntEnum):
    """An int subclass whose repr is not its number."""

    FIRST = 1
    SECOND = 2


@pytest.mark.parametrize(
    "obj",
    [
        [], (), {}, [[]], [(), ()], {"k": {}}, [[], [1]],
        [["Vi", 1], ["Vij", 1, 2], ["Vi", 2], ["Vij", 2, 1]],
        [[("u", "v"), "t", "h"]] * 4,
        [[1, True], [2, False], [None, 3]] * 2,
        [["{0}", "{}"], ["{1}", "}{"]] * 3,
        [True, 1, False, 0],
        [_Rank.FIRST, _Rank.SECOND, 3],
        {"rank": _Rank.SECOND, "rows": [[_Rank.FIRST, "a"], [_Rank.SECOND, "b"]]},
        {"x": [1.5, 2]},
        {1: "one", None: "null"},
        {("a",): 1},
        [object()],
        "é😀",
        -(2**100),
        None,
    ],
    ids=repr,
)
def test_indented_writer_is_json_dumps_on_edge_cases(obj):
    _same_as_json_dumps(obj)


def test_indented_writer_leaves_a_cycle_to_json():
    cycle: list = []
    cycle.append([cycle, cycle])
    with pytest.raises(ValueError, match="Circular reference detected"):
        graphs._dumps(cycle)
