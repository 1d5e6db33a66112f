"""Decomposition model, validation, exact pathwidth, normalization."""

import io
import json
import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twolayer as tl
from twolayer import (
    BipartiteGraph,
    CapExceededError,
    DecompositionError,
    FuzzConfig,
    GraphError,
    PathDecomposition,
    _reader,
    fuzz,
)

from conftest import decompositions, graphs
from oracles import (
    brute_pathwidth,
    bucket_pathwidth,
    dp_pathwidth,
    naive_normalize_unique_intro,
    naive_order_to_decomposition,
)


def _graph_of(edges, isolated=()):
    return tl.bipartition_from_edges(tuple(edges), isolated=tuple(isolated))


# ------------------------------------------------------------------ model

def test_bags_are_sorted_and_deduped():
    pd = PathDecomposition((("v", "u", "u"), ("w",)))
    assert pd.bags == (("u", "v"), ("w",))
    assert pd.width == 1
    assert pd.vertices == {"u", "v", "w"}
    # a sorted bag with repeats and an empty bag
    pd = PathDecomposition((("u", "u", "v", "w", "w"), ()))
    assert pd.bags == (("u", "v", "w"), ())
    assert PathDecomposition(pd.bags) == pd


def test_strictly_ascending_bags_are_kept_as_given():
    """A bag that is already strictly ascending is kept as given; ids that
    do not compare raise what sorted raises."""
    bag = ("a0", "b1", "b2")
    pd = PathDecomposition([bag, ["b2", "a0"], ("u", "u"), iter(("w", "v"))])
    assert pd.bags == (bag, ("a0", "b2"), ("u",), ("v", "w"))
    for ids in (("a", 1), (1, "a"), ("b", "a", 1), ("a", "b", None)):
        with pytest.raises(TypeError) as want:
            sorted(ids)
        with pytest.raises(TypeError) as got:
            PathDecomposition([ids])
        assert str(got.value) == str(want.value)


@given(st.lists(st.lists(st.sampled_from(("a0", "a1", "b2", "b10", "v", "w")), max_size=7),
                max_size=8))
@settings(max_examples=300, deadline=None)
def test_bag_list_is_held_as_its_intervals(bags):
    """Bags with repeated and unsorted ids, empty bags and ids that come back
    to a bag read back sorted and deduplicated, from intervals equal, key
    order included, to a scan of each id's occurrences."""
    pd = PathDecomposition(bags)
    where: dict[str, list[int]] = {}
    for i, bag in enumerate(bags, start=1):
        for v in sorted(set(bag)):
            where.setdefault(v, []).append(i)
    span = {v: (idx[0], idx[-1]) for v, idx in where.items()}
    broken = {v: idx for v, idx in where.items() if idx[-1] - idx[0] + 1 != len(idx)}
    assert [list(m.items()) for m in pd._intervals] == [
        list(span.items()), list(broken.items())
    ]
    assert pd.bags == tuple(tuple(sorted(set(b))) for b in bags)


def test_bag_list_and_intervals_are_held_alike():
    """A decomposition built from its bags holds what one built from its
    bag intervals holds, until its bags are read."""
    pd = PathDecomposition([["v", "u"], ["w", "v"], ["u"]])
    span, broken = pd._intervals
    other = PathDecomposition._from_intervals(span, 3, broken)
    assert broken == {"u": [1, 3]}
    assert vars(pd).keys() == vars(other).keys() == {"_intervals", "_count"}
    assert pd.bags == other.bags == (("u", "v"), ("v", "w"), ("u",))
    assert vars(pd).keys() == vars(other).keys()


def test_unhashable_id_fails_the_build():
    """A bag of lists sorts, but its ids cannot be held, so the build raises
    the TypeError of an unhashable id."""
    with pytest.raises(TypeError, match="unhashable"):
        PathDecomposition([[["a"], ["b"]]])


def test_width_of_empty_decomposition_is_error():
    with pytest.raises(DecompositionError):
        PathDecomposition(()).width


# -------------------------------------------------------------- validation

def test_validate_accepts_single_edge():
    g = BipartiteGraph(("u",), ("v",), (("u", "v"),))
    assert tl.validate_decomposition(g, PathDecomposition((("u", "v"),))) == ()


def test_validate_reports_missing_vertex():
    g = BipartiteGraph(("u",), ("v",), ())
    violations = tl.validate_decomposition(g, PathDecomposition((("u",),)))
    assert [v.kind for v in violations] == ["cover"]
    assert violations[0].vertex == "v"
    assert "v" in violations[0].describe()


def test_validate_reports_split_edge():
    g = _graph_of([("u", "v"), ("v", "w")])
    pd = PathDecomposition((("u",), ("v",), ("w",)))
    violations = tl.validate_decomposition(g, pd)
    kinds = sorted(v.kind for v in violations)
    assert kinds == ["edge", "edge"]
    assert {v.edge for v in violations} == {("u", "v"), ("w", "v")}


def test_validate_reports_contiguity_gap():
    g = BipartiteGraph(("u",), ("v",), ())
    pd = PathDecomposition((("v",), ("u",), ("v",)))
    violations = tl.validate_decomposition(g, pd)
    assert [v.kind for v in violations] == ["contiguity"]
    assert violations[0].vertex == "v"
    assert violations[0].indices == (1, 2, 3)  # present, missing, present


def test_validate_rejects_foreign_vertex():
    g = BipartiteGraph(("u",), (), ())
    with pytest.raises(DecompositionError):
        tl.validate_decomposition(g, PathDecomposition((("u", "zz"),)))


def naive_validate(graph, bags):
    """Reference validator over a raw bag list, with no PathDecomposition in
    between: rebuilds every bag as a set for every edge."""
    bags = [sorted(set(bag)) for bag in bags]
    vset = set(graph.vertices)
    for i, bag in enumerate(bags):
        for v in bag:
            if v not in vset:
                raise DecompositionError(
                    f"bag {i + 1} contains foreign vertex {v!r}"
                )
    out = []
    where = {v: [] for v in vset}
    for i, bag in enumerate(bags):
        for v in bag:
            where[v].append(i + 1)
    for v in graph.vertices:
        idx = where[v]
        if not idx:
            out.append(tl.Violation("cover", vertex=v))
            continue
        if idx[-1] - idx[0] + 1 != len(idx):
            gap = next(j for j in range(idx[0], idx[-1]) if j not in set(idx))
            out.append(
                tl.Violation("contiguity", vertex=v, indices=(idx[0], gap, idx[-1]))
            )
    for u, v in graph.edges:
        if not any(u in bag and v in bag for bag in map(set, bags)):
            out.append(tl.Violation("edge", edge=(u, v)))
    return tuple(out)


def _random_case(rng):
    """A graph of at most 6+6 vertices and the raw bag list of a
    decomposition of up to 6 bags.  Every third case is a valid
    decomposition from a vertex order with adjacent bags merged, later bag
    first, so that a merged bag repeats ids out of order; the rest are
    random subsets, which leave vertices uncovered, non-contiguous, or with
    split edges."""
    na, nb = rng.randint(0, 6), rng.randint(0, 6)
    a = tuple(f"a{i}" for i in range(na))
    b = tuple(f"b{j}" for j in range(nb))
    p = rng.random()
    edges = tuple((u, v) for u in a for v in b if rng.random() < p)
    g = BipartiteGraph(a, b, edges)
    verts = list(g.vertices)
    if verts and rng.randrange(3) == 0:
        rng.shuffle(verts)
        bags = list(tl.order_to_decomposition(g, verts).bags)
        while len(bags) > 1 and rng.random() < 0.5:
            i = rng.randrange(len(bags) - 1)
            bags[i : i + 2] = [bags[i + 1] + bags[i]]
    else:
        q = rng.random()
        bags = [
            tuple(v for v in verts if rng.random() < q)
            for _ in range(rng.randint(0, 6))
        ]
    return g, bags


def test_validate_matches_naive_oracle():
    rng = random.Random(20220714)
    kinds = {"cover": 0, "contiguity": 0, "edge": 0, "valid": 0}
    for _ in range(3000):
        g, bags = _random_case(rng)
        got = tl.validate_decomposition(g, PathDecomposition(bags))
        assert got == naive_validate(g, bags)
        for v in got:
            kinds[v.kind] += 1
        kinds["valid"] += not got
    assert all(count > 0 for count in kinds.values()), kinds


def test_validate_foreign_vertex_matches_naive_oracle():
    rng = random.Random(7)
    for _ in range(300):
        g, bags = _random_case(rng)
        bags = [list(bag) for bag in bags] or [[]]
        for _ in range(rng.randint(1, 2)):
            bags[rng.randrange(len(bags))].append(f"x{rng.randrange(3)}")
        pd = PathDecomposition(bags)
        with pytest.raises(DecompositionError) as want:
            naive_validate(g, bags)
        with pytest.raises(DecompositionError, match="foreign") as got:
            tl.validate_decomposition(g, pd)
        assert str(got.value) == str(want.value)


def _outcome(validate, g, pd):
    try:
        return validate(g, pd)
    except DecompositionError as exc:
        return str(exc)


@given(graphs(max_side=5), st.data())
@settings(max_examples=300, deadline=None)
def test_interval_form_reads_as_its_bags(g, data):
    """A decomposition given as intervals validates, measures and stages as
    its bags given as bags do: the same violations or foreign-vertex error,
    width, vertex set, interval map in the same order and staged
    decomposition.  None of these builds its bags."""
    count = data.draw(st.integers(0, 6))
    span = {}
    for v in (*g.vertices, "x0"):
        if count and data.draw(st.booleans()):
            lo = data.draw(st.integers(1, count))
            span[v] = (lo, data.draw(st.integers(lo, count)))
    span = dict(sorted(span.items(), key=lambda item: (item[1][0], item[0])))
    pd = PathDecomposition._from_intervals(span, count)
    got = _outcome(tl.validate_decomposition, g, pd)
    width = pd.width if count else None
    staged = tl.normalize_unique_intro(pd) if span else None
    vertices = pd.vertices
    assert "bags" not in vars(pd)
    as_bags = PathDecomposition(pd.bags)
    assert as_bags == pd and len(pd.bags) == count
    assert vertices == as_bags.vertices
    assert got == _outcome(tl.validate_decomposition, g, as_bags)
    assert got == _outcome(naive_validate, g, pd.bags)
    assert width == (as_bags.width if count else None)
    assert list(tl.intro_intervals(pd).items()) == list(tl.intro_intervals(as_bags).items())
    assert staged == (naive_normalize_unique_intro(as_bags) if span else None)


def test_intro_intervals():
    """Each vertex's first and last bag, in order of first appearance; for a
    vertex whose bags are not contiguous, the hull (first, last)."""
    pd = PathDecomposition((("u",), ("u", "v"), ("v", "w")))
    assert tl.intro_intervals(pd) == {"u": (1, 2), "v": (2, 3), "w": (3, 3)}
    broken = PathDecomposition((("u", "v"), ("v",), ("u", "w")))
    got = tl.intro_intervals(broken)
    assert list(got.items()) == [("u", (1, 3)), ("v", (1, 2)), ("w", (3, 3))]


def test_intro_intervals_returns_a_fresh_dict():
    """The intervals are computed once per decomposition, and a caller who
    changes the returned dict does not change what validation and layout
    read."""
    g, _ = tl.grid_graph(3)
    order = tl.pathwidth_exact(g)[1]
    pd = tl.order_to_decomposition(g, order)
    ell = tl.layout_decomposition(g, PathDecomposition(pd.bags))[1].ell
    got = tl.intro_intervals(pd)
    for v, (_, hi) in got.items():
        got[v] = (hi, hi)
    del got[order[0]]
    assert tl.intro_intervals(pd) != got
    assert tl.validate_decomposition(g, pd) == ()
    assert tl.layout_decomposition(g, pd)[1].ell == ell


# --------------------------------------------------------- exact pathwidth

def test_pathwidth_small_families():
    assert tl.pathwidth_exact(BipartiteGraph(("u",), (), ()))[0] == 0
    assert tl.pathwidth_exact(_graph_of([("u", "v")]))[0] == 1
    path6 = _graph_of([(f"v{i}", f"v{i+1}") for i in range(1, 6)])
    assert tl.pathwidth_exact(path6)[0] == 1
    cycle6 = _graph_of(
        [(f"v{i}", f"v{i+1}") for i in range(1, 6)] + [("v6", "v1")]
    )
    assert tl.pathwidth_exact(cycle6)[0] == 2
    star = BipartiteGraph(
        ("c",), ("l1", "l2", "l3"), tuple(("c", f"l{i}") for i in (1, 2, 3))
    )
    assert tl.pathwidth_exact(star)[0] == 1


def test_pathwidth_named_values():
    assert tl.pathwidth_exact(tl.grid_graph(2)[0])[0] == 2
    assert tl.pathwidth_exact(tl.grid_graph(3)[0])[0] == 3
    assert tl.pathwidth_exact(tl.grid_graph(4)[0])[0] == 4
    assert tl.pathwidth_exact(tl.complete_binary_tree(2)[0])[0] == 1
    assert tl.pathwidth_exact(tl.complete_binary_tree(3)[0])[0] == 2
    for n, expect in ((1, 1), (2, 1), (3, 2), (4, 2), (5, 2), (6, 2)):
        assert tl.pathwidth_exact(tl.subdivided_star(n))[0] == expect


def test_pathwidth_errors():
    with pytest.raises(GraphError):
        tl.pathwidth_exact(BipartiteGraph((), (), ()))
    big = BipartiteGraph(tuple(f"a{i}" for i in range(30)), (), ())
    with pytest.raises(CapExceededError):
        tl.pathwidth_exact(big)


def test_pathwidth_order_rebuild_raises_on_inconsistent_table(monkeypatch):
    """If no vertex attains the search's optimum, the order cannot be
    rebuilt: families that claim f(V) = 0 for the whole of a connected
    graph, whose every smaller set has a vertex with a neighbour outside it,
    raise CertificateError (an `assert` would vanish under `python -O`).
    The families come from one private helper; the hook keeps its true R_0
    and adds V to it."""
    from twolayer import _exact

    search = _exact._reached_families

    def zero_for_full_set(nbr):
        return [search(nbr)[0] | 1 << ((1 << len(nbr)) - 1)]

    monkeypatch.setattr(_exact, "_reached_families", zero_for_full_set)
    path = BipartiteGraph(("a", "c"), ("b",), (("a", "b"), ("c", "b")))
    assert search([0b010, 0b101, 0b010])[0] == 1  # only {} costs 0
    with pytest.raises(tl.CertificateError, match="optimal separation 0"):
        tl.pathwidth_exact(path)


def test_pathwidth_order_realizes_width():
    g, _ = tl.grid_graph(3)
    pw, order = tl.pathwidth_exact(g)
    pd = tl.order_to_decomposition(g, order)
    assert tl.validate_decomposition(g, pd) == ()
    assert pd.width == pw


def test_pathwidth_matches_permutation_brute_force():
    import random

    rng = random.Random(5)
    for _ in range(25):
        na, nb = rng.randint(1, 3), rng.randint(0, 3)
        g, _ = tl.random_drawing(na, nb, rng.uniform(0.2, 1.0), rng.randrange(1 << 30))
        assert tl.pathwidth_exact(g)[0] == brute_pathwidth(g)
    for nxg in nx.nonisomorphic_trees(6):
        g = tl.bipartition_from_edges(
            tuple((f"v{u}", f"v{v}") for u, v in nxg.edges)
        )
        assert tl.pathwidth_exact(g)[0] == brute_pathwidth(g)


def test_pathwidth_monotone_under_vertex_deletion():
    import random

    rng = random.Random(9)
    for _ in range(15):
        g, _ = tl.random_drawing(3, 3, 0.7, rng.randrange(1 << 30))
        pw = tl.pathwidth_exact(g)[0]
        for v in g.vertices:
            if len(g.vertices) == 1:
                continue
            a = tuple(x for x in g.a if x != v)
            b = tuple(x for x in g.b if x != v)
            edges = tuple(e for e in g.edges if v not in e)
            sub = BipartiteGraph(a, b, edges)
            if not sub.vertices:
                continue
            assert tl.pathwidth_exact(sub)[0] <= pw


def _relabel(g, prefix):
    rename = lambda v: prefix + v
    return BipartiteGraph(
        tuple(map(rename, g.a)),
        tuple(map(rename, g.b)),
        tuple((rename(u), rename(v)) for u, v in g.edges),
    )


def _union(g, h):
    g, h = _relabel(g, "x"), _relabel(h, "y")
    return BipartiteGraph(g.a + h.a, g.b + h.b, g.edges + h.edges)


def _random_graph(rng, max_side=7):
    """A seeded random graph of at most 2 * max_side vertices, its sides
    shuffled so that the index tie-break meets every vertex order."""
    na, nb = rng.randint(0, max_side), rng.randint(0, max_side)
    if na + nb == 0:
        na = 1
    g, _ = tl.random_drawing(na, nb, rng.random(), rng.randrange(1 << 30))
    a, b = list(g.a), list(g.b)
    rng.shuffle(a)
    rng.shuffle(b)
    return BipartiteGraph(tuple(a), tuple(b), g.edges)


def _pathwidth_corpus():
    """Seeded random graphs of up to 14 vertices, plus edgeless graphs,
    isolated vertices, disconnected unions and the named families."""
    rng = random.Random(20120101)
    for _ in range(2000):
        yield _random_graph(rng)
    for n in range(1, 11):
        yield BipartiteGraph(tuple(f"a{i}" for i in range(n)), (), ())
        yield BipartiteGraph(
            tuple(f"a{i}" for i in range(n // 2)),
            tuple(f"b{i}" for i in range(n - n // 2)),
            (),
        )
    for _ in range(100):
        g = _random_graph(rng, max_side=5)
        extra = tuple(f"i{j}" for j in range(rng.randint(1, 3)))
        yield BipartiteGraph(g.a + extra[::2], g.b + extra[1::2], g.edges)
    for _ in range(100):
        yield _union(_random_graph(rng, max_side=3), _random_graph(rng, max_side=3))
    for a in range(7):
        for b in range(7):
            if a + b:
                side_a = tuple(f"a{i}" for i in range(a))
                side_b = tuple(f"b{j}" for j in range(b))
                yield BipartiteGraph(
                    side_a, side_b, tuple((u, v) for u in side_a for v in side_b)
                )
    for n in range(2, 15):
        yield _graph_of([(f"v{i}", f"v{i + 1}") for i in range(1, n)])
    for n in range(1, 14):
        leaves = tuple(f"l{i}" for i in range(n))
        yield BipartiteGraph(("c",), leaves, tuple(("c", v) for v in leaves))
    for h in (2, 3):
        yield tl.grid_graph(h)[0]
    for n in range(1, 7):
        yield tl.subdivided_star(n)
    yield _union(tl.grid_graph(2)[0], tl.subdivided_star(3))


def test_pathwidth_equals_subset_dp_tuple():
    """The bucket search returns the DP's (width, order) tuple, the order
    included, and the bags of that order equal the rescanning oracle's."""
    sizes = set()
    for g in _pathwidth_corpus():
        got = tl.pathwidth_exact(g)
        assert got == dp_pathwidth(g), g
        assert tl.order_to_decomposition(g, got[1]) == naive_order_to_decomposition(
            g, got[1]
        ), g
        sizes.add(len(g.vertices))
    assert sizes == set(range(1, 15))


def _with_isolated(rng, g, count):
    """g with `count` isolated vertices inserted at random positions on
    random rails, so they fall before, between and after the live ones."""
    a, b = list(g.a), list(g.b)
    for j in range(count):
        side = a if rng.random() < 0.5 else b
        side.insert(rng.randint(0, len(side)), f"z{j}")
    return BipartiteGraph(tuple(a), tuple(b), g.edges)


def test_pathwidth_with_isolated_vertices_equals_subset_dp_tuple():
    """The search runs over the live vertices only, and the rebuild puts the
    isolated ones where the full subset DP puts them."""
    rng = random.Random(2012)
    sizes = set()
    for _ in range(60):
        g = _random_graph(rng, max_side=6)
        n = len(g.vertices)
        g = _with_isolated(rng, g, rng.randint(1, min(6, 16 - n)))
        assert tl.pathwidth_exact(g) == dp_pathwidth(g), g
        sizes.add(len(g.vertices))
    assert max(sizes) >= 15


def test_edgeless_pathwidth_allocates_one_table_entry(monkeypatch):
    """An edgeless graph at the vertex cap has width 0 and the DP's order
    (every vertex attains f, so the rebuild removes the lowest index first,
    as `dp_pathwidth` does on the smaller edgeless graphs of the corpus),
    and its search runs over no live vertex, so each family has the single
    bit of the empty live set."""
    from twolayer import _exact

    calls = []
    search = _exact._reached_families

    def recording(nbr):
        families = search(nbr)
        calls.append((len(nbr), families))
        return families

    monkeypatch.setattr(_exact, "_reached_families", recording)
    g = BipartiteGraph(
        tuple(f"a{i}" for i in range(10)), tuple(f"b{i}" for i in range(10)), ()
    )
    assert tl.pathwidth_exact(g) == (0, tuple(reversed(g.vertices)))
    assert calls == [(0, [1])]
    small = BipartiteGraph(g.a[:5], g.b[:5], ())
    assert dp_pathwidth(small) == (0, tuple(reversed(small.vertices)))


def _complete_bipartite(na, nb):
    a = tuple(f"a{i}" for i in range(na))
    b = tuple(f"b{j}" for j in range(nb))
    return BipartiteGraph(a, b, tuple((u, v) for u in a for v in b))


def _bucket_search_corpus():
    """Every graph of a 600-trial 6+6 fuzz sweep, the pinned 18-vertex
    graphs and K_{4,4}, graphs with 0, 2 and 3 live vertices (families of
    fewer than 8 bits, and of exactly 8), and 20-vertex graphs at the
    default cap."""
    config = FuzzConfig(trials=600, seed=1, na_max=6, nb_max=6)
    for trial in range(config.trials):
        g = fuzz._trial_drawing(config, trial)[1].graph
        if g.vertices:
            yield g
    for seed in (1, 2, 3):
        yield tl.random_drawing(9, 9, 0.3, seed)[0]
    yield _complete_bipartite(4, 4)
    yield BipartiteGraph(("a",), (), ())
    yield BipartiteGraph(("a", "c"), ("b", "d"), ())
    yield BipartiteGraph(("a",), ("b",), (("a", "b"),))
    yield BipartiteGraph(("z", "a"), ("b", "y"), (("a", "b"),))
    yield BipartiteGraph(("a", "c"), ("b",), (("a", "b"), ("c", "b")))
    yield BipartiteGraph(("a", "x", "c"), ("w", "b"), (("c", "b"), ("a", "b")))
    for p, seed in ((0.15, 7), (0.2, 7), (0.3, 7), (0.3, 8)):
        yield tl.random_drawing(10, 10, p, seed)[0]


def test_pathwidth_equals_bucket_search_tuple():
    """The bit-parallel search returns the former bucket search's (width,
    order) tuple, which its own tests pinned against the subset DP."""
    live_counts = set()
    for g in _bucket_search_corpus():
        assert tl.pathwidth_exact(g) == bucket_pathwidth(g), g
        live_counts.add(sum(1 for v in g.vertices if g.neighbors[v]))
    assert {0, 2, 3} <= live_counts and max(live_counts) == 20


def test_reached_families_of_one_vertex():
    """A lone vertex (no neighbours) gives the 2-bit family {{}, {0}} at
    width 0; a graph never has one live vertex, so only the helper meets it."""
    from twolayer import _exact

    assert _exact._reached_families([0]) == [0b11]


def test_complete_bipartite_10_10_pathwidth_peak_memory():
    """The search keeps O(L) families of 2^L bits: on K_{10,10} its traced
    peak stays below 8 MiB (the bucket search's table and read-back lists
    peaked at 8.3 MiB)."""
    import tracemalloc

    g = _complete_bipartite(10, 10)
    tracemalloc.start()
    try:
        got = tl.pathwidth_exact(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[0] == 10
    assert tl.order_to_decomposition(g, got[1]).width == 10
    assert peak < 8 << 20, peak


def test_order_to_decomposition_matches_rescanning_oracle():
    rng = random.Random(11)
    for g in _pathwidth_corpus():
        order = list(g.vertices)
        rng.shuffle(order)
        assert tl.order_to_decomposition(g, order) == naive_order_to_decomposition(
            g, order
        ), (g, order)


@given(graphs(max_side=8), st.data())
@settings(max_examples=200, deadline=None)
def test_order_to_decomposition_builds_intervals(g, data):
    """The order's decomposition is given by its intervals: its width and
    validation read them, and its bags, built on first read, are those of
    the rescanning oracle."""
    order = data.draw(st.permutations(g.vertices))
    pd = tl.order_to_decomposition(g, order)
    width = pd.width if order else None
    assert tl.validate_decomposition(g, pd) == ()
    assert "bags" not in vars(pd)
    want = naive_order_to_decomposition(g, order)
    assert pd.bags == want.bags and width == (want.width if order else None)


def _cost_levels(nbr):
    """R_w = {S : f(S) <= w} for w up to f(V), from the subset recurrence
    f(S) = min over i in S of max(f(S - i), boundary(S)), f({}) = 0."""
    n = len(nbr)
    full = (1 << n) - 1
    f = [0] * (1 << n)
    for s in range(1, 1 << n):
        b = sum(1 for i in range(n) if s >> i & 1 and nbr[i] & (full ^ s))
        f[s] = min(max(f[s ^ (1 << i)], b) for i in range(n) if s >> i & 1)
    return [sum(1 << s for s in range(1 << n) if f[s] <= w) for w in range(f[full] + 1)]


def test_reached_families_are_the_cost_levels():
    """Each family R_w the bit-parallel search builds is {S : f(S) <= w} of
    the subset recurrence."""
    from twolayer import _exact

    rng = random.Random(23)
    for _ in range(60):
        g, _ = tl.random_drawing(rng.randint(1, 5), rng.randint(1, 5), rng.random(), rng.randrange(1 << 30))
        live = [v for v in g.vertices if g.neighbors[v]]
        index = {v: i for i, v in enumerate(live)}
        nbr = [sum(1 << index[w] for w in g.neighbors[v]) for v in live]
        assert _exact._reached_families(nbr) == _cost_levels(nbr), g


def test_order_to_decomposition_requires_permutation():
    g = BipartiteGraph(("u",), ("v",), ())
    with pytest.raises(GraphError):
        tl.order_to_decomposition(g, ("u",))
    with pytest.raises(GraphError):
        tl.order_to_decomposition(g, ("u", "u"))


# ------------------------------------------------------------ normalization

def test_normalize_stages_multi_introductions():
    pd = PathDecomposition((("u", "v", "w"),))
    out = tl.normalize_unique_intro(pd)
    assert out.bags == (("u",), ("u", "v"), ("u", "v", "w"))


def test_normalize_preserves_width_and_validity():
    g, _ = tl.grid_graph(3)
    pw, order = tl.pathwidth_exact(g)
    pd = tl.order_to_decomposition(g, order)
    merged = PathDecomposition(
        (tuple(sorted(set(pd.bags[0]) | set(pd.bags[1]))),) + pd.bags[2:]
    )
    out = tl.normalize_unique_intro(merged)
    assert out.width == merged.width
    assert tl.validate_decomposition(g, out) == ()
    intro_counts = {}
    seen: set[str] = set()
    for bag in out.bags:
        new = set(bag) - seen
        assert len(new) <= 1
        seen |= set(bag)


def test_normalize_idempotent_when_already_unique():
    pd = PathDecomposition((("u",), ("u", "v")))
    assert tl.normalize_unique_intro(pd) == pd


def test_normalize_returns_an_order_decomposition_itself():
    """A vertex order gives one new vertex per bag, so there is nothing to
    stage and the decomposition comes back as the very same object."""
    rng = random.Random(7)
    for g in (tl.grid_graph(3)[0], tl.star_fan_drawing(6)[0]):
        order = sorted(g.vertices)
        rng.shuffle(order)
        pd = tl.order_to_decomposition(g, order)
        assert tl.normalize_unique_intro(pd) is pd


def test_normalize_rejects_non_contiguous_input():
    """The error names the first non-contiguous vertex in order of first
    appearance."""
    for bags, broken in (
        ((("v",), ("u",), ("v",)), "v"),
        # u returns with two new vertices, which would be staged
        ((("u", "v"), ("v",), ("u", "w", "x")), "u"),
        # b's gap closes first, but a appears first
        ((("a", "b"), ("c",), ("b",), ("a",)), "a"),
    ):
        with pytest.raises(DecompositionError, match=f"vertex '{broken}' "):
            tl.normalize_unique_intro(PathDecomposition(bags))


@given(decompositions())
@settings(max_examples=60, deadline=None)
def test_normalize_property(pair):
    g, pd = pair
    out = tl.normalize_unique_intro(pd)
    assert out.width == pd.width
    assert tl.validate_decomposition(g, out) == ()
    seen: set[str] = set()
    for bag in out.bags:
        assert len(set(bag) - seen) <= 1
        seen |= set(bag)


def _random_bag_sequences(count, seed):
    """Seeded bag sequences over a few ids: the odd ones give each vertex
    one interval of bags, so they are contiguous; the even ones draw every
    bag on its own, so most are not."""
    rng = random.Random(seed)
    ids = "abcdefg"
    for i in range(count):
        n = rng.randint(0, 7)
        if i % 2:
            bags = [set() for _ in range(n)]
            for v in rng.sample(ids, rng.randint(0, len(ids)) if n else 0):
                lo = rng.randint(0, n - 1)
                for j in range(lo, rng.randint(lo, n - 1) + 1):
                    bags[j].add(v)
        else:
            bags = [set(rng.sample(ids, rng.randint(0, 4))) for _ in range(n)]
        yield PathDecomposition(tuple(tuple(bag) for bag in bags))


def test_normalize_matches_set_difference_oracle():
    """Staging from bag intervals gives the set-difference staging's bags,
    or raises its error naming the same vertex."""
    split = unsplit = broken = 0
    for pd in _random_bag_sequences(4000, seed=41):
        try:
            expected = naive_normalize_unique_intro(pd)
        except DecompositionError as exc:
            with pytest.raises(DecompositionError) as got:
                tl.normalize_unique_intro(pd)
            assert str(got.value) == str(exc), pd
            broken += 1
            continue
        assert tl.normalize_unique_intro(pd).bags == expected.bags, pd
        if expected.bags == pd.bags:
            unsplit += 1
        else:
            split += 1
    assert split >= 1500 and unsplit >= 1000 and broken >= 800


@given(graphs(max_side=4))
@settings(max_examples=40, deadline=None)
def test_order_decomposition_always_valid(g):
    if not g.vertices:
        return
    pd = tl.order_to_decomposition(g, g.vertices)
    assert tl.validate_decomposition(g, pd) == ()
    assert tl.pathwidth_exact(g)[0] <= pd.width


# ------------------------------------------------------------------- JSON

def test_decomposition_json_round_trip():
    pd = PathDecomposition((("u",), ("u", "v")))
    assert tl.decomposition_from_json(tl.decomposition_to_json(pd)) == pd
    payload = json.loads(tl.decomposition_to_json(pd))
    assert set(payload) == {"bags"}


@pytest.mark.parametrize("text", ["[]", "{}", '{"bags": [["x"], "y"]}'])
def test_decomposition_json_rejects_malformed(text):
    with pytest.raises(DecompositionError):
        tl.decomposition_from_json(text)


@pytest.mark.parametrize("bags", [[["x"], "y"], [["x", 1]], [["x"], [None]], {}])
def test_malformed_bags_give_one_message(bags):
    """A bag that is not a list and an id that is not a string fail alike."""
    with pytest.raises(DecompositionError, match="^'bags' must be a list of lists of ids$"):
        tl.decomposition_from_json(json.dumps({"bags": bags}))


def _reference_read(text):
    """What decomposition_from_json returned before it read bag by bag: the
    decomposition of ``json.loads(text)``, or the error it raised, as
    (type, message)."""
    try:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DecompositionError(f"invalid JSON: {exc}") from None
        return _reader._decomposition_from_object(data)
    except Exception as exc:
        return type(exc), str(exc)


def _read(text):
    try:
        return tl.decomposition_from_json(text)
    except Exception as exc:
        return type(exc), str(exc)


_SMALL_PD = tl.decomposition_to_json(
    PathDecomposition((("a0",), ("a0", "b1"), ("b1", "b2", "a3"), ()))
)

# Documents shaped as decomposition_to_json writes them, whitespace aside.
PLAIN_TEXTS = [
    _SMALL_PD,
    json.dumps({"bags": [["a0", "b1"], ["b1", "b2"]]}, separators=(",", ":")),
    json.dumps({"bags": [["a0", "b1"], ["b1", "b2"]]}, indent=4),
    ' \t\r\n{ "bags" :\n[ [ "a0" ] ,\t[ ] ] }\n\n',
    '{"bags": []}',
    '{"bags": [ ]}',
    '{"bags": [[]]}',
    '{"bags": [["b1", "a0", "b1"], ["b1", "b1"]]}',
    '{"bags": [["\\u0061\\u0030", "a0"], ["a0", "x\\n\\"y\\""]]}',
    '{"bags": [["\\ud83d\\ude00", "\U0001f600"], ["\U0001f600", "\\u00e9t\\u00e9"]]}',
    # keys after the bags, whose values are skipped
    '{"bags": [["a0"]], "x": 1}',
    '{"bags": [["a0"]] , "x" : 12345 ,"y":true, "z": -1.5e3 }',
    '{"bags": [["a0", "b1"]], "bag": {"bags": [["b1"]]}, "x": [1, "]", [null]]}',
    '{"bags": [], "x": "a \\"}\\" b"}',
]

# Everything else, which json.loads reads and reports on.
OTHER_TEXTS = [
    "\ufeff" + _SMALL_PD,
    '{\u00a0"bags": [["a0"]]}',
    '{"bags":\u2028[["a0"]]}',
    '{"bags": [["a0"]\u00a0]}',
    '{"x": 1, "bags": [["a0"]]}',
    '{"bags": [["a0"]], "bags": [["b1"]]}',
    '{"bags": [["a0"]], "x": 1, "\\u0062ags": [["b1"]]}',
    '{"bags": [["a0"]], "x": }',
    '{"bags": [["a0"]], "x": 1,}',
    '{"bags": [["a0"]], "x" 1}',
    '{"bags": [["a0"]], "x": 1 "y": 2}',
    '{"bags": [["a0"]], 1: 2}',
    '{"bags": [["a0"]], "x": 12',
    '{"bags": [["a0"]], "x": [1, 2}',
    '{"bags": [["a0"]], "x": 1}}',
    '{"\\u0062ags": [["a0"]]}',
    json.dumps({"pathwidth": 1, "order": ["a0", "b1"], "bags": [["a0", "b1"]]}, indent=2),
    '{"bags": [["a0"], "b1"]}',
    '{"bags": [["a0"], {"b1": 1}]}',
    '{"bags": [[["a0"]]]}',
    '{"bags": [["a0", 1]]}',
    '{"bags": [["a0", {"b1": 1}]]}',
    '{"bags": [[NaN]]}',
    '{"bags": [["a0"], [null]]}',
    '{"bags": {}}',
    '{"bags": "a0"}',
    '{"bags": [["a0"],]}',
    '{"bags": [["a0"] ["b1"]]}',
    '{"bags": [["a0"]]} x',
    '{"bags": [["a0"]]}{}',
    '{"bags": [["a0"]]}}',
    "[]",
    "{}",
    "null",
    "",
    b'{"bags": [["a0"]]}',
    *(_SMALL_PD[:end] for end in range(0, len(_SMALL_PD), 7)),
]


# pd.json documents in which some vertex's bags are not contiguous: the
# reader keeps those vertices' bag indices beside the intervals.
NONCONTIGUOUS_TEXTS = [
    '{"bags": [["a"], ["b"], ["a"]]}',
    '{"bags": [["a"], [], ["a"]]}',
    '{"bags": [["a", "b"], ["b"], ["a", "b"], ["c"], ["b"]]}',
    '{"bags": [["a", "a"], ["b"], ["a"], [], ["b", "a"], ["a"], ["c"], ["a", "c"]]}',
]


def _windows(count):
    """pd.json of ``count`` bags, each a window of 20 ids sliding by one; at
    6000 bags it is about 0.9 MB, so bags straddle the default chunks too."""
    return json.dumps({"bags": [[f"v{j}" for j in range(i, i + 20)] for i in range(count)]})


_WINDOWS = _windows(6000)


def _streamed(text, chunk=None):
    """The stream reader's decomposition of ``text``, from a text stream
    that gives at most ``chunk`` characters a read, or what the reader asks
    for if None."""
    stream = io.StringIO(text)
    read = stream.read if chunk is None else lambda size: stream.read(min(size, chunk))
    return _reader._read_decomposition(read)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, None])
@pytest.mark.parametrize(
    "text", [t for t in PLAIN_TEXTS + OTHER_TEXTS + NONCONTIGUOUS_TEXTS if isinstance(t, str)]
)
def test_stream_reader_gives_what_json_loads_gave(text, chunk):
    """From a stream in chunks of any size, each pd.json-shaped document
    is read as json.loads read it, with the same interval pass; every other
    document is left to json.loads, which gives its decomposition or its
    error."""
    pd = _streamed(text, chunk)
    expected = _reference_read(text)
    assert (pd is not None) == (text in PLAIN_TEXTS + NONCONTIGUOUS_TEXTS)
    if pd is not None:
        assert "bags" not in vars(pd)
        assert [list(m.items()) for m in pd._intervals] == [
            list(m.items()) for m in expected._intervals
        ]
    assert (_read(text) if pd is None else pd) == expected


@pytest.mark.parametrize("chunk", [1, 7, 4096, None])
def test_stream_reader_reads_bags_that_straddle_chunks(chunk):
    text = _WINDOWS if chunk != 1 else _windows(200)
    pd = _streamed(text, chunk)
    assert pd is not None and "bags" not in vars(pd)
    assert pd == _reference_read(text)


# Ids that need escapes or look like JSON syntax, among plain ones.
STREAM_IDS = st.sampled_from(["a0", "b1", "a10", "x y", 'q"', "\\", "]", "[[", ",", "é", "😀", "\n"])


@given(
    st.lists(st.lists(STREAM_IDS, max_size=6), max_size=8),
    st.integers(1, 40),
    st.sampled_from([None, 0, 1, 3]),
)
@settings(max_examples=300, deadline=None)
def test_stream_reader_matches_json_loads_on_random_bags(bags, chunk, indent):
    """Duplicate, unsorted and escaped ids, and ids that come back after
    they left, at any chunk size and layout.  The intervals come in the
    order the bag pass gives, which names the first foreign vertex."""
    text = json.dumps({"bags": bags}, indent=indent, ensure_ascii=indent != 1)
    pd, expected = _streamed(text, chunk), _reference_read(text)
    assert pd is not None and "bags" not in vars(pd)
    assert [list(m.items()) for m in pd._intervals] == [
        list(m.items()) for m in expected._intervals
    ]
    assert pd._sizes == expected._sizes and pd == expected


def test_a_malformed_early_bag_copies_linear_text(monkeypatch):
    """A bag that fails to decode is retried after each refill, so each
    refill at least doubles the buffer: the buffers decoded add up to a
    small multiple of a 2.9 MB document whose first bag is malformed, where
    adding one chunk per refill would copy about 2.9 MB 45 times over."""
    real = json.JSONDecoder.raw_decode
    decoded = []

    def raw_decode(self, s, idx=0):
        decoded.append(len(s))
        return real(self, s, idx)

    monkeypatch.setattr(json.JSONDecoder, "raw_decode", raw_decode)
    text = '{"bags": [["a0" "b1"], ' + _WINDOWS[len('{"bags": ['):] * 3
    assert len(text) > 2_500_000
    assert _streamed(text) is None
    assert sum(decoded) < 4 * len(text)


@pytest.mark.parametrize("text", PLAIN_TEXTS + OTHER_TEXTS)
def test_reader_gives_what_json_loads_gave(text):
    """The same decomposition, or the same error type and message, as the
    json.loads reader, whichever path the text takes."""
    assert _read(text) == _reference_read(text)


@pytest.mark.parametrize("text", PLAIN_TEXTS + NONCONTIGUOUS_TEXTS)
def test_plain_documents_keep_one_str_per_id(text):
    pd = _reader._read_decomposition(text)
    assert pd is not None
    ids = [v for bag in pd.bags for v in bag]
    assert len(set(map(id, ids))) == len(pd.vertices)


@pytest.mark.parametrize("text", OTHER_TEXTS)
def test_other_texts_go_through_json_loads(text):
    assert _reader._read_decomposition(text) is None


def test_reading_a_wide_decomposition_peaks_below_2_mib():
    """json.loads held a str per id occurrence, 76,441 of them here, and
    peaked at 5.0 MiB; the bag reader keeps one per distinct id."""
    _, drawing = tl.random_drawing(160, 160, 0.032, 3)
    text = tl.decomposition_to_json(tl.decompose_drawing(drawing)[0])
    tracemalloc.start()
    try:
        pd = tl.decomposition_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    ids = [v for bag in pd.bags for v in bag]
    assert len(ids) > 60000
    assert len(set(map(id, ids))) == len(pd.vertices) == 320


class _LengthSink:
    """A text stream that keeps only the length of what is written."""

    size = 0

    def write(self, s: str) -> int:
        self.size += len(s)
        return len(s)

    def writelines(self, chunks) -> None:
        for chunk in chunks:
            self.write(chunk)


def test_writing_a_fresh_decomposition_streams_its_bags():
    """pd.json of a decomposition built from intervals is written from the
    interval sweep one bag at a time, and its bags stay unbuilt: the write
    adds less than a quarter of the text to the traced memory held after
    decomposing, where building every bag first held half the text."""
    _, drawing = tl.random_drawing(400, 400, 0.0125, 1)
    tracemalloc.start()
    try:
        pd, _ = tl.decompose_drawing(drawing)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sink = _LengthSink()
        assert tl.decomposition_to_json(pd, sink) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > 5_000_000
    assert peak - held < sink.size / 4, (peak, held, sink.size)
    assert "bags" not in vars(pd)
    text = tl.decomposition_to_json(pd)
    assert "bags" not in vars(pd)
    assert len(text) == sink.size
    assert text == tl.decomposition_to_json(PathDecomposition(pd.bags))
