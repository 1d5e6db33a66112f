"""Shared helpers and hypothesis strategies for the test suite."""

import itertools
import random
from functools import cached_property

import pytest
from hypothesis import strategies as st

import twolayer as tl


def crossing_pairs(drawing: tl.TwoLayerDrawing) -> list[tuple[tl.Edge, tl.Edge]]:
    """All crossing edge pairs, by direct pairwise check."""
    return [
        (e, f)
        for e, f in itertools.combinations(drawing.graph.edges, 2)
        if tl.edges_cross(drawing, e, f)
    ]


def record_interval_passes(monkeypatch) -> list:
    """Patch the one pass that turns bags into bag intervals so that each run
    of it appends the bags it was given to the returned list."""
    from twolayer import _reader

    real = _reader._bag_intervals
    passes: list = []
    monkeypatch.setattr(
        _reader, "_bag_intervals", lambda bags: passes.append(bags) or real(bags)
    )
    return passes


def record_bag_builds(monkeypatch) -> list[tl.PathDecomposition]:
    """Patch the decomposition's cached bag list so that each build of it
    appends its decomposition to the returned list."""
    real = tl.PathDecomposition.__dict__["bags"].func
    built: list[tl.PathDecomposition] = []
    prop = cached_property(lambda pd: built.append(pd) or real(pd))
    prop.__set_name__(tl.PathDecomposition, "bags")
    monkeypatch.setattr(tl.PathDecomposition, "bags", prop)
    return built


def random_corpus(
    count: int,
    seed: int,
    max_side: int = 8,
    require_edges: bool = False,
    max_edges: int | None = None,
) -> list[tl.TwoLayerDrawing]:
    """A deterministic list of random drawings for sweep tests."""
    rng = random.Random(seed)
    out: list[tl.TwoLayerDrawing] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        assert attempts < 100 * count + 1000, "corpus filter too strict"
        na = rng.randint(0, max_side)
        nb = rng.randint(0, max_side)
        p = rng.uniform(0.0, 1.0)
        _, d = tl.random_drawing(na, nb, p, seed=rng.randrange(1 << 60))
        if require_edges and not d.graph.edges:
            continue
        if max_edges is not None and len(d.graph.edges) > max_edges:
            continue
        out.append(d)
    return out


@pytest.fixture(scope="session")
def corpus_10k():
    """The acceptance corpus: 10^4 seeded random drawings with sides up to
    10, built once per session."""
    rng = random.Random(20260815)
    out = []
    for _ in range(10_000):
        na, nb = rng.randint(0, 10), rng.randint(0, 10)
        p = rng.uniform(0.0, 1.0)
        out.append(tl.random_drawing(na, nb, p, seed=rng.randrange(1 << 60))[1])
    return out


@pytest.fixture(scope="session")
def decomposed_10k(corpus_10k):
    return [(d,) + tl.decompose_drawing(d) for d in corpus_10k]


@st.composite
def drawings(draw, max_side: int = 5, max_edges: int | None = None):
    na = draw(st.integers(0, max_side))
    nb = draw(st.integers(0, max_side))
    a = tuple(f"a{i}" for i in range(na))
    b = tuple(f"b{j}" for j in range(nb))
    pairs = sorted(itertools.product(a, b))
    edges: tuple[tl.Edge, ...] = ()
    if pairs:
        cap = len(pairs) if max_edges is None else min(max_edges, len(pairs))
        edges = tuple(sorted(draw(st.sets(st.sampled_from(pairs), max_size=cap))))
    graph = tl.BipartiteGraph(a, b, edges)
    order_a = tuple(draw(st.permutations(a))) if a else ()
    order_b = tuple(draw(st.permutations(b))) if b else ()
    return tl.TwoLayerDrawing(graph, order_a, order_b)


@st.composite
def graphs(draw, max_side: int = 5):
    return draw(drawings(max_side=max_side)).graph


@st.composite
def caterpillar_graphs(draw):
    """A spine path with pendant leaves; single vertex when spine has length 1
    and no pendants."""
    spine_len = draw(st.integers(1, 6))
    spine = [f"s{i}" for i in range(spine_len)]
    edges = [(spine[i], spine[i + 1]) for i in range(spine_len - 1)]
    counts = draw(
        st.lists(st.integers(0, 3), min_size=spine_len, max_size=spine_len)
    )
    n = 0
    for s, c in zip(spine, counts):
        for _ in range(c):
            edges.append((s, f"p{n}"))
            n += 1
    if not edges:
        return tl.BipartiteGraph((spine[0],), (), ())
    return tl.bipartition_from_edges(tuple(edges))


@st.composite
def decompositions(draw, max_side: int = 4):
    """A graph together with a valid decomposition of it: an ordering's
    decomposition with random adjacent-bag merges (merging neighbours keeps
    all three validity conditions)."""
    graph = draw(graphs(max_side=max_side))
    if not graph.vertices:
        graph = tl.BipartiteGraph(("a0",), (), ())
    order = tuple(draw(st.permutations(graph.vertices)))
    pd = tl.order_to_decomposition(graph, order)
    bags = list(pd.bags)
    while len(bags) > 1 and draw(st.booleans()):
        i = draw(st.integers(0, len(bags) - 2))
        merged = tuple(sorted(set(bags[i]) | set(bags[i + 1])))
        bags[i : i + 2] = [merged]
    return graph, tl.PathDecomposition(tuple(bags))
