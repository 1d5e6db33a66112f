"""Bipartite graphs with two-layer drawings, plus the generator zoo.

A two-layer drawing places the A side on one horizontal rail and the B side
on another, each in a total order.  Everything downstream (crossing counts,
chain covers, decompositions) is computed from the two rank functions alone,
so this module only has to get the combinatorics of orders right; geometry
lives in render.py.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, TextIO

from .errors import (
    CapExceededError,
    ConnectivityError,
    GraphError,
    NotCaterpillarError,
)

Edge = tuple[str, str]

# Size caps.  All are per-call overridable; they exist to turn accidental
# blow-ups into loud errors rather than hangs.  The CLI's defaults are these,
# so its parser needs no other module.
DEFAULT_TREE_HEIGHT_CAP = 10
DEFAULT_GRID_SIDE_CAP = 10
DEFAULT_STAR_CAP = 10_000
DEFAULT_RANDOM_SIDE_CAP = 10_000
DEFAULT_ST_EDGE_CAP = 5_000  # analysis: edges in an (s,t) search
DEFAULT_PROFILE_CAP = 16  # analysis: s and t of the (s,t) profile
DEFAULT_PATHWIDTH_CAP = 20  # pathdecomp: vertices for exact pathwidth


# ===================================================================
# core types
# ===================================================================

@dataclass(frozen=True)
class BipartiteGraph:
    """An undirected bipartite graph with named sides A and B.

    Vertex ids are opaque strings, unique across both sides.  Edges are
    stored as (a_vertex, b_vertex) pairs; the constructor accepts either
    orientation and normalizes.  Instances are immutable after construction.
    """

    a: tuple[str, ...]
    b: tuple[str, ...]
    edges: tuple[Edge, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", tuple(self.b))
        a_set, b_set = set(self.a), set(self.b)
        if len(a_set) != len(self.a) or len(b_set) != len(self.b) or (a_set & b_set):
            raise GraphError("vertex ids must be unique across both sides")
        normalized = []
        seen = set()
        for edge in self.edges:
            u, v = edge
            if u in a_set and v in b_set:
                pair = (u, v)
            elif v in a_set and u in b_set:
                pair = (v, u)
            else:
                raise GraphError(f"edge {edge!r} does not join side A to side B")
            if pair in seen:
                raise GraphError(f"duplicate edge {pair!r}")
            seen.add(pair)
            normalized.append(pair)
        object.__setattr__(self, "edges", tuple(normalized))

    @cached_property
    def a_set(self) -> frozenset[str]:
        return frozenset(self.a)

    @cached_property
    def b_set(self) -> frozenset[str]:
        return frozenset(self.b)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.a + self.b

    def side(self, v: str) -> str:
        if v in self.a_set:
            return "A"
        if v in self.b_set:
            return "B"
        raise GraphError(f"unknown vertex {v!r}")

    @cached_property
    def neighbors(self) -> dict[str, tuple[str, ...]]:
        nbrs: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return {v: tuple(ns) for v, ns in nbrs.items()}

    def degree(self, v: str) -> int:
        if v not in self.neighbors:
            raise GraphError(f"unknown vertex {v!r}")
        return len(self.neighbors[v])


@dataclass(frozen=True)
class TwoLayerDrawing:
    """A bipartite graph with a total order on each side's rail.

    Ranks are 1-based.  Two independent edges cross exactly when their rank
    pairs are inverted between the rails; edges sharing an endpoint never
    cross.
    """

    graph: BipartiteGraph
    order_a: tuple[str, ...]
    order_b: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "order_a", tuple(self.order_a))
        object.__setattr__(self, "order_b", tuple(self.order_b))
        if sorted(self.order_a) != sorted(self.graph.a):
            raise GraphError("order_a is not a permutation of side A")
        if sorted(self.order_b) != sorted(self.graph.b):
            raise GraphError("order_b is not a permutation of side B")

    @cached_property
    def pos_a(self) -> dict[str, int]:
        return {v: i + 1 for i, v in enumerate(self.order_a)}

    @cached_property
    def pos_b(self) -> dict[str, int]:
        return {v: i + 1 for i, v in enumerate(self.order_b)}


# ===================================================================
# connectivity and caterpillar recognition
# ===================================================================

def connected_components(graph: BipartiteGraph) -> tuple[tuple[str, ...], ...]:
    """Vertex sets of the connected components, in first-seen order."""
    seen: set[str] = set()
    comps: list[tuple[str, ...]] = []
    for start in graph.vertices:
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in graph.neighbors[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def is_connected(graph: BipartiteGraph) -> bool:
    return len(connected_components(graph)) == 1


def is_caterpillar(graph: BipartiteGraph) -> tuple[bool, tuple[str, ...] | None]:
    """Decide whether a connected graph is a caterpillar.

    Returns (True, spine) where the spine is what remains after deleting all
    degree-1 vertices, walked in path order from its endpoint with the
    smaller id.  The remainder being a path already forces the graph to be a
    tree, because deleting degree-1 vertices cannot destroy a cycle.
    """
    if not graph.vertices:
        raise GraphError("empty graph has no caterpillar structure")
    if not is_connected(graph):
        raise ConnectivityError("connectivity required")
    if len(graph.vertices) == 1:
        return True, (graph.vertices[0],)  # degree 0: nothing gets deleted

    remainder = [v for v in graph.vertices if graph.degree(v) >= 2]
    if not remainder:
        return True, ()  # K2: both endpoints go
    rem_set = set(remainder)
    deg = {v: sum(1 for w in graph.neighbors[v] if w in rem_set) for v in remainder}
    if any(d > 2 for d in deg.values()):
        return False, None
    edge_count = sum(deg.values()) // 2
    if edge_count != len(remainder) - 1:
        return False, None

    if len(remainder) == 1:
        return True, (remainder[0],)
    ends = sorted(v for v in remainder if deg[v] == 1)
    spine = [ends[0]]
    prev = None
    while len(spine) < len(remainder):
        nxt = [w for w in graph.neighbors[spine[-1]] if w in rem_set and w != prev]
        if not nxt:
            return False, None  # remainder disconnected; cannot happen for connected input
        prev = spine[-1]
        spine.append(nxt[0])
    return True, tuple(spine)


def caterpillar_layout(graph: BipartiteGraph) -> TwoLayerDrawing:
    """Produce a crossing-free two-layer drawing of a connected caterpillar.

    Walks the spine left to right, emitting each spine vertex followed by its
    pendant leaves; each rail is ordered by that single walk.  Any two
    independent edges then have their endpoints in the same relative order on
    both rails, so no pair crosses.
    """
    _, spine = is_caterpillar(graph)
    if spine is None:
        raise NotCaterpillarError("not a caterpillar")
    if not spine:
        sequence = sorted(graph.vertices)  # K1 or K2
    else:
        spine_set = set(spine)
        sequence = []
        for p in spine:
            sequence.append(p)
            sequence.extend(sorted(w for w in graph.neighbors[p] if w not in spine_set))
    order_a = tuple(v for v in sequence if v in graph.a_set)
    order_b = tuple(v for v in sequence if v in graph.b_set)
    return TwoLayerDrawing(graph, order_a, order_b)


def bipartition_from_edges(
    edges: Iterable[tuple[str, str]],
    isolated: Iterable[str] = (),
) -> BipartiteGraph:
    """Build a BipartiteGraph from an edge list by 2-colouring.

    Each component's smallest vertex id is put on side A.  Raises GraphError
    if some component has an odd cycle.
    """
    edge_list = [tuple(e) for e in edges]
    adj: dict[str, list[str]] = {}
    for u, v in edge_list:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for v in isolated:
        adj.setdefault(v, [])
    colour: dict[str, int] = {}
    for root in sorted(adj):
        if root in colour:
            continue
        colour[root] = 0
        queue = [root]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w not in colour:
                    colour[w] = 1 - colour[v]
                    queue.append(w)
                elif colour[w] == colour[v]:
                    raise GraphError("graph is not bipartite")
    a = tuple(sorted(v for v, c in colour.items() if c == 0))
    b = tuple(sorted(v for v, c in colour.items() if c == 1))
    return BipartiteGraph(a, b, tuple(edge_list))


# ===================================================================
# generators
# ===================================================================

def complete_binary_tree(
    h: int, cap: int = DEFAULT_TREE_HEIGHT_CAP
) -> tuple[BipartiteGraph, TwoLayerDrawing]:
    """Complete binary tree of height h with its level-order drawing.

    Vertex ids are root "r" with children "r.0"/"r.1" and so on.  Side A
    holds the even depths.  Both rails list depths in increasing order and
    each depth in left-to-right (lexicographic) order.  Edges from
    even-depth parents form one non-crossing class and edges from odd-depth
    parents the other, so no three edges pairwise cross.
    """
    if h < 0:
        raise GraphError("height must be >= 0")
    if h > cap:
        raise CapExceededError(f"tree height {h} exceeds cap {cap}")
    levels: list[list[str]] = [["r"]]
    for _ in range(h):
        levels.append([p + "." + c for p in levels[-1] for c in "01"])
    a_ids = [v for d in range(0, h + 1, 2) for v in levels[d]]
    b_ids = [v for d in range(1, h + 1, 2) for v in levels[d]]
    edges = [(child[:-2], child) for d in range(1, h + 1) for child in levels[d]]
    graph = BipartiteGraph(tuple(a_ids), tuple(b_ids), tuple(edges))
    return graph, TwoLayerDrawing(graph, tuple(a_ids), tuple(b_ids))


def grid_graph(
    h: int, cap: int = DEFAULT_GRID_SIDE_CAP
) -> tuple[BipartiteGraph, TwoLayerDrawing]:
    """h-by-h grid with an anti-diagonal two-layer drawing.

    Cell (i, j) gets id "(i,j)" (1-based).  Side A holds cells with i+j
    even.  Each rail sorts its cells by (i+j, j): anti-diagonals become
    blocks, walked from the lower-left cell upward.  With that order the
    edges split by the parity of their endpoint nearer the origin into two
    non-crossing classes, so no three edges pairwise cross.
    """
    if h < 1:
        raise GraphError("grid side must be >= 1")
    if h > cap:
        raise CapExceededError(f"grid side {h} exceeds cap {cap}")
    cells = [(i, j) for i in range(1, h + 1) for j in range(1, h + 1)]
    name = lambda c: f"({c[0]},{c[1]})"
    diag_key = lambda c: (c[0] + c[1], c[1])
    a_ids = [name(c) for c in sorted(cells, key=diag_key) if (c[0] + c[1]) % 2 == 0]
    b_ids = [name(c) for c in sorted(cells, key=diag_key) if (c[0] + c[1]) % 2 == 1]
    edges = []
    for i, j in cells:
        if j < h:
            edges.append((name((i, j)), name((i, j + 1))))
        if i < h:
            edges.append((name((i, j)), name((i + 1, j))))
    graph = BipartiteGraph(tuple(a_ids), tuple(b_ids), tuple(edges))
    return graph, TwoLayerDrawing(graph, tuple(a_ids), tuple(b_ids))


def subdivided_star(n: int, cap: int = DEFAULT_STAR_CAP) -> BipartiteGraph:
    """Star with n legs, each edge subdivided once.

    Center "c" and leaves "l1".."ln" sit on side A; the subdivision vertices
    "s1".."sn" sit on side B.  No drawing is fixed here: the point of this
    family is what happens across all drawings.
    """
    if n < 1:
        raise GraphError("star needs at least one leg")
    if n > cap:
        raise CapExceededError(f"star legs {n} exceeds cap {cap}")
    a = ("c",) + tuple(f"l{i}" for i in range(1, n + 1))
    b = tuple(f"s{i}" for i in range(1, n + 1))
    edges = [("c", f"s{i}") for i in range(1, n + 1)]
    edges += [(f"l{i}", f"s{i}") for i in range(1, n + 1)]
    return BipartiteGraph(a, b, tuple(edges))


def star_fan_drawing(
    n: int, cap: int = DEFAULT_STAR_CAP
) -> tuple[BipartiteGraph, TwoLayerDrawing]:
    """Canonical fan drawing of the subdivided star: center leftmost,
    legs nested in parallel.  The center edge to s_i crosses the i-1 legs
    to its left, so the last center edge carries n-1 crossings."""
    graph = subdivided_star(n, cap)
    order_a = ("c",) + tuple(f"l{i}" for i in range(1, n + 1))
    order_b = tuple(f"s{i}" for i in range(1, n + 1))
    return graph, TwoLayerDrawing(graph, order_a, order_b)


def random_drawing(
    n_a: int,
    n_b: int,
    p: float,
    seed: int,
    cap: int = DEFAULT_RANDOM_SIDE_CAP,
) -> tuple[BipartiteGraph, TwoLayerDrawing]:
    """Seeded random bipartite graph with uniformly random rail orders.

    Every (a, b) pair becomes an edge independently with probability p.
    Identical seeds give bit-identical results; seeds must be ints so that
    reproducibility cannot be broken by hash randomization.
    """
    if not isinstance(seed, int):
        raise GraphError("seed must be an int")
    if n_a < 0 or n_b < 0:
        raise GraphError("side sizes must be >= 0")
    if max(n_a, n_b) > cap:
        raise CapExceededError(f"side size {max(n_a, n_b)} exceeds cap {cap}")
    if not 0.0 <= p <= 1.0:
        raise GraphError("edge probability must be in [0, 1]")
    rng = random.Random(seed)
    a = tuple(f"a{i}" for i in range(n_a))
    b = tuple(f"b{j}" for j in range(n_b))
    edges = tuple((u, v) for u in a for v in b if rng.random() < p)
    graph = BipartiteGraph(a, b, edges)
    order_a, order_b = list(a), list(b)
    rng.shuffle(order_a)
    rng.shuffle(order_b)
    return graph, TwoLayerDrawing(graph, tuple(order_a), tuple(order_b))


# ===================================================================
# JSON round trips
# ===================================================================

def graph_to_json(graph: BipartiteGraph) -> str:
    payload = {
        "a": list(graph.a),
        "b": list(graph.b),
        "edges": [list(e) for e in graph.edges],
    }
    return json.dumps(payload, indent=2)


def graph_from_json(text: str) -> BipartiteGraph:
    data = _load_object(text)
    try:
        a, b, edges = data["a"], data["b"], data["edges"]
    except KeyError as missing:
        raise GraphError(f"graph JSON missing key {missing}") from None
    return BipartiteGraph(
        tuple(_str_list(a, "a")),
        tuple(_str_list(b, "b")),
        tuple(_edge_list(edges)),
    )


def drawing_to_json(drawing: TwoLayerDrawing) -> str:
    payload = {
        "a": list(drawing.graph.a),
        "b": list(drawing.graph.b),
        "edges": [list(e) for e in drawing.graph.edges],
        "orderA": list(drawing.order_a),
        "orderB": list(drawing.order_b),
    }
    return json.dumps(payload, indent=2)


def drawing_from_json(text: str) -> TwoLayerDrawing:
    return _drawing_from_object(_load_object(text))


def _drawing_from_object(data: dict) -> TwoLayerDrawing:
    for key in ("a", "b", "edges", "orderA", "orderB"):
        if key not in data:
            raise GraphError(f"drawing JSON missing key '{key}'")
    graph = BipartiteGraph(
        tuple(_str_list(data["a"], "a")),
        tuple(_str_list(data["b"], "b")),
        tuple(_edge_list(data["edges"])),
    )
    return TwoLayerDrawing(
        graph,
        tuple(_str_list(data["orderA"], "orderA")),
        tuple(_str_list(data["orderB"], "orderB")),
    )


def _join_or_write(chunks: Iterable[str], out: TextIO | None) -> str | None:
    """The joined chunks, or None once they are written to ``out`` one by
    one, so that a writer need not hold its whole document."""
    if out is None:
        return "".join(chunks)
    out.writelines(chunks)
    return None


def _load_object(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise GraphError("expected a JSON object")
    return data


def _str_list(value: object, key: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise GraphError(f"'{key}' must be a list of strings")
    return value


def _edge_list(value: object) -> list[Edge]:
    if not isinstance(value, list):
        raise GraphError("'edges' must be a list of [idA, idB] pairs")
    out = []
    for item in value:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, str) for x in item)
        ):
            raise GraphError("'edges' must be a list of [idA, idB] pairs")
        out.append((item[0], item[1]))
    return out
