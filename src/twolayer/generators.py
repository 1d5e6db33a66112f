"""Graph families with their drawings (complete binary trees, grids and
subdivided stars), and connectivity and caterpillar recognition.

Random drawings, which every sweep uses, stay in graphs.py with the core
types.  This module is loaded only by ``gen`` and by callers that ask for
one of its names.
"""

from __future__ import annotations

from typing import Iterable

from .errors import CapExceededError, ConnectivityError, GraphError, NotCaterpillarError
from .graphs import (
    DEFAULT_GRID_SIDE_CAP,
    DEFAULT_STAR_CAP,
    DEFAULT_TREE_HEIGHT_CAP,
    BipartiteGraph,
    TwoLayerDrawing,
)


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
