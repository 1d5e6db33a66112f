"""Brute-force oracles that the tests compare the library against.

Each one enumerates subsets or vertex orderings, so each refuses inputs
above a small cap with CapExceededError.
"""

from itertools import combinations, permutations

import twolayer as tl
from twolayer import CapExceededError, GraphError


def _is_noncrossing_matching(drawing: tl.TwoLayerDrawing, edges) -> bool:
    seen: set[str] = set()
    for u, v in edges:
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return not any(
        tl.edges_cross(drawing, e, f) for e, f in combinations(edges, 2)
    )


def brute_max_crossing_set(drawing: tl.TwoLayerDrawing, cap: int = 20) -> int:
    """Maximum pairwise-crossing subset size by subset enumeration."""
    pa, pb = drawing.pos_a, drawing.pos_b
    coords = sorted((pa[u], pb[v]) for u, v in drawing.graph.edges)
    m = len(coords)
    if m > cap:
        raise CapExceededError(f"{m} edges exceeds brute-force cap {cap}")
    masks = [0] * m
    for i, j in combinations(range(m), 2):
        if (coords[i][0] - coords[j][0]) * (coords[i][1] - coords[j][1]) < 0:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    best = 0
    ok = bytearray(1 << m)
    ok[0] = 1
    for s in range(1, 1 << m):
        low = s & -s
        rest = s ^ low
        if ok[rest] and masks[low.bit_length() - 1] & rest == rest:
            ok[s] = 1
            best = max(best, s.bit_count())
    return best


def naive_st_crossing_exists(
    drawing: tl.TwoLayerDrawing, s: int, t: int, cap: int = 10
) -> bool:
    """Subset-enumeration counterpart of tl.st_crossing_exists."""
    edges = drawing.graph.edges
    if len(edges) > cap:
        raise CapExceededError(f"{len(edges)} edges exceeds naive cap {cap}")
    for s_set in combinations(edges, s):
        if not _is_noncrossing_matching(drawing, s_set):
            continue
        rest = [e for e in edges if e not in s_set]
        for t_set in combinations(rest, t):
            if not _is_noncrossing_matching(drawing, t_set):
                continue
            if all(
                tl.edges_cross(drawing, e, f) for e in s_set for f in t_set
            ):
                return True
    return False


def brute_pathwidth(graph: tl.BipartiteGraph, cap: int = 8) -> int:
    """Minimum separation cost over every vertex ordering."""
    verts = graph.vertices
    if not verts:
        raise GraphError("pathwidth is undefined for the empty graph")
    if len(verts) > cap:
        raise CapExceededError(f"{len(verts)} vertices exceeds brute cap {cap}")
    best = len(verts)
    for perm in permutations(verts):
        worst = 0
        placed: set[str] = set()
        for v in perm:
            placed.add(v)
            b = sum(
                1
                for u in placed
                if any(w not in placed for w in graph.neighbors[u])
            )
            worst = max(worst, b)
            if worst >= best:
                break
        best = min(best, worst)
    return best
