"""Chain covers and non-crossing matchings: the analysis that decompose runs
and analyze does not."""

import bisect
from collections import deque
from typing import Sequence

from .analysis import ChainCover, _rising_prefix
from .errors import CertificateError
from .graphs import Edge, TwoLayerDrawing


def min_chain_cover(drawing: TwoLayerDrawing) -> ChainCover:
    piles: list[list[Edge]] = []
    tops: list[int] = []
    for pa, pb, e in drawing._by_rank:
        c = bisect.bisect_right(tops, pb) - 1
        if c < 0:
            piles.insert(0, [e])
            tops.insert(0, pb)
        else:
            piles[c].append(e)
            tops[c] = pb
    chains = tuple(tuple(p) for p in piles)
    arcs: dict[Edge, tuple[str, str]] = {}
    for chain in chains:
        arcs.update(_orient_chain(drawing, chain))
    return ChainCover(chains, arcs)


def _orient_chain(
    drawing: TwoLayerDrawing, chain: Sequence[Edge]
) -> dict[Edge, tuple[str, str]]:
    """Orient a non-crossing chain with out-degree <= 1 at every vertex.

    Non-crossing edge sets are forests (one diagonal pair of any 4-cycle
    crosses in every drawing), so rooting each component and pointing every
    edge child -> parent does it.  The root is the endpoint of the
    component's dominance-least edge with the smaller rank, A side on ties.
    """
    adj: dict[str, list[tuple[str, Edge]]] = {}
    for u, v in chain:
        adj.setdefault(u, []).append((v, (u, v)))
        adj.setdefault(v, []).append((u, (u, v)))
    arcs: dict[Edge, tuple[str, str]] = {}
    visited: set[str] = set()
    for u, v in chain:  # chain order puts each component's least edge first
        if u in visited:
            continue
        root = u if drawing.pos_a[u] <= drawing.pos_b[v] else v
        visited.add(root)
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y, f in sorted(adj[x]):
                if y not in visited:
                    visited.add(y)
                    arcs[f] = (y, x)
                    queue.append(y)
    return arcs


def maximal_noncrossing_matching(drawing: TwoLayerDrawing) -> tuple[Edge, ...]:
    accepted: list[Edge] = []
    used: set[str] = set()
    last_pb = 0
    for pa, pb, e in drawing._by_rank:
        if e[0] in used or e[1] in used:
            continue
        if accepted and pb <= last_pb:
            continue
        accepted.append(e)
        used.update(e)
        last_pb = pb
    pos_a, pos_b = drawing.pos_a, drawing.pos_b
    a_ranks = [pos_a[u] for u, _ in accepted]
    b_ranks = [pos_b[v] for _, v in accepted]
    for u, v in drawing.graph.edges:
        if u in used or v in used:
            continue
        if bisect.bisect(a_ranks, pos_a[u]) == bisect.bisect(b_ranks, pos_b[v]):
            raise CertificateError(f"sweep missed the addable edge {(u, v)!r}")
    return tuple(accepted)


def crossed_runs(
    drawing: TwoLayerDrawing, matching: Sequence[Edge]
) -> dict[Edge, tuple[int, int]]:
    if not drawing.graph.edge_set.issuperset(matching):
        raise CertificateError("the matching holds a non-edge")
    pa, pb = drawing.pos_a, drawing.pos_b
    pairs = [(pa[u], pb[v]) for u, v in matching]
    i = _rising_prefix(pairs)
    if i < len(pairs):
        raise CertificateError(f"matching edge {i + 1} does not rise above edge {i}")
    a_ranks, b_ranks = [a for a, _ in pairs], [b for _, b in pairs]
    runs: dict[Edge, tuple[int, int]] = {}
    for u, v in drawing.graph.edges:
        a, b = pa[u], pb[v]
        lo, hi = bisect.bisect_right(b_ranks, b) + 1, bisect.bisect_left(a_ranks, a)
        if lo > hi:
            lo, hi = bisect.bisect_right(a_ranks, a) + 1, bisect.bisect_left(b_ranks, b)
        runs[(u, v)] = (lo, hi)
    return runs
