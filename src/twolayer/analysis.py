"""Crossing analytics for two-layer drawings.

Each edge reduces to the pair (posA, posB) of its endpoint ranks.  Under
componentwise <= these pairs form a dominance order whose comparable pairs
are exactly the non-crossing pairs, so pairwise-crossing sets are antichains
and non-crossing sets are chains.  Everything in this module is a
patience-sorting sweep over that order.
"""

from __future__ import annotations

import bisect
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import twolayer

from .errors import CapExceededError, GraphError
from .graphs import DEFAULT_PROFILE_CAP, DEFAULT_ST_EDGE_CAP, Edge, TwoLayerDrawing, _Frozen


def _coord_of(drawing: TwoLayerDrawing, e: Edge) -> tuple[int, int]:
    u, v = e
    if (u, v) not in drawing.graph.edge_set:
        if (v, u) in drawing.graph.edge_set:
            u, v = v, u
        else:
            raise GraphError(f"unknown edge {e!r}")
    return drawing.pos_a[u], drawing.pos_b[v]


def edges_cross(drawing: TwoLayerDrawing, e: Edge, f: Edge) -> bool:
    """True iff the straight segments of e and f properly cross.

    Combinatorially: the rank pairs are inverted between the rails.  Edges
    sharing an endpoint tie on that rail and therefore never cross.
    """
    ea, eb = _coord_of(drawing, e)
    fa, fb = _coord_of(drawing, f)
    return (ea - fa) * (eb - fb) < 0


def crossings_per_edge(drawing: TwoLayerDrawing) -> dict[Edge, int]:
    """Number of edges crossing each edge; values sum to twice the pair count.
    In (posA, posB) order, an edge is crossed by exactly the earlier edges
    with a higher posB and the later edges with a lower one."""
    return twolayer._witness.crossings_per_edge(drawing)


# ===================================================================
# witnesses
# ===================================================================

class CrossingWitness(_Frozen):
    """Concrete edge sets certifying a crossing pattern.

    kind "k": `edges` pairwise cross.  kind "st": every edge of `s_edges`
    crosses every edge of `t_edges`, and each set is a non-crossing matching.
    """

    _fields = ("kind", "edges", "s_edges", "t_edges")

    def __init__(
        self,
        kind: str,  # "k" | "st"
        edges: tuple[Edge, ...] = (),
        s_edges: tuple[Edge, ...] = (),
        t_edges: tuple[Edge, ...] = (),
    ) -> None:
        vars(self).update(kind=kind, edges=edges, s_edges=s_edges, t_edges=t_edges)

    def verify(self, drawing: TwoLayerDrawing) -> bool:
        """Re-validate the witness from raw coordinates; GraphError if it
        names a non-edge."""
        return twolayer._checks.verify(self, drawing)


def _rising_prefix(pairs: Sequence[tuple[int, int]]) -> int:
    """Length of the longest prefix of pairs that rises strictly in both
    coordinates; as rank pairs, a non-crossing matching in dominance order."""
    for i in range(1, len(pairs)):
        if pairs[i - 1][0] >= pairs[i][0] or pairs[i - 1][1] >= pairs[i][1]:
            return i
    return len(pairs)


def max_crossing_set(drawing: TwoLayerDrawing) -> tuple[int, CrossingWitness]:
    """Size and witness of a maximum set of pairwise crossing edges.

    With edges sorted by (posA, posB), a pairwise-crossing set is exactly a
    strictly decreasing subsequence in posB: the ascending posB tie order
    keeps edges that share an A-endpoint (equal posA) out of any strictly
    decreasing run.
    """
    coords = drawing._by_rank
    k, idx = twolayer._witness._lis_strict([-pb for _, pb, _ in coords])
    witness = CrossingWitness("k", edges=tuple(coords[i][2] for i in idx))
    return k, witness


# ===================================================================
# chain covers
# ===================================================================

class ChainCover(_Frozen):
    """Partition of the edges into non-crossing chains, plus an orientation.

    Each chain is listed in dominance order.  Every edge carries one arc
    (tail, head); within a chain each vertex has at most one outgoing arc,
    so total out-degree is at most the number of chains.
    """

    _fields = ("chains", "arcs")

    def __init__(
        self, chains: tuple[tuple[Edge, ...], ...], arcs: dict[Edge, tuple[str, str]]
    ) -> None:
        vars(self).update(chains=chains, arcs=arcs)

    @cached_property
    def out_map(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {}
        for tail, head in self.arcs.values():
            out.setdefault(tail, []).append(head)
        return {v: tuple(sorted(hs)) for v, hs in out.items()}

    def closed_out_neighborhood(self, v: str) -> tuple[str, ...]:
        return tuple(sorted({v, *self.out_map.get(v, ())}))


def min_chain_cover(drawing: TwoLayerDrawing) -> ChainCover:
    """Partition into as few non-crossing chains as a max crossing set forces.

    Patience-style greedy: each edge, in (posA, posB) order, lands on the
    pile whose top posB is the largest one <= its own, else opens a new
    pile.  Pile tops stay sorted, and the pile count matches the maximum
    antichain, so the cover is minimum.
    """
    return twolayer._cover.min_chain_cover(drawing)


# ===================================================================
# non-crossing matchings
# ===================================================================

def maximal_noncrossing_matching(drawing: TwoLayerDrawing) -> tuple[Edge, ...]:
    """Inclusion-maximal non-crossing matching, sorted by dominance.

    Greedy sweep in (posA, posB) order accepting any edge with fresh
    endpoints and posB above the last accepted one.  A rejected edge either
    shares a vertex with an accepted edge or crosses the most recent one, so
    nothing rejected can ever rejoin; the sweep result is maximal.

    The maximality check: an edge with both ends unmatched crosses no
    matching edge, and so could be added, iff both ends fall in the same gap
    between consecutive matching edges: two bisects per such edge.
    """
    return twolayer._cover.maximal_noncrossing_matching(drawing)


def crossed_runs(
    drawing: TwoLayerDrawing, matching: Sequence[Edge]
) -> dict[Edge, tuple[int, int]]:
    """For every edge, the 1-based run [lo, hi] of the matching edges it
    crosses, empty when lo > hi.

    The matching must rise strictly on both rails, which makes it a
    non-crossing matching; otherwise CertificateError.  Then e_i crosses an
    edge at ranks (a, b) iff a_i < a and b_i > b, or a_i > a and b_i < b:
    two index intervals of the rising rank lists, at most one non-empty.
    """
    return twolayer._cover.crossed_runs(drawing, matching)


def maximum_noncrossing_matching(drawing: TwoLayerDrawing) -> tuple[Edge, ...]:
    """Maximum-cardinality non-crossing matching.

    Equivalent to a longest strictly-increasing run in both coordinates:
    sort by (posA asc, posB desc) and take a strict LIS of posB.  The
    descending tie order blocks picking two edges off one A-vertex.
    """
    return twolayer._witness._rising_chain(drawing._by_rank)


# ===================================================================
# (s,t)-crossing search
# ===================================================================
#
# If (S, T) is an (s,t)-crossing then S and T occupy opposite closed
# quadrants of some split point (p, q): each f in T has all of S strictly on
# one side (otherwise two S-edges flank f and cross each other), and mixing
# sides across T would force two T-edges to cross.  Taking p as the largest
# posA in S and q as the largest posB in T separates them exactly.  So it
# suffices to scan all (p, q) splits and measure the largest strictly
# increasing matchings inside the two quadrants — any pair of such matchings
# from opposite quadrants crosses completely, pair by pair.
#
# Only ranks that carry an edge open a split: the quadrants of (p, q) hold
# the same edges as those of (p', q'), where p' (q') is the largest A-rank
# (B-rank) of an edge that is <= p (<= q), or 0, and rank 0 gives a = 0 or
# b = 0.  Along a row, a and b step only at B-ranks of edges, so the scan
# visits those steps, row by row, and its first split in row-major order
# that reaches a pair is also the first real one.  Both sides are patience
# sorting (Aldous & Diaconis 1999, "Longest increasing subsequences").
#
# Crossing edges share no endpoint, and S and T are matchings, so S and T
# together are a matching of s + t edges: no (s,t)-crossing exists unless
# each rail has s + t distinct vertices that carry an edge.

def _st_search_edges(
    drawing: TwoLayerDrawing, s_cap: int, t_cap: int, edge_cap: int
) -> tuple[Edge, ...]:
    """The drawing's edges, once s_cap, t_cap and edge_cap admit a search."""
    if s_cap < 1 or t_cap < 1:
        raise GraphError("s, t and their caps must be >= 1")
    edges = drawing.graph.edges
    if len(edges) > edge_cap:
        raise CapExceededError(f"{len(edges)} edges exceeds (s,t) search cap {edge_cap}")
    return edges


def _st_splits(
    drawing: TwoLayerDrawing, s_cap: int, t_cap: int, edge_cap: int
) -> dict[tuple[int, int], tuple[int, int, bool]]:
    """{capped (s,t) pair: first split (p, q, swapped) in row-major order
    that realizes it}, for every pair realized up to the split where
    (s_cap, t_cap) first appears.  With a and b the largest strictly
    increasing matchings in the quadrants posA <= p, posB > q and
    posA > p, posB <= q, a split realizes (min(a, s_cap), min(b, t_cap)),
    with S in the first quadrant, and swapped (min(b, s_cap), min(a, t_cap)),
    with S in the second, if a, b >= 1.

    The scan stops once (s_cap, t_cap) is in the map: that pair dominates
    every capped pair, and its first split is fixed, so neither the Pareto
    maximum nor the first split of a Pareto-maximal pair can change later.

    Row p visits only the q where a or b steps, at most cap = max(s_cap,
    t_cap) times each.  a >= j iff q < top_j, the largest first posB of a
    rising chain of j edges left of p; level j keeps a staircase of such
    chains, end posBs ascending beside the best first posB up to each end.
    One capped patience sweep over the edges right of p, by posB and then
    descending posA, gives the q where b reaches each j.  So a row costs
    O(cap) bisects on the a side and at worst one pass over the edges right
    of it on the b side.  The caps are separate because
    st_crossing_exists(s, t) caps each side at its own size."""
    edges = _st_search_edges(drawing, s_cap, t_cap, edge_cap)
    pa, pb = drawing.pos_a, drawing.pos_b
    cap, full = max(s_cap, t_cap), (s_cap, t_cap)
    # The edges by (posA, -posB), and those right of the row as one int each
    # by (posB, -posA).
    wa, wb = len(drawing.order_a) + 1, len(drawing.order_b) + 1
    rows = sorted(edges, key=lambda e: pa[e[0]] * wb - pb[e[1]])
    right = sorted(pb[v] * wa + wa - pa[u] for u, v in edges)
    # levels[j]: (ends, firsts) over chains of j + 1 edges, top_(j+1) last
    levels: list[tuple[list[int], list[int]]] = []
    splits: dict[tuple[int, int], tuple[int, int, bool]] = {}
    last_a = last_b = 0
    for i, (u, v) in enumerate(rows, 1):
        p, y = pa[u], pb[v]
        del right[bisect.bisect_left(right, y * wa + wa - p)]
        first = y  # first posB of the best chain of j + 1 edges ending here
        for j in range(cap):
            if j == len(levels):
                levels.append(([y], [first]))
                break  # no chain of the new level ends below y
            ends, firsts = levels[j]
            lo = bisect.bisect_left(ends, y)
            hi = lo + 1 if lo < len(ends) and ends[lo] == y else lo
            if not hi or firsts[hi - 1] < first:
                hi = bisect.bisect_right(firsts, first, hi)
                ends[lo:hi] = (y,)
                firsts[lo:hi] = (first,)
            if not lo:
                break
            first = firsts[lo - 1]
        if i < len(rows) and pa[rows[i][0]] == p:
            continue  # the row goes on
        top = levels[0][1][-1]
        limit = top * wa
        b_at: list[int] = []  # b_at[j - 1]: the q where b reaches j
        tails: list[int] = []
        for k in right:
            if k >= limit:
                break
            x = wa - k % wa
            d = bisect.bisect_left(tails, x)
            if d < len(tails):
                tails[d] = x
                continue
            b_at.append(k // wa)
            if d + 1 == cap:
                break
            tails.append(x)
        # The steps of a and b in increasing q, up to top_1.
        a, b = len(levels), 0
        steps = iter(b_at)
        qb = next(steps, top)
        while b_at:
            qa = levels[a - 1][1][-1]  # top_a
            q = qa if qa < qb else qb
            if qa == q:
                a -= 1
                if not a:
                    break
            if qb == q:
                b += 1
                qb = next(steps, top)
            if not b or (a == last_a and b == last_b):
                continue
            last_a, last_b = a, b
            st = (a if a < s_cap else s_cap, b if b < t_cap else t_cap)
            ts = (b if b < s_cap else s_cap, a if a < t_cap else t_cap)
            if st in splits and ts in splits:
                continue  # both pairs have their first split already
            splits.setdefault(st, (p, q, False))
            splits.setdefault(ts, (p, q, True))
            if full in splits:
                return splits
    return splits


def st_crossing_exists(
    drawing: TwoLayerDrawing,
    s: int,
    t: int,
    edge_cap: int = DEFAULT_ST_EDGE_CAP,
) -> CrossingWitness | None:
    """Witness for non-crossing matchings S, T (|S|=s, |T|=t) with every
    S-edge crossing every T-edge, or None if no such pair exists."""
    edges = _st_search_edges(drawing, s, t, edge_cap)
    if s + t > min(len({u for u, _ in edges}), len({v for _, v in edges})):
        return None  # S and T need s + t distinct endpoints on each rail
    split = _st_splits(drawing, s, t, edge_cap).get((s, t))
    return None if split is None else twolayer._witness._st_witness(drawing, split, s, t)


def _pareto_max(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The pairs no other pair dominates, ascending: walking down from the
    largest pair, a pair is kept iff its t beats every t seen so far."""
    front: list[tuple[int, int]] = []
    for s, t in sorted(pairs, reverse=True):
        if not front or t > front[-1][1]:
            front.append((s, t))
    return tuple(reversed(front))


def st_profile(
    drawing: TwoLayerDrawing,
    st_cap: int = DEFAULT_PROFILE_CAP,
    *,
    edge_cap: int = DEFAULT_ST_EDGE_CAP,
) -> tuple[tuple[int, int], ...]:
    """Pareto frontier of the achievable (s,t) pairs, both capped at st_cap.

    Monotone by construction: any pair dominated by a frontier point is
    achievable by taking subsets of the frontier witness.
    """
    return _pareto_max(_st_splits(drawing, st_cap, st_cap, edge_cap))


# ===================================================================
# counting bound
# ===================================================================

class CountingBoundReport(NamedTuple):
    """Result of checking |A| <= k*l*d under the four degree/crossing
    hypotheses.  Hypothesis failures are reported separately so a false
    `holds` is meaningful only when `hypotheses_ok`."""

    observed_a: int
    bound: int
    holds: bool
    hypothesis_failures: tuple[str, ...] = ()

    @property
    def hypotheses_ok(self) -> bool:
        return not self.hypothesis_failures


def check_counting_bound(
    drawing: TwoLayerDrawing, k: int, ell: int, d: int
) -> CountingBoundReport:
    """Check |A| <= k*ell*d for a drawing with no (k+1)-crossing, no
    non-crossing matching of size ell+1, A-degrees >= 1 and B-degrees <= d.

    All four hypotheses are verified, never assumed.
    """
    return twolayer._checks.check_counting_bound(drawing, k, ell, d)


# ===================================================================
# aggregate report
# ===================================================================

def analysis_report(
    drawing: TwoLayerDrawing,
    st_cap: int = DEFAULT_PROFILE_CAP,
    *,
    edge_cap: int = DEFAULT_ST_EDGE_CAP,
) -> dict:
    """JSON-ready summary: max crossing set, per-edge maximum, (s,t)
    frontier, and re-verifiable witnesses for each."""
    return twolayer._witness.analysis_report(drawing, st_cap, edge_cap)
