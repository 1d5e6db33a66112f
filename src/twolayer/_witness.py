"""Crossing witnesses and the analyze report: the analysis that analyze and
layout run and decompose does not."""

import bisect
from typing import Iterable, Sequence

from . import analysis
from .analysis import CrossingWitness
from .errors import CertificateError
from .graphs import Edge, TwoLayerDrawing


def crossings_per_edge(drawing: TwoLayerDrawing) -> dict[Edge, int]:
    coords = drawing._by_rank
    all_b = sorted(pb for _, pb, _ in coords)
    seen: list[int] = []  # posB of the earlier edges, sorted
    counts: dict[Edge, int] = {}
    for i, (_, pb, e) in enumerate(coords):
        earlier_above = i - bisect.bisect_right(seen, pb)
        later_below = bisect.bisect_left(all_b, pb) - bisect.bisect_left(seen, pb)
        counts[e] = earlier_above + later_below
        bisect.insort(seen, pb)
    return counts


def _lis_strict(values: Sequence[int]) -> tuple[int, list[int]]:
    """Longest strictly increasing subsequence; returns (length, indices)."""
    tails: list[int] = []      # tails[d]: smallest last value over subseqs of length d+1
    tails_idx: list[int] = []
    parent = [-1] * len(values)
    for i, v in enumerate(values):
        d = bisect.bisect_left(tails, v)
        if d == len(tails):
            tails.append(v)
            tails_idx.append(i)
        else:
            tails[d] = v
            tails_idx[d] = i
        if d > 0:
            parent[i] = tails_idx[d - 1]
    if not tails:
        return 0, []
    chain = []
    i = tails_idx[-1]
    while i != -1:
        chain.append(i)
        i = parent[i]
    chain.reverse()
    return len(tails), chain


def _rising_chain(items: Iterable[tuple[int, int, Edge]]) -> tuple[Edge, ...]:
    """Edges of a longest strictly rising run of (posA, posB, edge) items."""
    ordered = sorted(items, key=lambda c: (c[0], -c[1]))
    _, idx = _lis_strict([c[1] for c in ordered])
    return tuple(ordered[i][2] for i in idx)


def _st_witness(
    drawing: TwoLayerDrawing, split: tuple[int, int, bool], s: int, t: int
) -> CrossingWitness:
    """S and T from the two quadrants of a split; S comes from the quadrant
    posA <= p, posB > q unless the split is swapped."""
    p, q, swapped = split
    coords = drawing._by_rank
    upper = _rising_chain(c for c in coords if c[0] <= p and c[1] > q)
    lower = _rising_chain(c for c in coords if c[0] > p and c[1] <= q)
    s_side, t_side = (lower, upper) if swapped else (upper, lower)
    if len(s_side) < s or len(t_side) < t:
        raise CertificateError(f"split {split} holds no ({s},{t})-crossing")
    return CrossingWitness("st", s_edges=s_side[:s], t_edges=t_side[:t])


def analysis_report(drawing: TwoLayerDrawing, st_cap: int, edge_cap: int) -> dict:
    k, kw = analysis.max_crossing_set(drawing)
    per_edge = analysis.crossings_per_edge(drawing)
    splits = analysis._st_splits(drawing, st_cap, st_cap, edge_cap)
    frontier = analysis._pareto_max(splits)
    st_witnesses = []
    for s, t in frontier:
        # A frontier point is Pareto-maximal, so its first split here is the
        # first one with a, b >= s, t (or swapped): st_crossing_exists's.
        w = _st_witness(drawing, splits[(s, t)], s, t)
        st_witnesses.append(
            {
                "s": s,
                "t": t,
                "S": [list(e) for e in w.s_edges],
                "T": [list(e) for e in w.t_edges],
            }
        )
    return {
        "k": k,
        "perEdgeMax": max(per_edge.values(), default=0),
        "stFrontier": [[s, t] for s, t in frontier],
        "witnesses": {
            "maxCrossing": [list(e) for e in kw.edges],
            "st": st_witnesses,
        },
    }
