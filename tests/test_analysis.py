"""Crossing predicates, antichains/chains, matchings, (s,t) search, counting."""

import bisect
import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings

import twolayer as tl
from twolayer import BipartiteGraph, CapExceededError, GraphError, TwoLayerDrawing

from conftest import crossing_pairs, drawings, random_corpus
from oracles import _is_noncrossing_matching as oracle_noncrossing_matching
from oracles import (
    brute_max_crossing_set,
    full_st_splits,
    naive_st_crossing_exists,
    row_scan_st_splits,
)


def _drawing(edges, order_a, order_b):
    a = tuple(dict.fromkeys(u for u, _ in edges)) or tuple(order_a)
    b = tuple(dict.fromkeys(v for _, v in edges)) or tuple(order_b)
    g = BipartiteGraph(tuple(order_a), tuple(order_b), tuple(edges))
    return TwoLayerDrawing(g, tuple(order_a), tuple(order_b))


# ----------------------------------------------------------- edges_cross

def test_edges_cross_basic():
    d = _drawing([("a1", "b2"), ("a2", "b1")], ("a1", "a2"), ("b1", "b2"))
    assert tl.edges_cross(d, ("a1", "b2"), ("a2", "b1"))
    d2 = _drawing([("a1", "b1"), ("a2", "b2")], ("a1", "a2"), ("b1", "b2"))
    assert not tl.edges_cross(d2, ("a1", "b1"), ("a2", "b2"))


def test_edges_sharing_an_endpoint_never_cross():
    d = _drawing(
        [("a1", "b1"), ("a1", "b2"), ("a2", "b1")], ("a1", "a2"), ("b1", "b2")
    )
    assert not tl.edges_cross(d, ("a1", "b1"), ("a1", "b2"))
    assert not tl.edges_cross(d, ("a1", "b1"), ("a2", "b1"))


def test_edges_cross_accepts_either_orientation_and_rejects_unknown():
    d = _drawing([("a1", "b2"), ("a2", "b1")], ("a1", "a2"), ("b1", "b2"))
    assert tl.edges_cross(d, ("b2", "a1"), ("b1", "a2"))
    with pytest.raises(GraphError):
        tl.edges_cross(d, ("a1", "b1"), ("a2", "b1"))


def test_caterpillar_drawing_all_45_pairs_non_crossing():
    spine = [f"s{i}" for i in range(1, 6)]
    edges = [(spine[i], spine[i + 1]) for i in range(4)]
    for s, leaves in {
        "s1": ["p1"], "s2": ["p2", "p3"], "s3": ["p6"], "s4": ["p4"], "s5": ["p5"],
    }.items():
        edges.extend((s, p) for p in leaves)
    g = tl.bipartition_from_edges(tuple(edges))
    d = tl.caterpillar_layout(g)
    pairs = list(itertools.combinations(g.edges, 2))
    assert len(pairs) == 45
    assert all(not tl.edges_cross(d, e, f) for e, f in pairs)


def test_crossings_per_edge_fan():
    _, d = tl.star_fan_drawing(5)
    per = tl.crossings_per_edge(d)
    assert len(per) == 10
    assert max(per.values()) == 4
    assert per[("c", "s5")] == 4  # the steepest centre edge crosses every leg


def test_crossings_per_edge_equals_pairwise_count():
    """The one-pass count equals the pairwise count, values and key order:
    keys come in (posA, posB) order."""
    corpus = random_corpus(2000, seed=41)
    corpus.append(tl.star_fan_drawing(200)[1])
    corpus.append(tl.random_drawing(30, 30, 0.9, seed=43)[1])
    for d in corpus:
        ranked = sorted(d.graph.edges, key=lambda e: (d.pos_a[e[0]], d.pos_b[e[1]]))
        expected = dict.fromkeys(ranked, 0)
        for e, f in crossing_pairs(d):
            expected[e] += 1
            expected[f] += 1
        assert list(tl.crossings_per_edge(d).items()) == list(expected.items())


def test_rank_sweeps_sort_each_drawing_once(monkeypatch):
    """The sweeps share one cached (posA, posB, edge) order per drawing."""
    prop = TwoLayerDrawing.__dict__["_by_rank"]
    sorts = []
    original = prop.func
    monkeypatch.setattr(prop, "func", lambda d: sorts.append(d) or original(d))
    _, d = tl.random_drawing(12, 12, 0.3, 5)
    for sweep in (
        tl.min_chain_cover,
        tl.maximal_noncrossing_matching,
        tl.max_crossing_set,
        tl.maximum_noncrossing_matching,
        tl.crossings_per_edge,
    ):
        sweep(d)
    assert sorts == [d]
    pa, pb = d.pos_a, d.pos_b
    assert d._by_rank == tuple(sorted((pa[u], pb[v], (u, v)) for u, v in d.graph.edges))


# ---------------------------------------------------- max pairwise-crossing

def test_max_crossing_set_matches_brute_force():
    for d in random_corpus(50, seed=11, max_side=6, max_edges=12):
        k, witness = tl.max_crossing_set(d)
        assert k == brute_max_crossing_set(d)
        assert len(witness.edges) == k
        assert witness.verify(d)


def test_max_crossing_set_empty_drawing():
    d = _drawing([], (), ())
    k, witness = tl.max_crossing_set(d)
    assert k == 0 and witness.edges == ()


def test_brute_max_crossing_set_cap():
    _, d = tl.random_drawing(6, 6, 1.0, 1)
    with pytest.raises(CapExceededError):
        brute_max_crossing_set(d)


def test_witness_verify_rejects_tampering():
    d = _drawing(
        [("a1", "b1"), ("a2", "b2")], ("a1", "a2"), ("b1", "b2")
    )
    bogus = tl.CrossingWitness("k", edges=(("a1", "b1"), ("a2", "b2")))
    assert not bogus.verify(d)


def _oracle_verify(d, w) -> bool:
    """CrossingWitness.verify by checking every edge pair with edges_cross."""
    if w.kind == "k":
        return all(tl.edges_cross(d, e, f) for e, f in itertools.combinations(w.edges, 2))
    return (
        bool(w.s_edges and w.t_edges)
        and oracle_noncrossing_matching(d, w.s_edges)
        and oracle_noncrossing_matching(d, w.t_edges)
        and all(tl.edges_cross(d, e, f) for e in w.s_edges for f in w.t_edges)
    )


def test_witness_verify_matches_pairwise_oracle():
    """Random edge lists, with flipped orientations, repeated edges and
    shared endpoints, and reordered subsets of true witnesses of both kinds."""
    rng = random.Random(47)
    verdicts = {}
    for d in random_corpus(600, seed=53, require_edges=True):
        edges = d.graph.edges

        def mangle(chosen):
            chosen = list(chosen)
            if chosen and rng.random() < 0.2:
                chosen.append(rng.choice(chosen))
            rng.shuffle(chosen)
            return tuple(e[::-1] if rng.random() < 0.3 else e for e in chosen)

        def pick(most):
            return mangle(rng.choices(edges, k=rng.randint(0, most)))

        def part(side):
            return mangle(rng.sample(side, rng.randint(1, len(side))))

        _, kw = tl.max_crossing_set(d)
        witnesses = [
            tl.CrossingWitness("k", edges=pick(4)),
            tl.CrossingWitness("k", edges=part(kw.edges)),
            tl.CrossingWitness("st", s_edges=pick(3), t_edges=pick(3)),
        ]
        for s, t in tl.st_profile(d, 3):
            w = tl.st_crossing_exists(d, s, t)
            witnesses.append(
                tl.CrossingWitness("st", s_edges=part(w.s_edges), t_edges=part(w.t_edges))
            )
            witnesses.append(
                tl.CrossingWitness("st", s_edges=w.t_edges, t_edges=w.s_edges + pick(1))
            )
        for w in witnesses:
            verdict = w.verify(d)
            assert verdict == _oracle_verify(d, w), (w, tl.drawing_to_json(d))
            verdicts[w.kind, verdict] = verdicts.get((w.kind, verdict), 0) + 1
    assert min(verdicts.values()) > 400, verdicts


def test_witness_naming_a_non_edge_always_raises():
    """Whichever other defect the witness has, a non-edge raises GraphError
    (it used to return False when an earlier pair already failed)."""
    d = _drawing(
        [("a1", "b1"), ("a1", "b2"), ("a2", "b2")], ("a1", "a2"), ("b1", "b2")
    )
    non_edge = ("a2", "b1")
    for w in [
        tl.CrossingWitness("k", edges=(("a1", "b1"), ("a1", "b2"), non_edge)),
        tl.CrossingWitness("k", edges=(("a1", "b1"), ("a1", "b1"), non_edge)),
        tl.CrossingWitness("k", edges=(non_edge,)),
        tl.CrossingWitness("st", s_edges=(), t_edges=(non_edge,)),
        tl.CrossingWitness("st", s_edges=(("a1", "b1"), ("a1", "b2")), t_edges=(non_edge,)),
        tl.CrossingWitness("st", s_edges=(("a1", "b2"),), t_edges=(("a2", "b2"), non_edge)),
    ]:
        with pytest.raises(GraphError, match="unknown edge"):
            w.verify(d)


@given(drawings(max_side=5))
@settings(max_examples=60, deadline=None)
def test_max_crossing_witness_always_verifies(d):
    k, witness = tl.max_crossing_set(d)
    assert len(witness.edges) == k
    assert witness.verify(d)


# ------------------------------------------------------------ chain cover

def test_min_chain_cover_partitions_into_noncrossing_chains():
    for d in random_corpus(40, seed=13, max_side=7):
        cover = tl.min_chain_cover(d)
        flat = [e for chain in cover.chains for e in chain]
        assert sorted(flat) == sorted(d.graph.edges)
        for chain in cover.chains:
            assert all(
                not tl.edges_cross(d, e, f)
                for e, f in itertools.combinations(chain, 2)
            )


def test_min_chain_cover_size_is_dilworth_dual():
    for d in random_corpus(60, seed=17, max_side=6, max_edges=12):
        cover = tl.min_chain_cover(d)
        assert len(cover.chains) == brute_max_crossing_set(d)


def test_chain_orientation_bounds_out_neighbourhoods():
    for d in random_corpus(40, seed=19, max_side=7):
        cover = tl.min_chain_cover(d)
        k = len(cover.chains)
        per_chain_out: dict[tuple[str, int], int] = {}
        for edge, (tail, head) in cover.arcs.items():
            assert set(edge) == {tail, head}
            chain_idx = next(
                i for i, c in enumerate(cover.chains) if edge in c
            )
            key = (tail, chain_idx)
            per_chain_out[key] = per_chain_out.get(key, 0) + 1
            assert per_chain_out[key] <= 1  # one outgoing arc per chain
        for v in d.graph.vertices:
            assert len(cover.closed_out_neighborhood(v)) <= k + 1


def test_chain_cover_arcs_cover_every_edge():
    _, d = tl.random_drawing(6, 6, 0.6, 23)
    cover = tl.min_chain_cover(d)
    assert sorted(cover.arcs) == sorted(d.graph.edges)


# -------------------------------------------------------------- matchings

def test_maximal_matching_on_star_picks_single_edge():
    g = BipartiteGraph(
        ("c",), ("b1", "b2", "b3"), (("c", "b1"), ("c", "b2"), ("c", "b3"))
    )
    d = TwoLayerDrawing(g, ("c",), ("b2", "b1", "b3"))
    assert tl.maximal_noncrossing_matching(d) == (("c", "b2"),)


def _is_noncrossing_matching(d, edges):
    seen = set()
    for u, v in edges:
        if u in seen or v in seen:
            return False
        seen.update((u, v))
    return all(
        not tl.edges_cross(d, e, f) for e, f in itertools.combinations(edges, 2)
    )


def test_maximal_matching_cannot_be_extended():
    for d in random_corpus(50, seed=29, max_side=6):
        m = tl.maximal_noncrossing_matching(d)
        assert _is_noncrossing_matching(d, m)
        chosen = set(m)
        for e in d.graph.edges:
            if e in chosen:
                continue
            assert not _is_noncrossing_matching(d, m + (e,))


def test_maximal_matching_raises_when_the_sweep_misses_an_edge():
    """The maximality check is a raise, not an assert, so it also runs under
    `python -O`.  The sweep reads the drawing's cached rank order, so
    overriding that cache drops an edge from it."""
    g = BipartiteGraph(("a1", "a2"), ("b1", "b2"), (("a1", "b1"), ("a2", "b2")))
    d = TwoLayerDrawing(g, ("a1", "a2"), ("b1", "b2"))
    vars(d)["_by_rank"] = d._by_rank[:1]
    with pytest.raises(tl.CertificateError, match="sweep missed"):
        tl.maximal_noncrossing_matching(d)


def test_maximal_matching_check_finds_a_missed_edge_in_any_gap():
    """Dropping any one edge of a rising matching from the sweep leaves it
    addable in its gap, first, middle or last, and the check names it."""
    a, b = ("a1", "a2", "a3"), ("b1", "b2", "b3")
    g = BipartiteGraph(a, b, tuple(zip(a, b)))
    d = TwoLayerDrawing(g, a, b)
    full = d._by_rank
    for i, (_, _, missed) in enumerate(full):
        vars(d)["_by_rank"] = full[:i] + full[i + 1:]
        with pytest.raises(tl.CertificateError, match=re.escape(repr(missed))):
            tl.maximal_noncrossing_matching(d)


# ------------------------------------------------------ crossed matching runs

def brute_crossed_runs(d, matching) -> dict:
    """Reference: each edge's crossed matching indices (1-based), by checking
    every (edge, matching edge) pair with edges_cross."""
    return {
        e: [i for i, f in enumerate(matching, start=1) if tl.edges_cross(d, e, f)]
        for e in d.graph.edges
    }


def test_crossed_runs_match_brute_scan():
    rng = random.Random(89)
    kinds = {"maximal": 0, "maximum": 0, "subset": 0, "empty": 0}
    isolated = 0
    for n, d in enumerate(random_corpus(3000, seed=83, max_side=8)):
        kind = tuple(kinds)[n % 4]
        if kind == "maximal":
            matching = tl.maximal_noncrossing_matching(d)
        elif kind == "maximum":
            matching = tl.maximum_noncrossing_matching(d)
        elif kind == "subset":
            matching = tuple(
                e for e in tl.maximal_noncrossing_matching(d) if rng.random() < 0.5
            )
        else:
            matching = ()
        kinds[kind] += not matching
        isolated += any(d.graph.degree(v) == 0 for v in d.graph.vertices)
        runs = tl.crossed_runs(d, matching)
        brute = brute_crossed_runs(d, matching)
        assert list(runs) == list(d.graph.edges)
        for e, (lo, hi) in runs.items():
            assert list(range(lo, hi + 1)) == brute[e], (d, matching, e)
    # every kind produced some empty matchings, and isolated vertices occurred
    assert all(kinds.values()) and isolated > 100


def test_crossed_runs_rejects_matchings_that_do_not_rise():
    a, b = ("a1", "a2", "a3"), ("b1", "b2", "b3")
    d = TwoLayerDrawing(BipartiteGraph(a, b, tuple(itertools.product(a, b))), a, b)
    lo, hi = tl.crossed_runs(d, (("a1", "b1"), ("a3", "b3")))[("a2", "b2")]
    assert lo > hi
    assert tl.crossed_runs(d, (("a1", "b2"), ("a2", "b3")))[("a3", "b1")] == (1, 2)
    for bad in (
        (("a1", "b2"), ("a2", "b1")),  # crossing
        (("a1", "b1"), ("a1", "b2")),  # shared A endpoint
        (("a1", "b1"), ("a2", "b1")),  # shared B endpoint
        (("a2", "b2"), ("a1", "b1")),  # non-crossing but out of order
        (("a1", "zz"),),  # not an edge
        (("b1", "a1"),),  # not in the graph's (A, B) orientation
    ):
        with pytest.raises(tl.CertificateError):
            tl.crossed_runs(d, bad)


def _brute_max_noncrossing_matching(d) -> int:
    best = 0
    edges = d.graph.edges
    for r in range(len(edges), 0, -1):
        if r <= best:
            break
        for sub in itertools.combinations(edges, r):
            if _is_noncrossing_matching(d, sub):
                best = max(best, r)
                break
    return best


def test_maximum_matching_matches_brute_force():
    for d in random_corpus(40, seed=31, max_side=5, max_edges=10):
        m = tl.maximum_noncrossing_matching(d)
        assert _is_noncrossing_matching(d, m)
        assert len(m) == _brute_max_noncrossing_matching(d)


def test_maximum_at_least_maximal():
    for d in random_corpus(40, seed=37, max_side=7):
        assert len(tl.maximum_noncrossing_matching(d)) >= len(
            tl.maximal_noncrossing_matching(d)
        )


# ----------------------------------------------------------- (s,t) search

def _parallel_bundles():
    # three edges sloping right crossed by four sloping left
    a = tuple(f"a{i}" for i in range(1, 8))
    b = tuple(f"b{i}" for i in range(1, 8))
    s_edges = (("a1", "b5"), ("a2", "b6"), ("a3", "b7"))
    t_edges = (("a4", "b1"), ("a5", "b2"), ("a6", "b3"), ("a7", "b4"))
    g = BipartiteGraph(a, b, s_edges + t_edges)
    return TwoLayerDrawing(g, a, b), s_edges, t_edges


def test_two_bundles_give_exact_frontier():
    d, s_edges, t_edges = _parallel_bundles()
    w = tl.st_crossing_exists(d, 3, 4)
    assert w is not None and w.verify(d)
    assert len(w.s_edges) == 3 and len(w.t_edges) == 4
    assert tl.st_crossing_exists(d, 4, 4) is None
    assert tl.st_profile(d) == ((3, 4), (4, 3))
    # the two bundles themselves form a witness
    explicit = tl.CrossingWitness("st", s_edges=s_edges, t_edges=t_edges)
    assert explicit.verify(d)


def test_st_crossing_parameter_validation():
    d, _, _ = _parallel_bundles()
    with pytest.raises(GraphError):
        tl.st_crossing_exists(d, 0, 1)
    with pytest.raises(GraphError):
        tl.st_crossing_exists(d, 1, -2)
    with pytest.raises(CapExceededError):
        tl.st_crossing_exists(d, 1, 1, edge_cap=3)


def test_st_crossing_agrees_with_naive_search():
    for d in random_corpus(120, seed=41, max_side=5, max_edges=10):
        for s in range(1, 4):
            for t in range(1, 4):
                fast = tl.st_crossing_exists(d, s, t)
                assert (fast is not None) == naive_st_crossing_exists(d, s, t)
                if fast is not None:
                    assert fast.verify(d)
                    assert len(fast.s_edges) == s and len(fast.t_edges) == t


def test_st_profile_is_pareto_maximal_and_achievable():
    for d in random_corpus(60, seed=43, max_side=5, max_edges=10):
        profile = tl.st_profile(d, st_cap=4)
        for s, t in profile:
            assert naive_st_crossing_exists(d, s, t)
        for p, q in itertools.combinations(profile, 2):
            assert not (p[0] <= q[0] and p[1] <= q[1])
            assert not (q[0] <= p[0] and q[1] <= p[1])


def test_split_witness_raises_when_a_quadrant_is_too_small():
    """The quadrant size check is a raise, not an assert, so it also runs
    under `python -O`."""
    from twolayer import _witness

    d, _, _ = _parallel_bundles()
    with pytest.raises(tl.CertificateError, match="holds no"):
        _witness._st_witness(d, (0, 0, False), 1, 1)


def test_st_profile_respects_caps():
    """One cap bounds s and t; the edge cap after it is keyword-only, so a
    call with the former separate s and t caps fails instead of reading the
    second as an edge cap."""
    d, _, _ = _parallel_bundles()
    assert tl.st_profile(d, st_cap=2) == ((2, 2),)
    for call in (tl.st_profile, tl.analysis_report, tl.decompose_drawing):
        with pytest.raises(TypeError):
            call(d, 2, 2)


def test_st_profile_memory_is_linear_in_edges():
    """The split search holds no table over the splits.  On the 400-edge
    star fan, two tables over all 202 x 201 splits peak at about 1.7 KB per
    edge; the search's two edge orders and its at most 16 staircases peak
    at about 0.14 KB."""
    d = tl.star_fan_drawing(200)[1]
    m = len(d.graph.edges)
    d.pos_a, d.pos_b  # cached rank maps are the drawing's, not the scan's
    tl.st_profile  # so is the lazy import of the analysis module
    tracemalloc.start()
    try:
        frontier = tl.st_profile(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert frontier == ((1, 16), (16, 1))
    assert peak < 600 * m, peak


@given(drawings(max_side=4, max_edges=8))
@settings(max_examples=40, deadline=None)
def test_st_profile_points_exist_property(d):
    for s, t in tl.st_profile(d, st_cap=3):
        w = tl.st_crossing_exists(d, s, t)
        assert w is not None and w.verify(d)


# ------------------------------------------- (s,t) search: full-grid reference
#
# The split scan as it was before it ran over compressed ranks: tables over
# every rank 0..na x 0..nb, and the row-major witness loop over them.

def ref_quadrant_tables(d):
    """tl[p][q] / br[p][q]: max strictly-increasing matching size among edges
    with posA <= p, posB > q (resp. posA > p, posB <= q)."""
    na, nb = len(d.order_a), len(d.order_b)
    pa, pb = d.pos_a, d.pos_b
    pts = [(pa[u], pb[v]) for u, v in d.graph.edges]

    def table(points):
        buckets = [[] for _ in range(na + 1)]
        for x, y in points:
            buckets[x].append(y)
        for bucket in buckets:
            bucket.sort(reverse=True)
        t = [[0] * (nb + 1) for _ in range(na + 1)]
        for q in range(nb + 1):
            tails = []
            for p in range(1, na + 1):
                for y in buckets[p]:
                    if y <= q:
                        continue
                    i = bisect.bisect_left(tails, y)
                    if i == len(tails):
                        tails.append(y)
                    else:
                        tails[i] = y
                t[p][q] = len(tails)
        return t

    top = table(pts)
    mirrored = table([(na + 1 - x, nb + 1 - y) for x, y in pts])
    br = [[mirrored[na - p][nb - q] for q in range(nb + 1)] for p in range(na + 1)]
    return top, br


def ref_quadrant_chain(d, keep, size):
    from twolayer import _witness

    items = [(x, y, e) for x, y, e in d._by_rank if keep(x, y)]
    items.sort(key=lambda c: (c[0], -c[1]))
    _, idx = _witness._lis_strict([c[1] for c in items])
    assert len(idx) >= size
    return tuple(items[i][2] for i in idx[:size])


def ref_st_crossing_exists(d, tables, s, t):
    if len(d.graph.edges) < s + t:
        return None
    top, br = tables
    for p in range(len(top)):
        for q in range(len(top[0])):
            a, b = top[p][q], br[p][q]
            if a >= s and b >= t:
                s_set = ref_quadrant_chain(d, lambda x, y: x <= p and y > q, s)
                t_set = ref_quadrant_chain(d, lambda x, y: x > p and y <= q, t)
                return tl.CrossingWitness("st", s_edges=s_set, t_edges=t_set)
            if a >= t and b >= s:
                s_set = ref_quadrant_chain(d, lambda x, y: x > p and y <= q, s)
                t_set = ref_quadrant_chain(d, lambda x, y: x <= p and y > q, t)
                return tl.CrossingWitness("st", s_edges=s_set, t_edges=t_set)
    return None


def ref_st_profile(tables, s_cap, t_cap):
    pairs = set()
    for row_tl, row_br in zip(*tables):
        for a, b in zip(row_tl, row_br):
            if a >= 1 and b >= 1:
                pairs.add((min(a, s_cap), min(b, t_cap)))
                pairs.add((min(b, s_cap), min(a, t_cap)))
    return tuple(
        sorted(
            p for p in pairs
            if not any(q != p and q[0] >= p[0] and q[1] >= p[1] for q in pairs)
        )
    )


def ref_analysis_report(d, tables, s_cap, t_cap):
    k, kw = tl.max_crossing_set(d)
    frontier = ref_st_profile(tables, s_cap, t_cap)
    st = []
    for s, t in frontier:
        w = ref_st_crossing_exists(d, tables, s, t)
        st.append(
            {
                "s": s,
                "t": t,
                "S": [list(e) for e in w.s_edges],
                "T": [list(e) for e in w.t_edges],
            }
        )
    return {
        "k": k,
        "perEdgeMax": max(tl.crossings_per_edge(d).values(), default=0),
        "stFrontier": [[s, t] for s, t in frontier],
        "witnesses": {"maxCrossing": [list(e) for e in kw.edges], "st": st},
    }


def _long_rail_corpus(count, seed):
    """Random drawings whose rails are both longer than their edge count, so
    every drawing has ranks that carry no edge; the first one has no vertices."""
    rng = random.Random(seed)
    out = [TwoLayerDrawing(BipartiteGraph((), (), ()), (), ())]
    while len(out) < count:
        m = rng.randint(0, 8)
        a = [f"a{i}" for i in range(rng.randint(m + 1, m + 4))]
        b = [f"b{j}" for j in range(rng.randint(m + 1, m + 4))]
        edges = tuple(sorted(rng.sample(list(itertools.product(a, b)), m)))
        rng.shuffle(a)
        rng.shuffle(b)
        g = BipartiteGraph(tuple(sorted(a)), tuple(sorted(b)), edges)
        out.append(TwoLayerDrawing(g, tuple(a), tuple(b)))
    return out


def test_st_search_matches_full_grid_reference(monkeypatch):
    """st_profile, every st_crossing_exists(s, t) witness with s, t <= 4 and
    analysis_report equal the uncompressed scan's, edge for edge.  The star
    fans and the small caps make the caps cut piles short.  The public calls
    take one cap for both sides, so the split scan answers the asymmetric
    caps directly.  The dense drawings realize (4, 4), so at caps 1-4 the
    scan stops at its capped pair."""
    from twolayer import _witness, analysis

    edgeless = no_vertices = with_edges = 0
    fans = [tl.star_fan_drawing(n)[1] for n in range(1, 25)]
    dense = [
        tl.random_drawing(n, n, 0.7, seed)[1]
        for n, seed in ((11, 1), (11, 3), (12, 2), (14, 4))
    ]
    for d in _long_rail_corpus(2000, seed=97) + fans + dense:
        ranks = len(d.order_a) + len(d.order_b)
        carried = len({x for e in d.graph.edges for x in e})
        edgeless += not d.graph.edges
        no_vertices += not ranks
        with_edges += bool(d.graph.edges) and carried < ranks
        tables = ref_quadrant_tables(d)
        assert tl.st_profile(d) == ref_st_profile(tables, 16, 16), d
        assert tl.st_profile(d, st_cap=2) == ref_st_profile(tables, 2, 2), d
        for s in range(1, 5):
            for t in range(1, 5):
                got = tl.st_crossing_exists(d, s, t)
                assert got == ref_st_crossing_exists(d, tables, s, t), (d, s, t)
        for st_cap in (16, 3, 1):
            assert tl.analysis_report(d, st_cap) == ref_analysis_report(
                d, tables, st_cap, st_cap
            ), (d, st_cap)
        for s_cap, t_cap in ((2, 3), (3, 2), (1, 4), (4, 1), (4, 4)):
            splits = analysis._st_splits(d, s_cap, t_cap, analysis.DEFAULT_ST_EDGE_CAP)
            frontier = analysis._pareto_max(splits)
            assert frontier == ref_st_profile(tables, s_cap, t_cap), (d, s_cap, t_cap)
            for s, t in frontier:
                got = _witness._st_witness(d, splits[(s, t)], s, t)
                assert got == ref_st_crossing_exists(d, tables, s, t), (d, s, t)
    # drawings with edges and edgeless ranks, edgeless drawings and one
    # drawing without vertices all occur
    assert with_edges > 1500 and edgeless > 100 and no_vertices == 1
    assert all(tl.st_crossing_exists(d, 4, 4) is not None for d in dense)

    # A drawing with fewer than s + t edges has no (s,t) pattern and needs no
    # split scan, but s or t below 1 and an edge count above the cap still
    # raise first.
    def no_scan(*args):
        raise AssertionError("split scan run")

    monkeypatch.setattr(analysis, "_st_splits", no_scan)
    for d in _long_rail_corpus(200, seed=98):
        m = len(d.graph.edges)
        tables = ref_quadrant_tables(d)
        for s, t in ((1, m), (m, 1), (m + 1, 1), (2, m)):
            if 1 <= min(s, t) and m < s + t:
                assert tl.st_crossing_exists(d, s, t) is None
                assert ref_st_crossing_exists(d, tables, s, t) is None
        with pytest.raises(GraphError):
            tl.st_crossing_exists(d, 0, m + 1)
        with pytest.raises(GraphError):
            tl.st_crossing_exists(d, m + 1, -1)
        if m:
            with pytest.raises(CapExceededError):
                tl.st_crossing_exists(d, m, m, edge_cap=m - 1)

    # Nor does a drawing with s + t edges or more but fewer than s + t
    # vertices carrying an edge on one rail: S and T together are a matching.
    # The star fan has n such B-vertices, K_{2,n} two A-vertices and K_{n,2}
    # two B-vertices, each with 2n edges.
    short_rail = 0
    for n in range(1, 6):
        k2n = [(f"a{i}", f"b{j}") for i in range(2) for j in range(n)]
        kn2 = [(f"a{i}", f"b{j}") for i in range(n) for j in range(2)]
        for d in (
            tl.star_fan_drawing(n)[1],
            _drawing(k2n, ("a1", "a0"), [f"b{j}" for j in range(n)]),
            _drawing(kn2, [f"a{i}" for i in reversed(range(n))], ("b0", "b1")),
        ):
            m = len(d.graph.edges)
            a_ends, b_ends = ({e[i] for e in d.graph.edges} for i in (0, 1))
            ends = min(len(a_ends), len(b_ends))
            for s in range(1, m):
                for t in range(1, m - s + 1):
                    if s + t > ends:
                        short_rail += 1
                        assert tl.st_crossing_exists(d, s, t) is None, (d, s, t)
                        assert not naive_st_crossing_exists(d, s, t), (d, s, t)
                        with pytest.raises(GraphError):
                            tl.st_crossing_exists(d, 0, s + t)
                        with pytest.raises(CapExceededError):
                            tl.st_crossing_exists(d, s, t, edge_cap=m - 1)
    assert short_rail > 100


class _CountingBisect:
    """Stand-in for the bisect module that counts bisect_left and
    bisect_right calls."""

    def __init__(self):
        self.calls = 0

    def bisect_left(self, *args):
        self.calls += 1
        return bisect.bisect_left(*args)

    def bisect_right(self, *args):
        self.calls += 1
        return bisect.bisect_right(*args)


@pytest.mark.parametrize(
    "na, nb, p, seed, cap",
    [
        (160, 160, 0.032, 3, 16),
        (40, 40, 0.15, 1, 8),
        (30, 20, 0.3, 2, 6),
        (12, 12, 0.5, 4, 4),
        (8, 8, 0.6, 5, 3),
    ],
)
def test_st_splits_stop_at_the_capped_pair(monkeypatch, na, nb, p, seed, cap):
    """On drawings that realize the capped pair, the split scan stops there
    with fewer patience steps than the full scan, yet gives the capped pair
    the same first split and the map the same Pareto maximum.  The first
    drawing is a wide-bags benchmark input, where the pair appears in row
    29 of 160."""
    import oracles
    from twolayer import analysis

    _, d = tl.random_drawing(na, nb, p, seed)
    for s_cap, t_cap in ((cap, cap), (cap, 1), (1, cap), (cap, cap // 2)):
        fast_steps, full_steps = _CountingBisect(), _CountingBisect()
        monkeypatch.setattr(analysis, "bisect", fast_steps)
        monkeypatch.setattr(oracles, "bisect", full_steps)
        fast = analysis._st_splits(d, s_cap, t_cap, analysis.DEFAULT_ST_EDGE_CAP)
        full = full_st_splits(d, s_cap, t_cap, analysis.DEFAULT_ST_EDGE_CAP)
        monkeypatch.undo()
        assert fast[(s_cap, t_cap)] == full[(s_cap, t_cap)], (s_cap, t_cap)
        assert analysis._pareto_max(fast) == analysis._pareto_max(full)
        assert analysis._pareto_max(full) == ((s_cap, t_cap),)
        assert fast_steps.calls < full_steps.calls, (s_cap, t_cap)


def test_st_splits_match_the_row_scan():
    """The split search returns the row scan's map item for item: the same
    pairs, first splits and insertion order, and the same stop at the
    capped pair.  Small caps cut chains on both sides short, the star fans
    never reach their capped pair, and (41, 41) exceeds every chain of the
    40 x 40 drawings."""
    from twolayer import analysis

    caps = ((16, 16), (1, 1), (2, 3), (3, 2), (1, 4), (4, 4))
    cases = [(d, caps) for d in random_corpus(3000, seed=101, max_side=9)]
    cases += [(tl.star_fan_drawing(n)[1], caps) for n in range(1, 40)]
    rng = random.Random(103)
    cases += [
        (tl.random_drawing(40, 40, rng.uniform(0.02, 0.5), seed)[1], caps + ((41, 41),))
        for seed in range(20)
    ]
    stopped = 0
    for d, caps in cases:
        for s_cap, t_cap in caps:
            got = analysis._st_splits(d, s_cap, t_cap, analysis.DEFAULT_ST_EDGE_CAP)
            want = row_scan_st_splits(d, s_cap, t_cap, analysis.DEFAULT_ST_EDGE_CAP)
            assert list(got.items()) == list(want.items()), (d, s_cap, t_cap)
            stopped += (s_cap, t_cap) in got
    assert stopped > 3000


def test_st_search_work_per_edge_is_bounded(monkeypatch):
    """The 500-leg star fan never realizes (16, 16): its frontier is
    (1, 16), (16, 1).  So the split search for its profile runs to its last
    row, and so does the (3, 3) search: no (3, 3) witness exists, yet each
    rail has at least 6 vertices that carry an edge.  The row scan took 502.5 bisects per edge
    on the profile, a pass over every column and the centre's 500 edges in
    each of 501 rows; a row of the search costs O(cap) bisects."""
    from twolayer import analysis

    d = tl.star_fan_drawing(500)[1]
    edges = d.graph.edges
    m = len(edges)
    assert min(len({u for u, _ in edges}), len({v for _, v in edges})) >= 6
    for search, expected in (
        (lambda: tl.st_profile(d), ((1, 16), (16, 1))),
        (lambda: tl.st_crossing_exists(d, 3, 3), None),
    ):
        steps = _CountingBisect()
        monkeypatch.setattr(analysis, "bisect", steps)
        got = search()
        monkeypatch.undo()
        assert got == expected
        assert m < steps.calls < 50 * m, steps.calls


# ---------------------------------------------------------- counting bound

def test_counting_bound_tight_on_star():
    g = BipartiteGraph(
        ("x1", "x2", "x3"), ("c",), (("x1", "c"), ("x2", "c"), ("x3", "c"))
    )
    d = TwoLayerDrawing(g, ("x1", "x2", "x3"), ("c",))
    rep = tl.check_counting_bound(d, 1, 1, 3)
    assert rep.observed_a == 3 and rep.bound == 3
    assert rep.holds and rep.hypotheses_ok


def test_counting_bound_reports_hypothesis_failures():
    g = BipartiteGraph(
        ("x1", "x2", "x3"), ("c",), (("x1", "c"), ("x2", "c"), ("x3", "c"))
    )
    d = TwoLayerDrawing(g, ("x1", "x2", "x3"), ("c",))
    rep = tl.check_counting_bound(d, 1, 1, 2)
    assert not rep.hypotheses_ok
    assert any("degree 3 > 2" in msg for msg in rep.hypothesis_failures)
    with pytest.raises(GraphError):
        tl.check_counting_bound(d, 0, 1, 1)


def test_counting_bound_product():
    g = BipartiteGraph(
        ("x1", "x2", "x3"), ("c",), (("x1", "c"), ("x2", "c"), ("x3", "c"))
    )
    d = TwoLayerDrawing(g, ("x1", "x2", "x3"), ("c",))
    rep = tl.check_counting_bound(d, 2, 3, 5)
    assert rep.bound == 30 and rep.holds


def test_counting_bound_holds_on_measured_random_instances():
    checked = 0
    for d in random_corpus(80, seed=47, max_side=6, require_edges=True):
        d = tl.drop_isolated_a(d)
        k = tl.max_crossing_set(d)[0]
        ell = len(tl.maximum_noncrossing_matching(d))
        deg = max(d.graph.degree(v) for v in d.graph.b) if d.graph.b else 0
        if deg == 0:
            continue
        rep = tl.check_counting_bound(d, k, ell, deg)
        assert rep.hypotheses_ok and rep.holds
        checked += 1
    assert checked >= 60


# ---------------------------------------------------------------- report

def test_analysis_report_shape():
    _, d = tl.complete_binary_tree(3)
    rep = tl.analysis_report(d)
    assert set(rep) == {"k", "perEdgeMax", "stFrontier", "witnesses"}
    assert rep["k"] == 2
    assert rep["stFrontier"] == [[1, 3], [3, 1]]
    per = tl.crossings_per_edge(d)
    assert rep["perEdgeMax"] == max(per.values())
    assert len(rep["witnesses"]["maxCrossing"]) == 2
    assert {w["s"] for w in rep["witnesses"]["st"]} <= {1, 3}


def test_analysis_report_empty_drawing():
    g = BipartiteGraph((), (), ())
    rep = tl.analysis_report(TwoLayerDrawing(g, (), ()))
    assert rep["k"] == 0 and rep["stFrontier"] == []
