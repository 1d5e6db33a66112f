"""Top-level acceptance checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one verdict line per
criterion.  Every check is deterministic: random sweeps use fixed seeds.
"""

import itertools
import random
import time

import networkx as nx
import pytest

import twolayer as tl

from oracles import brute_max_crossing_set


def _verdict(num, label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance {num:>2}] {label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"acceptance {num} failed: {label}{suffix}"


# ---------------------------------------------------------------- criteria

def test_acceptance_01_caterpillar_equivalence():
    # caterpillar <=> pathwidth <= 1 <=> some crossing-free drawing, over all
    # tree isomorphism classes on up to 10 vertices (exhaustive order search
    # for the drawing direction on up to 8 vertices)
    start = time.perf_counter()
    bad = 0
    checked = 0

    def crossing_free_exists(g):
        for oa in itertools.permutations(g.a):
            for ob in itertools.permutations(g.b):
                d = tl.TwoLayerDrawing(g, oa, ob)
                if all(
                    not tl.edges_cross(d, e, f)
                    for e, f in itertools.combinations(g.edges, 2)
                ):
                    return True
        return False

    trees = [tl.BipartiteGraph(("v0",), (), ())]
    for n in range(2, 11):
        for nxg in nx.nonisomorphic_trees(n):
            trees.append(
                tl.bipartition_from_edges(
                    tuple((f"v{u}", f"v{v}") for u, v in nxg.edges)
                )
            )
    for g in trees:
        checked += 1
        cat = tl.is_caterpillar(g)[0]
        narrow = tl.pathwidth_exact(g)[0] <= 1
        if cat != narrow:
            bad += 1
        if len(g.vertices) <= 8 and crossing_free_exists(g) != cat:
            bad += 1
        if cat:  # constructive direction holds at every size
            d = tl.caterpillar_layout(g)
            if any(
                tl.edges_cross(d, e, f)
                for e, f in itertools.combinations(g.edges, 2)
            ):
                bad += 1
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "caterpillar = pathwidth 1 = crossing-free, trees on <= 10 vertices",
        bad == 0 and checked == 201 and elapsed < 60,
        f"{checked} trees, {bad} discrepancies, {elapsed:.1f}s",
    )


def test_acceptance_02_decompose_always_valid(decomposed_10k):
    failures = sum(
        1
        for d, pd, _ in decomposed_10k
        if tl.validate_decomposition(d.graph, pd) != ()
    )
    _verdict(
        2,
        "decomposition valid on 10^4 random drawings",
        failures == 0,
        f"{len(decomposed_10k)} drawings, {failures} failures",
    )


def test_acceptance_03_width_bound_and_audits(decomposed_10k):
    failures = 0
    for d, pd, cert in decomposed_10k:
        if pd.bags:
            k = max(cert.k, 1)
            if any(
                pd.width > tl.width_bound(k, s, t) for s, t in cert.unachievable
            ):
                failures += 1
        if not tl.audit_counting_bounds(d, cert).ok:
            failures += 1
    _verdict(
        3,
        "width bound + counting-bound audits on the same corpus",
        failures == 0,
        f"{len(decomposed_10k)} drawings, {failures} failures",
    )


def test_acceptance_04_layout_crossing_budget():
    start = time.perf_counter()
    rng = random.Random(404)
    failures = 0
    done = 0
    while done < 1000:
        na = rng.randint(0, 10)
        nb = rng.randint(0, min(10, 14 - na))
        g, _ = tl.random_drawing(na, nb, rng.uniform(0.0, 1.0), rng.randrange(1 << 60))
        if not g.vertices:
            continue
        done += 1
        k, order = tl.pathwidth_exact(g)
        pd = tl.order_to_decomposition(g, order)
        _, cert = tl.layout_decomposition(g, pd)
        if not (cert.max_crossing_ok and cert.st_ok):
            failures += 1
    elapsed = time.perf_counter() - start
    _verdict(
        4,
        "layout of width-k decompositions: max crossing <= k+1, no (k+1,k+1) pattern",
        failures == 0 and elapsed < 600,
        f"1000 graphs, {failures} failures, {elapsed:.1f}s",
    )


def test_acceptance_05_named_family_numbers():
    ok = True
    # generated drawings max out at 2 pairwise-crossing edges once the family
    # is nondegenerate; tiny heights are exact too
    tree_values = {h: tl.max_crossing_set(tl.complete_binary_tree(h)[1])[0]
                   for h in range(0, 5)}
    grid_values = {h: tl.max_crossing_set(tl.grid_graph(h)[1])[0]
                   for h in range(1, 6)}
    ok &= tree_values == {0: 0, 1: 1, 2: 2, 3: 2, 4: 2}
    ok &= grid_values == {1: 0, 2: 2, 3: 2, 4: 2, 5: 2}
    ok &= tl.pathwidth_exact(tl.grid_graph(3)[0])[0] == 3
    ok &= tl.pathwidth_exact(tl.grid_graph(4)[0])[0] == 4
    ok &= all(
        tl.pathwidth_exact(tl.subdivided_star(n))[0] == 2 for n in range(3, 7)
    )
    _verdict(
        5,
        "published values: tree/grid crossing number 2, grid pathwidth h, star pathwidth 2",
        ok,
        f"tree={tree_values}, grid={grid_values}",
    )


def test_acceptance_06_subdivided_star_lower_bound():
    start = time.perf_counter()
    g = tl.subdivided_star(5)
    a_ids, b_ids = g.a, g.b
    edge_idx = [
        (a_ids.index(u), b_ids.index(v)) for u, v in g.edges
    ]
    m = len(edge_idx)
    bad = 0
    total = 0
    for pa in itertools.permutations(range(len(a_ids))):
        pos_a = [0] * len(a_ids)
        for r, i in enumerate(pa):
            pos_a[i] = r
        for pb in itertools.permutations(range(len(b_ids))):
            pos_b = [0] * len(b_ids)
            for r, j in enumerate(pb):
                pos_b[j] = r
            total += 1
            coords = [(pos_a[i], pos_b[j]) for i, j in edge_idx]
            found = False
            for x in range(m):
                xa, xb = coords[x]
                c = 0
                for y in range(m):
                    if y == x:
                        continue
                    ya, yb = coords[y]
                    if (xa - ya) * (xb - yb) < 0:
                        c += 1
                        if c >= 2:
                            found = True
                            break
                if found:
                    break
            if not found:
                bad += 1
    _, fan9 = tl.star_fan_drawing(9)
    fan_ok = max(tl.crossings_per_edge(fan9).values()) >= 4
    elapsed = time.perf_counter() - start
    _verdict(
        6,
        "every drawing of the 5-leg subdivided star has an edge with >= 2 crossings",
        bad == 0 and total == 86400 and fan_ok and elapsed < 120,
        f"{total} order pairs, {bad} counterexamples, {elapsed:.1f}s",
    )


def test_acceptance_07_chain_cover_duality():
    rng = random.Random(707)
    failures = 0
    done = 0
    while done < 1000:
        na, nb = rng.randint(0, 6), rng.randint(0, 6)
        _, d = tl.random_drawing(na, nb, rng.uniform(0.0, 0.8), rng.randrange(1 << 60))
        if len(d.graph.edges) > 12:
            continue
        done += 1
        if len(tl.min_chain_cover(d).chains) != brute_max_crossing_set(d):
            failures += 1
    _verdict(
        7,
        "minimum chain cover size equals brute-force maximum crossing set",
        failures == 0,
        f"1000 drawings, {failures} mismatches",
    )


def test_acceptance_08_counting_bound_instances():
    rng = random.Random(808)
    failures = 0
    done = 0
    while done < 1000:
        na, nb = rng.randint(1, 8), rng.randint(1, 8)
        _, d = tl.random_drawing(na, nb, rng.uniform(0.1, 1.0), rng.randrange(1 << 60))
        if not d.graph.edges:
            continue
        d = tl.drop_isolated_a(d)
        k = tl.max_crossing_set(d)[0]
        ell = len(tl.maximum_noncrossing_matching(d))
        deg = max(d.graph.degree(v) for v in d.graph.b)
        if deg == 0:
            continue
        rep = tl.check_counting_bound(d, k, ell, deg)
        if not rep.hypotheses_ok:
            continue
        done += 1
        if not rep.holds:
            failures += 1
    _verdict(
        8,
        "|A| <= k*l*d on hypothesis-verified instances",
        failures == 0,
        f"1000 instances, {failures} failures",
    )


def test_acceptance_09_per_edge_crossings_cap_pathwidth():
    rng = random.Random(909)
    failures = 0
    done = 0
    while done < 1000:
        na = rng.randint(1, 8)
        nb = rng.randint(0, min(8, 12 - na))
        _, d = tl.random_drawing(na, nb, rng.uniform(0.0, 1.0), rng.randrange(1 << 60))
        if not d.graph.edges:
            continue
        done += 1
        per = tl.crossings_per_edge(d)
        c = max(per.values())
        if tl.pathwidth_exact(d.graph)[0] > c + 1:
            failures += 1
    _verdict(
        9,
        "max per-edge crossings c bounds pathwidth by c+1 on drawings <= 12 vertices",
        failures == 0,
        f"1000 drawings, {failures} failures",
    )


def test_acceptance_10_width_bound_arithmetic():
    values = (
        tl.width_bound(1, 1, 1),
        tl.width_bound(2, 3, 4),
        tl.width_bound(1, 2, 1),
    )
    _verdict(
        10,
        "width bound formula arithmetic",
        values == (9, 174, 9),
        f"got {values}",
    )
