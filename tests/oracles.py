"""Brute-force oracles that the tests compare the library against.

Those that enumerate subsets or vertex orderings refuse inputs above a
small cap with CapExceededError.  The rest are the library's former
exact-pathwidth DP and bucket search, order-to-bags conversion,
minimal-unachievable filter, (s,t) row scan (with and without its stop at
the capped pair), unique-introduction staging, the join-based SVG and
pd.json writers, and the set-based bag build and counting audit, kept as
references.
"""

import bisect
import json
from itertools import combinations, permutations

import twolayer as tl
from twolayer import CapExceededError, CertificateError, DecompositionError, GraphError
from twolayer.analysis import crossed_runs
from twolayer.render import (
    BOX_GAP, BOX_WIDTH, LINE_HEIGHT, MARGIN, RAIL_A_Y, RAIL_B_Y, X_STEP,
)


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


def dp_pathwidth(
    graph: tl.BipartiteGraph, cap: int = 16
) -> tuple[int, tuple[str, ...]]:
    """Exact pathwidth and order by the full subset DP over all 2^n sets:
    f(S) = min over v in S of max(f(S - v), boundary(S)).  The order removes,
    from S = V down, the lowest-index v attaining f(S)."""
    verts = graph.vertices
    n = len(verts)
    if n == 0:
        raise GraphError("pathwidth is undefined for the empty graph")
    if n > cap:
        raise CapExceededError(f"{n} vertices exceeds DP cap {cap}")
    index = {v: i for i, v in enumerate(verts)}
    nbr = [0] * n
    for u, v in graph.edges:
        nbr[index[u]] |= 1 << index[v]
        nbr[index[v]] |= 1 << index[u]
    full = (1 << n) - 1
    f = bytearray(1 << n)

    def boundary(s: int) -> int:
        comp = full ^ s
        count = 0
        t = s
        while t:
            low = t & -t
            if nbr[low.bit_length() - 1] & comp:
                count += 1
            t ^= low
        return count

    for s in range(1, 1 << n):
        b = boundary(s)
        best = n + 1
        t = s
        while t:
            low = t & -t
            prev = f[s ^ low]
            cost = prev if prev > b else b
            if cost < best:
                best = cost
            t ^= low
        f[s] = best

    order_rev: list[str] = []
    s = full
    while s:
        b = boundary(s)
        t = s
        while t:
            low = t & -t
            if max(f[s ^ low], b) == f[s]:
                break
            t ^= low
        else:
            raise CertificateError(f"no vertex attains the optimal separation {f[s]}")
        chosen = low.bit_length() - 1
        order_rev.append(verts[chosen])
        s ^= 1 << chosen
    return f[full], tuple(reversed(order_rev))


_UNSEEN = 255  # level of a set the search has not reached; above any width


def bucket_pathwidth(
    graph: tl.BipartiteGraph, cap: int = 20
) -> tuple[int, tuple[str, ...]]:
    """Exact pathwidth with an optimal vertex order, by the bucket search
    that `pathwidth_exact` ran before its bit-parallel search.

    Pathwidth equals the vertex separation number (Kinnersley 1992): the
    least, over vertex orders, of the largest boundary of a prefix, where
    boundary(S) counts the vertices of S with a neighbor outside S.  The cost
    f(S) of a prefix set is the least largest boundary over the chains
    {} < ... < S that add one vertex at a time, so f(S) = min over v in S of
    max(f(S - v), boundary(S)), and the pathwidth is f(V).

    An isolated vertex never joins a boundary, so f(S) = f(S & L), where L
    holds the live vertices (degree >= 1), and the search runs over L alone:
    its table has 2^|L| entries, while the cap still counts every vertex.
    A bottleneck search from {} finds f(S) for every S within L with
    f(S) <= f(L).  It expands sets in buckets of cost 0, 1, 2, ...; a set
    first reached from bucket w costs max(w, boundary), which is final since
    every cheaper set was expanded before.  Costs go into the table, from
    which each bucket is read back when its turn comes.  The search stops
    once the bucket holding L is exhausted, so every unreached set costs
    more than f(L).

    The order is rebuilt from V by removing, at each step, the lowest-index
    vertex v with f(S - v) <= f(S), the tie-break of the full 2^n subset DP,
    so the order equals the DP's, not merely another optimal one.  An
    isolated vertex always qualifies and removing it leaves S & L as it
    was, so the live removals follow from the table alone, and each step
    takes the lower-indexed of the next live removal and the lowest isolated
    vertex left.  The order converts to a decomposition of exactly this
    width.
    """
    verts = graph.vertices
    if not verts:
        raise GraphError("pathwidth is undefined for the empty graph")
    if len(verts) > cap:
        raise CapExceededError(f"{len(verts)} vertices exceeds pathwidth cap {cap}")
    nbrs = graph.neighbors
    live = [i for i, v in enumerate(verts) if nbrs[v]]
    index = {verts[i]: j for j, i in enumerate(live)}
    n = len(live)
    nbr = [0] * n
    for u, v in graph.edges:
        nbr[index[u]] |= 1 << index[v]
        nbr[index[v]] |= 1 << index[u]
    # (bit, neighborhood) of each neighbor, for the O(deg v) boundary update
    adj = [[(1 << j, nbr[j]) for j in range(n) if m >> j & 1] for m in nbr]
    full = (1 << n) - 1
    level = bytearray([_UNSEEN]) * (1 << n)
    level[0] = 0
    for w in range(n):
        # A set of cost w found from a cheaper bucket has boundary w and is
        # read back from the table.  One reached from this bucket goes on
        # the same stack, as `set | boundary << n`.
        mark = bytes((w,))
        stack: list[int] = []
        s = level.find(mark)
        while s >= 0:
            stack.append(s | w << n)
            s = level.find(mark, s + 1)
        while stack:
            x = stack.pop()
            s = x & full
            b = x >> n
            t = full ^ s
            while t:
                low = t & -t
                t ^= low
                u = s | low
                if level[u] != _UNSEEN:
                    continue
                out = full ^ u
                i = low.bit_length() - 1
                # v joins the boundary if it has a neighbor outside; a
                # neighbor in S leaves it once its last outside neighbor is v
                c = b + (nbr[i] & out != 0)
                for bit, nb in adj[i]:
                    if s & bit and not nb & out:
                        c -= 1
                if c > w:
                    level[u] = c
                else:
                    level[u] = w
                    stack.append(u | c << n)
        if level[full] <= w:
            break

    # isolated vertices by index, lowest last: each is removed before the
    # first live removal of a higher index
    isolated = [i for i in reversed(range(len(verts))) if not nbrs[verts[i]]]
    order_rev: list[str] = []
    s = full
    while s:
        cost = level[s]
        t = s
        while t:
            low = t & -t
            if level[s ^ low] <= cost:
                break
            t ^= low
        else:
            raise CertificateError(f"no vertex attains the optimal separation {cost}")
        i = live[low.bit_length() - 1]
        while isolated and isolated[-1] < i:
            order_rev.append(verts[isolated.pop()])
        order_rev.append(verts[i])
        s ^= low
    order_rev.extend(verts[i] for i in reversed(isolated))
    return level[full], tuple(reversed(order_rev))


def naive_order_to_decomposition(
    graph: tl.BipartiteGraph, order
) -> tl.PathDecomposition:
    """Bags of a vertex order, rescanning every placed vertex's neighbours
    at each step: the i-th bag holds v_i plus every earlier vertex that
    still has a neighbour outside the first i-1 vertices."""
    if sorted(order) != sorted(graph.vertices):
        raise GraphError("order is not a permutation of the vertex set")
    placed: set[str] = set()
    bags = []
    for v in order:
        bag = {
            u
            for u in placed
            if any(w not in placed for w in graph.neighbors[u])
        }
        bag.add(v)
        bags.append(tuple(sorted(bag)))
        placed.add(v)
    return tl.PathDecomposition(tuple(bags))


def naive_minimal_unachievable(frontier):
    """Counterpart of tl.minimal_unachievable: for each s up to one past the
    largest, the least t beyond every achievable pair with at least that s,
    then an all-pairs filter down to the componentwise-minimal candidates."""
    pts = set(frontier)
    if not pts:
        return ((1, 1),)
    smax = max(s for s, _ in pts)
    candidates = []
    for s in range(1, smax + 2):
        tmax = max((t for fs, t in pts if fs >= s), default=0)
        candidates.append((s, tmax + 1))
    return tuple(
        sorted(
            c
            for c in candidates
            if not any(
                d != c and d[0] <= c[0] and d[1] <= c[1] for d in candidates
            )
        )
    )


def row_scan_st_splits(
    drawing: tl.TwoLayerDrawing, s_cap: int, t_cap: int, edge_cap: int, stop: bool = True
) -> dict[tuple[int, int], tuple[int, int, bool]]:
    """analysis._st_splits as a scan of every row: {capped (s,t) pair: first
    split (p, q, swapped) in row-major order that realizes it}, up to the
    split where (s_cap, t_cap) first appears, or over all splits unless
    `stop`.

    Row p takes a for every q from one sweep down the columns, over the
    points left of p, and b from one sweep up them, over the points right
    of p.  A sweep adds one column's points in decreasing key order, so no
    chain holds two of them, and keeps no pile past the larger cap: such
    piles never affect earlier ones."""
    from twolayer import analysis

    edges = analysis._st_search_edges(drawing, s_cap, t_cap, edge_cap)
    pa, pb = drawing.pos_a, drawing.pos_b
    xs = sorted({0, *(pa[u] for u, _ in edges)})
    ys = sorted({0, *(pb[v] for _, v in edges)})
    # Column q's compressed A-ranks x: -x for the downward sweep, x for the
    # upward one, both in decreasing key order.
    down: list[list[int]] = [[] for _ in ys]
    for u, v in sorted(edges, key=lambda e: pa[e[0]]):
        down[bisect.bisect_left(ys, pb[v])].append(-bisect.bisect_left(xs, pa[u]))
    up = [[-k for k in reversed(col)] for col in down]
    cap, full = max(s_cap, t_cap), (s_cap, t_cap)
    splits: dict[tuple[int, int], tuple[int, int, bool]] = {}
    last_a = last_b = 0
    for p in range(1, len(xs)):
        a_row: list[int] = []  # a for q from the top column down to 0
        tails: list[int] = []
        for col in reversed(down):
            a_row.append(len(tails))
            for k in col:
                if k < -p:
                    break
                d = bisect.bisect_left(tails, k)
                if d < len(tails):
                    tails[d] = k
                elif d < cap:
                    tails.append(k)
        tails = []
        for q, col, a in zip(ys, up, reversed(a_row)):
            if not a:
                break  # a never grows along a row
            for x in col:
                if x <= p:
                    break
                d = bisect.bisect_left(tails, x)
                if d < len(tails):
                    tails[d] = x
                elif d < cap:
                    tails.append(x)
            b = len(tails)
            if not b or (a == last_a and b == last_b):
                continue  # a repeated split realizes nothing new
            last_a, last_b = a, b
            splits.setdefault((min(a, s_cap), min(b, t_cap)), (xs[p], q, False))
            splits.setdefault((min(b, s_cap), min(a, t_cap)), (xs[p], q, True))
            if stop and full in splits:
                return splits
    return splits


def full_st_splits(drawing: tl.TwoLayerDrawing, s_cap: int, t_cap: int, edge_cap: int):
    """analysis._st_splits without its stop at (s_cap, t_cap): the first
    split in row-major order of every capped pair the drawing realizes."""
    return row_scan_st_splits(drawing, s_cap, t_cap, edge_cap, stop=False)


def naive_normalize_unique_intro(pd: tl.PathDecomposition) -> tl.PathDecomposition:
    """Unique-introduction staging by per-bag set differences: a bag adding
    m >= 2 unseen vertices becomes m bags, each extending the carried-over
    part by one new vertex in id order.  A vertex that re-enters after
    skipping a bag is non-contiguous, and the error names the first such
    vertex in order of first appearance."""
    seen: set[str] = set()
    held: set[str] = set()
    out: list[tuple[str, ...]] = []
    for bag in pd.bags:
        last, held = held, set(bag)
        new = sorted(held - seen)
        if len(held - last) != len(new):
            where: dict[str, list[int]] = {}
            for i, b in enumerate(pd.bags):
                for v in b:
                    where.setdefault(v, []).append(i)
            v = next(v for v, idx in where.items()
                     if idx[-1] - idx[0] + 1 != len(idx))
            raise DecompositionError(
                f"vertex {v!r} occupies non-contiguous bags; cannot normalize"
            )
        if len(new) <= 1:
            out.append(bag)
        else:
            carried = [v for v in bag if v in seen]
            for stop in range(1, len(new) + 1):
                out.append(tuple(sorted(carried + new[:stop])))
        seen |= held
    return tl.PathDecomposition(tuple(out))


# -------------------------------------------------- join-based writers

def _join_svg(elements: list[str], min_x: int, min_y: int, width: int, height: int) -> str:
    header = (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{min_x} {min_y} {width} {height}">'
    )
    return "\n".join([header, *elements, "</svg>"]) + "\n"


def _join_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def join_render_drawing(drawing: tl.TwoLayerDrawing) -> str:
    """tl.render_drawing as one list of element strings, joined."""
    elements: list[str] = []
    pos = {}
    for v in drawing.order_a:
        pos[v] = (X_STEP * drawing.pos_a[v], RAIL_A_Y)
    for v in drawing.order_b:
        pos[v] = (X_STEP * drawing.pos_b[v], RAIL_B_Y)
    for u, v in drawing.graph.edges:
        (x1, y1), (x2, y2) = pos[u], pos[v]
        elements.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            'stroke="black" stroke-width="1"/>'
        )
    for v, (x, y) in pos.items():
        elements.append(
            f'<circle cx="{x}" cy="{y}" r="5" fill="white" stroke="black"/>'
        )
        ty = y - 10 if y == RAIL_A_Y else y + 18
        elements.append(
            f'<text x="{x}" y="{ty}" font-size="10" text-anchor="middle">'
            f"{_join_escape(v)}</text>"
        )
    n = max(len(drawing.order_a), len(drawing.order_b), 1)
    return _join_svg(
        elements,
        min_x=0,
        min_y=RAIL_A_Y - MARGIN,
        width=X_STEP * (n + 1),
        height=RAIL_B_Y - RAIL_A_Y + 2 * MARGIN,
    )


def join_render_decomposition(pd: tl.PathDecomposition) -> str:
    """tl.render_decomposition as one list of element strings, joined."""
    tallest = max((len(bag) for bag in pd.bags), default=0)
    box_h = LINE_HEIGHT * max(tallest, 1) + 24
    elements: list[str] = []
    for i, bag in enumerate(pd.bags):
        x = MARGIN + i * (BOX_WIDTH + BOX_GAP)
        elements.append(
            f'<rect x="{x}" y="{MARGIN}" width="{BOX_WIDTH}" height="{box_h}" '
            'fill="none" stroke="black"/>'
        )
        elements.append(
            f'<text x="{x + BOX_WIDTH // 2}" y="{MARGIN - 6}" font-size="10" '
            f'text-anchor="middle">{i + 1}</text>'
        )
        for j, v in enumerate(bag):
            ty = MARGIN + 16 + j * LINE_HEIGHT
            elements.append(
                f'<text x="{x + BOX_WIDTH // 2}" y="{ty}" font-size="10" '
                f'text-anchor="middle">{_join_escape(v)}</text>'
            )
    total_w = 2 * MARGIN + max(
        len(pd.bags) * (BOX_WIDTH + BOX_GAP) - BOX_GAP, BOX_WIDTH
    )
    return _join_svg(
        elements, min_x=0, min_y=0, width=total_w, height=box_h + 2 * MARGIN
    )


def dumps_decomposition_to_json(pd: tl.PathDecomposition) -> str:
    """tl.decomposition_to_json through json.dumps."""
    return json.dumps({"bags": [list(bag) for bag in pd.bags]}, indent=2)


def set_build_bags(drawing: tl.TwoLayerDrawing, matching, gaps, cover):
    """The construction's V_i sets and bag sequence built as sets, bag by
    bag.  Returns (the matching's crossed_runs, v_sets indexed 0..n+1 with
    empty sentinels, bags, tags)."""
    n = len(matching)
    k = len(cover.chains)
    nplus = cover.closed_out_neighborhood
    runs = crossed_runs(drawing, matching)
    v_sets: list[set[str]] = [set() for _ in range(n + 2)]
    for i, (x, y) in enumerate(matching, start=1):
        v_sets[i] = set(nplus(x)) | set(nplus(y))
        if len(v_sets[i]) > 2 * (k + 1):
            raise CertificateError(f"closed neighborhoods around edge {i} too big")
    for f, (_tail, head) in cover.arcs.items():
        if f not in runs:
            raise CertificateError(f"cover arc {f!r} is not an edge of the drawing")
        lo, hi = runs[f]
        for i in range(lo, hi + 1):
            v_sets[i].add(head)
    bags: list[tuple[str, ...]] = []
    tags: list[tuple] = []
    for i in range(n + 1):
        if i >= 1:
            bags.append(tuple(sorted(v_sets[i])))
            tags.append(("Vi", i))
        for j, v in enumerate(gaps[i], start=1):
            bag = v_sets[i] | v_sets[i + 1] | set(nplus(v))
            bags.append(tuple(sorted(bag)))
            tags.append(("Vij", i, j))
    return runs, v_sets, bags, tags


def set_audit_counting_bounds(drawing: tl.TwoLayerDrawing, cert) -> tl.AuditReport:
    """Counterpart of tl.audit_counting_bounds over set_build_bags: each P_i
    is a set of heads, each |V_i| and |V_(i,j)| the size of a built set."""
    n = len(cert.matching)
    if n == 0:
        return tl.AuditReport(cert.k, 0, cert.unachievable, (), vacuous=True)
    k = cert.k
    crossed, v_sets, bags, tags = set_build_bags(
        drawing, cert.matching, cert.gaps, cert.cover
    )
    violations: list[tl.AuditViolation] = []

    runs: list[tuple[str, int, int]] = []
    for f, (_tail, head) in cert.cover.arcs.items():
        lo, hi = crossed[f]
        if lo <= hi:
            runs.append((head, lo, hi))

    gap_index = {v: i for i, ys in enumerate(cert.gaps) for v in ys}
    yij: dict[tuple[int, int], set[str]] = {}
    for f, (tail, head) in cert.cover.arcs.items():
        i, j = gap_index.get(head), gap_index.get(tail)
        if i is not None and j is not None:
            yij.setdefault((i, j), set()).add(head)
    for (i, j), members in sorted(yij.items()):
        bound = 2 * k * k * abs(j - i)
        if len(members) > bound:
            violations.append(tl.AuditViolation("Yij", (i, j), len(members), bound))

    for s, t in cert.unachievable:
        p_bound = 4 * k * k * (t - 1)
        v_bound = 2 * (k + 1) + p_bound + 2 * k * k * (s - 1) ** 2 * (s - 2)
        for i in range(1, n + 1):
            windows = []
            if i - s + 1 >= 1:
                windows.append((i - s + 1, i))
            if i + s - 1 <= n:
                windows.append((i, i + s - 1))
            p_i = {
                head
                for head, lo, hi in runs
                if any(lo <= a and hi >= b for a, b in windows)
            }
            if len(p_i) > p_bound:
                violations.append(tl.AuditViolation("Pi", (i, s, t), len(p_i), p_bound))
            if len(v_sets[i]) > v_bound:
                violations.append(
                    tl.AuditViolation("Vi", (i, s, t), len(v_sets[i]), v_bound)
                )

    for bag, tag in zip(bags, tags):
        if tag[0] == "Vij":
            i = tag[1]
            bound = len(v_sets[i]) + len(v_sets[i + 1]) + (k + 1)
            if len(bag) > bound:
                violations.append(tl.AuditViolation("Vij", tag[1:], len(bag), bound))

    return tl.AuditReport(k, n, cert.unachievable, tuple(violations), vacuous=False)
