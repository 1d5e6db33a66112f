"""Build a certified path decomposition from any two-layer drawing.

The construction: cover the edges by k non-crossing chains (k = maximum
crossing set size), orient them with out-degree <= 1, fix a maximal
non-crossing matching e_1 < ... < e_n, and classify every unmatched vertex
into the gap Y_i between consecutive matching edges.  Bags are then closed
out-neighborhoods around matching edges (V_i) and around gap vertices
(V_{i,j}), emitted left to right.  Validity never depends on how tangled the
drawing is; the crossing structure only controls the width, which the
certificate bounds by width_bound(k, s, t) for every (s,t) pattern the
drawing avoids.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

import twolayer

from .analysis import (
    ChainCover,
    DEFAULT_PROFILE_CAP,
    DEFAULT_ST_EDGE_CAP,
    _pareto_max,
    crossed_runs,
    maximal_noncrossing_matching,
    min_chain_cover,
    st_profile,
)
from .errors import CertificateError, GraphError
from .graphs import Edge, TwoLayerDrawing, _dumps, _Frozen
from .pathdecomp import PathDecomposition, Violation, validate_decomposition

BagTag = tuple  # ("Vi", i) or ("Vij", i, j), all indices 1-based except gap 0


def width_bound(k: int, s: int, t: int) -> int:
    """Guaranteed width when the drawing has no (k+1)-crossing and no
    (s,t)-crossing: 8k^2(t-1) + 4k^2(s-1)^2(s-2) + 5k + 4."""
    if k < 1 or s < 1 or t < 1:
        raise GraphError("k, s, t must be >= 1")
    return 8 * k * k * (t - 1) + 4 * k * k * (s - 1) ** 2 * (s - 2) + 5 * k + 4


def minimal_unachievable(
    frontier: Iterable[tuple[int, int]]
) -> tuple[tuple[int, int], ...]:
    """Componentwise-minimal (s,t) pairs just beyond a frontier of achievable
    pairs: the inner corners of its staircase, from (1, t_1 + 1) through
    (s_i + 1, t_{i+1} + 1) to (s_last + 1, 1).  An empty frontier (no
    crossing at all) yields (1,1)."""
    front = _pareto_max(frontier)
    s_side = [0] + [s for s, _ in front]
    t_side = [t for _, t in front] + [0]
    return tuple((s + 1, t + 1) for s, t in zip(s_side, t_side))


class DecompositionCertificate(_Frozen):
    """Everything needed to rebuild and bound the emitted decomposition:
    the chain cover (with orientation), the matching, the gap classes, the
    per-bag provenance, and the measured (s,t) frontier with the width bound
    claimed at its minimal unachievable points."""

    _fields = (
        "k", "matching", "gaps", "cover", "per_bag", "frontier", "unachievable",
        "frontier_exact", "width_bound", "st_cap",
    )

    def __init__(
        self,
        k: int,
        matching: tuple[Edge, ...],
        gaps: tuple[tuple[str, ...], ...],
        cover: ChainCover,
        per_bag: tuple[BagTag, ...],
        frontier: tuple[tuple[int, int], ...],
        unachievable: tuple[tuple[int, int], ...],
        frontier_exact: bool,
        width_bound: int,
        st_cap: int,
    ) -> None:
        vars(self).update(
            k=k,
            matching=matching,
            gaps=gaps,
            cover=cover,
            per_bag=per_bag,
            frontier=frontier,
            unachievable=unachievable,
            frontier_exact=frontier_exact,
            width_bound=width_bound,
            st_cap=st_cap,
        )


def _gap_classes(
    drawing: TwoLayerDrawing, matching: Sequence[Edge]
) -> tuple[tuple[str, ...], ...]:
    """Y_0..Y_n: unmatched vertices strictly between consecutive matching
    edges on their own rail, each class listing A then B by ascending rank:
    as the matching rises, a vertex's gap counts the matched ones before it."""
    matched = {v for e in matching for v in e}
    gaps: list[list[str]] = [[] for _ in range(len(matching) + 1)]
    for rail in (drawing.order_a, drawing.order_b):
        i = 0
        for v in rail:
            if v in matched:
                i += 1
            else:
                gaps[i].append(v)
    return tuple(map(tuple, gaps))


def _spans(
    drawing: TwoLayerDrawing,
    matching: Sequence[Edge],
    gaps: Sequence[Sequence[str]],
    cover: ChainCover,
) -> tuple[dict[Edge, tuple[int, int]], list[int], PathDecomposition, list[BagTag]]:
    """The construction's bags from certificate parts, one bag interval per
    vertex: (the matching's crossed_runs, at, decomposition, tags).  Bag
    at[i] is V_i, bag at[i] + j is V_(i,j), and at[n+1] is one past the last.
    V_(i-1,j) and V_(i,j) contain V_i, so V_a..V_b span bags at[a-1]+1 ..
    at[b+1]-1.  N+(x) shares the own block of x (V_i's for x on e_i, V_(i,j)'s
    for x = y_(i,j)), and the head of an arc crossing e_lo..e_hi is in V_lo
    .. V_hi.  Gap classes that miss or repeat a vertex, or bags of a vertex
    that are not contiguous, raise CertificateError."""
    k = len(cover.chains)
    nplus = cover.closed_out_neighborhood
    runs = crossed_runs(drawing, matching)
    at = [0, *accumulate(len(ys) + 1 for ys in gaps)]
    own: dict[str, tuple[int, int]] = {}
    for i, (x, y) in enumerate(matching, start=1):
        if len({*nplus(x), *nplus(y)}) > 2 * (k + 1):
            raise CertificateError(f"closed neighborhoods around edge {i} too big")
        own[x] = own[y] = (at[i - 1] + 1, at[i + 1] - 1)
    tags: list[BagTag] = []
    for i, ys in enumerate(gaps):
        if i:
            tags.append(("Vi", i))
        for j, y in enumerate(ys, start=1):
            tags.append(("Vij", i, j))
            own[y] = (at[i] + j, at[i] + j)
    # 2n matched vertices and one per gap bag, each met once
    if len(own) != len(matching) + at[-1] - 1 or own.keys() != set(drawing.graph.vertices):
        raise CertificateError("gap classes must partition the unmatched vertices")
    blocks = [(lo, v, hi) for v, (lo, hi) in own.items()]
    for f, (tail, head) in cover.arcs.items():
        if f not in runs or f != (tail, head) and f != (head, tail):
            raise CertificateError(f"cover arc {f!r} is not an edge of the drawing")
        lo, hi = own[tail]
        blocks.append((lo, head, hi))
        lo, hi = runs[f]
        if lo <= hi:
            blocks.append((at[lo - 1] + 1, head, at[hi + 1] - 1))
    # In (lo, id) order each vertex first shows at its own lo, and its bags
    # stay contiguous while each block starts at most one past its reach.
    blocks.sort()
    span: dict[str, tuple[int, int]] = {}
    for a, v, b in blocks:
        lo, hi = span.get(v, (a, b))
        if a > hi + 1:
            top = max(b for _, u, b in blocks if u == v)
            hole = Violation("contiguity", vertex=v, indices=(lo, hi + 1, top)).describe()
            raise CertificateError(f"construction produced an invalid decomposition: {hole}")
        span[v] = (lo, b if b > hi else hi)
    return runs, at, PathDecomposition._from_intervals(span, at[-1] - 1), tags


def decompose_drawing(
    drawing: TwoLayerDrawing,
    st_cap: int = DEFAULT_PROFILE_CAP,
    *,
    edge_cap: int = DEFAULT_ST_EDGE_CAP,
) -> tuple[PathDecomposition, DecompositionCertificate]:
    """Decompose any drawing; the result always validates.

    The certificate's width_bound is the tightest width_bound(max(k,1), s, t)
    over the minimal (s,t) pairs the drawing does not realize; it is a true
    bound on the returned width whenever frontier_exact holds (st_cap at
    least the smaller side size).
    """
    cover = min_chain_cover(drawing)
    k = len(cover.chains)
    matching = maximal_noncrossing_matching(drawing)
    gaps = _gap_classes(drawing, matching)

    gap_index = {v: i for i, ys in enumerate(gaps) for v in ys}
    for u, v in drawing.graph.edges:
        iu = gap_index.get(u)
        if iu is not None and iu == gap_index.get(v):
            raise CertificateError(f"edge {u, v} inside gap class {iu}")

    _, _, pd, tags = _spans(drawing, matching, gaps, cover)
    if violations := validate_decomposition(drawing.graph, pd):
        problems = "; ".join(v.describe() for v in violations)
        raise CertificateError(f"construction produced an invalid decomposition: {problems}")

    frontier = st_profile(drawing, st_cap, edge_cap=edge_cap)
    unachievable = minimal_unachievable(frontier)
    frontier_exact = min(len(drawing.order_a), len(drawing.order_b)) <= st_cap
    bound = min(width_bound(max(k, 1), s, t) for s, t in unachievable)
    cert = DecompositionCertificate(
        k=k,
        matching=matching,
        gaps=gaps,
        cover=cover,
        per_bag=tuple(tags),
        frontier=frontier,
        unachievable=unachievable,
        frontier_exact=frontier_exact,
        width_bound=bound,
        st_cap=st_cap,
    )
    return pd, cert


def certificate_bags(
    drawing: TwoLayerDrawing, cert: DecompositionCertificate
) -> tuple[tuple[str, ...], ...]:
    """Rebuild the bag sequence from certificate components alone; must
    reproduce decompose_drawing's output exactly."""
    _, _, pd, tags = _spans(drawing, cert.matching, cert.gaps, cert.cover)
    if tuple(tags) != cert.per_bag:
        raise CertificateError("certificate per-bag tags do not match the rebuilt bags")
    return pd.bags


# ===================================================================
# audit of the per-bag counting bounds
# ===================================================================

class AuditViolation(NamedTuple):
    check: str  # "Yij" | "Pi" | "Vi" | "Vij"
    location: tuple
    observed: int
    bound: int


class AuditReport(NamedTuple):
    k: int
    matching_size: int
    points: tuple[tuple[int, int], ...]
    violations: tuple[AuditViolation, ...]
    vacuous: bool

    @property
    def ok(self) -> bool:
        return not self.violations


def audit_counting_bounds(
    drawing: TwoLayerDrawing, cert: DecompositionCertificate
) -> AuditReport:
    """Re-derive every counted set and check its bound at each minimal
    unachievable (s,t) point.

    Checks, with k the chain count: |Y_{i,j}| <= 2k^2|j-i| (arcs from gap j
    into gap i), |P_i| <= 4k^2(t-1) (heads of arcs crossing s consecutive
    matching edges at i), |V_i| <= 2(k+1) + 4k^2(t-1) + 2k^2(s-1)^2(s-2),
    and |V_{i,j}| <= |V_i| + |V_{i+1}| + (k+1).  A drawing with an empty
    matching has nothing to count.
    """
    return twolayer._checks.audit_counting_bounds(drawing, cert)


def certificate_to_json(cert: DecompositionCertificate) -> str:
    payload = {
        "k": cert.k,
        "matching": cert.matching,
        "gaps": cert.gaps,
        "chains": cert.cover.chains,
        "arcs": [(e, tail, head) for e, (tail, head) in cert.cover.arcs.items()],
        "perBag": cert.per_bag,
        "stFrontier": cert.frontier,
        "unachievable": cert.unachievable,
        "frontierExact": cert.frontier_exact,
        "widthBound": cert.width_bound,
        "sCap": cert.st_cap,
        "tCap": cert.st_cap,
    }
    return _dumps(payload)
