"""Path decompositions: validation, width, exact pathwidth, normalization.

A path decomposition is an ordered sequence of bags subject to the cover,
edge, and contiguity conditions.  Pathwidth is computed exactly through the
vertex-separation formulation (they coincide), by a search that expands only
the prefix sets of vertices with an edge that are no costlier than the
optimum.  Its table has 2^n entries for n such vertices, so isolated vertices
cost nothing, while the vertex cap (20 by default) still counts them all.
"""

from __future__ import annotations

import json
from collections import defaultdict
from functools import cached_property
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii
from operator import eq
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

from .errors import CapExceededError, CertificateError, DecompositionError, GraphError
from .graphs import DEFAULT_PATHWIDTH_CAP, BipartiteGraph, Edge, _Frozen, _join_or_write


class PathDecomposition(_Frozen):
    """An ordered bag sequence.  Bags are kept as sorted vertex-id tuples so
    serialization is canonical; bag indices are 1-based in all reporting."""

    _fields = ("bags",)

    def __init__(self, bags: Iterable[Iterable[str]]) -> None:
        # Sorting a sorted bag is linear, and equal ids end up adjacent.
        normalized = []
        for bag in bags:
            ordered = sorted(bag)
            if any(map(eq, ordered, ordered[1:])):
                ordered = sorted(set(ordered))
            normalized.append(tuple(ordered))
        vars(self).update(bags=tuple(normalized))

    @property
    def width(self) -> int:
        if not self.bags:
            raise DecompositionError("width is undefined for an empty bag list")
        return max(len(bag) for bag in self.bags) - 1

    @cached_property
    def vertices(self) -> frozenset[str]:
        return frozenset(chain.from_iterable(self.bags))


class Violation(NamedTuple):
    """One failed decomposition condition, with enough context to locate it.

    kind "cover": `vertex` missing from every bag.
    kind "edge": `edge` has no bag containing both endpoints.
    kind "contiguity": `vertex` present at bag `indices[0]` and `indices[2]`
    but absent at `indices[1]` (1-based).
    """

    kind: str
    vertex: str | None = None
    edge: Edge | None = None
    indices: tuple[int, ...] = ()

    def describe(self) -> str:
        if self.kind == "cover":
            return f"vertex {self.vertex!r} appears in no bag"
        if self.kind == "edge":
            return f"edge {self.edge!r} has no bag containing both endpoints"
        i, j, k = self.indices
        return (
            f"vertex {self.vertex!r} is in bags {i} and {k} but not {j}"
        )


def _bag_indices(pd: PathDecomposition) -> dict[str, list[int]]:
    """Increasing 1-based indices of the bags holding each vertex, keyed in
    order of first appearance (bag by bag, ids sorted within a bag)."""
    where: defaultdict[str, list[int]] = defaultdict(list)
    for i, bag in enumerate(pd.bags, start=1):
        for v in bag:
            where[v].append(i)
    return dict(where)


def validate_decomposition(
    graph: BipartiteGraph, pd: PathDecomposition
) -> tuple[Violation, ...]:
    """All cover/edge/contiguity violations; empty means valid.

    A bag mentioning a vertex the graph does not have is a structural error
    (raised), not a violation.

    One pass over the bags records where each vertex occurs.  A vertex whose
    bags are contiguous occupies an interval [lo, hi] of bag indices, and an
    edge between two such vertices lies in some bag exactly when their
    intervals overlap, max(lo) <= min(hi).  Only an edge with a
    non-contiguous or uncovered endpoint compares index sets.  The cost is
    O(sum of bag sizes + m) for a valid decomposition.
    """
    where = _bag_indices(pd)
    vset = set(graph.vertices)
    # Keys come in order of first appearance, so the foreign id reported is
    # the first one a bag-by-bag scan meets.
    for v, idx in where.items():
        if v not in vset:
            raise DecompositionError(
                f"bag {idx[0]} contains foreign vertex {v!r}"
            )
    out: list[Violation] = []
    span: dict[str, tuple[int, int]] = {}
    for v in graph.vertices:
        idx = where.get(v)
        if not idx:
            out.append(Violation("cover", vertex=v))
        elif idx[-1] - idx[0] + 1 == len(idx):
            span[v] = (idx[0], idx[-1])
        else:
            gap = next(i + 1 for i, j in zip(idx, idx[1:]) if j != i + 1)
            out.append(
                Violation("contiguity", vertex=v, indices=(idx[0], gap, idx[-1]))
            )
    for u, v in graph.edges:
        su, sv = span.get(u), span.get(v)
        if su and sv:
            covered = max(su[0], sv[0]) <= min(su[1], sv[1])
        else:
            covered = not set(where.get(u, ())).isdisjoint(where.get(v, ()))
        if not covered:
            out.append(Violation("edge", edge=(u, v)))
    return tuple(out)


def intro_intervals(pd: PathDecomposition) -> dict[str, tuple[int, int]]:
    """First and last 1-based bag index of each vertex (contiguity assumed)."""
    return {v: (idx[0], idx[-1]) for v, idx in _bag_indices(pd).items()}


# ===================================================================
# exact pathwidth (vertex separation, bottleneck search)
# ===================================================================

_UNSEEN = 255  # level of a set the search has not reached; above any width


def pathwidth_exact(
    graph: BipartiteGraph, cap: int = DEFAULT_PATHWIDTH_CAP
) -> tuple[int, tuple[str, ...]]:
    """Exact pathwidth with an optimal vertex order.

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


def order_to_decomposition(
    graph: BipartiteGraph, order: Sequence[str]
) -> PathDecomposition:
    """Bags induced by a vertex order: the i-th bag holds v_i plus every
    earlier vertex that still has a neighbor outside the first i-1 vertices.
    The width equals the order's separation cost.

    Each vertex keeps a count of its neighbors not yet placed, and the
    placed vertices whose count is positive form the frontier, so the bags
    cost O(n + m) beyond their own size."""
    if sorted(order) != sorted(graph.vertices):
        raise GraphError("order is not a permutation of the vertex set")
    nbrs = graph.neighbors
    unplaced = {v: len(ns) for v, ns in nbrs.items()}
    frontier: set[str] = set()
    bags: list[tuple[str, ...]] = []
    for v in order:
        bags.append((*frontier, v))
        for w in nbrs[v]:
            unplaced[w] -= 1
            if not unplaced[w]:
                frontier.discard(w)
        if unplaced[v]:
            frontier.add(v)
    return PathDecomposition(tuple(bags))


# ===================================================================
# unique-introduction normalization
# ===================================================================

def _staged_first_bags(pd: PathDecomposition) -> dict[str, int]:
    """Each vertex's 1-based first bag once introductions are staged one per
    bag, as `normalize_unique_intro` stages them, in order of first appearance.

    A bag introducing m >= 2 vertices gives them consecutive stages in id
    order, and a bag introducing none keeps one stage.  `_bag_indices` lists
    each bag's new vertices together in id order, so a vertex's stage is one
    past the previous vertex's, plus one for each bag in between.  Raises
    DecompositionError naming the first vertex, in order of first appearance,
    whose bags are not contiguous.
    """
    first: dict[str, int] = {}
    stage = prev = 0
    for v, idx in _bag_indices(pd).items():
        lo = idx[0]
        if idx[-1] - lo + 1 != len(idx):
            raise DecompositionError(
                f"vertex {v!r} occupies non-contiguous bags; cannot normalize"
            )
        stage += lo - prev or 1
        prev = lo
        first[v] = stage
    return first


def normalize_unique_intro(pd: PathDecomposition) -> PathDecomposition:
    """Stage multi-introduction bags so every vertex gets a distinct first bag.

    A bag adding m >= 2 unseen vertices becomes m bags, each extending the
    carried-over part by one new vertex in id order.  Width and validity are
    preserved: each stage is a subset of the original bag and the final stage
    is the bag itself.  Only contiguity can be checked without the host
    graph; callers wanting full validity run validate_decomposition first.
    """
    return _staged_bags(pd, _staged_first_bags(pd))


def _staged_bags(pd: PathDecomposition, first: dict[str, int]) -> PathDecomposition:
    """The staged decomposition of pd, given its `_staged_first_bags` map.

    A bag introducing two vertices moves every later first bag up a stage,
    so pd needs no staging exactly when the last vertex to appear is staged
    at the bag that introduces it.  Otherwise a bag's new vertices hold the
    stages after every earlier bag's, so the bag's top stage tells how many
    there are.  Each stage keeps the bag's own order: a mask over the bag
    gains one new vertex per stage."""
    bags = pd.bags
    last = next(reversed(first), None)
    if last is None:
        return pd
    # last's bags are contiguous: bag f introduces it iff f holds it, f-1 not
    f = first[last]
    if f <= len(bags) and last in bags[f - 1] and (f == 1 or last not in bags[f - 2]):
        return pd
    out: list[tuple[str, ...]] = []
    for bag in bags:
        done = len(out)
        stages = list(map(first.__getitem__, bag))
        top = max(stages, default=done)
        if top <= done + 1:
            out.append(bag)
            continue
        keep = bytearray(map(done.__ge__, stages))
        for i in sorted(range(len(bag)), key=stages.__getitem__)[done - top:]:
            keep[i] = 1
            out.append(tuple(compress(bag, keep)))
    return PathDecomposition(tuple(out))


# ===================================================================
# JSON
# ===================================================================

def decomposition_to_json(pd: PathDecomposition, out: TextIO | None = None) -> str | None:
    """``{"bags": [...]}`` indented by 2, byte for byte as ``json.dumps(...,
    indent=2)`` writes it.  Returns the text, or writes it to ``out`` one bag
    at a time and returns None.

    Every id must be a str: another id raises TypeError before anything is
    written, where ``json.dumps`` would have written it as a number or a
    literal."""
    return _join_or_write(_decomposition_json(pd), out)


def _decomposition_json(pd: PathDecomposition) -> Iterator[str]:
    """The opening, one chunk per bag, the closing.  Each distinct id is
    quoted once, by the function ``json.dumps`` itself uses under
    ``ensure_ascii``, and a bag's lines come from one join."""
    if not pd.bags:
        yield '{\n  "bags": []\n}'
        return
    quoted = {v: encode_basestring_ascii(v) for v in pd.vertices}
    yield '{\n  "bags": [\n'
    sep = ""
    for bag in pd.bags:
        if bag:
            items = ",\n      ".join(map(quoted.__getitem__, bag))
            yield f"{sep}    [\n      {items}\n    ]"
        else:
            yield f"{sep}    []"
        sep = ",\n"
    yield "\n  ]\n}"


def decomposition_from_json(text: str) -> PathDecomposition:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DecompositionError(f"invalid JSON: {exc}") from None
    return _decomposition_from_object(data)


def _decomposition_from_object(data: object) -> PathDecomposition:
    if not isinstance(data, dict) or "bags" not in data:
        raise DecompositionError("decomposition JSON must have a 'bags' key")
    bags = data["bags"]
    if not isinstance(bags, list) or not all(
        isinstance(bag, list) and all(map(isinstance, bag, repeat(str)))
        for bag in bags
    ):
        raise DecompositionError("'bags' must be a list of lists of ids")
    return PathDecomposition(tuple(tuple(bag) for bag in bags))
