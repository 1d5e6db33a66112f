"""Path decompositions: validation, width, exact pathwidth, normalization.

A path decomposition is an ordered sequence of bags subject to the cover,
edge, and contiguity conditions.  Pathwidth is computed exactly through the
vertex-separation formulation (they coincide), by a bottleneck search over
the subsets of the vertices with an edge that works on whole families of
subsets at once, each one int of 2^n bits for n such vertices.  So isolated
vertices cost nothing, while the vertex cap (20 by default) still counts them.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

import twolayer

from .errors import DecompositionError
from .graphs import (
    DEFAULT_PATHWIDTH_CAP,
    BipartiteGraph,
    Edge,
    _block,
    _Frozen,
    _join_or_write,
)


class PathDecomposition(_Frozen):
    """An ordered bag sequence, held as one bag interval per vertex; bag
    indices are 1-based in all reporting.  The bags are built when read,
    each a sorted vertex-id tuple, so serialization is canonical."""

    _fields = ("bags",)

    def __init__(self, bags: Iterable[Iterable[str]]) -> None:
        span, broken, count = twolayer._reader._bag_intervals(map(sorted, bags))
        vars(self).update(_intervals=(span, broken), _count=count)

    @classmethod
    def _from_intervals(cls, span: dict, count: int, broken: dict | None = None):
        """`count` bags, v in bags lo..hi for (lo, hi) = span[v], in (lo, id)
        order, or in bags broken[v] alone if given."""
        pd = cls.__new__(cls)
        vars(pd).update(_intervals=(span, broken or {}), _count=count)
        return pd

    @cached_property
    def bags(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self._sweep())

    def _sweep(self) -> Iterator[tuple[str, ...]]:
        """The bags one at a time, from a sweep that keeps the ids held
        sorted and leaves the bags unbuilt."""
        enter: list[list[str]] = [[] for _ in range(self._count + 2)]
        leave: list[list[str]] = [[] for _ in range(self._count + 2)]
        for v, (lo, hi) in self._runs():
            enter[lo].append(v)
            leave[hi + 1].append(v)
        held: list[str] = []
        for i in range(1, self._count + 1):
            for v in leave[i]:
                held.remove(v)
            held += enter[i]
            held.sort()
            yield tuple(held)

    def _runs(self) -> Iterable[tuple[str, tuple[int, int]]]:
        """Each id with the first and last of consecutive bags that hold it:
        its interval, or each bag alone if its bags are not contiguous."""
        span, broken = self._intervals
        if not broken:
            return span.items()
        return [*((v, run) for v, run in span.items() if v not in broken),
                *((v, (i, i)) for v, idx in broken.items() for i in idx)]

    @cached_property
    def _sizes(self) -> list[int]:
        """Bag sizes by 1-based index, 0 at either end."""
        delta = [0] * (self._count + 2)
        for _, (lo, hi) in self._runs():
            delta[lo] += 1
            delta[hi + 1] -= 1
        return list(accumulate(delta))

    @property
    def width(self) -> int:
        if not self._count:
            raise DecompositionError("width is undefined for an empty bag list")
        return max(self._sizes) - 1

    @cached_property
    def vertices(self) -> frozenset[str]:
        return frozenset(self._intervals[0])


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


def validate_decomposition(
    graph: BipartiteGraph, pd: PathDecomposition
) -> tuple[Violation, ...]:
    """All cover/edge/contiguity violations; empty means valid.

    A bag mentioning a vertex the graph does not have is a structural error
    (raised), not a violation.

    The decomposition's interval pass gives each vertex the interval
    [lo, hi] of bag indices it spans.  An edge lies in some bag only if its
    endpoints' intervals overlap, max(lo) <= min(hi), and exactly then when
    both endpoints' bags are contiguous; only an edge with a non-contiguous
    endpoint compares index sets.  The cost is O(n + m): every decomposition
    holds its intervals from the time it is built.
    """
    span, broken = pd._intervals
    vset = set(graph.vertices)
    # Keys come in order of first appearance, so the foreign id reported is
    # the first one a bag-by-bag scan meets.
    if not vset.issuperset(span):
        v = next(v for v in span if v not in vset)
        raise DecompositionError(f"bag {span[v][0]} contains foreign vertex {v!r}")
    out: list[Violation] = []
    for v in graph.vertices:
        if v not in span:
            out.append(Violation("cover", vertex=v))
        elif v in broken:
            idx = broken[v]
            gap = next(i + 1 for i, j in zip(idx, idx[1:]) if j != i + 1)
            out.append(Violation("contiguity", vertex=v, indices=(idx[0], gap, idx[-1])))

    def held(v: str) -> Sequence[int]:
        lo, hi = span[v]
        return broken.get(v) or range(lo, hi + 1)

    for u, v in graph.edges:
        su, sv = span.get(u), span.get(v)
        covered = su and sv and su[0] <= sv[1] and sv[0] <= su[1]
        if covered and (u in broken or v in broken):
            covered = not set(held(u)).isdisjoint(held(v))
        if not covered:
            out.append(Violation("edge", edge=(u, v)))
    return tuple(out)


def intro_intervals(pd: PathDecomposition) -> dict[str, tuple[int, int]]:
    """First and last 1-based bag of each vertex, in order of first appearance
    (the hull, for a vertex whose bags are not contiguous), in a new dict."""
    return dict(pd._intervals[0])


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
    holds the live vertices (degree >= 1), and the search runs over L alone,
    while the cap still counts every vertex.  It builds R_w = {S within L :
    f(S) <= w} for w = 0, 1, ... until L is in R_w, each family of subsets
    one int of 2^|L| bits, and keeps O(|L|) of them.

    The order is rebuilt from V by removing, at each step, the lowest-index
    vertex v with f(S - v) <= f(S), i.e. S - v in R_f(S), the tie-break of
    the full 2^n subset DP, so the order equals the DP's.  An isolated
    vertex always qualifies and removing it leaves S & L as it was, so each
    step takes the lower-indexed of the next live removal and the lowest
    isolated vertex left.  The order's decomposition has exactly this width.
    """
    return twolayer._exact.pathwidth_exact(graph, cap)


def order_to_decomposition(
    graph: BipartiteGraph, order: Sequence[str]
) -> PathDecomposition:
    """Bags induced by a vertex order: the i-th bag holds v_i plus every
    earlier vertex that still has a neighbor outside the first i-1 vertices.
    The width equals the order's separation cost.

    So v_i lies in bags i through the position of its last neighbor, if
    later: O(n + m) for the intervals, and the bags are built when read."""
    return twolayer._exact.order_to_decomposition(graph, order)


def normalize_unique_intro(pd: PathDecomposition) -> PathDecomposition:
    """Stage multi-introduction bags so every vertex gets a distinct first bag.

    A bag adding m >= 2 unseen vertices becomes m bags, each extending the
    carried-over part by one new vertex in id order.  Width and validity are
    preserved: each stage is a subset of the original bag and the final stage
    is the bag itself.  Only contiguity can be checked without the host
    graph; callers wanting full validity run validate_decomposition first.
    """
    return twolayer._staging._staged_bags(pd, twolayer._staging._staged_first_bags(pd))


# ===================================================================
# JSON
# ===================================================================

def decomposition_to_json(pd: PathDecomposition, out: TextIO | None = None) -> str | None:
    """``{"bags": [...]}`` indented by 2, byte for byte as ``json.dumps(...,
    indent=2)`` writes it.  Returns the text, or writes it to ``out`` one bag
    at a time and returns None.  The bags are taken one at a time from the
    interval sweep and stay unbuilt.

    Every id must be a str: another id raises TypeError before anything is
    written, where ``json.dumps`` would have written it as a number or a
    literal."""
    return _join_or_write(_decomposition_json(pd), out)


def _decomposition_json(pd: PathDecomposition) -> Iterator[str]:
    """The opening, one chunk per bag, the closing.  Each distinct id is
    quoted once, by the function ``json.dumps`` itself uses under
    ``ensure_ascii``, and each bag's text is a list block of the indented
    writer (``graphs._block``)."""
    if not pd._count:
        yield '{\n  "bags": []\n}'
        return
    quoted = {v: encode_basestring_ascii(v) for v in pd.vertices}
    yield '{\n  "bags": [\n'
    sep = ""
    for bag in pd._sweep():
        yield _block(f"{sep}    [", map(quoted.__getitem__, bag), "]", 2)
        sep = ",\n"
    yield "\n  ]\n}"


def decomposition_from_json(text: str) -> PathDecomposition:
    pd = twolayer._reader._read_decomposition(text)
    if pd is not None:
        return pd
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DecompositionError(f"invalid JSON: {exc}") from None
    return twolayer._reader._decomposition_from_object(data)
