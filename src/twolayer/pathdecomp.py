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
from itertools import accumulate, chain, repeat
from json.decoder import WHITESPACE
from json.encoder import encode_basestring_ascii
from operator import eq, lt
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from .errors import CapExceededError, CertificateError, DecompositionError, GraphError
from .graphs import (
    DEFAULT_PATHWIDTH_CAP,
    BipartiteGraph,
    Edge,
    _block,
    _Frozen,
    _join_or_write,
)


class PathDecomposition(_Frozen):
    """An ordered bag sequence.  Bags are kept as sorted vertex-id tuples so
    serialization is canonical; bag indices are 1-based in all reporting.
    Builders give one bag interval per vertex; the bags are built when read."""

    _fields = ("bags",)

    def __init__(self, bags: Iterable[Iterable[str]]) -> None:
        # Sort only a bag that is not strictly ascending; equal ids end adjacent.
        normalized = []
        for bag in bags:
            ordered = tuple(bag)
            try:
                ascending = all(map(lt, ordered, ordered[1:]))
            except TypeError:  # sorted raises it, as it always has
                ascending = False
            if not ascending:
                ordered = sorted(ordered)
                if any(map(eq, ordered, ordered[1:])):
                    ordered = sorted(set(ordered))
                ordered = tuple(ordered)
            normalized.append(ordered)
        vars(self).update(bags=tuple(normalized), _count=len(normalized))

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
        """The bags one at a time: the built ones, or else from a sweep that
        keeps the ids held sorted and leaves the bags unbuilt."""
        if "bags" in vars(self):
            yield from self.bags
            return
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
        """Bag sizes by 1-based index, 0 at either end; a sweep unless built."""
        if "bags" in vars(self):
            return [0, *map(len, self.bags), 0]
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
        if "bags" in vars(self):
            return frozenset(chain.from_iterable(self.bags))
        return frozenset(self._intervals[0])

    @cached_property
    def _intervals(self) -> tuple[dict[str, tuple[int, int]], dict[str, list[int]]]:
        """Each vertex's first and last 1-based bag, and the increasing bag
        indices of the vertices whose bags are not contiguous, both keyed in
        (lo, id) order, the order of first appearance."""
        return _bag_intervals(self.bags)[:2]


def _bag_intervals(bags: Iterable[Iterable[str]]) -> tuple[dict, dict, int]:
    """``_intervals`` of ``bags`` and their number.  A bag costs C-level set
    differences with the one before; only ids that enter or leave cost more."""
    lo: dict[str, int] = {}
    hi: dict[str, int] = {}
    missed: dict[str, set[int]] = {}
    prev: frozenset[str] = frozenset()
    count = 0
    for count, bag in enumerate(bags, start=1):
        cur = frozenset(bag)
        new = cur - prev
        first = new.difference(lo)
        for v in new - first:  # back after bags hi[v] + 1 .. count - 1
            missed.setdefault(v, set()).update(range(hi[v] + 1, count))
        lo.update(zip(sorted(first), repeat(count)))
        hi.update(zip(prev - cur, repeat(count - 1)))
        prev = cur
    hi.update(zip(prev, repeat(count)))
    span = dict(zip(lo, zip(lo.values(), map(hi.__getitem__, lo))))
    broken = {v: [i for i in range(a, b + 1) if i not in missed[v]]
              for v, (a, b) in span.items() if v in missed}
    return span, broken, count


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
    endpoint compares index sets.  The cost is O(n + m), plus the interval
    pass over the bags when they are given as bags.
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


# ===================================================================
# exact pathwidth (vertex separation, bit-parallel bottleneck search)
# ===================================================================

def _reached_families(nbr: list[int]) -> list[int]:
    """R_w = {S : f(S) <= w} for w = 0, 1, ..., f(V), V the vertices of the
    neighbour bitmasks `nbr`.  A family of subsets is an int, bit S set iff
    S is in it.  R_w is the closure of R_(w-1) + {{}} under adding a vertex
    i, `(R & without[i]) << 2^i`, while the boundary stays at most w.  Set S
    has i on its boundary iff it is in some without[j], j in N(i), but not
    in without[i]; plane p of the bit-sliced counts holds their bit p."""
    n = len(nbr)
    size = 1 << n
    every = (1 << size) - 1
    without = []
    for i in range(n):
        if i < 3:  # periods within a byte
            pattern = bytes(((0x55, 0x33, 0x0F)[i],)) * max(size >> 3, 1)
        else:
            half = 1 << (i - 3)
            pattern = (b"\xff" * half + b"\x00" * half) * (size >> (i + 1))
        without.append(int.from_bytes(pattern, "little") & every)
    planes = [0] * n.bit_length()
    for i, m in enumerate(nbr):
        carry = 0
        for j in range(n):
            if m >> j & 1:
                carry |= without[j]
        carry &= ~without[i]
        for p, plane in enumerate(planes):
            planes[p], carry = plane ^ carry, plane & carry
    reached: list[int] = []
    r = 0
    while not r >> (size - 1):
        w = len(reached)
        above, tied = 0, every  # counts above w; equal to w in planes so far
        for p in reversed(range(len(planes))):
            if w >> p & 1:
                tied &= planes[p]
            else:
                above |= tied & planes[p]
                tied &= ~planes[p]
        cheap = every ^ above
        r |= 1
        grown = -1
        while grown != r:
            grown = r
            for i, mask in enumerate(without):
                r |= (r & mask) << (1 << i) & cheap
        reached.append(r)
    return reached


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
    verts = graph.vertices
    if not verts:
        raise GraphError("pathwidth is undefined for the empty graph")
    if len(verts) > cap:
        raise CapExceededError(f"{len(verts)} vertices exceeds pathwidth cap {cap}")
    nbrs = graph.neighbors
    live = [i for i, v in enumerate(verts) if nbrs[v]]
    index = {verts[i]: j for j, i in enumerate(live)}
    nbr = [0] * len(live)
    for u, v in graph.edges:
        nbr[index[u]] |= 1 << index[v]
        nbr[index[v]] |= 1 << index[u]
    reached = _reached_families(nbr)
    width = cost = len(reached) - 1

    # isolated vertices by index, lowest last: each is removed before the
    # first live removal of a higher index
    isolated = [i for i in reversed(range(len(verts))) if not nbrs[verts[i]]]
    order_rev: list[str] = []
    s = (1 << len(live)) - 1
    while s:
        while cost and reached[cost - 1] >> s & 1:
            cost -= 1
        t = s
        while t:
            low = t & -t
            if reached[cost] >> (s ^ low) & 1:
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
    return width, tuple(reversed(order_rev))


def order_to_decomposition(
    graph: BipartiteGraph, order: Sequence[str]
) -> PathDecomposition:
    """Bags induced by a vertex order: the i-th bag holds v_i plus every
    earlier vertex that still has a neighbor outside the first i-1 vertices.
    The width equals the order's separation cost.

    So v_i lies in bags i through the position of its last neighbor, if
    later: O(n + m) for the intervals, and the bags are built when read."""
    if sorted(order) != sorted(graph.vertices):
        raise GraphError("order is not a permutation of the vertex set")
    pos = {v: i for i, v in enumerate(order, start=1)}
    nbrs = graph.neighbors
    span = {v: (i, max([i, *map(pos.__getitem__, nbrs[v])])) for v, i in pos.items()}
    return PathDecomposition._from_intervals(span, len(order))


# ===================================================================
# unique-introduction normalization
# ===================================================================

def _staged_first_bags(pd: PathDecomposition) -> dict[str, int]:
    """Each vertex's 1-based first bag once introductions are staged one per
    bag, as `normalize_unique_intro` stages them, in order of first appearance.

    A bag introducing m >= 2 vertices gives them consecutive stages in id
    order, and a bag introducing none keeps one stage.  The interval pass
    lists each bag's new vertices together in id order, so a vertex's stage
    is one past the previous vertex's, plus one for each bag in between.
    Raises DecompositionError naming the first vertex, in order of first
    appearance, whose bags are not contiguous.
    """
    span, broken = pd._intervals
    if broken:
        raise DecompositionError(
            f"vertex {next(iter(broken))!r} occupies non-contiguous bags; "
            "cannot normalize"
        )
    first: dict[str, int] = {}
    stage = prev = 0
    for v, (lo, _) in span.items():
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
    at the bag that introduces it.  Otherwise each bag's last stage is that
    of its last new vertex, or one past the previous bag's, and each vertex
    spans the stages from its own to the last of its last bag."""
    span = pd._intervals[0]
    last = next(reversed(first), None)
    if last is None or first[last] == span[last][0]:
        return pd
    top = [0] * (pd._count + 1)
    for v, stage in first.items():
        top[span[v][0]] = stage
    top = list(accumulate(top, lambda prev, stage: stage or prev + 1))
    staged = {v: (stage, top[span[v][1]]) for v, stage in first.items()}
    return PathDecomposition._from_intervals(staged, top[-1])


# ===================================================================
# JSON
# ===================================================================

def decomposition_to_json(pd: PathDecomposition, out: TextIO | None = None) -> str | None:
    """``{"bags": [...]}`` indented by 2, byte for byte as ``json.dumps(...,
    indent=2)`` writes it.  Returns the text, or writes it to ``out`` one bag
    at a time and returns None.  Bags that have not been built are taken one
    at a time from the interval sweep and stay unbuilt.

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
    pd = _read_decomposition(text)
    if pd is not None:
        return pd
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DecompositionError(f"invalid JSON: {exc}") from None
    return _decomposition_from_object(data)


def _read_decomposition(source: str | Callable[[int], str]) -> PathDecomposition | None:
    """The decomposition, held as intervals, of a ``{"bags": [bag, ...]}``
    document with str ids, from its text or a text stream's ``read``; None
    for any other text, which ``json.loads`` then reads and reports on."""
    if isinstance(source, str):  # the whole text, in one read
        source = lambda size, rest=[source]: rest.pop() if rest else ""
    try:
        span, broken, count = _bag_intervals(_decoded_bags(source))
    except (TypeError, ValueError):  # an unhashable or unordered id, another
        return None  # shape, or input that is not str or UTF-8 text
    if not all(map(isinstance, span, repeat(str))):
        return None
    return PathDecomposition._from_intervals(span, count, broken)


def _decoded_bags(read: Callable[[int], str]) -> Iterator[list]:
    """Each bag of a ``{"bags": [bag, ...]}`` document read by ``read``;
    ValueError at another shape.  A bag that fails to decode is retried
    after a refill that at least doubles the buffer, so reading is linear."""
    decode = json.JSONDecoder().raw_decode
    buf, i = "", 0

    def fill() -> bool:  # drop the text before i and read more; False at the end
        nonlocal buf, i
        more = read(max(len(buf) - i, 1 << 16))
        if more:
            buf, i = buf[i:] + more, 0
        return bool(more)

    def at(token: str) -> bool:  # skip whitespace, then step past token if next
        nonlocal i  # the empty token is met only at the end of the text
        i = WHITESPACE.match(buf, i).end()
        while len(buf) - i < max(len(token), 1) and fill():
            i = WHITESPACE.match(buf, i).end()
        found = buf.startswith(token, i) if token else i == len(buf)
        i += found * len(token)
        return found

    if not all(map(at, ("{", '"bags"', ":", "["))):
        raise ValueError("not a pd.json document")
    more = not at("]")
    while more:
        at("")
        if buf.find("]", i) < 0 and fill():  # the bag is cut off
            continue
        try:
            bag, i = decode(buf, i)
        except json.JSONDecodeError:
            if fill():
                continue
            raise
        if not isinstance(bag, list):
            raise ValueError("a bag that is not a list")
        yield bag
        more = at(",")
        if not more and not at("]"):
            raise ValueError("a bag followed by neither ',' nor ']'")
    if not (at("}") and at("")):
        raise ValueError("text after the bags")


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
