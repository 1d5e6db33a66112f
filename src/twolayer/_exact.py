"""Exact pathwidth by a bit-parallel bottleneck search over vertex
separation, and the decomposition of a vertex order: the bodies of
``pathdecomp.pathwidth_exact`` and ``pathdecomp.order_to_decomposition``."""

from typing import Sequence

from .errors import CapExceededError, CertificateError, GraphError
from .graphs import BipartiteGraph
from .pathdecomp import PathDecomposition


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


def pathwidth_exact(graph: BipartiteGraph, cap: int) -> tuple[int, tuple[str, ...]]:
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


def order_to_decomposition(graph: BipartiteGraph, order: Sequence[str]) -> PathDecomposition:
    if sorted(order) != sorted(graph.vertices):
        raise GraphError("order is not a permutation of the vertex set")
    pos = {v: i for i, v in enumerate(order, start=1)}
    nbrs = graph.neighbors
    span = {v: (i, max([i, *map(pos.__getitem__, nbrs[v])])) for v, i in pos.items()}
    return PathDecomposition._from_intervals(span, len(order))
