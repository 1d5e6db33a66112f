"""Bipartite graphs with two-layer drawings: the core types, random
drawings and JSON.

A two-layer drawing places the A side on one horizontal rail and the B side
on another, each in a total order.  Everything downstream (crossing counts,
chain covers, decompositions) is computed from the two rank functions alone,
so this module only has to get the combinatorics of orders right; geometry
lives in render.py.  The other generators and the connectivity and
caterpillar helpers live in generators.py, which only the commands and
callers that use them load; their names here still resolve to it.
"""

from __future__ import annotations

import json
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence, TextIO

import twolayer

from .errors import GraphError

Edge = tuple[str, str]

# Size caps.  All are per-call overridable; they exist to turn accidental
# blow-ups into loud errors rather than hangs.  The CLI's defaults are these,
# so its parser needs no other module.
DEFAULT_TREE_HEIGHT_CAP = 10
DEFAULT_GRID_SIDE_CAP = 10
DEFAULT_STAR_CAP = 10_000
DEFAULT_RANDOM_SIDE_CAP = 10_000
DEFAULT_ST_EDGE_CAP = 5_000  # analysis: edges in an (s,t) search
DEFAULT_PROFILE_CAP = 16  # analysis: s and t of the (s,t) profile
DEFAULT_PATHWIDTH_CAP = 20  # pathdecomp: vertices for exact pathwidth


# The names defined in generators.py, reachable here through __getattr__.
def __getattr__(name: str):
    if name not in twolayer._EXPORTS["generators"]:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import generators

    value = getattr(generators, name)
    globals()[name] = value
    return value


# ===================================================================
# core types
# ===================================================================

class _cached_property:
    """``functools.cached_property`` without its lock, as in Python 3.12:
    the first read of the attribute stores ``func(instance)`` in the
    instance's ``__dict__``, which later reads find first."""

    def __init__(self, func) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = vars(instance)[self.name] = self.func(instance)
        return value


class _Frozen:
    """Base of the package's immutable value types.  A subclass names its
    fields in ``_fields`` and sets them once, in ``__init__``, through
    ``vars(self)``.  Two instances are equal when they have the same class
    and equal fields; hash and repr go by the fields too, and no attribute
    can be set or deleted afterwards.  Instances keep their ``__dict__``,
    which ``_cached_property`` needs."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class BipartiteGraph(_Frozen):
    """An undirected bipartite graph with named sides A and B.

    Vertex ids are opaque strings, unique across both sides.  Edges are
    stored as (a_vertex, b_vertex) pairs; the constructor accepts either
    orientation and normalizes.  Instances are immutable after construction.
    """

    _fields = ("a", "b", "edges")

    def __init__(
        self, a: Iterable[str], b: Iterable[str], edges: Iterable[Edge] = ()
    ) -> None:
        a, b = tuple(a), tuple(b)
        a_set, b_set = set(a), set(b)
        if len(a_set) != len(a) or len(b_set) != len(b) or (a_set & b_set):
            raise GraphError("vertex ids must be unique across both sides")
        normalized = []
        seen = set()
        for edge in edges:
            u, v = edge
            if u in a_set and v in b_set:
                pair = (u, v)
            elif v in a_set and u in b_set:
                pair = (v, u)
            else:
                raise GraphError(f"edge {edge!r} does not join side A to side B")
            if pair in seen:
                raise GraphError(f"duplicate edge {pair!r}")
            seen.add(pair)
            normalized.append(pair)
        vars(self).update(a=a, b=b, edges=tuple(normalized))

    @_cached_property
    def a_set(self) -> frozenset[str]:
        return frozenset(self.a)

    @_cached_property
    def b_set(self) -> frozenset[str]:
        return frozenset(self.b)

    @_cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.a + self.b

    def side(self, v: str) -> str:
        if v in self.a_set:
            return "A"
        if v in self.b_set:
            return "B"
        raise GraphError(f"unknown vertex {v!r}")

    @_cached_property
    def neighbors(self) -> dict[str, tuple[str, ...]]:
        nbrs: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return {v: tuple(ns) for v, ns in nbrs.items()}

    def degree(self, v: str) -> int:
        if v not in self.neighbors:
            raise GraphError(f"unknown vertex {v!r}")
        return len(self.neighbors[v])


class TwoLayerDrawing(_Frozen):
    """A bipartite graph with a total order on each side's rail.

    Ranks are 1-based.  Two independent edges cross exactly when their rank
    pairs are inverted between the rails; edges sharing an endpoint never
    cross.
    """

    _fields = ("graph", "order_a", "order_b")

    def __init__(
        self, graph: BipartiteGraph, order_a: Iterable[str], order_b: Iterable[str]
    ) -> None:
        order_a, order_b = tuple(order_a), tuple(order_b)
        if sorted(order_a) != sorted(graph.a):
            raise GraphError("order_a is not a permutation of side A")
        if sorted(order_b) != sorted(graph.b):
            raise GraphError("order_b is not a permutation of side B")
        vars(self).update(graph=graph, order_a=order_a, order_b=order_b)

    @_cached_property
    def pos_a(self) -> dict[str, int]:
        return {v: i + 1 for i, v in enumerate(self.order_a)}

    @_cached_property
    def pos_b(self) -> dict[str, int]:
        return {v: i + 1 for i, v in enumerate(self.order_b)}

    @_cached_property
    def _by_rank(self) -> tuple[tuple[int, int, Edge], ...]:
        """(posA, posB, edge) for every edge, sorted; (posA, posB) is
        injective on edges, so this order is unambiguous."""
        pa, pb = self.pos_a, self.pos_b
        return tuple(sorted((pa[u], pb[v], (u, v)) for u, v in self.graph.edges))


# ===================================================================
# random drawings
# ===================================================================

def random_drawing(
    n_a: int,
    n_b: int,
    p: float,
    seed: int,
    cap: int = DEFAULT_RANDOM_SIDE_CAP,
) -> tuple[BipartiteGraph, TwoLayerDrawing]:
    """Seeded random bipartite graph with uniformly random rail orders.

    Every (a, b) pair becomes an edge independently with probability p.
    Identical seeds give bit-identical results; seeds must be ints so that
    reproducibility cannot be broken by hash randomization.
    """
    return twolayer._random.random_drawing(n_a, n_b, p, seed, cap)


# ===================================================================
# JSON round trips
# ===================================================================

def graph_to_json(graph: BipartiteGraph) -> str:
    return _dumps({"a": graph.a, "b": graph.b, "edges": graph.edges})


def graph_from_json(text: str) -> BipartiteGraph:
    data = _load_object(text)
    try:
        a, b, edges = data["a"], data["b"], data["edges"]
    except KeyError as missing:
        raise GraphError(f"graph JSON missing key {missing}") from None
    return BipartiteGraph(
        tuple(_str_list(a, "a")),
        tuple(_str_list(b, "b")),
        tuple(_edge_list(edges)),
    )


def drawing_to_json(drawing: TwoLayerDrawing) -> str:
    graph = drawing.graph
    return _dumps(
        {
            "a": graph.a,
            "b": graph.b,
            "edges": graph.edges,
            "orderA": drawing.order_a,
            "orderB": drawing.order_b,
        }
    )


def drawing_from_json(text: str) -> TwoLayerDrawing:
    return _drawing_from_object(_load_object(text))


def _drawing_from_object(data: dict) -> TwoLayerDrawing:
    for key in ("a", "b", "edges", "orderA", "orderB"):
        if key not in data:
            raise GraphError(f"drawing JSON missing key '{key}'")
    graph = BipartiteGraph(
        tuple(_str_list(data["a"], "a")),
        tuple(_str_list(data["b"], "b")),
        tuple(_edge_list(data["edges"])),
    )
    return TwoLayerDrawing(
        graph,
        tuple(_str_list(data["orderA"], "orderA")),
        tuple(_str_list(data["orderB"], "orderB")),
    )


def _join_or_write(chunks: Iterable[str], out: TextIO | None) -> str | None:
    """The joined chunks, or None once they are written to ``out`` one by
    one, so that a writer need not hold its whole document."""
    if out is None:
        return "".join(chunks)
    out.writelines(chunks)
    return None


class _NotPlain(Exception):
    """A value that ``_dumps`` leaves to ``json.dumps``."""


def _dumps(obj: object) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for the package's JSON
    outputs.  Strings are quoted by the function ``json.dumps`` itself uses,
    and a list of strings, of ints or of short rows is formatted by C-level
    maps, so no Python frame runs per element.  A float, any other object or
    a non-str key hands the whole document to ``json.dumps``, errors and
    all."""
    try:
        return _text(obj, 0)
    except (_NotPlain, RecursionError):
        return json.dumps(obj, indent=2)


class _Indents(dict):
    """Level -> the line break before an item at ``level + 1``, the
    separator between such items, and the line break before the closing
    bracket at ``level``."""

    def __missing__(self, level: int) -> tuple[str, str, str]:
        inner = "\n" + "  " * (level + 1)
        self[level] = breaks = (inner, "," + inner, "\n" + "  " * level)
        return breaks


_INDENTS = _Indents()


def _block(opening: str, texts: Iterable[str], closing: str, level: int) -> str:
    """The texts of one list's items (or one dict's ``key: value`` items) at
    indent ``level + 1``, between ``opening`` and ``closing`` at ``level``;
    only the two if there are none."""
    inner, sep, outer = _INDENTS[level]
    body = sep.join(texts)
    if not body:
        return opening + closing
    return f"{opening}{inner}{body}{outer}{closing}"


def _text(value: object, level: int) -> str:
    # json's encoder tests in this order: str, None, True, False, int.
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        return _block("[", _texts(value, level + 1), "]", level)
    if isinstance(value, dict):
        if not all(map(isinstance, value, repeat(str))):
            raise _NotPlain
        items = map(
            "{}: {}".format,
            map(encode_basestring_ascii, value),
            _texts(list(value.values()), level + 1),
        )
        return _block("{", items, "}", level)
    raise _NotPlain


def _texts(values: Sequence, level: int) -> Iterable[str]:
    """The texts of ``values``, each at indent ``level``."""
    types = set(map(type, values))
    if len(types) == 1:
        (kind,) = types
        if issubclass(kind, str):
            return map(encode_basestring_ascii, values)
        if issubclass(kind, int) and kind is not bool:
            return map(int.__repr__, values)
        if issubclass(kind, (list, tuple)):
            sizes = list(map(len, values))
            lengths = set(sizes)
            # Column by column only when the rows outnumber the columns.
            if len(lengths) * max(lengths) <= len(values):
                return _rows(values, sizes, lengths, level)
    return [_text(v, level) for v in values]


def _rows(rows: Sequence, sizes: list[int], lengths: set[int], level: int) -> Iterable[str]:
    """The texts of ``rows`` at indent ``level``.  The rows of each length
    are formatted column by column, by a ``_block`` template whose fields
    take the column texts as arguments, and read back in the rows' order."""
    by_length = {}
    for n in lengths:
        group = rows if len(lengths) == 1 else list(compress(rows, map(n.__eq__, sizes)))
        columns = [_texts(column, level + 1) for column in zip(*group)]
        template = _block("[", repeat("{}", n), "]", level)
        by_length[n] = map(template.format, *columns) if n else repeat(template)
    return map(next, map(by_length.__getitem__, sizes))


def _decode(text: str, error: type[Exception] = GraphError) -> object:
    """``json.loads(text)``, or ``error("invalid JSON: ...")`` where the
    decoder fails: a ``JSONDecodeError``, the ``ValueError`` of an integer
    longer than ``sys.get_int_max_str_digits()``, or nesting too deep."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"invalid JSON: {exc}") from None


def _load_object(text: str) -> dict:
    data = _decode(text)
    if not isinstance(data, dict):
        raise GraphError("expected a JSON object")
    return data


def _str_list(value: object, key: str) -> list[str]:
    if not isinstance(value, list) or not all(map(isinstance, value, repeat(str))):
        raise GraphError(f"'{key}' must be a list of strings")
    return value


def _edge_list(value: object) -> list[Edge]:
    if (
        not isinstance(value, list)
        or not all(map(isinstance, value, repeat(list)))
        or not set(map(len, value)) <= {2}
        or not all(map(isinstance, chain.from_iterable(value), repeat(str)))
    ):
        raise GraphError("'edges' must be a list of [idA, idB] pairs")
    return list(map(tuple, value))
