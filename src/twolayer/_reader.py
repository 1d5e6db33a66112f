"""Reading pd.json: its bags as one interval per vertex, taken one bag at a
time from a text or a text stream, or else from what ``json.loads`` gives;
and the one pass that turns any bag list into its bag intervals.  Only the
commands that read pd.json, and callers that build from bags, load it."""

import json
from itertools import repeat
from json.decoder import WHITESPACE
from typing import Callable, Iterable, Iterator

from .errors import DecompositionError
from .graphs import TwoLayerDrawing
from .pathdecomp import PathDecomposition


def _read_pd(
    path: str, fallback: Callable[[str], PathDecomposition | TwoLayerDrawing]
) -> PathDecomposition | TwoLayerDrawing:
    """The decomposition in the pd.json at ``path``, read one bag at a time
    if the file is seekable, or else ``fallback`` of the whole text."""
    from .cli import _read

    if path == "-":
        return fallback(_read(path))
    with open(path, encoding="utf-8") as fh:
        if fh.seekable():
            pd = _read_decomposition(fh.read)
            if pd is not None:
                return pd
            fh.seek(0)
        text = _read(path, fh)
    return fallback(text)


def _bag_intervals(bags: Iterable[Iterable[str]]) -> tuple[dict, dict, int]:
    """Each vertex's first and last 1-based bag, and the increasing bag
    indices of the vertices whose bags are not contiguous, both keyed in
    (lo, id) order, the order of first appearance; and the number of bags.
    A bag costs C-level set differences with the one before; only ids that
    enter or leave cost more."""
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


def _read_decomposition(source: str | Callable[[int], str]) -> PathDecomposition | None:
    """The decomposition, held as intervals, of a ``{"bags": [bag, ...]}``
    document with str ids, from its text or a text stream's ``read``; None
    for any other text, which ``json.loads`` then reads and reports on."""
    if isinstance(source, str):  # the whole text, in one read
        source = lambda size, rest=[source]: rest.pop() if rest else ""
    try:
        span, broken, count = _bag_intervals(_decoded_bags(source))
    except (TypeError, ValueError, RecursionError):
        # an unhashable or unordered id, another shape, nesting too deep to
        # decode, or input that is not str or UTF-8 text
        return None
    if not all(map(isinstance, span, repeat(str))):
        return None
    return PathDecomposition._from_intervals(span, count, broken)


def _decoded_bags(read: Callable[[int], str]) -> Iterator[list]:
    """Each bag of a ``{"bags": [bag, ...], ...}`` document read by ``read``,
    whose keys after the bags are skipped with their values; ValueError at
    another shape, or at a second "bags" key, the one ``json.loads`` keeps.
    A bag that fails to decode is retried after a refill that at least
    doubles the buffer, so reading is linear."""
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
    while fill():  # the keys after the bags, with their values, are read whole
        pass
    while at(","):
        at("")
        key, i = decode(buf, i)
        if key == "bags" or not isinstance(key, str) or not at(":"):
            raise ValueError("a second 'bags' key, or a key that is not a str")
        at("")
        _, i = decode(buf, i)
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
    return PathDecomposition(bags)
