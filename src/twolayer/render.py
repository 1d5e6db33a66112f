"""Deterministic SVG output for drawings and decompositions.

Drawings: side A on the y=0 rail, side B on the y=100 rail, each vertex at
x = 40 * rank.  Straight segments make the combinatorial crossings visible
literally.  Decompositions: bags as boxes left to right with their members
listed.  Identical inputs give byte-identical documents.

Each document is produced as a generator of chunks, one per bag or element.
The public functions join them, or write them to ``out`` as they come, so
that the CLI never holds a whole SVG.
"""

from __future__ import annotations

from itertools import chain
from operator import add
from typing import TYPE_CHECKING, Iterator, TextIO

from .graphs import TwoLayerDrawing, _join_or_write

if TYPE_CHECKING:  # an annotation only, so `gen --format svg` skips pathdecomp
    from .pathdecomp import PathDecomposition

X_STEP = 40
RAIL_A_Y = 0
RAIL_B_Y = 100
MARGIN = 30


def _svg_header(min_x: int, min_y: int, width: int, height: int) -> str:
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{min_x} {min_y} {width} {height}">\n'
    )


def render_drawing(drawing: TwoLayerDrawing, out: TextIO | None = None) -> str | None:
    """Two rails, circles at ranks, straight edge segments.  Returns the
    document, or writes it to ``out`` chunk by chunk and returns None."""
    return _join_or_write(_drawing_svg(drawing), out)


def _drawing_svg(drawing: TwoLayerDrawing) -> Iterator[str]:
    """The header, one line per edge, one circle and label per vertex, the
    closing tag."""
    n = max(len(drawing.order_a), len(drawing.order_b), 1)
    yield _svg_header(
        min_x=0,
        min_y=RAIL_A_Y - MARGIN,
        width=X_STEP * (n + 1),
        height=RAIL_B_Y - RAIL_A_Y + 2 * MARGIN,
    )
    pos = {}
    for v in drawing.order_a:
        pos[v] = (X_STEP * drawing.pos_a[v], RAIL_A_Y)
    for v in drawing.order_b:
        pos[v] = (X_STEP * drawing.pos_b[v], RAIL_B_Y)
    for u, v in drawing.graph.edges:
        (x1, y1), (x2, y2) = pos[u], pos[v]
        yield (
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            'stroke="black" stroke-width="1"/>\n'
        )
    for v, (x, y) in pos.items():
        ty = y - 10 if y == RAIL_A_Y else y + 18
        yield (
            f'<circle cx="{x}" cy="{y}" r="5" fill="white" stroke="black"/>\n'
            f'<text x="{x}" y="{ty}" font-size="10" text-anchor="middle">'
            f"{_escape(v)}</text>\n"
        )
    yield "</svg>\n"


BOX_WIDTH = 90
BOX_GAP = 20
LINE_HEIGHT = 14


def render_decomposition(pd: PathDecomposition, out: TextIO | None = None) -> str | None:
    """Bags as boxes in sequence order, members listed top to bottom.
    Returns the document, or writes it to ``out`` bag by bag and returns
    None."""
    return _join_or_write(_decomposition_svg(pd), out)


def _decomposition_svg(pd: PathDecomposition) -> Iterator[str]:
    """The header, one chunk per bag, the closing tag.  A bag's chunk is its
    box, then a text line for its 1-based index and one per member.  A line
    is the bag's ``<text x=…`` opening, its row's y and style, and its
    content, so each row's text and each id's escape are made once per
    document and a bag's lines come from one join; unbuilt bags stay so."""
    tallest = max(pd._sizes)
    box_h = LINE_HEIGHT * max(tallest, 1) + 24
    total_w = 2 * MARGIN + max(pd._count * (BOX_WIDTH + BOX_GAP) - BOX_GAP, BOX_WIDTH)
    escaped = {v: _escape(v) for v in pd.vertices}
    ys = [MARGIN - 6] + [MARGIN + 16 + j * LINE_HEIGHT for j in range(tallest)]
    rows = [f' y="{y}" font-size="10" text-anchor="middle">' for y in ys]
    yield _svg_header(min_x=0, min_y=0, width=total_w, height=box_h + 2 * MARGIN)
    for i, bag in enumerate(pd._sweep()):
        x = MARGIN + i * (BOX_WIDTH + BOX_GAP)
        text = f'<text x="{x + BOX_WIDTH // 2}"'
        lines = f"</text>\n{text}".join(
            map(add, rows, chain((str(i + 1),), map(escaped.__getitem__, bag)))
        )
        yield (
            f'<rect x="{x}" y="{MARGIN}" width="{BOX_WIDTH}" height="{box_h}" '
            f'fill="none" stroke="black"/>\n{text}{lines}</text>\n'
        )
    yield "</svg>\n"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
