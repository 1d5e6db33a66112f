"""The render command: SVG of a drawing or of a decomposition."""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

from . import graphs
from .cli import _output

if TYPE_CHECKING:
    from .pathdecomp import PathDecomposition


def add(sub: argparse._SubParsersAction) -> None:
    ren = sub.add_parser("render", help="SVG for a drawing or decomposition")
    ren.add_argument("--in", dest="infile", required=True)
    ren.add_argument("--out", default=None)
    ren.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    from ._reader import _read_pd
    from .pathdecomp import PathDecomposition
    from .render import render_decomposition, render_drawing

    payload = _read_pd(args.infile, _render_payload)
    with _output(args.out) as fh:
        if isinstance(payload, PathDecomposition):
            render_decomposition(payload, fh)
        else:
            render_drawing(payload, fh)
    return 0


def _render_payload(text: str) -> PathDecomposition | graphs.TwoLayerDrawing:
    """The decomposition or the drawing in ``text``, from one decode: a
    document shaped like pd.json goes through the decomposition's bag
    reader, anything else through ``json.loads``."""
    from ._reader import _decomposition_from_object, _read_decomposition

    pd = _read_decomposition(text)
    if pd is not None:
        return pd
    data = graphs._load_object(text)
    if "bags" in data:
        return _decomposition_from_object(data)
    return graphs._drawing_from_object(data)
