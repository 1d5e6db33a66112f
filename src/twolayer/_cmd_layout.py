"""The layout command: a decomposition's certified drawing."""

import argparse

from . import graphs
from .cli import _int_from, _outputs, _read


def add(sub: argparse._SubParsersAction) -> None:
    lay = sub.add_parser(
        "layout", help="path decomposition -> certified drawing"
    )
    lay.add_argument("--in", dest="infile", required=True)
    lay.add_argument("--graph", required=True)
    lay.add_argument("--out", default=None)
    lay.add_argument("--cert", default=None, help="also write the certificate")
    lay.add_argument("--cap-edges", type=_int_from(0), default=graphs.DEFAULT_ST_EDGE_CAP)
    lay.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    from ._reader import _read_pd
    from .layout import layout_certificate_to_json, layout_decomposition
    from .pathdecomp import decomposition_from_json

    pd = _read_pd(args.infile, decomposition_from_json)
    graph = graphs.graph_from_json(_read(args.graph))
    drawing, cert = layout_decomposition(graph, pd, edge_cap=args.cap_edges)
    with _outputs(args.out, args.cert) as (fh, cert_fh):
        fh.write(graphs.drawing_to_json(drawing) + "\n")
        if cert_fh is not None:
            cert_fh.write(layout_certificate_to_json(cert) + "\n")
    return 0
