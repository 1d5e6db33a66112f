"""The pathwidth command: the exact pathwidth of a small graph."""

import argparse

from . import graphs
from .cli import _int_from, _read, _write


def add(sub: argparse._SubParsersAction) -> None:
    pw = sub.add_parser("pathwidth", help="exact pathwidth of a small graph")
    pw.add_argument("--in", dest="infile", required=True)
    pw.add_argument("--out", default=None)
    pw.add_argument("--cap-n", type=_int_from(0), default=graphs.DEFAULT_PATHWIDTH_CAP)
    pw.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    from .pathdecomp import order_to_decomposition, pathwidth_exact

    graph = graphs.graph_from_json(_read(args.infile))
    pw, order = pathwidth_exact(graph, cap=args.cap_n)
    pd = order_to_decomposition(graph, order)
    payload = {
        "pathwidth": pw,
        "order": order,
        "bags": pd.bags,
    }
    _write(args.out, graphs._dumps(payload))
    return 0
