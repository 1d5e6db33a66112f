"""The check-pd command: a decomposition's violations against its graph."""

import argparse

from . import graphs
from .cli import _read, _write


def add(sub: argparse._SubParsersAction) -> None:
    chk = sub.add_parser("check-pd", help="validate a path decomposition")
    chk.add_argument("--in", dest="infile", required=True)
    chk.add_argument("--graph", required=True)
    chk.add_argument("--out", default=None)
    chk.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    from ._reader import _read_pd
    from .pathdecomp import decomposition_from_json, validate_decomposition

    pd = _read_pd(args.infile, decomposition_from_json)
    graph = graphs.graph_from_json(_read(args.graph))
    violations = validate_decomposition(graph, pd)
    payload = {
        "ok": not violations,
        "width": pd.width if pd._count else None,
        "violations": [
            {
                "kind": v.kind,
                "vertex": v.vertex,
                "edge": v.edge,
                "indices": v.indices,
                "detail": v.describe(),
            }
            for v in violations
        ],
    }
    _write(args.out, graphs._dumps(payload))
    return 0 if not violations else 1
