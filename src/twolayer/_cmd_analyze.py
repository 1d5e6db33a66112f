"""The analyze command: crossing analytics for a drawing."""

import argparse

from . import graphs
from .cli import _int_from, _read, _write


def add(sub: argparse._SubParsersAction) -> None:
    analyze = sub.add_parser("analyze", help="crossing analytics for a drawing")
    analyze.add_argument("--in", dest="infile", required=True)
    analyze.add_argument("--out", default=None)
    analyze.add_argument("--cap-st", type=_int_from(1), default=graphs.DEFAULT_PROFILE_CAP)
    analyze.add_argument("--cap-edges", type=_int_from(0), default=graphs.DEFAULT_ST_EDGE_CAP)
    analyze.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    from .analysis import analysis_report

    drawing = graphs.drawing_from_json(_read(args.infile))
    report = analysis_report(drawing, st_cap=args.cap_st, edge_cap=args.cap_edges)
    _write(args.out, graphs._dumps(report))
    return 0
