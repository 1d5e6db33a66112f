"""The decompose command: a drawing's certified path decomposition."""

import argparse

from . import graphs
from .cli import _int_from, _outputs, _read


def add(sub: argparse._SubParsersAction) -> None:
    dec = sub.add_parser(
        "decompose", help="drawing -> certified path decomposition"
    )
    dec.add_argument("--in", dest="infile", required=True)
    dec.add_argument("--out", default=None)
    dec.add_argument("--cert", default=None, help="also write the certificate")
    dec.add_argument("--cap-st", type=_int_from(1), default=graphs.DEFAULT_PROFILE_CAP)
    dec.add_argument("--cap-edges", type=_int_from(0), default=graphs.DEFAULT_ST_EDGE_CAP)
    dec.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    from .decompose import certificate_to_json, decompose_drawing
    from .pathdecomp import decomposition_to_json

    drawing = graphs.drawing_from_json(_read(args.infile))
    pd, cert = decompose_drawing(drawing, st_cap=args.cap_st, edge_cap=args.cap_edges)
    with _outputs(args.out, args.cert) as (fh, cert_fh):
        decomposition_to_json(pd, fh)
        fh.write("\n")
        if cert_fh is not None:
            cert_fh.write(certificate_to_json(cert) + "\n")
    return 0
