"""Command line interface.

Exit codes: 0 success, 1 verification failure, 2 usage, parse or file error,
3 vertex cap exceeded (for verify: some instance skipped, none failed),
4 element outside the embedding image.
"""

import argparse
import json
import os
import sys

from . import base, embedding, kac, tableaux, verify
from .errors import KacCrystalError, SizeCapExceeded


def _parse_rank(text):
    try:
        m, n = (int(x) for x in text.split(","))
        return base.make_rank(m, n)
    except ValueError as exc:
        raise SystemExit2("bad rank %r: %s" % (text, exc))


class SystemExit2(Exception):
    pass


def _write_out(chunks, path):
    """Write the text pieces to the file at `path`, or to stdout without one."""
    if path:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _read_in(path):
    if path and path != "-":
        with open(path) as fh:
            return fh.read()
    return sys.stdin.read()


def cmd_crystal(args):
    rank = _parse_rank(args.rank)
    lam = base.Weight.parse(rank, getattr(args, "lambda"))
    g = kac.generate_graph(lam, cap=args.cap, model=args.model, ell=args.ell)
    if args.format == "dot":
        _write_out([g.to_dot()], args.out)
    else:
        _write_out(g.json_chunks(), args.out)
    return 0


def cmd_verify(args):
    threads = args.threads
    if threads is None:
        threads = int(os.environ.get("KAC_CRYSTAL_THREADS", "1"))
    ranks = verify.DEFAULT_RANKS
    if args.ranks:
        ranks = tuple(_parse_rank(part) for part in args.ranks.split(";"))
    box = verify.DEFAULT_BOX
    if args.box:
        try:
            lo, hi = (int(x) for x in args.box.split(","))
        except ValueError as exc:
            raise SystemExit2("bad box %r: %s" % (args.box, exc))
        if lo > hi:
            raise SystemExit2("bad box %r: lo %d is above hi %d" % (args.box, lo, hi))
        box = (lo, hi)
    reports, ok = verify.run_sweep(ranks=ranks, box=box, cap=args.cap, threads=threads)
    _write_out([verify.report_to_json(reports), "\n"], args.out)
    if not ok:
        return 1
    return 3 if any("skipped" in r for r in reports) else 0


def cmd_embed(args):
    rank = _parse_rank(args.rank)
    data = json.loads(_read_in(args.input))
    if args.inverse:
        elem = kac.KacElement.from_json(rank, data)
        t = embedding.pi_bar(rank, elem)
        if t is None:
            sys.stderr.write("element is outside the embedding image\n")
            return 4
        _write_out([json.dumps(t.to_json(), indent=2), "\n"], args.out)
        return 0
    t = tableaux.parse_straight(rank, data, base.ALPHABET_B, "tableau")
    b = embedding.xi(rank, t)
    out = b.to_json()
    out["lambda"] = str(base.hook_weight(rank, t.outer))
    _write_out([json.dumps(out, indent=2), "\n"], args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kaccrystal",
        description="Crystal graphs of Kac modules and their tableau embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("crystal", help="generate a crystal graph")
    p.add_argument("--rank", required=True, help="m,n")
    p.add_argument("--lambda", required=True, help='weight, e.g. "4,3,2|3,1,0"')
    p.add_argument("--model", choices=[kac.MODEL_STANDARD, kac.MODEL_DUAL], default=kac.MODEL_STANDARD)
    p.add_argument("--ell", type=int, default=None, help="rectangle width (dual model)")
    p.add_argument("--cap", type=int, default=kac.DEFAULT_CAP)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_crystal)

    p = sub.add_parser("verify", help="run the verification sweep")
    p.add_argument("--ranks", default=None, help='semicolon list, e.g. "1,1;2,2"')
    p.add_argument("--box", default=None, help="coordinate range lo,hi")
    p.add_argument("--cap", type=int, default=kac.DEFAULT_CAP)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("embed", help="embed a hook tableau (or invert)")
    p.add_argument("--rank", required=True, help="m,n")
    p.add_argument("--in", dest="input", default="-", help="input JSON file or -")
    p.add_argument("--inverse", action="store_true", help="map a crystal element back")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_embed)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SizeCapExceeded as exc:
        sys.stderr.write(str(exc) + "\n")
        return 3
    except SystemExit2 as exc:
        sys.stderr.write(str(exc) + "\n")
        return 2
    except (KacCrystalError, ValueError, KeyError, OSError) as exc:
        sys.stderr.write("error: %s\n" % (exc,))
        return 2


if __name__ == "__main__":
    sys.exit(main())
