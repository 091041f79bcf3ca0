"""Command-line front end: build, query, verify, bench.

Exit codes: 0 ok, 1 verification/assertion failure, 2 usage or malformed
input, 3 I/O error, 4 index/text pairing mismatch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import audit
from .errors import (
    BadSymbolError,
    CorruptIndexError,
    MalformedInputError,
    OutOfRangeError,
    PairingError,
    StrindexError,
)
from .index import StringIndex, max_k, rank_budget, select_budget
from .text import FORMATS, ProbeSession, load

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PAIRING = 4


def _positive_int(value):
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return n


def _int_list(value):
    try:
        return [int(tok) for tok in value.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {value!r}")


def _add_text_args(p):
    p.add_argument("--input", required=True, help="path to the sequence file")
    p.add_argument("--format", required=True, choices=FORMATS)
    p.add_argument("--sigma", type=_positive_int, default=None,
                   help="alphabet size; derived from the data when omitted")


def _load_text(args):
    data = Path(args.input).read_bytes()
    return load(data, args.format, args.sigma)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="strindex",
        description="Systematic rank/select index over probe-only sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build an index file")
    _add_text_args(p)
    p.add_argument("--t", type=_positive_int, required=True,
                   help="probe budget parameter (select uses <= 2t+1 probes)")
    p.add_argument("--k", type=_positive_int, default=1,
                   help="predecessor sub-sampling rate (default 1)")
    p.add_argument("--output", required=True, help="index file to write")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="run one query against an index")
    p.add_argument("--index", required=True)
    _add_text_args(p)
    p.add_argument("op", choices=("rank", "select", "access"))
    p.add_argument("args", nargs="+", type=int, metavar="ARG")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("verify", help="cross-check an index against the oracle")
    p.add_argument("--index", required=True)
    _add_text_args(p)
    p.add_argument("--queries", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="sweep (t, k) points and emit CSV/JSON")
    _add_text_args(p)
    p.add_argument("--t-list", type=_int_list, required=True)
    p.add_argument("--k-list", type=_int_list, default=[1])
    p.add_argument("--queries", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV path; JSON mirror written beside it")
    p.set_defaults(func=cmd_bench)

    return parser


def cmd_build(args, parser):
    text = _load_text(args)
    if args.k > max_k(text.sigma):
        parser.error(f"--k {args.k} exceeds ceil(log2(sigma)) = {max_k(text.sigma)}")
    ix = StringIndex.build(text, args.t, args.k)
    payload = ix.to_bytes()
    Path(args.output).write_bytes(payload)
    for line in ix.space_report().lines():
        print(line)
    print(f"wrote {args.output} ({len(payload)} bytes)")
    return EXIT_OK


def cmd_query(args, parser):
    want = 1 if args.op == "access" else 2
    if len(args.args) != want:
        parser.error(f"{args.op} takes exactly {want} integer argument(s)")
    ix = StringIndex.from_bytes(Path(args.index).read_bytes())
    text = _load_text(args)
    session = ProbeSession()
    if args.op == "rank":
        answer = ix.rank(text, session, args.args[0], args.args[1])
    elif args.op == "select":
        answer = ix.select(text, session, args.args[0], args.args[1])
    else:
        answer = ix.access(text, session, args.args[0])
    print(f"{answer} probes={session.count}")
    return EXIT_OK


def cmd_verify(args, parser):
    ix = StringIndex.from_bytes(Path(args.index).read_bytes())
    ix.blocks  # decodes every block, so that a payload fault anywhere is found
    text = _load_text(args)
    ix.check_pairing(text)
    queries = audit.make_workload(text, args.queries, args.seed)
    stats, mismatches = audit.run_queries(ix, text, queries, check=True)
    budget_ok = (
        stats["select_probes_max"] <= select_budget(ix.t)
        and stats["rank_probes_max"] <= rank_budget(ix.t, ix.k)
    )
    print(f"checked {stats['queries']} queries: {len(mismatches)} mismatches")
    print(
        f"probe maxima: rank={stats['rank_probes_max']} "
        f"(budget {rank_budget(ix.t, ix.k)}), "
        f"select={stats['select_probes_max']} (budget {select_budget(ix.t)})"
    )
    for miss in mismatches[:10]:
        print(f"MISMATCH {miss}")
    if mismatches or not budget_ok:
        return EXIT_VERIFY
    return EXIT_OK


def cmd_bench(args, parser):
    text = _load_text(args)
    for k in args.k_list:
        if not 1 <= k <= max_k(text.sigma):
            parser.error(f"--k-list entry {k} outside [1, {max_k(text.sigma)}]")
    for t in args.t_list:
        if t < 1:
            parser.error(f"--t-list entry {t} must be >= 1")
    records = audit.sweep(text, args.t_list, args.k_list,
                          queries=args.queries, seed=args.seed)
    out = Path(args.out)
    out.write_text(audit.to_csv(records))
    json_path = out.with_suffix(".json")
    if json_path == out:  # --out names a .json file: keep the CSV there
        json_path = out.with_name(out.name + ".json")
    json_path.write_text(audit.to_json(records))
    ok, lines = audit.check_budget(records)
    for line in lines:
        print(line)
    print(f"wrote {out} and {json_path}")
    return EXIT_OK if ok else EXIT_VERIFY


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (MalformedInputError, CorruptIndexError, BadSymbolError,
            OutOfRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PairingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PAIRING
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except StrindexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
