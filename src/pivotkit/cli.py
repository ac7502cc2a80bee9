"""Command-line front end.

Exit codes: 0 success/PASS, 1 property violated (witness printed),
2 usage or parse error, 3 budget or size cap exceeded (unknown),
4 internal error (any other exception; its traceback goes to stderr).
All file arguments accept `-` for stdin; all formats are line-oriented
ASCII with `#` comment lines ignored.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback

from .cutrank import cut_rank, find_low_rank_separation
from .errors import CapExceeded
from .extremal import format_instance, gen_c6_blowup_example, gen_ktt_example, gen_random_instance
from .gf2 import parse_matrix
from .graph import format_bigraph, format_graph, parse_bigraph, parse_graph
from .matroid import (circuits, cographic_matroid, connectivity_lambda,
                      format_matroid, graphic_matroid, is_k_connected, minor,
                      parse_matroid, parse_multigraph)
from .pivot import is_pivot_minor, pivot
from .structure import (constant_block_partition, format_block_partition,
                        format_tree_split, perturbation_partition, split_tree)
from .verify import (campaign_names, format_report, parameter_names, replay_report,
                     run_campaign)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _csv_ints(raw: str) -> list[int]:
    """argparse type of a vertex set: comma-separated integers."""
    try:
        return [int(x) for x in raw.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"vertices must be comma-separated integers, got {raw!r}") from None


def _csv_strs(raw: str) -> list[str]:
    """argparse type of an element set: comma-separated labels."""
    return [x for x in raw.split(",") if x != ""]


def _connectivity_k(raw: str) -> int:
    """argparse type of a connectivity order: an integer >= 1."""
    try:
        k = int(raw)
    except ValueError:
        k = 0
    if k < 1:
        raise argparse.ArgumentTypeError(f"k must be an integer >= 1, got {raw!r}")
    return k


def _write(text: str) -> int:
    sys.stdout.write(text)
    return EXIT_OK


def _print(value) -> int:
    print(value)
    return EXIT_OK


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    """The parser; every leaf subcommand sets `run`, its handler."""
    parser = argparse.ArgumentParser(prog="pivotkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance")
    gen_sub = p.add_subparsers(dest="generator", required=True)
    g = gen_sub.add_parser("ktt")
    g.add_argument("t", type=int)
    g.set_defaults(run=lambda a: _write(format_instance(gen_ktt_example(a.t))))
    g = gen_sub.add_parser("c6blowup")
    g.add_argument("s", type=int)
    g.set_defaults(run=lambda a: _write(format_instance(gen_c6_blowup_example(a.s))))
    g = gen_sub.add_parser("random")
    g.add_argument("n", type=int)
    g.add_argument("extra", type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--allow-loops", action="store_true")
    g.set_defaults(run=lambda a: _write(format_instance(
        gen_random_instance(a.n, a.extra, a.seed, allow_loops=a.allow_loops))))

    p = sub.add_parser("fundgraph", help="fundamental graph of a multigraph")
    p.add_argument("file")
    p.set_defaults(run=_cmd_fundgraph)

    p = sub.add_parser("pivot", help="pivot a graph edge")
    p.add_argument("file")
    p.add_argument("x", type=int)
    p.add_argument("y", type=int)
    p.set_defaults(run=lambda a: _write(format_graph(pivot(parse_graph(_read(a.file)), a.x, a.y))))

    p = sub.add_parser("cutrank", help="cut-rank of a vertex set")
    p.add_argument("file")
    p.add_argument("--set", dest="vertex_set", required=True, type=_csv_ints)
    p.set_defaults(run=lambda a: _print(cut_rank(parse_graph(_read(a.file)), a.vertex_set)))

    p = sub.add_parser("rankconn", help="certify k-rank-connectivity")
    p.add_argument("file")
    p.add_argument("k", type=_connectivity_k)
    p.set_defaults(run=_cmd_rankconn)

    p = sub.add_parser("matroid", help="binary matroid operations")
    msub = p.add_subparsers(dest="matroid_command", required=True)
    m = msub.add_parser("fromgraph")
    m.add_argument("file")
    m.add_argument("--cographic", action="store_true")
    m.set_defaults(run=_cmd_fromgraph)
    m = msub.add_parser("circuits")
    m.add_argument("file")
    m.set_defaults(run=_cmd_circuits)
    m = msub.add_parser("minor")
    m.add_argument("file")
    m.add_argument("--delete", default="", type=_csv_strs)
    m.add_argument("--contract", default="", type=_csv_strs)
    m.set_defaults(run=lambda a: _write(format_matroid(
        minor(parse_matroid(_read(a.file)), a.delete, a.contract))))
    m = msub.add_parser("lambda")
    m.add_argument("file")
    m.add_argument("--set", dest="element_set", required=True, type=_csv_strs)
    m.set_defaults(run=lambda a: _print(
        connectivity_lambda(parse_matroid(_read(a.file)), a.element_set)))
    m = msub.add_parser("connectivity")
    m.add_argument("file")
    m.add_argument("k", type=_connectivity_k)
    m.set_defaults(run=_cmd_connectivity)

    p = sub.add_parser("splittree", help="split a tree into large parts")
    p.add_argument("file")
    p.add_argument("s", type=int)
    p.set_defaults(run=lambda a: _write(format_tree_split(
        split_tree(parse_graph(_read(a.file)), a.s))))

    p = sub.add_parser("partition", help="constant-block partition")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("file", nargs="?")
    source.add_argument("--pair", nargs=2, metavar=("G1", "G2"))
    p.set_defaults(run=_cmd_partition)

    p = sub.add_parser("pivotminor", help="pivot-minor containment search")
    p.add_argument("h_file")
    p.add_argument("g_file")
    p.add_argument("--budget", type=int, default=20000)
    p.add_argument("--refute", action="store_true",
                   help="exit 1 when the pivot-minor IS found")
    p.set_defaults(run=_cmd_pivotminor)

    p = sub.add_parser("check", help="run a verification campaign")
    p.add_argument("campaign", choices=campaign_names())
    p.add_argument("--seed", type=int, default=0)
    for key in parameter_names():
        if key == "instances":
            p.add_argument("--instance", action="append", dest="instances",
                           help="ktt:<t> | c6blowup:<s> | random:<n>:<extra>:<seed>; "
                                "repeatable, replaces random generation")
        else:
            p.add_argument("--" + key.replace("_", "-"), type=int)
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("replay", help="re-verify the witnesses in a report")
    p.add_argument("file")
    p.set_defaults(run=_cmd_replay)
    return parser


def _cmd_fundgraph(args) -> int:
    mg, tree = parse_multigraph(_read(args.file))
    return _write(format_bigraph(graphic_matroid(mg, tree).rep))


def _cmd_rankconn(args) -> int:
    g = parse_graph(_read(args.file))
    sep = find_low_rank_separation(g, args.k)
    if sep is None:
        print(f"{args.k}-rank-connected")
        return EXIT_OK
    print(f"separation order={sep.order} cutrank={sep.cutrank_value} "
          f"side={','.join(map(str, sep.side_x))}")
    return EXIT_VIOLATION


def _cmd_fromgraph(args) -> int:
    mg, tree = parse_multigraph(_read(args.file))
    return _write(format_matroid(cographic_matroid(mg, tree) if args.cographic
                                 else graphic_matroid(mg, tree)))


def _cmd_circuits(args) -> int:
    for circuit in sorted(sorted(c) for c in circuits(parse_matroid(_read(args.file)))):
        print(" ".join(circuit))
    return EXIT_OK


def _cmd_connectivity(args) -> int:
    connected, witness = is_k_connected(parse_matroid(_read(args.file)), args.k)
    if connected:
        print(f"{args.k}-connected")
        return EXIT_OK
    print("separation side=" + ",".join(sorted(witness)))
    return EXIT_VIOLATION


def _cmd_partition(args) -> int:
    if args.pair:
        bp = perturbation_partition(*(parse_bigraph(_read(path)) for path in args.pair))
    else:
        bp = constant_block_partition(parse_matrix(_read(args.file)))
    return _write(format_block_partition(bp))


def _cmd_pivotminor(args) -> int:
    h = parse_graph(_read(args.h_file))
    g = parse_graph(_read(args.g_file))
    found, witness = is_pivot_minor(h, g, args.budget)
    if found:
        steps = " ".join("pivot:%d,%d" % step[1:] if step[0] == "pivot"
                         else "delete:%d" % step[1] for step in witness)
        print(f"yes {steps}".rstrip())
        return EXIT_VIOLATION if args.refute else EXIT_OK
    print("no")
    return EXIT_OK


def _cmd_check(args) -> int:
    params = {key: value for key in parameter_names()
              if (value := getattr(args, key)) is not None}
    report = run_campaign(args.campaign, params, seed=args.seed)
    sys.stdout.write(format_report(report))
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _cmd_replay(args) -> int:
    results = replay_report(_read(args.file))
    if not results:
        print("no witnesses")
        return EXIT_OK
    all_confirmed = True
    for i, (_, retriggered) in enumerate(results):
        print(f"witness {i} " + ("CONFIRMED" if retriggered else "NOT-REPRODUCED"))
        all_confirmed &= retriggered
    if not all_confirmed:
        print("replay: some witnesses did not re-trigger", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_VIOLATION


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.run(args)
    except CapExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        print("internal error:\n" + traceback.format_exc(), end="", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
