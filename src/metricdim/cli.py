"""Command-line entry point.

Commands: ``dim``, ``edim``, ``both`` solve a single graph given as a family
spec, a graph6 record, a graph6 file (first record), or an edge list file;
``family`` and ``realize`` emit constructed graphs; ``scan`` streams graph6
records against a dim/edim predicate; ``verify`` runs the named conformance
suites or the small-order census; ``ratio`` builds a ratio witness.

Exit codes: 0 on success, 2 on usage errors (including sizes that graph6
cannot encode, census orders beyond the enumeration limit, malformed
predicates, ``--jobs`` outside 1 to the CPU count and a scan checkpoint
written for another predicate), 1 on computation errors such as
disconnected input, on an input file that cannot be opened and on running
out of memory.  Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from typing import Sequence

from .families import (
    FamilyGraph,
    family_order,
    minimum_realizable_order,
    parse_family_spec,
    realize,
)
from .graph import Graph, GraphError
from .graph6 import MAX_ORDER, Graph6Error, decode_graph6, encode_graph6, record_lines
from .scan import (
    MAX_ENUM_ORDER,
    CheckpointMismatch,
    OrderTooLarge,
    Predicate,
    scan,
    verify_small_orders,
)
from .solver import edge_metric_dimension, metric_dimension, solved_dims
from .verify import (
    GRIDS,
    SUITES,
    ratio_dim,
    ratio_witness,
    run_suites,
)

FAMILY_SPEC_EXAMPLES = (
    "G:7,3,4",
    "L:2,5,1,2",
    "cycle:8",
    "path:10",
    "complete:5",
    "cp:cycle:8xcycle:8",
)

_EPILOG = "family spec examples: " + "  ".join(FAMILY_SPEC_EXAMPLES)


class UsageError(ValueError):
    """Arguments the command refuses before doing any work (exit code 2)."""


def _check_order(order: int, what: str) -> None:
    if order >= MAX_ORDER:
        raise UsageError(
            f"{what} has order {order}, but graph6 output needs order < {MAX_ORDER}"
        )


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument("--family", metavar="SPEC", help="family specification string")
    grp.add_argument("--g6", metavar="RECORD", help="graph6 record")
    grp.add_argument(
        "--g6-file",
        metavar="PATH",
        help="file with one graph6 record per line (the first record is used)",
    )
    grp.add_argument("--edges", metavar="PATH", help="edge list file, one 0-based 'u v' pair per line")


def _add_format_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format",
        choices=("text", "records"),
        default="text",
        help="human-readable text or tab-separated records",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metricdim",
        description="Exact metric dimension and edge metric dimension toolkit.",
        epilog=_EPILOG,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("dim", "edim", "both"):
        sub = subs.add_parser(name, help=f"compute {name} of one graph", epilog=_EPILOG)
        _add_input_flags(sub)
        _add_format_flag(sub)
        sub.set_defaults(func=_cmd_solve, which=name)

    sub = subs.add_parser("family", help="construct a family graph and emit it", epilog=_EPILOG)
    _add_input_flags(sub)
    _add_format_flag(sub)
    sub.set_defaults(func=_cmd_family)

    sub = subs.add_parser("realize", help="construct a graph with prescribed dimensions")
    sub.add_argument("--dim", type=int, required=True, help="target metric dimension (>= 2)")
    sub.add_argument("--edim", type=int, required=True, help="target edge metric dimension (>= 2)")
    sub.add_argument("--order", type=int, required=True, help="target number of vertices")
    _add_format_flag(sub)
    sub.set_defaults(func=_cmd_realize)

    sub = subs.add_parser("scan", help="scan a graph6 stream for a dim/edim predicate")
    sub.add_argument("--g6-file", metavar="PATH", help="graph6 stream (default: stdin)")
    sub.add_argument(
        "--pred",
        default="lt",
        help="lt | gt | eq | diff:k | ratio:q  (lt means edim < dim)",
    )
    sub.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; the pool (concurrent.futures) is loaded only above 1",
    )
    sub.add_argument("--checkpoint", metavar="PATH", help="checkpoint file for resumable scans")
    sub.add_argument("--strict", action="store_true", help="abort on the first malformed record")
    _add_format_flag(sub)
    sub.set_defaults(func=_cmd_scan)

    sub = subs.add_parser("verify", help="run conformance suites or the small-order census")
    sub.add_argument(
        "--suite",
        default="all",
        help="comma list of suites or 'all': " + ", ".join(SUITES),
    )
    sub.add_argument("--grid", choices=list(GRIDS), default="small")
    sub.add_argument(
        "--small-orders",
        type=int,
        metavar="N",
        help="instead of suites, exhaust all connected graphs with 3 <= n <= N"
        f" (N <= {MAX_ENUM_ORDER})",
    )
    sub.set_defaults(func=_cmd_verify)

    sub = subs.add_parser("ratio", help="construct a dim/edim ratio witness")
    sub.add_argument("--target", required=True, help="ratio target q >= 1 (integer, decimal or p/q)")
    sub.set_defaults(func=_cmd_ratio)

    return parser


def _read_edge_list(path: str) -> Graph:
    edges: list[tuple[int, int]] = []
    top = -1
    with open(path, encoding="ascii") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphError(f"edge list line {raw!r} is not a 'u v' pair")
            u, v = int(parts[0]), int(parts[1])
            edges.append((u, v))
            top = max(top, u, v)
    if top < 0:
        raise GraphError(f"edge list {path} is empty")
    _check_order(top + 1, f"edge list {path}")
    return Graph.from_edges(top + 1, edges)


def _load_graph(args) -> Graph:
    if args.family is not None:
        _check_order(family_order(args.family), f"family {args.family}")
        return parse_family_spec(args.family)
    if args.g6 is not None:
        return decode_graph6(args.g6)
    if args.g6_file is not None:
        with open(args.g6_file, "rb") as fh:
            for _, line in record_lines(fh):
                return decode_graph6(line)
        raise Graph6Error(f"no graph6 record found in {args.g6_file}")
    return _read_edge_list(args.edges)


def _basis_names(g: Graph, witness: Sequence[int]) -> str:
    if isinstance(g, FamilyGraph):
        return "[" + ",".join(g.label_name(v) for v in witness) + "]"
    return "[" + ",".join(str(v) for v in witness) + "]"


def _cmd_solve(args) -> int:
    g = _load_graph(args)
    if args.format == "records":
        dim, edim = solved_dims(g)
        print(f"{encode_graph6(g)}\t{dim}\t{edim}")
        return 0
    if args.which == "dim":
        dim = metric_dimension(g)
        print(f"dim={dim.dimension} basis={_basis_names(g, dim.witness)}")
    elif args.which == "edim":
        edim = edge_metric_dimension(g)
        print(f"edim={edim.dimension} basis={_basis_names(g, edim.witness)}")
    else:
        dim, edim = solved_dims(g)
        print(f"dim={dim} edim={edim}")
    return 0


def _cmd_family(args) -> int:
    g = _load_graph(args)
    record = encode_graph6(g)
    if args.format == "records":
        print(record)
        return 0
    print(f"order={g.n} size={g.m} g6={record}")
    if isinstance(g, FamilyGraph):
        names = " ".join(f"{v}={g.label_name(v)}" for v in range(g.n))
        print(f"labels: {names}")
    return 0


def _cmd_realize(args) -> int:
    _check_order(args.order, "the requested graph")
    fam = realize(args.dim, args.edim, args.order)
    record = encode_graph6(fam)
    if args.format == "records":
        print(f"{record}\t{args.dim}\t{args.edim}")
        return 0
    print(f"g6={record}")
    print(f"order={fam.n} predicted dim={args.dim} edim={args.edim}")
    return 0


def _cmd_scan(args) -> int:
    # A pool starts all its workers at once, so --jobs must stay small.
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise UsageError(f"--jobs must be between 1 and {cpus}, got {args.jobs}")
    try:
        pred = Predicate.parse(args.pred)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    stream = nullcontext(sys.stdin.buffer) if args.g6_file is None else open(args.g6_file, "rb")
    with stream as fh:
        report = scan(fh, pred, jobs=args.jobs, strict=args.strict, checkpoint=args.checkpoint)
    if not report.complete:
        print(f"warning: scan incomplete (I/O error: {report.io_error})", file=sys.stderr)
    if args.format == "records":
        for m in report.matches:
            print(f"{m.record}\t{m.dim}\t{m.edim}")
    else:
        print(
            f"records={report.total} decoded={report.decoded} "
            f"connected={report.connected} errors={report.error_total} "
            f"matches={len(report.matches)} wall={report.wall_time:.1f}s"
        )
        for m in report.matches:
            print(f"  line {m.line}: {m.record}  dim={m.dim} edim={m.edim}")
        for lineno, msg in report.errors[:20]:
            print(f"  line {lineno}: {msg}", file=sys.stderr)
    return 0 if report.complete else 1


def _cmd_verify(args) -> int:
    if args.small_orders is not None:
        report = verify_small_orders(args.small_orders)
        for n in sorted(report.histograms):
            hist = " ".join(
                f"{gap:+d}:{count}" for gap, count in report.histograms[n].items()
            )
            print(
                f"order {n}: {report.graphs_checked[n]} connected graphs, "
                f"dim-edim histogram {hist}"
            )
        if report.violations:
            print(f"FAIL: {len(report.violations)} graphs with edim < dim")
            for n, rec in report.violations:
                print(f"  n={n}: {rec}")
            return 1
        print(f"PASS: no graph with edim < dim (wall={report.wall_time:.1f}s)")
        return 0
    names = None if args.suite == "all" else args.suite.split(",")
    results = run_suites(names, grid=args.grid)
    failed = False
    for res in results:
        print(f"{res.name}: {'PASS' if res.passed else 'FAIL'} ({res.seconds:.1f}s)")
        for row in res.rows:
            print(f"  {row}")
        failed = failed or not res.passed
    return 1 if failed else 0


# ``ratio`` solves its witness only up to this order.  The target may reach
# the graph6 limit and the witness grows by about 22 vertices per unit of q;
# an exact solve took 67 ms at order 330 and 0.9 s at order 1,078 (2 vCPUs).
_RATIO_CONFIRM_ORDER = 24


def _cmd_ratio(args) -> int:
    dim = ratio_dim(args.target)
    _check_order(minimum_realizable_order(dim, 2), "the ratio witness")
    w = ratio_witness(args.target)
    print(f"g6={encode_graph6(w)}")
    print(
        f"copies={w.copies} order={w.n} "
        f"predicted dim={dim} edim=2 ratio={Fraction(dim, 2)}"
    )
    if w.n <= _RATIO_CONFIRM_ORDER:
        solved_dim, solved_edim = solved_dims(w)
        print(f"confirmed dim={solved_dim} edim={solved_edim}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OrderTooLarge, CheckpointMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GraphError, ValueError, OSError) as exc:  # OSError: an unreadable input or a closed stdout
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # its message is usually empty, so name the cause
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
