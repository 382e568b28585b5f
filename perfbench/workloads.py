"""The benchmark's workloads and the traced per-layer probe.

Every workload is a closed loop with one caller: it repeats one operation
until ``--seconds`` is used up (never fewer than ``min_ops`` times) and
records that operation's wall time.  Inputs are built and outputs checked
outside the timed region.  ``op_ms`` is the median of the recorded times.

In a traced run the loop alternates traced and untraced operations, so the
ratio of their medians is the tracing overhead, and then ``probe`` times
calls into every module on the workloads' own inputs.  The probe is the
same for every workload, so every traced run reports every per-layer
metric.
"""

from __future__ import annotations

import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from metricdim import (
    Graph,
    Predicate,
    ScanMatch,
    ScanReport,
    canonical_basis,
    decode_graph6,
    edge_metric_dimension,
    edge_metric_dimension_naive,
    encode_graph6,
    enumerate_labeled_connected,
    make_chain,
    metric_dimension,
    metric_dimension_naive,
    ratio_witness,
    realize,
    scan,
    verify_small_orders,
)
from metricdim.families import make_cycle
from metricdim.graph import cartesian_product
from metricdim.solver import is_edge_metric_generator, is_metric_generator
from metricdim.verify import SUITES, run_suites

import gates
import streams
from metrics import PER_CALL
from spans import Tracer
from stopwatch import Stopwatch

_now = time.perf_counter_ns
GT_SAMPLE = 4  # gt matches per chunk re-solved by the naive oracle
GATE_CHUNKS = 4  # chunks 0..3 also go through the 2-worker scan
CENSUS_MAX_ORDER = 6

# The construction list.  graph6 encode/decode grows about 15x per doubling
# of the order, and make_chain / canonical_basis grow as ell squared.  Orders
# of about 300 keep one pass near 1.5 s today, so a 10 s run has enough
# passes for a steady median.
# (label, layer metric, function, args, requested order)
CONSTRUCTIONS = (
    ("L:30,6,1,2", "make_chain", make_chain, (6, 1, 2, 30), 330),
    ("L:30,5,1,2", "make_chain", make_chain, (5, 1, 2, 30), 300),
    ("realize:2,26,300", "realize", realize, (2, 26, 300), 300),
    ("realize:26,2,320", "realize", realize, (26, 2, 320), 320),
    ("ratio:16", "ratio_witness", ratio_witness, (16,), 330),
)
# canonical_basis arguments -> (chain label it belongs to, basis size).
# Even cycles pin the edge dimension at n3, odd ones the vertex dimension.
BASES = (
    ((6, 1, 2, 30, "vertex"), "L:30,6,1,2", 32),
    ((6, 1, 2, 30, "edge"), "L:30,6,1,2", 2),
    ((5, 1, 2, 30, "vertex"), "L:30,5,1,2", 2),
    ((5, 1, 2, 30, "edge"), "L:30,5,1,2", 32),
)


def naive_oracle(n: int, edges) -> tuple[int, int]:
    g = Graph.from_edges(n, edges)
    return metric_dimension_naive(g).dimension, edge_metric_dimension_naive(g).dimension


def _as_graph(built):
    """The plain graph inside a FamilyGraph or a RatioWitness."""
    while not isinstance(built, Graph):
        built = built.graph
    return built


@dataclass
class Ctx:
    root: Path
    work: Path
    seed: int
    seconds: float
    tracer: Tracer
    samples: list = field(default_factory=list)  # untraced op times, ref ms per unit
    traced_samples: list = field(default_factory=list)
    wall_samples: list = field(default_factory=list)  # untraced, raw wall ms per unit
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)  # reported, not gated
    layer: dict = field(default_factory=dict)  # per-layer metrics
    state: dict = field(default_factory=dict)  # shared between ops of a run

    def check(self, problems) -> None:
        self.problems.extend(problems)


def run_loop(ctx: Ctx, op, min_ops: int) -> None:
    """Call ``op(ctx, i)`` until the time is used up.

    ``op`` returns ``(stopwatch, units, problems)``: the timed region, the
    units of work it did and what the output checks found.
    """
    traced_run = ctx.tracer.enabled
    if traced_run:  # at least one traced and one untraced operation
        min_ops = max(min_ops, 2)
    start = time.monotonic()
    walls: list[float] = []
    i = 0
    while i < min_ops or time.monotonic() - start + statistics.median(walls) <= ctx.seconds:
        ctx.tracer.enabled = traced_run and i % 2 == 0
        t0 = time.monotonic()
        try:
            with ctx.tracer.span("bench.op"):
                sw, units, problems = op(ctx, i)
        except Exception:
            sw, units, problems = None, 1, [traceback.format_exc()]
        walls.append(time.monotonic() - t0)
        ctx.attempted += units
        if problems:
            ctx.failed += units
            ctx.problems.extend(problems)
        elif ctx.tracer.enabled:
            ctx.traced_samples.append(sw.ref_ms / units)
        else:
            ctx.samples.append(sw.ref_ms / units)
            ctx.wall_samples.append(sw.wall_ns / 1e6 / units)
        i += 1
    ctx.tracer.enabled = traced_run


# --------------------------------------------------------------------------
# g10-lt, g10-gt: scans of the seeded order-10 stream
# --------------------------------------------------------------------------


def _scan_file(ctx: Ctx, items, kind: str, jobs: int = 1, tag: str = "chunk"):
    """Scan ``items`` from a binary file handle with a fresh checkpoint path.

    Returns (report, stopwatch); only opening the file and the scan are timed.
    """
    path = ctx.work / f"{tag}.g6"
    ckpt = ctx.work / f"{tag}-{kind}-{jobs}.ckpt"
    path.write_bytes(streams.chunk_bytes(items))
    ckpt.unlink(missing_ok=True)
    with Stopwatch() as sw, open(path, "rb") as fh:
        report = ctx.tracer.call(
            "scan.scan", scan, fh, Predicate(kind), jobs=jobs, checkpoint=str(ckpt)
        )
    return report, sw


def _chunk(ctx: Ctx, i: int):
    cache = ctx.state.setdefault("chunks", {})
    if i not in cache:
        cache[i] = streams.make_chunk(ctx.seed, i)
    return cache.pop(i) if i >= GATE_CHUNKS else cache[i]


def _scan_op(kind: str):
    other = "gt" if kind == "lt" else "lt"

    def op(ctx: Ctx, i: int):
        items = _chunk(ctx, i)
        report, sw = _scan_file(ctx, items, kind)
        problems = gates.scan_report(report, items, kind)
        if kind == "lt":
            problems += gates.matches_confirmed(report, items, "lt", naive_oracle)
        else:
            problems += _gt_sample(ctx, i, report, items)
        if i == 0:
            # The other predicate on the same chunk: together they must
            # account for every graph.
            other_report, _ = _scan_file(ctx, items, other, tag="other")
            problems += gates.scan_report(other_report, items, other)
            if kind == "lt":
                lt, gt = report, other_report
                problems += _gt_sample(ctx, i, gt, items)
            else:
                lt, gt = other_report, report
                problems += gates.matches_confirmed(lt, items, "lt", naive_oracle)
            problems += gates.neither_equal(lt, gt, items, naive_oracle)
        if kind == "lt" and i < GATE_CHUNKS:
            ctx.state.setdefault("lt_reports", []).append(report)
            if i == GATE_CHUNKS - 1:
                problems += _two_worker_gate(ctx)
        return sw, len(items), problems

    return op


def _gt_sample(ctx: Ctx, i: int, report, items) -> list[str]:
    """A seeded sample of the gt matches, re-solved by the naive oracle."""
    rng = random.Random(f"gt-sample:{ctx.seed}:{i}")
    lines = sorted(m.line for m in report.matches)
    sample = rng.sample(lines, min(GT_SAMPLE, len(lines)))
    return gates.matches_confirmed(report, items, "gt", naive_oracle, sample)


def _two_worker_gate(ctx: Ctx) -> list[str]:
    """The 2-worker lt scan of chunks 0..3 equals the 1-worker scans joined."""
    items = [it for i in range(GATE_CHUNKS) for it in _chunk(ctx, i)]
    report, sw = _scan_file(ctx, items, "lt", jobs=2, tag="gate")
    ctx.info["scan_lt_2w_graphs_per_s"] = len(items) / (sw.ref_ms / 1e3)
    ref = ScanReport(predicate=Predicate("lt"))
    offset = 0
    for part in ctx.state["lt_reports"]:
        ref.total += part.total
        ref.decoded += part.decoded
        ref.connected += part.connected
        ref.error_total += part.error_total
        ref.matches += [
            ScanMatch(m.line + offset, m.record, m.dim, m.edim) for m in part.matches
        ]
        offset += part.total
    return gates.same_report(report, ref, "lt with 2 workers")


def g10_lt(ctx: Ctx) -> None:
    run_loop(ctx, _scan_op("lt"), min_ops=GATE_CHUNKS)


def g10_gt(ctx: Ctx) -> None:
    run_loop(ctx, _scan_op("gt"), min_ops=2)


# --------------------------------------------------------------------------
# census-6, paper-suites, paper-constructions
# --------------------------------------------------------------------------


def _census_op(ctx: Ctx, i: int):
    with Stopwatch() as sw:
        report = ctx.tracer.call(
            "scan.verify_small_orders", verify_small_orders, CENSUS_MAX_ORDER, jobs=1
        )
    return sw, 1, gates.census(report)


def census_6(ctx: Ctx) -> None:
    run_loop(ctx, _census_op, min_ops=2)


def _torus():
    return cartesian_product(make_cycle(8), make_cycle(8))


def _suites_op(ctx: Ctx, i: int):
    with Stopwatch() as sw:
        results = ctx.tracer.call("verify.run_suites", run_suites, grid="full")
        dim = ctx.tracer.call("solver.metric_dimension", metric_dimension, _torus())
        edim = ctx.tracer.call("solver.edge_metric_dimension", edge_metric_dimension, _torus())
    problems = gates.suites(results, SUITES) + gates.torus((dim.dimension, edim.dimension))
    return sw, 1, problems


def paper_suites(ctx: Ctx) -> None:
    run_loop(ctx, _suites_op, min_ops=1)


def construct_pass(tr: Tracer, totals: dict | None = None):
    """One pass over the construction list with graph6 round trips.

    Returns (stopwatch, built, bases).  With ``totals`` (traced runs only) the time
    of each call is added to it under its layer metric name.
    """
    built = {}
    bases = []

    def call(metric, name, fn, *args):
        out = tr.call(name, fn, *args)
        if totals is not None:
            totals[metric] = totals.get(metric, 0) + tr.last_ns()
        return out

    with Stopwatch() as sw:
        for label, kind, fn, args, _ in CONSTRUCTIONS:
            layer = "scan" if kind == "ratio_witness" else "families"
            g = _as_graph(call(f"families.{kind}_s", f"{layer}.{kind}", fn, *args))
            record = call("graph6.encode_large_s", "graph6.encode_graph6", encode_graph6, g)
            back = call("graph6.decode_large_s", "graph6.decode_graph6", decode_graph6, record)
            built[label] = (g, back)
        for args, _, _ in BASES:
            bases.append(call("families.canonical_basis_s", "families.canonical_basis", canonical_basis, *args))
    return sw, built, bases


def _constructions_op(ctx: Ctx, i: int):
    sw, built, bases = construct_pass(ctx.tracer)
    problems = []
    for label, _, _, _, order in CONSTRUCTIONS:
        g, back = built[label]
        problems += gates.construction(label, order, g, back)
    for (args, chain, size), got in zip(BASES, bases):
        generates = True
        if i == 0:  # the generator check costs a distance matrix; once per run
            test = is_metric_generator if args[-1] == "vertex" else is_edge_metric_generator
            generates = test(built[chain][0], got)
        problems += gates.basis(f"canonical_basis{args}", size, got, generates)
    return sw, 1, problems


def paper_constructions(ctx: Ctx) -> None:
    run_loop(ctx, _constructions_op, min_ops=2)


WORKLOADS = {
    "g10-lt": g10_lt,
    "g10-gt": g10_gt,
    "census-6": census_6,
    "paper-suites": paper_suites,
    "paper-constructions": paper_constructions,
}


# --------------------------------------------------------------------------
# The traced probe: per-layer metrics, the same in every workload's run
# --------------------------------------------------------------------------


def _hi_percentile(values):
    """p99 of 1000 samples: the highest percentile with ten samples beyond it."""
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def probe(ctx: Ctx, cli_starts) -> None:
    tr = ctx.tracer
    with tr.span("bench.probe_g10"):
        _probe_g10(ctx)
    with tr.span("bench.probe_census"):
        _probe_census(ctx)
    with tr.span("bench.probe_families"):
        _probe_families(ctx)
    ctx.layer["cli.startup_s"] = statistics.median(cli_starts)


def _probe_g10(ctx: Ctx) -> None:
    tr = ctx.tracer
    items = [it for i in range(GATE_CHUNKS) for it in streams.make_chunk(ctx.seed, i)]
    per_call = {name: [] for name in PER_CALL}
    dims, edims = [], []

    def timed(metric, name, fn, *args, **kwargs):
        out = tr.call(name, fn, *args, **kwargs)
        per_call[metric].append(tr.last_ns() / 1e3)
        return out

    for it in items:
        with tr.span("bench.graph"):
            g = timed("graph6.decode_us", "graph6.decode_graph6", decode_graph6, it.record)
            timed("graph.connected_us", "graph.is_connected", g.is_connected)
            timed("graph.bfs_us", "graph.distance_matrix", g.distance_matrix)
            timed("solver.dim_setup_us", "solver.metric_dimension", metric_dimension, g, max_k=0)
            timed("solver.edim_setup_us", "solver.edge_metric_dimension", edge_metric_dimension, g, max_k=0)
            dim = timed("solver.dim_us", "solver.metric_dimension", metric_dimension, g).dimension
            edim = timed("solver.edim_us", "solver.edge_metric_dimension", edge_metric_dimension, g).dimension
            timed("solver.edim_refute_us", "solver.edge_metric_dimension", edge_metric_dimension, g, max_k=dim - 1)
        dims.append(dim)
        edims.append(edim)
    for name, values in per_call.items():
        ctx.layer[name] = statistics.median(values)
        ctx.layer[name + ".p99"] = _hi_percentile(values)
        ctx.layer[name + ".n"] = len(values)

    reports, rates = {}, {}
    for kind, jobs in (("lt", 1), ("gt", 1), ("lt", 2)):
        with tr.span(f"bench.probe_scan_{kind}_{jobs}w"):
            report, sw = _scan_file(ctx, items, kind, jobs=jobs, tag="probe")
        reports[kind, jobs] = report
        rates[kind, jobs] = len(items) / (sw.wall_ns / 1e9)
    lt, gt = reports["lt", 1], reports["gt", 1]
    ctx.check(gates.same_report(reports["lt", 2], lt, "probe lt with 2 workers"))
    want_lt = [i + 1 for i, (d, e) in enumerate(zip(dims, edims)) if e < d]
    want_gt = [i + 1 for i, (d, e) in enumerate(zip(dims, edims)) if e > d]
    if [m.line for m in lt.matches] != want_lt or [m.line for m in gt.matches] != want_gt:
        ctx.problems.append("probe: scan matches disagree with the per-call solves")

    # What scan adds on top of the layer calls its lt predicate makes today:
    # decode, connectivity, distances, the full edge search and the vertex search.
    layer_us = sum(
        statistics.fmean(per_call[name])
        for name in ("graph6.decode_us", "graph.connected_us", "graph.bfs_us", "solver.dim_us", "solver.edim_us")
    )
    ctx.layer["scan.unattributed_us"] = 1e6 / rates["lt", 1] - layer_us
    ctx.layer["scan.pool_efficiency"] = rates["lt", 2] / (2 * rates["lt", 1])
    ctx.layer["scan.lt_matches"] = len(lt.matches)
    ctx.layer["scan.gt_matches"] = len(gt.matches)
    ctx.layer["scan.equal_dims"] = len(items) - len(lt.matches) - len(gt.matches)
    ctx.layer["solver.dim_mean"] = statistics.fmean(dims)
    ctx.layer["solver.edim_mean"] = statistics.fmean(edims)
    ctx.layer["scan.lt_graphs_per_s"] = rates["lt", 1]
    ctx.layer["scan.gt_graphs_per_s"] = rates["gt", 1]
    ctx.layer["scan.lt_2w_graphs_per_s"] = rates["lt", 2]
    ctx.layer["scan.c08_hours_1w"] = streams.C08_GRAPHS / rates["lt", 1] / 3600
    ctx.layer["scan.c08_hours_2w"] = streams.C08_GRAPHS / rates["lt", 2] / 3600

    # Resume from a checkpoint holding the gt matches, over an empty source.
    saved = ctx.work / "probe-gt-1.ckpt"
    resume = ctx.work / "resume.ckpt"
    times = []
    for _ in range(20):
        shutil.copyfile(saved, resume)
        with tr.span("bench.checkpoint"):
            report = tr.call("scan.scan", scan, iter(()), Predicate("gt"), checkpoint=str(resume))
        times.append(tr.last_ns() / 1e6)
        if len(report.matches) != len(gt.matches):
            ctx.problems.append("probe: checkpoint resume lost matches")
    ctx.layer["scan.checkpoint_ms"] = statistics.median(times)


def _probe_census(ctx: Ctx) -> None:
    tr = ctx.tracer
    enum_ns = 0
    masks = 0
    for n in range(3, CENSUS_MAX_ORDER + 1):
        count = tr.call(
            "scan.enumerate_labeled_connected",
            lambda n=n: sum(1 for _ in enumerate_labeled_connected(n)),
        )
        enum_ns += tr.last_ns()
        masks += 1 << (n * (n - 1) // 2)
        if count != gates.CENSUS_COUNTS[n]:
            ctx.problems.append(f"probe: enumerate_labeled_connected({n}) gave {count}")
    ctx.layer["scan.census_enumerate_us_per_mask"] = tr.last_ns() / 1e3 / (1 << 15)
    report = tr.call("scan.verify_small_orders", verify_small_orders, CENSUS_MAX_ORDER, jobs=1)
    ctx.check(gates.census(report))
    graphs = sum(report.graphs_checked.values())
    ctx.layer["scan.census_solve_us_per_graph"] = (tr.last_ns() - enum_ns) / 1e3 / graphs
    ctx.layer["scan.census_useful_ratio"] = graphs / masks


def _probe_families(ctx: Ctx) -> None:
    tr = ctx.tracer
    for name in SUITES:
        (result,) = tr.call("verify.run_suites", run_suites, [name], grid="full")
        ctx.layer[f"verify.{name}_s"] = tr.last_ns() / 1e9
        if not result.passed:
            ctx.problems.append(f"probe: suite {name} failed")
    dim = tr.call("solver.metric_dimension", metric_dimension, _torus())
    ctx.layer["solver.torus_dim_s"] = tr.last_ns() / 1e9
    edim = tr.call("solver.edge_metric_dimension", edge_metric_dimension, _torus())
    ctx.layer["solver.torus_edim_s"] = tr.last_ns() / 1e9
    ctx.check(gates.torus((dim.dimension, edim.dimension)))
    totals: dict = {}
    with tr.span("bench.constructions"):
        _, built, _ = construct_pass(tr, totals)
    for label, _, _, _, order in CONSTRUCTIONS:
        ctx.check(gates.construction(label, order, *built[label]))
    for name, ns in totals.items():
        ctx.layer[name] = ns / 1e9


def cli_startup(root: Path, env: dict, tr: Tracer) -> tuple[float, list[str]]:
    """Seconds for a fresh ``python -m metricdim both --g6 A_``."""
    t0 = _now()
    with tr.span("cli.main"):
        done = subprocess.run(
            [sys.executable, "-m", "metricdim", "both", "--g6", "A_"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
        )
    seconds = (_now() - t0) / 1e9
    if done.returncode != 0 or "dim=1 edim=0" not in done.stdout:
        return 0.0, [f"cli: exit {done.returncode}, output {done.stdout!r} {done.stderr!r}"]
    return seconds, []


def src_lines(root: Path) -> int:
    return sum(
        len(p.read_bytes().splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )
