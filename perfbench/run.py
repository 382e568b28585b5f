"""Benchmark entry point for metricdim.

    python3 perfbench/run.py --workload g10-lt --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program under test is imported from
``src/``; nothing is installed.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics.  A human-readable report goes to standard error, and a result
file (plus, when traced, the spans) to ``.perfbench_out/``.  A wrong output
makes the run fail with exit code 1.  ``--workload all`` runs every
workload in its own process and prints the headline figures per workload.

See README.md in this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gates
import streams
from metrics import END_TO_END, LAYERS, PER_LAYER, WORKLOAD_NAMES
from spans import Tracer
from stopwatch import Stopwatch

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_SPAWNS = 11
CLI_SPAWNS = 5


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict) -> list[float]:
    """Seconds from starting a fresh interpreter to ``import metricdim`` done.

    Scaled to the reference machine speed like ``op_ms``; the bursts run
    before and after each child, never beside it.
    """
    times = []
    for _ in range(SETUP_SPAWNS):
        # No timeout: with one, subprocess polls for the exit in steps of up
        # to 50 ms, which would quantise the measurement.
        with Stopwatch(ticks=False) as sw:
            subprocess.run([sys.executable, "-c", "import metricdim"], cwd=ROOT, env=env, check=True)
        times.append(sw.ref_ms / 1e3)
    return times


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def _span_cost_us() -> float:
    tr = Tracer(True)
    per = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for _ in range(2000):
            tr.call("bench.noop", int)
        per.append((time.perf_counter_ns() - t0) / 2000 / 1e3)
    return statistics.median(per)


def run_one(workload: str, seed: int, seconds: int, traced: bool) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    env = _env()
    setup = measure_setup(env)
    tracer = Tracer(traced)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Ctx(ROOT, work, seed, seconds, tracer)
    try:
        workloads.WORKLOADS[workload](ctx)
        if traced:
            starts = []
            for _ in range(CLI_SPAWNS):
                secs, problems = workloads.cli_startup(ROOT, env, tracer)
                ctx.check(problems)
                starts.append(secs)
            workloads.probe(ctx, starts)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    op_ms = statistics.median(ctx.samples) if ctx.samples else None
    e2e = {"op_ms": op_ms, "setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb()}
    lines = workloads.src_lines(ROOT)
    derived = _derived(workload, op_ms, ctx.info)
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "correct": not ctx.problems,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "end_to_end": e2e,
        "op_ms_samples": ctx.samples,
        "op_wall_ms_samples": ctx.wall_samples,
        "op_wall_ms": statistics.median(ctx.wall_samples) if ctx.wall_samples else None,
        "setup_s_samples": setup,
        "derived": derived,
        "src_lines": lines,
        "problems": ctx.problems[:20],
    }
    if traced:
        layer = ctx.layer
        traced_ms = statistics.median(ctx.traced_samples) if ctx.traced_samples else None
        layer["trace.overhead_ratio"] = traced_ms / op_ms if traced_ms and op_ms else None
        layer["trace.span_cost_us"] = _span_cost_us()
        layer["trace.spans"] = len(tracer.spans)
        layer["src.lines"] = lines
        self_ns = tracer.self_ns_by_layer()
        for name in LAYERS:
            layer[f"self.{name}_s"] = self_ns.get(name, 0) / 1e9
        result["per_layer"] = layer
        result["op_ms_traced_samples"] = ctx.traced_samples
        result["trace_run_id"] = tracer.run_id
        tracer.write(OUT / f"spans-{workload}-seed{seed}.json.gz")
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(result, indent=1))

    _print_report(result)
    chosen = PER_LAYER if traced else END_TO_END
    values = result["per_layer"] if traced else e2e
    out = {
        "correct": result["correct"],
        "attempted": max(ctx.attempted, 1),
        "failed": ctx.failed,
        "metrics": {name: {"value": values.get(name), "unit": spec[0]} for name, spec in chosen.items()},
    }
    print(json.dumps(out))
    return 0 if result["correct"] else 1


def _derived(workload: str, op_ms, info: dict) -> dict:
    """Figures computed from the gated ones; reported, never gated."""
    if op_ms is None:
        return {}
    out = {}
    if workload in ("g10-lt", "g10-gt"):
        rate = 1e3 / op_ms
        out[f"scan_{workload[4:]}_graphs_per_s"] = rate
        if workload == "g10-lt":
            out["c08_hours_1w"] = streams.C08_GRAPHS / rate / 3600
            out["c08_hours_8w_ideal"] = out["c08_hours_1w"] / 8
            out["c08_budget"] = "<2h/8w"
            rate2 = info.get("scan_lt_2w_graphs_per_s")
            if rate2:
                out["scan_lt_2w_graphs_per_s"] = rate2
                out["c08_hours_2w"] = streams.C08_GRAPHS / rate2 / 3600
    elif workload == "census-6":
        out["census_graphs_per_s"] = sum(gates.CENSUS_COUNTS.values()) / (op_ms / 1e3)
    elif workload == "paper-suites":
        out["suites_s"] = op_ms / 1e3
    elif workload == "paper-constructions":
        out["construct_s"] = op_ms / 1e3
    return out


def _print_report(result: dict) -> None:
    err = sys.stderr
    samples = result["op_ms_samples"]
    print(
        f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
        f"{'correct' if result['correct'] else 'WRONG OUTPUT'}, "
        f"{result['attempted']} attempted, {result['failed']} failed",
        file=err,
    )
    for problem in result["problems"]:
        print(f"  problem: {problem.strip()}", file=err)
    for name, value in result["end_to_end"].items():
        unit, better, bound = END_TO_END[name]
        extra = f"  median of {len(samples)} ops" if name == "op_ms" else ""
        print(f"  {name} = {value} {unit} ({better} is better, bound {bound}){extra}", file=err)
    for name, value in result["derived"].items():
        print(f"  derived {name} = {value}", file=err)
    print(f"  src lines = {result['src_lines']}", file=err)
    for name, value in result.get("per_layer", {}).items():
        unit, better = PER_LAYER[name]
        print(f"  layer {name} = {value} {unit} ({better} is better)", file=err)


def run_all(seed: int, seconds: int, traced: bool) -> int:
    """Every workload in a fresh process, then the headline figures."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
        path = OUT / f"result-{name}-seed{seed}-trace{int(traced)}.json"
        path.unlink(missing_ok=True)
        status |= subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL).returncode
        if not path.exists():
            print(f"perfbench: {name} wrote no result", file=sys.stderr)
            return 1
        results[name] = json.loads(path.read_text())
    derived = {k: v for r in results.values() for k, v in r["derived"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    headline = {
        "setup_s": (statistics.median(r["end_to_end"]["setup_s"] for r in results.values()), "s", "lower"),
        "scan_lt_graphs_per_s": (derived.get("scan_lt_graphs_per_s"), "graphs/s", "higher"),
        "scan_gt_graphs_per_s": (derived.get("scan_gt_graphs_per_s"), "graphs/s", "higher"),
        "scan_lt_2w_graphs_per_s": (derived.get("scan_lt_2w_graphs_per_s"), "graphs/s", "higher"),
        "census_graphs_per_s": (derived.get("census_graphs_per_s"), "graphs/s", "higher"),
        "suites_s": (derived.get("suites_s"), "s", "lower"),
        "construct_s": (derived.get("construct_s"), "s", "lower"),
        "peak_rss_mb": (max(r["end_to_end"]["peak_rss_mb"] for r in results.values()), "MiB", "lower"),
        "failed_ratio": (failed / max(attempted, 1), "failed/attempted", "lower"),
    }
    print(f"all workloads, seed {seed}, {seconds} s each:", file=sys.stderr)
    for name, (value, unit, better) in headline.items():
        print(f"  {name} = {value} {unit} ({better} is better)", file=sys.stderr)
    for key in ("c08_hours_1w", "c08_hours_2w", "c08_hours_8w_ideal", "c08_budget"):
        print(f"  derived {key} = {derived.get(key)}", file=sys.stderr)
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in headline.items()},
    }))
    return 1 if status else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "metricdim" / "__init__.py").is_file():
        print(f"perfbench: no src/metricdim under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
