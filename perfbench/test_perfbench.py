"""Tests of the benchmark itself: inputs, output checks, tracing and names.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from metricdim import (  # noqa: E402
    Graph,
    Predicate,
    add_edge,
    decode_graph6,
    encode_graph6,
    enumerate_labeled_connected,
    make_chain,
    make_gadget,
    realize,
    scan,
)
from metricdim.verify import SUITES, SuiteResult  # noqa: E402

import gates  # noqa: E402
import metrics  # noqa: E402
import streams  # noqa: E402
from spans import Tracer  # noqa: E402
from stopwatch import Stopwatch  # noqa: E402
from workloads import naive_oracle  # noqa: E402


def test_stream_is_deterministic_per_seed():
    assert streams.make_chunk(7, 0) == streams.make_chunk(7, 0)
    assert streams.make_chunk(7, 0) != streams.make_chunk(8, 0)
    assert streams.make_chunk(7, 0) != streams.make_chunk(7, 1)


def test_stream_records_are_connected_order_ten_graphs():
    items = streams.make_chunk(3, 0)
    assert len(items) == streams.CHUNK_RECORDS
    assert sum(it.planted is not None for it in items) == streams.PLANTED_PER_CHUNK
    for it in items:
        g = decode_graph6(it.record)
        assert g == Graph.from_edges(it.n, it.edges)
        assert g.is_connected()
        assert it.planted is not None or g.n == streams.ORDER


def test_planted_graphs_have_edim_below_dim():
    built = {
        "G:6,1,2": make_gadget(6, 1, 2),
        "G:6,2,2": make_gadget(6, 2, 2),
        "G:6,1,3": make_gadget(6, 1, 3),
        "G:8,1,2": make_gadget(8, 1, 2),
        "realize:3,2,12": realize(3, 2, 12),
    }
    assert set(built) == set(streams.PLANTED)
    for name, (n, edges, dim, edim) in streams.PLANTED.items():
        assert Graph.from_edges(n, edges) == built[name].graph
        assert naive_oracle(n, edges) == (dim, edim)
        assert edim < dim


def test_census_histograms_match_naive_oracle():
    for n in (3, 4, 5):
        hist = Counter()
        for g in enumerate_labeled_connected(n):
            dim, edim = naive_oracle(g.n, g.edges)
            hist[dim - edim] += 1
        assert dict(hist) == gates.CENSUS_HISTOGRAMS[n]
        assert sum(hist.values()) == gates.CENSUS_COUNTS[n]


def _small_stream():
    chunk = streams.make_chunk(3, 0)
    items = [it for it in chunk if it.planted] + [it for it in chunk if not it.planted][:30]
    reports = {
        kind: scan(iter([it.record for it in items]), Predicate(kind)) for kind in ("lt", "gt")
    }
    return items, reports


def _with_matches(report, matches):
    return dataclasses.replace(report, matches=matches)


def test_scan_gates_accept_real_reports_and_reject_corrupted_ones():
    items, rep = _small_stream()
    lt, gt = rep["lt"], rep["gt"]
    assert gates.scan_report(lt, items, "lt") == []
    assert gates.scan_report(gt, items, "gt") == []
    assert gates.matches_confirmed(lt, items, "lt", naive_oracle) == []
    assert gates.matches_confirmed(gt, items, "gt", naive_oracle, [m.line for m in gt.matches[:3]]) == []
    assert gates.neither_equal(lt, gt, items, naive_oracle) == []
    assert gates.same_report(lt, dataclasses.replace(lt), "copy") == []

    # A planted graph missing from the lt matches, or present in gt's.
    assert gates.scan_report(_with_matches(lt, lt.matches[1:]), items, "lt")
    planted = next(i for i, it in enumerate(items, 1) if it.planted)
    fake = dataclasses.replace(lt.matches[0], line=planted)
    assert gates.scan_report(_with_matches(gt, gt.matches + [fake]), items, "gt")
    # Wrong counts or errors.
    assert gates.scan_report(dataclasses.replace(lt, connected=lt.connected - 1), items, "lt")
    assert gates.scan_report(dataclasses.replace(lt, error_total=1), items, "lt")
    # Wrong dimensions on a match.
    bad = dataclasses.replace(lt.matches[0], dim=lt.matches[0].dim + 1)
    assert gates.matches_confirmed(_with_matches(lt, [bad] + lt.matches[1:]), items, "lt", naive_oracle)
    bad = dataclasses.replace(gt.matches[0], edim=gt.matches[0].edim + 1)
    assert gates.matches_confirmed(_with_matches(gt, [bad]), items, "gt", naive_oracle, [bad.line])
    # A gt match dropped: that graph is in neither report but has dim != edim.
    assert gates.neither_equal(lt, _with_matches(gt, gt.matches[1:]), items, naive_oracle)
    # The 2-worker report differs.
    assert gates.same_report(lt, _with_matches(lt, [bad] + lt.matches[1:]), "2w")


def test_census_gate_rejects_corrupted_reports():
    def report(**changes):
        base = dict(
            graphs_checked=dict(gates.CENSUS_COUNTS),
            histograms={n: dict(h) for n, h in gates.CENSUS_HISTOGRAMS.items()},
            violations=[],
        )
        base.update(changes)
        return SimpleNamespace(**base)

    assert gates.census(report()) == []
    assert gates.census(report(graphs_checked={**gates.CENSUS_COUNTS, 6: 26703}))
    hist = {n: dict(h) for n, h in gates.CENSUS_HISTOGRAMS.items()}
    hist[6][0] += 1
    assert gates.census(report(histograms=hist))
    assert gates.census(report(violations=[(6, "E?~o")]))


def test_family_gates_reject_corrupted_results():
    names = list(SUITES)
    ok = [SuiteResult(name) for name in names]
    assert gates.suites(ok, names) == []
    assert gates.suites(ok[:-1], names)
    assert gates.suites(ok[:-1] + [SuiteResult(names[-1], passed=False)], names)
    assert gates.torus((4, 3)) == []
    assert gates.torus((4, 4))

    g = make_chain(5, 1, 2, 3).graph
    back = decode_graph6(encode_graph6(g))
    assert gates.construction("L:3,5,1,2", g.n, g, back) == []
    assert gates.construction("L:3,5,1,2", g.n + 1, g, back)
    assert gates.construction("L:3,5,1,2", g.n, g, add_edge(back, 0, 2))
    assert gates.basis("b", 2, (0, 1), True) == []
    assert gates.basis("b", 2, (0, 1, 2), True)
    assert gates.basis("b", 2, (0, 1), False)


def test_tracing_off_records_no_spans():
    tr = Tracer(False)
    assert tr.call("graph.noop", max, 1, 2) == 2
    with tr.span("bench.outer"):
        tr.call("graph.noop", int)
    assert tr.spans == []


def test_tracing_on_links_children_and_splits_self_time():
    tr = Tracer(True)
    with tr.span("bench.outer"):
        tr.call("graph.noop", time.sleep, 0.01)
    (inner_id, inner_parent, inner, *_), (outer_id, outer_parent, outer, *_) = tr.spans
    assert (inner, outer) == ("graph.noop", "bench.outer")
    assert inner_parent == outer_id and outer_parent == 0
    own = tr.self_ns_by_layer()
    assert own["graph"] >= 10_000_000 > own["bench"]


def test_stopwatch_leaves_its_bursts_out_of_the_wall_time():
    t0 = time.perf_counter_ns()
    with Stopwatch() as sw:
        time.sleep(0.3)
    outside = time.perf_counter_ns() - t0
    assert len(sw.bursts) >= 4
    assert sw.inside_ns == sum(sw.bursts[1:-1]) > 0
    assert 0.25e9 < sw.wall_ns < outside - sw.inside_ns - sw.bursts[0] - sw.bursts[-1]
    with Stopwatch(ticks=False) as sw:
        time.sleep(0.1)
    assert len(sw.bursts) == 2


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == metrics.END_TO_END
    assert layer == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOAD_NAMES)
    assert list(metrics.SUITE_NAMES) == list(SUITES)
    for name, (unit, *_) in {**metrics.END_TO_END, **metrics.PER_LAYER}.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), unit


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "g10-lt", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
