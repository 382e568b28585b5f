"""Output checks run on every benchmark run, outside the timed regions.

Each check returns a list of problems; an empty list means the output is
right.  They take plain values (reports, counts, graphs) so that the
benchmark's tests can hand them corrupted results.  ``oracle`` is a callable
``(n, edges) -> (dim, edim)`` backed by the program's naive solvers, which
materialise every distance vector and share no search code with the fast
solvers.
"""

from __future__ import annotations

# OEIS A001187: connected labelled graphs on 3, 4, 5 and 6 vertices.
CENSUS_COUNTS = {3: 4, 4: 38, 5: 728, 6: 26704}
# dim - edim histogram of every connected labelled graph per order.  Checked
# once against metric_dimension_naive / edge_metric_dimension_naive over all
# 27474 graphs; test_perfbench.py repeats that check for orders 3 to 5.
CENSUS_HISTOGRAMS = {
    3: {0: 4},
    4: {-1: 6, 0: 32},
    5: {-2: 15, -1: 305, 0: 408},
    6: {-2: 4947, -1: 14945, 0: 6812},
}
TORUS_DIMS = (4, 3)  # C8 x C8, acceptance criterion c05


def _holds(kind: str, dim: int, edim: int) -> bool:
    return edim < dim if kind == "lt" else edim > dim


def scan_report(report, items, kind: str) -> list[str]:
    """Counts add up, nothing failed, and planted graphs land on the right side."""
    out = []
    n = len(items)
    if (report.total, report.decoded, report.connected) != (n, n, n):
        out.append(
            f"{kind}: counted {report.total}/{report.decoded}/{report.connected}"
            f" total/decoded/connected, expected {n} each"
        )
    if report.error_total or not report.complete:
        out.append(f"{kind}: {report.error_total} errors, complete={report.complete}")
    lines = {m.line for m in report.matches}
    for line, it in enumerate(items, start=1):
        if it.planted is None:
            continue
        if kind == "lt" and line not in lines:
            out.append(f"lt: planted {it.planted} at line {line} not matched")
        if kind == "gt" and line in lines:
            out.append(f"gt: planted {it.planted} at line {line} matched")
    return out


def matches_confirmed(report, items, kind: str, oracle, lines=None) -> list[str]:
    """Each match (or each of ``lines``) has the oracle's dimensions and the predicate."""
    out = []
    by_line = {m.line: m for m in report.matches}
    for line in sorted(by_line) if lines is None else lines:
        m = by_line[line]
        it = items[line - 1]
        if m.record != it.record.decode("ascii"):
            out.append(f"{kind}: line {line} reported record {m.record!r}")
            continue
        want = oracle(it.n, it.edges)
        if (m.dim, m.edim) != want or not _holds(kind, *want):
            out.append(f"{kind}: line {line} reported {(m.dim, m.edim)}, oracle {want}")
    return out


def neither_equal(lt_report, gt_report, items, oracle) -> list[str]:
    """Graphs matched by neither predicate have equal dimensions."""
    seen = {m.line for m in lt_report.matches} | {m.line for m in gt_report.matches}
    out = []
    for line, it in enumerate(items, start=1):
        if line in seen:
            continue
        dim, edim = oracle(it.n, it.edges)
        if dim != edim:
            out.append(f"line {line} in neither report, oracle {(dim, edim)}")
    return out


def _report_key(report):
    return (
        report.total,
        report.decoded,
        report.connected,
        report.error_total,
        [(m.line, m.record, m.dim, m.edim) for m in report.matches],
    )


def same_report(one, other, label: str) -> list[str]:
    if _report_key(one) != _report_key(other):
        return [f"{label}: reports differ"]
    return []


def census(report) -> list[str]:
    out = []
    if report.graphs_checked != CENSUS_COUNTS:
        out.append(f"census counts {report.graphs_checked}, expected {CENSUS_COUNTS}")
    if report.histograms != CENSUS_HISTOGRAMS:
        out.append(f"census histograms {report.histograms}")
    if report.violations:
        out.append(f"census violations {report.violations[:3]}")
    return out


def suites(results, expected_names) -> list[str]:
    out = [f"suite {r.name} failed" for r in results if not r.passed]
    names = [r.name for r in results]
    if names != list(expected_names):
        out.append(f"suites run {names}, expected {list(expected_names)}")
    return out


def torus(dims) -> list[str]:
    if tuple(dims) != TORUS_DIMS:
        return [f"C8xC8 (dim, edim) = {tuple(dims)}, expected {TORUS_DIMS}"]
    return []


def construction(label: str, order: int, graph, decoded) -> list[str]:
    """The construction has its requested order and survives graph6 unchanged."""
    out = []
    if graph.n != order:
        out.append(f"{label}: order {graph.n}, requested {order}")
    if decoded != graph:
        out.append(f"{label}: graph6 round trip changed the graph")
    return out


def basis(label: str, size: int, got, generates: bool) -> list[str]:
    if len(got) != size or not generates:
        return [f"{label}: basis of size {len(got)} (expected {size}), generates={generates}"]
    return []
