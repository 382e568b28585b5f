"""High-throughput predicate scans over graph6 streams and small-order censuses.

``scan`` takes the records of a line-oriented graph6 stream from
``graph6.record_lines`` and records the connected graphs matching a
dim/edim predicate.  Each graph is evaluated dim first: the vertex
dimension is solved exactly, and the edge search then stops at the top of
the predicate's ``edim_window`` for that ``dim``, so the exact ``edim`` is
computed in full only where a match is possible.  Reports are
deterministic regardless of worker count: counts are additive and matches
are sorted by line number at the end.

``verify_small_orders`` exhausts every labelled connected graph up to order
seven without any external stream.  Both dimensions are isomorphism
invariants, so one exact solve per relabelling orbit of the edge masks (pair
j of ``combinations(range(n), 2)`` at bit j) counts for its ``n!/|Aut|``
labelled graphs.  Read's orderly generation grows each orbit's
representative, its largest mask, from a smaller one by one edge below its
lowest, and reads canonicity and ``|Aut|`` off one big int of its images
under all ``n!`` permutations.  Order seven has 1,044 orbits over 2**21
masks; its census takes about 0.3 s.  The naive oracle re-solves a fixed
sample of labelled graphs and every member of an orbit with ``edim < dim``.
"""

from __future__ import annotations

import math
import os
import sys
import time
from array import array
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from typing import Iterable, Iterator

from .graph import DisconnectedGraph, Graph
from .graph6 import Graph6Error, decode_graph6, encode_graph6, record_lines
from .solver import (
    edge_metric_dimension,
    edge_metric_dimension_naive,
    metric_dimension,
    metric_dimension_naive,
)

MAX_ENUM_ORDER = 7
MAX_ERROR_DETAILS = 1000  # diagnostics kept verbatim; the rest only counted
BATCH_SIZE = 512  # records per batch, solved in this process or in a worker
CHECKPOINT_EVERY = 10_000_000  # records between periodic checkpoint writes
_SELF_CHECK_STRIDE = 9973  # prime, so the sample is spread over edge masks


class OrderTooLarge(ValueError):
    """Exhaustive labelled enumeration asked for an order beyond its limit."""


@dataclass(frozen=True)
class Predicate:
    """Comparison between the two dimensions of a scanned graph.

    Kinds: ``lt`` (edim < dim), ``gt`` (edim > dim), ``eq``, ``diff``
    (dim - edim equals ``diff``) and ``ratio`` (dim/edim at least ``ratio``,
    counting a positive dim over edim zero as infinite).  ``str`` gives the
    text that ``parse`` reads back.
    """

    kind: str
    diff: int = 0
    ratio: Fraction = Fraction(1)

    def __post_init__(self):
        if self.kind not in ("lt", "gt", "eq", "diff", "ratio"):
            raise ValueError(f"unknown predicate kind {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "Predicate":
        head, sep, arg = text.partition(":")
        if head in ("lt", "gt", "eq") and not sep:
            return cls(head)
        try:
            if head == "diff" and sep:
                return cls("diff", diff=int(arg))
            if head == "ratio" and sep:
                return cls("ratio", ratio=Fraction(arg))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed predicate {text!r}: {exc}") from None
        raise ValueError(f"malformed predicate {text!r}")

    def __str__(self) -> str:
        if self.kind == "diff":
            return f"diff:{self.diff}"
        if self.kind == "ratio":
            return f"ratio:{self.ratio}"
        return self.kind

    def edim_window(self, dim: int) -> tuple[int, int | None]:
        """Edge dimensions ``lo..hi`` that match a graph of this ``dim``.

        ``lo`` is never negative.  ``hi`` is None for no upper limit (``gt``,
        or a ratio of at most zero); ``hi < lo`` means no edge dimension
        matches.  A ratio's ``lo`` is 1 at ``dim`` zero, since 0/0 does not
        match.
        """
        if self.kind == "lt":
            return 0, dim - 1
        if self.kind == "gt":
            return dim + 1, None
        if self.kind == "eq":
            return dim, dim
        if self.kind == "diff":
            return max(dim - self.diff, 0), dim - self.diff
        hi = math.floor(dim / self.ratio) if self.ratio > 0 else None
        return (0 if dim else 1), hi

    def matches(self, dim: int, edim: int) -> bool:
        lo, hi = self.edim_window(dim)
        return lo <= edim and (hi is None or edim <= hi)


class CheckpointMismatch(ValueError):
    """A checkpoint file was written for another predicate."""


@dataclass(frozen=True)
class ScanMatch:
    line: int
    record: str
    dim: int
    edim: int


@dataclass
class ScanReport:
    predicate: Predicate
    total: int = 0
    decoded: int = 0
    connected: int = 0
    matches: list[ScanMatch] = field(default_factory=list)
    errors: list[tuple[int, str]] = field(default_factory=list)
    error_total: int = 0
    wall_time: float = 0.0
    complete: bool = True
    io_error: str | None = None  # why the scan stopped early, if it did
    resumed_from: int = 0


def _evaluate(g: Graph, pred: Predicate) -> tuple[int, int] | None:
    """Exact ``(dim, edim)`` of a graph matching the predicate, else None.

    The vertex dimension is solved exactly first; it is the cheaper of the
    two.  One edge search follows, capped at the top of
    ``pred.edim_window(dim)`` and skipped when the window is empty.  Levels
    ascend, so a generator found within the cap gives the exact ``edim``,
    which matches if it reaches the window's bottom, and finding none
    proves that no accepted ``edim`` exists.  For ``gt`` the search is
    uncapped: it stops at ``dim`` or below on a non-match and runs on to
    the exact ``edim`` that every match reports.
    """
    dim = metric_dimension(g).dimension
    lo, hi = pred.edim_window(dim)
    if hi is not None and hi < lo:
        return None
    edim_res = edge_metric_dimension(g, max_k=hi)
    if edim_res is None or edim_res.dimension < lo:
        return None
    return dim, edim_res.dimension


def _scan_batch(payload: tuple[list[tuple[int, str]], Predicate]):
    batch, pred = payload
    decoded = connected = 0
    errors: list[tuple[int, str]] = []
    matches: list[ScanMatch] = []
    for lineno, line in batch:
        try:
            g = decode_graph6(line)
        except Graph6Error as exc:
            errors.append((lineno, str(exc)))
            continue
        decoded += 1
        try:
            dims = _evaluate(g, pred)
        except DisconnectedGraph:  # from the first solve's one BFS pass
            continue
        connected += 1
        if dims is not None:
            matches.append(ScanMatch(lineno, line, *dims))
    return len(batch), decoded, connected, errors, matches


def _solve_here(fn, payload) -> Future:
    """``fn(payload)`` solved in this process, as a finished future."""
    done: Future = Future()
    done.set_result(fn(payload))
    return done


def _write_checkpoint(path: str, last_line: int, report: ScanReport) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(f"predicate={report.predicate}\n")
        fh.write(f"last_line_processed={last_line}\n")
        fh.write(f"total={report.total}\n")
        fh.write(f"decoded={report.decoded}\n")
        fh.write(f"connected={report.connected}\n")
        fh.write(f"errors={report.error_total}\n")
        for m in sorted(report.matches, key=lambda m: m.line):
            fh.write(f"match={m.line}\t{m.record}\t{m.dim}\t{m.edim}\n")
    os.replace(tmp, path)


def _load_checkpoint(path: str, report: ScanReport) -> int:
    last = 0
    predicate = None
    with open(path, encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition("=")
            if key == "predicate":
                predicate = value
            elif key == "last_line_processed":
                last = int(value)
            elif key in ("total", "decoded", "connected"):
                setattr(report, key, int(value))
            elif key == "errors":
                report.error_total = int(value)
            elif key == "match":
                ln, rec, dim, edim = value.split("\t")
                report.matches.append(ScanMatch(int(ln), rec, int(dim), int(edim)))
    if predicate != str(report.predicate):
        found = "no predicate" if predicate is None else f"predicate {predicate}"
        raise CheckpointMismatch(
            f"checkpoint {path} has {found}, but this scan's predicate is {report.predicate}"
        )
    return last


def _batches(
    source: Iterable[str | bytes], report: ScanReport
) -> Iterator[list[tuple[int, str]]]:
    """Records past ``report.resumed_from``, ``BATCH_SIZE`` to a batch.

    An input error ends the batches, after the one it cut short, and marks
    the report incomplete.
    """
    batch: list[tuple[int, str]] = []
    try:
        for item in record_lines(source):
            if item[0] > report.resumed_from:
                batch.append(item)
                if len(batch) >= BATCH_SIZE:
                    yield batch
                    batch = []
    except OSError as exc:
        report.complete = False
        report.io_error = str(exc)
    if batch:
        yield batch


def scan(
    source: Iterable[str | bytes],
    predicate: Predicate,
    *,
    jobs: int = 1,
    strict: bool = False,
    checkpoint: str | None = None,
) -> ScanReport:
    """Test every connected graph of a graph6 stream against a predicate.

    Records come from ``graph6.record_lines`` in batches of ``BATCH_SIZE``.
    Disconnected entries are counted and skipped; malformed lines become
    per-line diagnostics unless ``strict``, which raises ``Graph6Error`` on
    the first.  ``jobs``, from 1 to the CPU count, decides only where a
    batch is solved: in this process, or in a pool of that many workers
    with at most ``2 * jobs`` batches in flight.

    A ``checkpoint`` file makes multi-hour scans resumable: progress is
    flushed every ``CHECKPOINT_EVERY`` records and at the end, and picked up
    when the file already exists.  A checkpoint written for another
    predicate raises ``CheckpointMismatch``.  No ``OSError`` escapes: the
    report comes back with ``complete`` false and the reason in
    ``io_error``.  When the input fails, every record read before the
    failure is solved and checkpointed first.
    """
    # A pool starts all its workers at once, so jobs stays within the CPU count.
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise ValueError(f"jobs must be between 1 and {cpus}, got {jobs}")
    report = ScanReport(predicate=predicate)
    start = time.monotonic()
    pending: deque[tuple[int, Future]] = deque()  # (last line, batch result)
    since_checkpoint = last_line = 0

    def absorb() -> None:
        nonlocal since_checkpoint, last_line
        last_line, fut = pending.popleft()
        batch_total, decoded, connected, errors, matches = fut.result()
        report.total += batch_total
        report.decoded += decoded
        report.connected += connected
        if strict and errors:
            lineno, msg = errors[0]
            raise Graph6Error(f"line {lineno}: {msg}")
        room = MAX_ERROR_DETAILS - len(report.errors)
        if room > 0:
            report.errors.extend(errors[:room])
        report.error_total += len(errors)
        report.matches.extend(matches)
        since_checkpoint += batch_total
        if checkpoint and since_checkpoint >= CHECKPOINT_EVERY:
            _write_checkpoint(checkpoint, last_line, report)
            since_checkpoint = 0

    try:
        if checkpoint and os.path.exists(checkpoint):
            report.resumed_from = last_line = _load_checkpoint(checkpoint, report)
        with ProcessPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool:
            submit = pool.submit if pool else _solve_here
            for batch in _batches(source, report):
                pending.append((batch[-1][0], submit(_scan_batch, (batch, predicate))))
                while len(pending) >= 2 * jobs:
                    absorb()
            while pending:
                absorb()
        if checkpoint:
            _write_checkpoint(checkpoint, last_line, report)
    except OSError as exc:
        report.complete = False
        report.io_error = str(exc)
    report.matches.sort(key=lambda m: m.line)
    report.wall_time = time.monotonic() - start
    return report


# ---------------------------------------------------------------------------
# Built-in exhaustive enumeration for small orders
# ---------------------------------------------------------------------------


def _mask_rows(mask: int, pairs: list[tuple[int, int]], n: int) -> list[int]:
    adj = [0] * n
    for i, (u, v) in enumerate(pairs):
        if mask >> i & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


def enumerate_labeled_connected(n: int) -> Iterator[Graph]:
    """Every labelled connected simple graph on ``n <= 7`` vertices, once each.

    All ``2**(n(n-1)/2)`` candidate edge sets are generated and filtered for
    connectivity; no isomorphism deduplication happens.
    """
    if not 1 <= n <= MAX_ENUM_ORDER:
        raise OrderTooLarge(f"labelled enumeration supports 1 <= n <= {MAX_ENUM_ORDER}")
    pairs = list(combinations(range(n), 2))
    graphs = (Graph(n, _mask_rows(m, pairs, n), _validate=False) for m in range(1 << len(pairs)))
    yield from filter(Graph.is_connected, graphs)


@cache
def _pair_columns(n: int) -> tuple[str, int, int, list[int]]:
    """Each vertex pair's images under all ``n!`` relabellings, built once per order.

    An edge mask sets bit j for pair j of ``combinations(range(n), 2)``, as
    ``_mask_rows`` reads it.  Slot s of column j (16 bits up to order six,
    else 32: the returned ``array`` type code) holds the mask bit of pair
    j's image under permutation s, so a mask's columns add, without carries,
    to the masks of all its images, with bit E of each slot free.  Also
    returned: a column's byte length and the int with 1 in every slot.
    """
    pairs = list(combinations(range(n), 2))
    code = "H" if len(pairs) < 16 else "I"
    bit = {e: 1 << j for j, (u, v) in enumerate(pairs) for e in [(u, v), (v, u)]}
    perms = list(permutations(range(n)))
    slots = [[1] * len(perms)] + [[bit[p[u], p[v]] for p in perms] for u, v in pairs]
    ones, *columns = [int.from_bytes(array(code, s).tobytes(), sys.byteorder) for s in slots]
    return code, len(perms) * array(code).itemsize, ones, columns


def _orbit_representatives(n: int) -> Iterator[tuple[int, int, int]]:
    """``(rep, orbit_size, images)`` per relabelling orbit of the order-n edge masks.

    Read's orderly generation: an orbit's largest mask represents it, and
    ``images`` packs its images' masks as ``_pair_columns`` does.  A
    representative less its lowest edge is one, so growing each by pairs
    below its lowest edge reaches every orbit once; their sizes must sum to
    ``2**E`` (else ``AssertionError``).  Guard bits over the slots show if
    an image exceeds the child and count those equal: ``|Aut|``.
    """
    _, _, ones, columns = _pair_columns(n)
    top, order = len(columns), math.factorial(n)
    guard = ones << top

    def grow(rep: int, images: int, below: int) -> Iterator[tuple[int, int, int]]:
        yield rep, order // ((images + guard - rep * ones) & guard).bit_count(), images
        for j in range(below):
            child, grown = rep | 1 << j, images | columns[j]
            if (guard + child * ones - grown) & guard == guard:
                yield from grow(child, grown, j)

    swept = 0
    for orbit in grow(0, 0, top):
        swept += orbit[1]
        yield orbit
    if swept != 1 << top:
        raise AssertionError(f"order-{n} orbits cover {swept} of {1 << top} edge masks")


def _census_order(n: int) -> tuple[dict[int, int], list[str]]:
    """Histogram and offenders (graph6, by mask) of the order-n census.

    One exact solve per relabelling orbit; the orbit's size is its count.
    The naive oracle re-solves every sampled member and every member of an
    offending orbit, so a solver fault cannot pass unnoticed through the
    orbits it shares.
    """
    pairs = list(combinations(range(n), 2))
    code, size, _, columns = _pair_columns(n)
    sampled: dict[int, list[int]] = {}  # sampled masks by their orbit's representative
    for x in range(0, 1 << len(pairs), _SELF_CHECK_STRIDE):
        images = sum(column for i, column in enumerate(columns) if x >> i & 1)
        sampled.setdefault(max(array(code, images.to_bytes(size, sys.byteorder))), []).append(x)
    hist: dict[int, int] = {}
    offenders: list[tuple[int, str]] = []
    for rep, orbit_size, images in _orbit_representatives(n):
        g = Graph(n, _mask_rows(rep, pairs, n), _validate=False)
        try:
            dim = metric_dimension(g).dimension
        except DisconnectedGraph:
            continue
        edim = edge_metric_dimension(g).dimension
        hist[dim - edim] = hist.get(dim - edim, 0) + orbit_size
        members = sampled.get(rep, [])
        if edim < dim:
            members = set(array(code, images.to_bytes(size, sys.byteorder)))
        for x in sorted(members):
            h = Graph(n, _mask_rows(x, pairs, n), _validate=False)
            naive = metric_dimension_naive(h).dimension, edge_metric_dimension_naive(h).dimension
            record = encode_graph6(h)
            if naive != (dim, edim):
                raise AssertionError(f"census solver disagrees with exact solver on {record}")
            if edim < dim:
                offenders.append((x, record))
    return dict(sorted(hist.items())), [rec for _, rec in sorted(offenders)]


@dataclass
class SmallOrderReport:
    """Histogram of dim - edim per order plus any edim < dim offenders."""

    histograms: dict[int, dict[int, int]] = field(default_factory=dict)
    violations: list[tuple[int, str]] = field(default_factory=list)
    graphs_checked: dict[int, int] = field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def violation_free(self) -> bool:
        return not self.violations


def verify_small_orders(max_n: int, *, jobs: int = 1) -> SmallOrderReport:
    """Exhaust all connected labelled graphs with 3 <= n <= ``max_n``.

    Universality over labelled graphs implies universality over isomorphism
    classes, so an empty violation list certifies that no connected graph of
    these orders has edge dimension below vertex dimension.  Counts are per
    labelled graph, but each isomorphism class is solved once.  The census
    runs in one process; ``jobs`` is accepted and ignored.
    """
    if not 3 <= max_n <= MAX_ENUM_ORDER:
        raise OrderTooLarge(f"verify_small_orders supports 3 <= max_n <= {MAX_ENUM_ORDER}")
    report = SmallOrderReport()
    start = time.monotonic()
    for n in range(3, max_n + 1):
        hist, offenders = _census_order(n)
        report.histograms[n] = hist
        report.violations.extend((n, rec) for rec in offenders)
        report.graphs_checked[n] = sum(hist.values())
    report.wall_time = time.monotonic() - start
    return report
