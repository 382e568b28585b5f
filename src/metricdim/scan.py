"""High-throughput predicate scans over graph6 streams and small-order censuses.

``scan`` takes the records of a line-oriented graph6 stream from
``graph6.record_lines`` and records the connected graphs matching a dim/edim
predicate.  Each graph is evaluated by the solver's ``solved_dims``, given
the predicate's ``edim_window`` (the census passes none): the vertex
dimension is solved exactly, and the edge search then stops at the top of
the window for that ``dim``, so the exact ``edim`` is computed in full only
where a match is possible.  Reports are deterministic regardless of worker
count: counts are additive and matches are sorted by line number at the end.

``verify_small_orders`` exhausts every labelled connected graph up to order
seven.  Both dimensions are isomorphism invariants, so one exact solve per
relabelling orbit of the edge masks (pair j of ``combinations(range(n), 2)``
at bit j) counts for its ``n!/|Aut|`` labelled graphs.  Read's orderly
generation grows each orbit's representative, its largest mask, from a
smaller one by one edge below its lowest, and reads canonicity and ``|Aut|``
off one big int of its images under all ``n!`` permutations.  One with fewer
than n - 1 edges cannot be connected and is skipped.  Order seven has 1,044
orbits over 2**21 masks; its census takes 0.3 s.  The naive oracle re-solves
every member of an orbit with ``edim < dim`` and a fixed sample of masks:
one connected graph at each of orders 3 to 5, three at 6 and 188 at 7.
"""

from __future__ import annotations

import math
import os
import sys
import time
import zlib
from array import array
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, permutations
from typing import Iterable, Iterator

from .graph import DisconnectedGraph, Graph
from .graph6 import Graph6Error, decode_graph6, encode_graph6, record_lines
from .solver import edge_metric_dimension_naive, metric_dimension_naive, solved_dims

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
    """A checkpoint file was written for another predicate or input."""


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
    first_record: tuple[int, int] | None = None  # its line number and zlib.crc32


def _scan_batch(batch: list[tuple[int, str]], pred: Predicate):
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
            dims = solved_dims(g, pred.edim_window)
        except DisconnectedGraph:  # from the first solve's one BFS pass
            continue
        connected += 1
        if dims is not None:
            matches.append(ScanMatch(lineno, line, *dims))
    return batch[-1][0], len(batch), decoded, connected, errors, matches


def _write_checkpoint(path: str, last_line: int, report: ScanReport) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(f"predicate={report.predicate}\n")
        fh.write(f"last_line_processed={last_line}\n")
        fh.write(f"total={report.total}\n")
        fh.write(f"decoded={report.decoded}\n")
        fh.write(f"connected={report.connected}\n")
        fh.write(f"errors={report.error_total}\n")
        if report.first_record is not None:
            fh.write("first_record={}\t{}\n".format(*report.first_record))
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
            elif key == "first_record":
                report.first_record = tuple(map(int, value.split("\t")))
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
    source: Iterable[str | bytes], report: ScanReport, checkpoint: str | None
) -> Iterator[list[tuple[int, str]]]:
    """Records past ``report.resumed_from``, ``BATCH_SIZE`` to a batch.

    The first record is checked against a resumed checkpoint's first.  An
    input error ends the batches, after the one it cut short, and marks the
    report incomplete.
    """
    batch: list[tuple[int, str]] = []
    try:
        records = record_lines(source)
        if (first := next(records, None)) is not None:
            seen = first[0], zlib.crc32(first[1].encode("utf-8", "surrogatepass"))
            if report.first_record not in (None, seen):
                raise CheckpointMismatch(
                    f"checkpoint {checkpoint} was written for another input: its first "
                    f"record (line, crc32) is {report.first_record}, this input's is {seen}"
                )
            report.first_record = seen
            records = chain([first], records)
        for item in records:
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
    with at most ``2 * jobs`` batches in flight.  The pool, and
    ``concurrent.futures`` with it, is loaded only when ``jobs > 1``.

    A ``checkpoint`` file makes multi-hour scans resumable: progress is
    flushed every ``CHECKPOINT_EVERY`` records and at the end, and picked up
    when the file already exists.  It records the predicate and the first
    record's line number and ``zlib.crc32``; a checkpoint written for
    another predicate, or whose first record is not this stream's, raises
    ``CheckpointMismatch``.  One without the record, or a stream with no
    record, resumes unchecked.  No ``OSError`` escapes: the report comes
    back with ``complete`` false and the reason in ``io_error``.  When the
    input fails, every record read before the failure is solved and
    checkpointed first.
    """
    # A pool starts all its workers at once, so jobs stays within the CPU count.
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise ValueError(f"jobs must be between 1 and {cpus}, got {jobs}")
    report = ScanReport(predicate=predicate)
    start = time.monotonic()
    since_checkpoint = last_line = 0

    def absorb(result) -> None:
        nonlocal since_checkpoint, last_line
        last_line, batch_total, decoded, connected, errors, matches = result
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
        if jobs == 1:
            for batch in _batches(source, report, checkpoint):
                absorb(_scan_batch(batch, predicate))
        else:
            from concurrent.futures import ProcessPoolExecutor  # loaded only for a pool

            pending = deque()  # the futures of the batches in flight, oldest first
            with ProcessPoolExecutor(jobs) as pool:
                for batch in _batches(source, report, checkpoint):
                    pending.append(pool.submit(_scan_batch, batch, predicate))
                    while len(pending) >= 2 * jobs:
                        absorb(pending.popleft().result())
                for future in pending:
                    absorb(future.result())
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
    orbits it shares.  The sample starts at the stride modulo the mask
    count, so orders 3 to 5 sample a connected graph, not the empty mask 0.
    """
    pairs = list(combinations(range(n), 2))
    code, size, _, columns = _pair_columns(n)
    sampled: dict[int, list[int]] = {}  # sampled masks by their orbit's representative
    for x in range(_SELF_CHECK_STRIDE % (1 << len(pairs)), 1 << len(pairs), _SELF_CHECK_STRIDE):
        images = sum(column for i, column in enumerate(columns) if x >> i & 1)
        sampled.setdefault(max(array(code, images.to_bytes(size, sys.byteorder))), []).append(x)
    hist: dict[int, int] = {}
    offenders: list[tuple[int, str]] = []
    for rep, orbit_size, images in _orbit_representatives(n):
        if rep.bit_count() < n - 1:
            continue  # too few edges to connect n vertices
        g = Graph(n, _mask_rows(rep, pairs, n), _validate=False)
        try:
            dim, edim = solved_dims(g)
        except DisconnectedGraph:
            continue
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
