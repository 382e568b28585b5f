"""Bit-exact codec for the graph6 interchange format.

A record is a run of printable bytes 63..126.  The order ``n`` comes first:
one byte ``n + 63`` for ``n <= 62``, or ``'~'`` plus three bytes holding an
18-bit big-endian value for ``63 <= n < 2**18``.  The ``'~~'`` prefix used
for even larger graphs is rejected.  After the header, the upper triangle of
the adjacency matrix follows in column-major order ``(0,1), (0,2), (1,2),
(0,3), ...``, packed big-endian six bits per byte with value ``byte - 63``
and zero padding to a byte boundary.

That body is base64 under another alphabet, so ``binascii`` does the bit
packing in C.  Each record byte is translated to the base64 character of its
bit-reversed six-bit value and the body is reversed; ``a2b_base64`` then
yields one int ``y`` whose bit ``i`` is bit ``i`` of the vector, so column
``v`` is the slice ``y >> v(v-1)/2 & (2**v - 1)``.  Encode runs the same
steps backwards from ``y``, which it joins from the columns pairwise, level
by level, the later part of each pair shifted above the earlier.  Above order
16, decode splits ``y`` the inverse way, halving the column range, and peels
the columns of a range of at most 16 off its low end.  No int as long as the
vector is shifted once per column, which would cost time cubic in ``n``: each
direction takes Python steps linear in ``n`` and C work ``O(N log n)`` for
``N = n(n-1)/2`` bits, and encode holds about ``2N`` bits of ints at once.

Up to order 16, where the lane walk's lanes are 64-bit words, decode skips
``y``: per body position a table, built on first use for each order and
cached, maps each byte to its edges' rows as words of one int, so one OR per
byte and one ``array("Q")`` read give the rows; the last byte's padding is
checked apart.  Order 16's 20 tables hold 1,280 entries in about 164 KiB and
take about 0.4 ms to build on 2 vCPUs; order 10's hold 49 KiB.

``record_lines`` is the one reader of line-oriented graph6 input: the scan
and the command line both take their records from it.
"""

from __future__ import annotations

import binascii
import re
from array import array
from functools import cache, reduce
from operator import getitem, or_
from typing import Iterable, Iterator

from .graph import _ORDER, PACKED_MAX_ORDER, Graph, _lanes

MAX_ORDER = 1 << 18
HEADER = ">>graph6<<"

_PRINTABLE = bytes(range(63, 127))
_BAD_BYTE = re.compile(r"[^?-~]")  # anything outside 63..126
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_REV6 = [int(format(i, "06b")[::-1], 2) for i in range(64)]
# record byte <-> base64 character of its bit-reversed six-bit value
_TO_B64 = bytes.maketrans(bytes(range(63, 127)), bytes(_B64[r] for r in _REV6))
_FROM_B64 = bytes.maketrans(_B64, bytes(r + 63 for r in _REV6))


class Graph6Error(ValueError):
    """Base class for malformed graph6 input."""


class MalformedHeader(Graph6Error):
    pass


class NonPrintableByte(Graph6Error):
    pass


class TruncatedBitVector(Graph6Error):
    pass


class TrailingData(Graph6Error):
    pass


class PaddingBitsSet(Graph6Error):
    pass


class GraphTooLarge(Graph6Error):
    pass


def encode_graph6(g: Graph) -> str:
    """Canonical graph6 record for a labelled graph (no trailing newline)."""
    n = g.n
    if n >= MAX_ORDER:
        raise GraphTooLarge(f"graph6 supports n < {MAX_ORDER}, got {n}")
    head = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    if n < 2:
        return head
    nbytes = (n * (n - 1) // 2 + 5) // 6
    adj = g.adj
    # (bits, width) of each column, joined pairwise, the later one above, until
    # one is left; an odd one out is carried up to the next level unjoined
    parts = [(adj[v] & ((1 << v) - 1), v) for v in range(1, n)]
    while len(parts) > 1:
        pairs = zip(parts[::2], parts[1::2])
        parts = [(a | b << wa, wa + wb) for (a, wa), (b, wb) in pairs] + parts[len(parts) & ~1 :]
    y = parts[0][0]  # bit i is vector bit i
    # a multiple of 3 bytes leaves no '=' padding; the zero bytes this adds
    # above y become leading 'A's, which the cut to nbytes drops
    quanta = y.to_bytes(3 * ((nbytes + 3) // 4), "big")
    body = binascii.b2a_base64(quanta, newline=False)[::-1][:nbytes]
    return head + body.translate(_FROM_B64).decode("ascii")


def decode_graph6(record: str | bytes) -> Graph:
    """Parse one graph6 record into a labelled graph.

    A trailing newline is stripped and a leading ``>>graph6<<`` marker is
    tolerated.  Every structural defect raises a ``Graph6Error`` subclass.
    """
    if isinstance(record, bytes):
        record = record.decode("latin-1")
    record = record.rstrip("\r\n")
    if record.startswith(HEADER):
        record = record[len(HEADER) :]
    if not record:
        raise MalformedHeader("empty record")
    # a character past ASCII encodes to bytes above 127, which stay too
    data = record.encode()
    if data.translate(None, _PRINTABLE):
        # the regex only names the first offending character
        bad = _BAD_BYTE.search(record)
        raise NonPrintableByte(
            f"byte {ord(bad.group())} at offset {bad.start()} outside 63..126"
        )
    n, at = _parse_order(record)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[at:]
    if len(body) < nbytes:
        raise TruncatedBitVector(
            f"order {n} needs {nbytes} data bytes, found {len(body)}"
        )
    if len(body) > nbytes:
        raise TrailingData(
            f"order {n} needs {nbytes} data bytes, found {len(body)}"
        )
    if n <= PACKED_MAX_ORDER and (width := _lanes(n)[0]) > n:
        # 64-bit word lanes: one table entry per byte, read back as the rows
        pad = -nbits % 6
        if body and (body[-1] - 63) & ((1 << pad) - 1):
            raise PaddingBitsSet(f"{pad} padding bits are not all zero")
        word = reduce(or_, map(getitem, _byte_tables(n), body), 0)
        return Graph(n, array("Q", word.to_bytes(n * width // 8, _ORDER)), _validate=False)
    return Graph(n, _split_rows(body, n), _validate=False)


@cache
def _byte_tables(n: int) -> list[list[int]]:
    """Entry ``[j][c]``: the rows of body byte c at position j, as words of one int.

    Bytes below 63, never read, map to 0; bits past the vector are left out.
    """
    pairs = [(u, v) for v in range(1, n) for u in range(v)]  # vector bit i
    tables = []
    for j in range(0, len(pairs), 6):
        table = [0]
        for i in range(j + 5, j - 1, -1):  # value bit 0 is vector bit j + 5
            rows = [0] * n
            if i < len(pairs):
                u, v = pairs[i]
                rows[u], rows[v] = 1 << v, 1 << u
            edge = int.from_bytes(array("Q", rows).tobytes(), _ORDER)
            table += [t | edge for t in table]
        tables.append([0] * 63 + table)
    return tables


def _split_rows(body: bytes, n: int) -> list[int]:
    """The rows of an order-n body at any order, split off the vector's int."""
    nbits = n * (n - 1) // 2
    # leading 'A's (zero bits above the vector) complete the last quantum
    quanta = b"A" * (-len(body) % 4) + body.translate(_TO_B64)[::-1]
    y = int.from_bytes(binascii.a2b_base64(quanta), "big")  # bit i is vector bit i
    if y >> nbits:
        raise PaddingBitsSet(f"{6 * len(body) - nbits} padding bits are not all zero")
    adj = [0] * n
    # (bits, lo, hi): columns lo..hi-1 from bit 0, halved down to 16 columns
    todo = [(y, 1, n)]
    while todo:
        x, lo, hi = todo.pop()
        if hi - lo > 16:
            mid = (lo + hi) // 2
            cut = (mid * (mid - 1) - lo * (lo - 1)) // 2
            todo += [(x >> cut, mid, hi), (x & ((1 << cut) - 1), lo, mid)]
            continue
        for v in range(lo, hi):
            low = x & ((1 << v) - 1)
            x >>= v
            adj[v] |= low
            bit = 1 << v
            # an inline walk, not iter_bits, whose generator costs more per edge
            while low:
                lsb = low & -low
                adj[lsb.bit_length() - 1] |= bit
                low ^= lsb
    return adj


def _parse_order(record: str) -> tuple[int, int]:
    if record[0] != "~":
        if record[0] == "?":
            raise MalformedHeader("order-0 records are not supported")
        return ord(record[0]) - 63, 1
    if record[1:2] == "~":
        raise GraphTooLarge(f"very-long order form (n >= {MAX_ORDER}) rejected")
    if len(record) < 4:
        raise MalformedHeader("long order form needs three bytes after '~'")
    hi, mid, lo = (ord(ch) - 63 for ch in record[1:4])
    n = (hi << 12) | (mid << 6) | lo
    if n < 63:
        raise MalformedHeader(f"non-canonical long order form for n={n}")
    return n, 4


def record_lines(source: Iterable[str | bytes]) -> Iterator[tuple[int, str]]:
    """The records of a line-oriented graph6 stream, one stripped line each.

    Yields ``(line_number, line)`` pairs, numbering lines from 1; bytes are
    read as latin-1.  Blank lines and ``>``-prefixed header lines are
    skipped, but a ``>>graph6<<`` marker glued to a record on the same line
    still counts as a record, which ``decode_graph6`` reads past.
    """
    for lineno, raw in enumerate(source, start=1):
        line = (raw.decode("latin-1") if isinstance(raw, bytes) else raw).strip()
        if line and (line[0] != ">" or line.startswith(HEADER) and len(line) > len(HEADER)):
            yield lineno, line
