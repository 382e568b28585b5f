"""Bit-exact codec for the graph6 interchange format.

A record is a run of printable bytes 63..126.  The order ``n`` comes first:
one byte ``n + 63`` for ``n <= 62``, or ``'~'`` plus three bytes holding an
18-bit big-endian value for ``63 <= n < 2**18``.  The ``'~~'`` prefix used
for even larger graphs is rejected.  After the header, the upper triangle of
the adjacency matrix follows in column-major order ``(0,1), (0,2), (1,2),
(0,3), ...``, packed big-endian six bits per byte with value ``byte - 63``
and zero padding to a byte boundary.

Both directions are linear in the record length.  The bit vector is handled
as a string of ``'0'``/``'1'`` characters: encode formats each column's lower
neighbours with ``format`` and decode reads each column back with ``int``,
while a 64-entry table maps between six-bit chunks and record characters.
No big int is grown or probed one bit at a time, which would copy the whole
int per bit and cost time quadratic in ``n(n-1)/2``.

``record_lines`` is the one reader of line-oriented graph6 input: the scan
and the command line both take their records from it.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from .graph import Graph

MAX_ORDER = 1 << 18
HEADER = ">>graph6<<"

_BAD_BYTE = re.compile(r"[^?-~]")  # anything outside 63..126
# six-bit chunk <-> record character; _TO_BITS is a str.translate table
_FROM_BITS = {format(i, "06b"): chr(i + 63) for i in range(64)}
_TO_BITS = {i + 63: format(i, "06b") for i in range(64)}


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
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(
            chr(((n >> shift) & 0x3F) + 63) for shift in (12, 6, 0)
        )
    adj = g.adj
    bits = "".join(
        [format(adj[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, n)]
    )
    bits += "0" * (-len(bits) % 6)
    body = "".join([_FROM_BITS[bits[i : i + 6]] for i in range(0, len(bits), 6)])
    return head + body


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
    bad = _BAD_BYTE.search(record)
    if bad:
        raise NonPrintableByte(
            f"byte {ord(bad.group())} at offset {bad.start()} outside 63..126"
        )
    n, at = _parse_order(record)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = record[at:]
    if len(body) < nbytes:
        raise TruncatedBitVector(
            f"order {n} needs {nbytes} data bytes, found {len(body)}"
        )
    if len(body) > nbytes:
        raise TrailingData(
            f"order {n} needs {nbytes} data bytes, found {len(body)}"
        )
    bits = body.translate(_TO_BITS)
    if "1" in bits[nbits:]:
        raise PaddingBitsSet(f"{6 * nbytes - nbits} padding bits are not all zero")
    adj = [0] * n
    start = 0
    for v in range(1, n):
        low = int(bits[start : start + v][::-1], 2)
        start += v
        adj[v] |= low
        bit = 1 << v
        # an inline walk, not iter_bits: scans decode every order-10 record,
        # and the generator costs about a fifth of such a decode
        while low:
            lsb = low & -low
            adj[lsb.bit_length() - 1] |= bit
            low ^= lsb
    return Graph(n, adj, _validate=False)


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
