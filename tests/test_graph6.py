from __future__ import annotations

import random
from collections import Counter

import networkx as nx
import pytest

from metricdim import graph6
from metricdim import (
    Graph,
    Graph6Error,
    GraphTooLarge,
    MalformedHeader,
    NonPrintableByte,
    PaddingBitsSet,
    Predicate,
    TrailingData,
    TruncatedBitVector,
    decode_graph6,
    encode_graph6,
    make_chain,
    make_complete,
    make_cycle,
    make_gadget,
    make_path,
    ratio_witness,
    realize,
    record_lines,
    scan,
)
from conftest import random_connected_graph


def _nx_record(g: Graph) -> str:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return nx.to_graph6_bytes(h, header=False).decode("ascii").strip()


def test_reference_encodings():
    assert encode_graph6(make_complete(2)) == "A_"
    assert encode_graph6(make_complete(3)) == "Bw"
    assert encode_graph6(make_path(3)) == "Bg"
    assert decode_graph6("A_") == make_complete(2)
    assert decode_graph6("Bw") == make_complete(3)
    assert decode_graph6("Bg") == make_path(3)
    assert decode_graph6("A_\r\n") == make_complete(2)
    assert decode_graph6(b"A_\n") == make_complete(2)


def test_agreement_with_reference_tool():
    rng = random.Random(61)
    graphs = [make_complete(2), make_complete(3), make_path(3), make_cycle(7)]
    graphs += [
        random_connected_graph(rng, rng.randrange(1, 40), extra=rng.randrange(0, 20))
        for _ in range(50)
    ]
    for g in graphs:
        assert encode_graph6(g) == _nx_record(g)


def test_round_trip_labeled_graph():
    g = make_gadget(5, 1, 2).graph
    assert decode_graph6(encode_graph6(g)) == g


def test_round_trip_various_orders():
    rng = random.Random(67)
    for n in (1, 2, 62, 63, 64, 80):
        g = random_connected_graph(rng, n, extra=min(n, 10))
        record = encode_graph6(g)
        assert decode_graph6(record) == g
        assert encode_graph6(decode_graph6(record)) == record
        if n >= 63:
            assert record.startswith("~")


def test_large_orders_agree_with_reference_tool():
    # the paper's constructions at orders 300-330, a dense order-200 graph and
    # a path long enough that a codec quadratic in n(n-1)/2 takes seconds
    rng = random.Random(73)
    dense = Graph.from_edges(
        200, [(u, v) for v in range(200) for u in range(v) if rng.random() < 0.5]
    )
    graphs = [
        make_chain(6, 1, 2, 30).graph,
        make_chain(5, 1, 2, 30).graph,
        realize(2, 26, 300).graph,
        realize(26, 2, 320).graph,
        ratio_witness(16).graph,
        dense,
        make_path(1000),
    ]
    for g in graphs:
        record = encode_graph6(g)
        assert record == _nx_record(g)
        assert decode_graph6(record) == g


def test_every_order_to_130_agrees_with_reference_tool():
    # crosses the 62/63 header switch and every residue of n(n-1)/2 mod 6
    rng = random.Random(79)
    for n in range(1, 131):
        for p in (0.05, 0.5, 0.95):
            g = Graph.from_edges(
                n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
            )
            record = encode_graph6(g)
            assert record == _nx_record(g)
            assert decode_graph6(record) == g


def test_join_and_split_around_powers_of_two():
    # 2**k - 2 .. 2**k + 1 columns: the encoder's pairwise join carries an odd
    # part up at the first level, the second, no level, or every level but the
    # last; the decoder's halving split meets odd ranges likewise
    rng = random.Random(97)
    graphs = [random_connected_graph(rng, n, extra=n) for n in range(127, 131)]
    graphs += [random_connected_graph(rng, n, extra=n) for n in range(255, 259)]
    graphs += [random_connected_graph(rng, n, extra=n) for n in range(511, 515)]
    graphs += [
        Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.5])
        for n in range(127, 130)
    ]
    for g in graphs:
        record = encode_graph6(g)
        assert record == _nx_record(g)
        assert decode_graph6(record) == g


def test_every_padding_bit_is_refused():
    rng = random.Random(83)
    for n in range(2, 41):
        g = Graph.from_edges(
            n, [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.5]
        )
        record = encode_graph6(g)
        pad = -(n * (n - 1) // 2) % 6
        for k in range(pad):
            stray = record[:-1] + chr(((ord(record[-1]) - 63) | 1 << k) + 63)
            with pytest.raises(PaddingBitsSet) as info:
                decode_graph6(stray)
            assert str(info.value) == f"{pad} padding bits are not all zero"


def test_round_trip_records_of_many_blocks():
    # vectors of millions of bits, decoded a few thousand bits at a time
    rng = random.Random(89)
    sparse = Graph.from_edges(
        1500, [(u, v) for v in range(1500) for u in range(v) if rng.random() < 0.01]
    )
    for g in (make_path(3000), sparse):
        record = encode_graph6(g)
        assert decode_graph6(record) == g
        assert encode_graph6(decode_graph6(record)) == record


def _outcome(record):
    """The rows a record decodes to, or its error's class and message."""
    try:
        g = decode_graph6(record)
    except Graph6Error as exc:
        return type(exc), str(exc)
    return g.n, g.adj


def _differential_records(n, rng):
    """Records of order n, valid and broken, that reach every table entry."""
    nbits = n * (n - 1) // 2
    nbytes, pad = (nbits + 5) // 6, -nbits % 6
    head = chr(n + 63)
    pairs = [(u, v) for v in range(n) for u in range(v)]
    graphs = [Graph(n, [0] * n), make_complete(n)]
    graphs += [Graph.from_edges(n, pairs[-1:])]  # only the last vector bit
    graphs += [
        Graph.from_edges(n, [e for e in pairs if rng.random() < p])
        for p in (0.1, 0.5, 0.9)
        for _ in range(4)
    ]
    records = [encode_graph6(g) for g in graphs]
    # every byte value at every position, the last byte's padding cleared
    for c in range(64):
        body = [c] * nbytes
        if body:
            body[-1] &= -1 << pad
        records.append(head + "".join(chr(x + 63) for x in body))
    broken = []
    for record in records[:6]:
        broken += [record[:-1], record + "?", record[:-1] + "\x05", record + "\x7f"]
        last = ord(record[-1]) - 63 if nbytes else 0
        broken += [record[:-1] + chr((last | 1 << k) + 63) for k in range(pad)]
    return records + broken


def test_byte_tables_decode_as_the_split_decoder(monkeypatch):
    # orders 1-16 decode by the byte tables, 17 (the first order of n-bit
    # lanes) by the split; forcing the split at every order must give the
    # same rows, or the same error class and message, on every record
    rng = random.Random(20)
    records = [r for n in range(1, 18) for r in _differential_records(n, rng)]
    with monkeypatch.context() as split:
        split.setattr(graph6, "PACKED_MAX_ORDER", 0)
        want = [_outcome(r) for r in records]
    graph6._byte_tables.cache_clear()
    got = [_outcome(r) for r in records]
    assert got == want
    errors = Counter(w[0] for w in want if isinstance(w[0], type))
    assert set(errors) == {
        MalformedHeader, NonPrintableByte, TruncatedBitVector, TrailingData, PaddingBitsSet
    }
    # six records of each order with each of its padding bits set
    assert errors[PaddingBitsSet] == 6 * sum(-(n * (n - 1) // 2) % 6 for n in range(1, 18))
    # one build per order, and none for the split's order 17
    info = graph6._byte_tables.cache_info()
    assert (info.misses, info.currsize) == (16, 16)


def test_long_form_body_errors():
    # order 63: 1953 bits in 326 data bytes, the last carrying 3 pad bits
    record = encode_graph6(make_path(63))
    assert len(record) == 4 + 326
    with pytest.raises(TruncatedBitVector, match="order 63 needs 326 data bytes, found 325"):
        decode_graph6(record[:-1])
    with pytest.raises(TrailingData, match="order 63 needs 326 data bytes, found 327"):
        decode_graph6(record + "?")
    stray = record[:-1] + chr(((ord(record[-1]) - 63) | 1) + 63)
    with pytest.raises(PaddingBitsSet, match="3 padding bits are not all zero"):
        decode_graph6(stray)


def test_encoding_ignores_construction_history():
    a = Graph.from_edges(3, [(0, 1), (1, 2)])
    b = Graph.from_edges(3, [(1, 2), (0, 1)])
    assert encode_graph6(a) == encode_graph6(b)


def test_decode_errors():
    with pytest.raises(MalformedHeader):
        decode_graph6("")
    with pytest.raises(NonPrintableByte):
        decode_graph6("A" + chr(5))
    with pytest.raises(NonPrintableByte):
        decode_graph6(b"A\xff")
    with pytest.raises(TruncatedBitVector):
        decode_graph6("D")  # order 5 needs 2 data bytes
    with pytest.raises(TrailingData):
        decode_graph6("A__")
    with pytest.raises(PaddingBitsSet):
        decode_graph6("A`")  # K2 bits plus a stray pad bit
    with pytest.raises(MalformedHeader):
        decode_graph6("~???")  # long form announcing n < 63
    with pytest.raises(MalformedHeader):
        decode_graph6("~?")  # long form cut short
    with pytest.raises(GraphTooLarge):
        decode_graph6("~~??????")


def test_non_printable_byte_at_the_end_of_a_long_record():
    # the order-330 chain record is 9,052 bytes; the offending character
    # comes last, so the whole record passes the byte check before it
    record = encode_graph6(make_chain(6, 1, 2, 30).graph)
    assert len(record) == 9052
    for tail, code in (("\u0100", 256), ("\u20ac", 8364), ("\x7f", 127)):
        message = f"byte {code} at offset {len(record)} outside 63..126"
        with pytest.raises(NonPrintableByte, match=message):
            decode_graph6(record + tail)
    for tail in (b"\x7f", b"\xff", b"\x3e"):
        message = f"byte {tail[0]} at offset {len(record)} outside 63..126"
        with pytest.raises(NonPrintableByte, match=message):
            decode_graph6(record.encode("ascii") + tail)


def test_header_prefix_tolerated():
    assert decode_graph6(">>graph6<<A_") == make_complete(2)


def test_encode_too_large():
    giant = Graph(1 << 18, [0] * (1 << 18))
    with pytest.raises(GraphTooLarge):
        encode_graph6(giant)


def test_decoder_never_crashes_on_fuzz():
    rng = random.Random(71)
    for _ in range(2000):
        length = rng.randrange(0, 12)
        blob = bytes(rng.randrange(0, 256) for _ in range(length))
        try:
            decode_graph6(blob)
        except Graph6Error:
            pass


def test_record_lines_numbers_every_line():
    records = [encode_graph6(make_cycle(n)) for n in (3, 4, 5)]
    out = list(record_lines(records))
    assert [line for line, _ in out] == [1, 2, 3]
    assert [decode_graph6(rec).n for _, rec in out] == [3, 4, 5]
    # malformed records are passed through for the decoder to reject
    assert list(record_lines(["A_", "A", "Bw"])) == [(1, "A_"), (2, "A"), (3, "Bw")]


def test_record_lines_skip_headers_and_blanks():
    lines = [">>graph6<<", "", "A_", b"Bw\n", b"  \r\n", b"C~\r\n", ">comment", ">>graph6<<Bw"]
    assert list(record_lines(lines)) == [(3, "A_"), (4, "Bw"), (6, "C~"), (8, ">>graph6<<Bw")]
    # bytes outside ASCII read as latin-1 and reach the decoder unchanged
    assert list(record_lines([b"A\xff\n"])) == [(1, "A\xff")]


def test_stream_lenient_reports_line_numbers():
    lines = ["A_", "A", "Bw"]
    report = scan(lines, Predicate.parse("lt"))
    assert report.decoded == 2
    assert [k for k, _ in report.errors] == [2]
    # the record on the reported line is the one the decoder rejects as truncated
    bad = dict(record_lines(lines))[2]
    with pytest.raises(TruncatedBitVector):
        decode_graph6(bad)


def test_stream_strict_aborts():
    with pytest.raises(Graph6Error, match="line 2"):
        scan(["A_", "A", "Bw"], Predicate.parse("lt"), strict=True)
