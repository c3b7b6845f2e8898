import random

import pytest
from hypothesis import given, strategies as st

from nearindep.graph6 import Graph6Error, _write_digits, emit_graph6, parse_graph6
from nearindep.graphs import make_graph, make_named
from nearindep.limits import CapabilityError

from conftest import graphs
from oracles import write_digits


def test_hand_encoded_vectors():
    assert emit_graph6(make_named("complete", 3)) == "Bw"
    assert emit_graph6(make_named("empty", 2)) == "A?"
    assert emit_graph6(make_named("path", 2)) == "A_"
    assert emit_graph6(make_named("empty", 0)) == "?"
    assert parse_graph6("?").n == 0


def test_parse_accepts_header_and_whitespace():
    assert parse_graph6(">>graph6<<Bw\n").edge_count() == 3
    assert parse_graph6(b"A_") == make_named("path", 2)


def test_parse_errors_carry_offsets():
    with pytest.raises(Graph6Error) as e:
        parse_graph6("B")
    assert e.value.offset == 1
    with pytest.raises(Graph6Error) as e:
        parse_graph6("Bwx")
    assert e.value.offset == 2
    with pytest.raises(Graph6Error):
        parse_graph6(chr(30) + "w")
    with pytest.raises(Graph6Error):
        parse_graph6("A" + chr(62))
    with pytest.raises(Graph6Error):
        parse_graph6("Ax")  # nonzero padding
    with pytest.raises(Graph6Error):
        parse_graph6("")


@pytest.mark.parametrize("line, message, offset", [
    ("Ax", "nonzero padding bits", 1),
    ("G????A", "nonzero padding bits", 5),
    ("D?" + chr(62), "payload byte 62 outside graph6 range", 2),
    ("G???" + chr(200) + "?", "payload byte 200 outside graph6 range", 4),
    # a bad byte is reported before nonzero padding in a later byte
    ("G???" + chr(200) + "A", "payload byte 200 outside graph6 range", 4),
    # bytes are read one character per byte, so the message names the byte
    (b"\xff", "size byte 255 outside graph6 range", 0),
    (b"A\xff", "payload byte 255 outside graph6 range", 1),
    # offsets are positions in the stripped line, a header counted
    (">>graph6<<", "empty graph6 string", 10),
    (">>graph6<<Bwx", "trailing bytes after bit payload", 12),
    (">>graph6<<B", "truncated bit payload: need 1 bytes, got 0", 11),
    (">>graph6<<Ax", "nonzero padding bits", 11),
    (b" >>graph6<<A\xff\n", "payload byte 255 outside graph6 range", 11),
    # str and bytes are stripped of ASCII whitespace only, by one rule
    ("A_\x1c", "trailing bytes after bit payload", 2),
    (b"A_\x1c", "trailing bytes after bit payload", 2),
    ("A_\xa0", "trailing bytes after bit payload", 2),
    (b"A_\xa0", "trailing bytes after bit payload", 2),
    (">>graph6<<~??", "truncated long size form: need 3 bytes after '~', got 2", 13),
    (">>graph6<<~??" + chr(63 + 62), "long size form for order 62, which the short form spells", 11),
])
def test_payload_error_offsets(line, message, offset):
    with pytest.raises(Graph6Error) as e:
        parse_graph6(line)
    assert e.value.offset == offset
    assert str(e.value) == f"{message} (byte offset {offset})"


def test_every_byte_outside_the_digit_range_is_an_error_at_its_offset():
    """Each byte outside 63-126, 62 and 127 included, at each position of
    each field of a line (the size behind a header, the long size, the
    payload) is refused where it stands.  Each line keeps the byte off
    its ends, where whitespace is stripped; 63 and 126 are accepted."""
    for field, line, offsets in (("size", b">>graph6<<??", [10]), ("size", b"~????", [1, 2, 3]),
                                 ("payload", b"G?????", [1, 2, 3, 4])):
        for at in offsets:
            for byte in (*range(63), *range(127, 256)):
                with pytest.raises(Graph6Error) as e:
                    parse_graph6(line[:at] + bytes([byte]) + line[at + 1:])
                assert str(e.value) == f"{field} byte {byte} outside graph6 range (byte offset {at})", (line, at)
    for byte in (63, 126):
        assert parse_graph6(b"G" + bytes([byte]) + b"????").n == 8


def test_size_form_caps():
    with pytest.raises(Graph6Error, match="truncated long size form") as e:
        parse_graph6("~??")
    assert e.value.offset == 3
    with pytest.raises(Graph6Error, match="short form spells"):
        parse_graph6("~?" + chr(63) + chr(63 + 62))  # order 62 in the long form
    with pytest.raises(CapabilityError):
        parse_graph6("~~??????")  # the huge form
    with pytest.raises(CapabilityError):
        parse_graph6("~?@@")  # order 65
    assert emit_graph6(make_named("empty", 64)).startswith("~?@?")  # order 64, at the cap


@pytest.mark.parametrize("n", [62, 63, 64])
def test_long_form_matches_networkx(n):
    nx = pytest.importorskip("networkx")
    for p in (0.0, 0.1, 0.5, 1.0):
        h = nx.gnp_random_graph(n, p, seed=n)
        theirs = nx.to_graph6_bytes(h, header=False)
        g = parse_graph6(theirs)
        assert g == make_graph(n, h.edges())
        assert emit_graph6(g).encode("ascii") + b"\n" == theirs
        assert make_graph(n, nx.from_graph6_bytes(emit_graph6(g).encode("ascii")).edges()) == g


def test_write_digits_matches_the_per_digit_writer():
    """Every digit count an order up to 64 writes: 1 or 3 for the size, 0 to
    336 for the payload.  Each count meets zero, one bit at either end, all
    ones and random values."""
    rnd = random.Random(0)
    for ndigits in range((64 * 63 // 2 + 5) // 6 + 1):
        width = 6 * ndigits
        for val in {0, 1 if width else 0, (1 << width) >> 1, (1 << width) - 1,
                    rnd.getrandbits(width), rnd.getrandbits(width)}:
            assert _write_digits(val, ndigits) == write_digits(val, ndigits), (val, ndigits)


def test_codec_covers_order_62():
    g = make_named("star", 62)
    assert parse_graph6(emit_graph6(g)) == g


@given(st.one_of(st.binary(max_size=80), st.text(max_size=80)))
def test_parse_fuzz_raises_only_codec_errors(line):
    try:
        g = parse_graph6(line)
    except (Graph6Error, CapabilityError):
        return
    text = line.decode("ascii") if isinstance(line, bytes) else line
    assert emit_graph6(g) == text.strip().removeprefix(">>graph6<<")


@given(graphs(max_n=20))
def test_codec_matches_networkx(g):
    nx = pytest.importorskip("networkx")
    mine = nx.empty_graph(g.n)
    mine.add_edges_from(g.edges())
    theirs = nx.to_graph6_bytes(mine, header=False)
    ours = emit_graph6(g)
    assert theirs == ours.encode("ascii") + b"\n"
    h = nx.from_graph6_bytes(ours.encode("ascii"))
    assert sorted(h.nodes()) == list(range(g.n))
    assert make_graph(g.n, h.edges()) == g
    assert parse_graph6(theirs) == g
