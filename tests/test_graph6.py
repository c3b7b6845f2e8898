import pytest
from hypothesis import given, strategies as st

from nearindep.graph6 import Graph6Error, emit_graph6, parse_graph6
from nearindep.graphs import make_graph, make_named
from nearindep.limits import CapabilityError

from conftest import graphs, random_graph


def test_hand_decoded_vectors():
    k3 = parse_graph6("Bw")
    assert k3.n == 3 and k3.edge_count() == 3
    assert parse_graph6("A?") == make_named("empty", 2)
    assert parse_graph6("A_") == make_named("path", 2)


def test_hand_encoded_vectors():
    assert emit_graph6(make_named("complete", 3)) == "Bw"
    assert emit_graph6(make_named("empty", 2)) == "A?"
    assert emit_graph6(make_named("path", 2)) == "A_"
    assert emit_graph6(make_named("empty", 0)) == "?"
    assert parse_graph6("?").n == 0


def test_roundtrip_random(rng):
    for _ in range(200):
        g = random_graph(rng.randint(0, 12), rng)
        line = emit_graph6(g)
        assert parse_graph6(line) == g
        assert emit_graph6(parse_graph6(line)) == line


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
])
def test_payload_error_offsets(line, message, offset):
    with pytest.raises(Graph6Error) as e:
        parse_graph6(line)
    assert e.value.offset == offset
    assert str(e.value) == f"{message} (byte offset {offset})"


def test_size_form_caps():
    with pytest.raises(CapabilityError):
        parse_graph6("~??")
    with pytest.raises(CapabilityError):
        emit_graph6(make_named("empty", 63))


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
