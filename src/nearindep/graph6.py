"""graph6 codec, bit-exact, short form only (order < 63).

One graph per line: a size byte chr(63 + n), then the upper-triangle
adjacency bits in column order (0,1), (0,2), (1,2), (0,3), ... packed
six per byte, most significant bit first, each byte offset by 63.  The
final byte is zero-padded.  Decoding followed by encoding reproduces
the input bytes exactly; the long and huge size forms are rejected.
"""

from __future__ import annotations

from .graphs import Graph
from .limits import CapabilityError


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


_HEADER = ">>graph6<<"


def parse_graph6(line: str | bytes) -> Graph:
    """Decode one short-form graph6 line into a labelled graph."""
    if isinstance(line, bytes):
        line = line.decode("ascii", errors="replace")
    s = line.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    first = ord(s[0])
    if first == 126:
        raise CapabilityError(
            "long/huge graph6 size forms are not supported (order < 63 only)"
        )
    if not 63 <= first <= 125:
        raise Graph6Error(f"size byte {first} outside graph6 range", 0)
    n = first - 63
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    payload = s[1:]
    if len(payload) < nbytes:
        raise Graph6Error(
            f"truncated bit payload: need {nbytes} bytes, got {len(payload)}",
            1 + len(payload),
        )
    if len(payload) > nbytes:
        raise Graph6Error(f"trailing bytes after bit payload", 1 + nbytes)
    # The inverse of emit_graph6: the payload is one integer, most
    # significant bit first.  Column j holds the j bits of the pairs
    # (0, j) .. (j - 1, j), pair (0, j) highest, so the columns are read
    # from the last one up, starting just above the padding bits.
    val = 0
    for b, ch in enumerate(payload):
        byte = ord(ch) - 63
        if not 0 <= byte <= 63:
            raise Graph6Error(f"payload byte {ord(ch)} outside graph6 range", 1 + b)
        val = val << 6 | byte
    shift = 6 * nbytes - npairs
    if val & ((1 << shift) - 1):
        raise Graph6Error("nonzero padding bits", nbytes)
    adj = [0] * n
    for j in range(n - 1, 0, -1):
        col = val >> shift & ((1 << j) - 1)
        shift += j
        while col:
            low = col & -col
            i = j - low.bit_length()
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            col ^= low
    return Graph(n, tuple(adj))


def emit_graph6(g: Graph) -> str:
    """Encode a labelled graph as a short-form graph6 line (no newline)."""
    if g.n >= 63:
        raise CapabilityError(
            f"graph6 short form encodes order < 63, got {g.n}"
        )
    # Column j holds the pairs (0, j) .. (j - 1, j): the bits of adj[j]
    # below j, bit i landing at stream position j(j-1)/2 + i.  The padded
    # stream is one integer, most significant bit first.
    n, adj = g.n, g.adj
    nbytes = (n * (n - 1) // 2 + 5) // 6
    top = 6 * nbytes - 1
    val = 0
    for j in range(1, n):
        row = adj[j] & ((1 << j) - 1)
        base = top - j * (j - 1) // 2
        while row:
            low = row & -row
            val |= 1 << (base - low.bit_length() + 1)
            row ^= low
    chunks = [chr(63 + (val >> 6 * k & 63)) for k in range(nbytes - 1, -1, -1)]
    return chr(63 + n) + "".join(chunks)
