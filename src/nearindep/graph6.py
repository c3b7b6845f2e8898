"""graph6 codec, bit-exact, up to the package's largest order (64).

One graph per line: the order n, then the upper-triangle adjacency bits
in column order (0,1), (0,2), (1,2), (0,3), ... packed six per byte,
most significant bit first, each byte offset by 63.  The final byte is
zero-padded.  An order below 63 is the one byte chr(63 + n) (the short
form); orders 63 and 64 are '~' and then n in 18 bits, as three bytes
(the long form).  Decoding followed by encoding reproduces the input
bytes exactly, so a long form spelling an order below 63 is malformed;
the huge form ('~~') and orders above the cap are capability errors.
"""

from __future__ import annotations

from .graphs import Graph
from .limits import CapabilityError, Limits, check_cap


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


_HEADER = ">>graph6<<"


def parse_graph6(line: str | bytes) -> Graph:
    """Decode one graph6 line into a labelled graph."""
    if isinstance(line, bytes):
        line = line.decode("ascii", errors="replace")
    s = line.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    first = ord(s[0])
    if first == 126:
        if s[1:2] == "~":
            raise CapabilityError("the huge graph6 size form is not supported (order <= 64 only)")
        head = 4
        if len(s) < head:
            raise Graph6Error(f"truncated long size form: need 3 bytes after '~', got {len(s) - 1}", len(s))
        n = 0
        for b in range(1, head):
            byte = ord(s[b]) - 63
            if not 0 <= byte <= 63:
                raise Graph6Error(f"size byte {ord(s[b])} outside graph6 range", b)
            n = n << 6 | byte
        if n < 63:
            raise Graph6Error(f"long size form for order {n}, which the short form spells", 1)
        check_cap(n, Limits.graph_max_n, "graph6")
    elif 63 <= first <= 125:
        head, n = 1, first - 63
    else:
        raise Graph6Error(f"size byte {first} outside graph6 range", 0)
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    payload = s[head:]
    if len(payload) < nbytes:
        raise Graph6Error(
            f"truncated bit payload: need {nbytes} bytes, got {len(payload)}",
            head + len(payload),
        )
    if len(payload) > nbytes:
        raise Graph6Error("trailing bytes after bit payload", head + nbytes)
    # The inverse of emit_graph6: the payload is one integer, most
    # significant bit first.  Column j holds the j bits of the pairs
    # (0, j) .. (j - 1, j), pair (0, j) highest, so the columns are read
    # from the last one up, starting just above the padding bits.
    val = 0
    for b, ch in enumerate(payload):
        byte = ord(ch) - 63
        if not 0 <= byte <= 63:
            raise Graph6Error(f"payload byte {ord(ch)} outside graph6 range", head + b)
        val = val << 6 | byte
    shift = 6 * nbytes - npairs
    if val & ((1 << shift) - 1):
        raise Graph6Error("nonzero padding bits", head + nbytes - 1)
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
    """Encode a labelled graph as a graph6 line (no newline), in the long
    size form from order 63 on."""
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
    size = chr(63 + n) if n < 63 else "~" + "".join(chr(63 + (n >> k & 63)) for k in (12, 6, 0))
    return size + "".join(chunks)
