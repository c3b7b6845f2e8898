"""graph6 codec, bit-exact, up to the package's largest order (64).

One graph per line: the order n, then the upper-triangle adjacency bits
in column order (0,1), (0,2), (1,2), (0,3), ... packed six per byte,
most significant bit first, each byte offset by 63.  The final byte is
zero-padded.  An order below 63 is the one byte chr(63 + n) (the short
form); orders 63 and 64 are '~' and then n in 18 bits, as three bytes
(the long form).  Decoding followed by encoding reproduces the input
bytes exactly, so a long form spelling an order below 63 is malformed;
the huge form ('~~') and orders above the cap are capability errors.

A line (``str`` or ``bytes``) is stripped of ASCII whitespace only, bytes
are read as latin-1, and an error names the byte value and its offset.
"""

from __future__ import annotations

from binascii import a2b_base64, b2a_base64

from .graphs import Graph, _column_rows
from .limits import CapabilityError, Limits, check_cap


class Graph6Error(ValueError):
    """Malformed graph6; ``offset`` is the byte's position in the stripped line, header counted."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


_HEADER = ">>graph6<<"


def _read_digits(s: str, start: int, stop: int, field: str) -> int:
    """The integer ``s[start:stop]`` spells in 6-bit digits, each byte offset by 63."""
    val = 0
    for b, ch in enumerate(s[start:stop], start):
        digit = ord(ch) - 63
        if not 0 <= digit <= 63:
            raise Graph6Error(f"{field} byte {ord(ch)} outside graph6 range", b)
        val = val << 6 | digit
    return val


_BASE64, _GRAPH6 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127))
_DIGITS, _UNDIGITS = bytes.maketrans(_BASE64, _GRAPH6), bytes.maketrans(_GRAPH6, _BASE64)  # and back


def _write_digits(val: int, ndigits: int) -> str:
    """The inverse of ``_read_digits``: ``val`` as ``ndigits`` 6-bit digits, at
    C level: padded to a multiple of 4 digits, val is whole bytes, which
    base64 spells as 6-bit digits, mapped onto graph6's by ``_DIGITS``."""
    pad = -ndigits % 4
    raw = (val << 6 * pad).to_bytes((ndigits + pad) * 3 // 4, "big")
    return b2a_base64(raw, newline=False).translate(_DIGITS)[:ndigits].decode("ascii")


def parse_graph6(line: str | bytes) -> Graph:
    """Decode one graph6 line (``str``, or ``bytes`` read as latin-1)."""
    s = (line if isinstance(line, str) else line.decode("latin-1")).strip(" \t\n\r\v\f")
    at = len(_HEADER) if s.startswith(_HEADER) else 0
    if at == len(s):
        raise Graph6Error("empty graph6 string", at)
    n = _read_digits(s, at, at + 1, "size")
    head = at + 1
    if n == 63:
        if s[head:head + 1] == "~":
            raise CapabilityError("the huge graph6 size form is not supported (order <= 64 only)")
        head += 3
        if len(s) < head:
            raise Graph6Error(f"truncated long size form: need 3 bytes after '~', got {len(s) - at - 1}", len(s))
        n = _read_digits(s, at + 1, head, "size")
        if n < 63:
            raise Graph6Error(f"long size form for order {n}, which the short form spells", at + 1)
        check_cap(n, Limits.graph_max_n, "graph6")
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    if len(s) < head + nbytes:
        raise Graph6Error(f"truncated bit payload: need {nbytes} bytes, got {len(s) - head}", len(s))
    if len(s) > head + nbytes:
        raise Graph6Error("trailing bytes after bit payload", head + nbytes)
    # The inverse of emit_graph6 and _write_digits: one integer, its padding below the last column.
    raw = s[head:].encode("ascii", "ignore")
    if len(raw) != nbytes or raw.translate(None, _GRAPH6):
        _read_digits(s, head, head + nbytes, "payload")  # raises, naming the byte outside 63-126
    val = int.from_bytes(a2b_base64(b"A" * (-nbytes % 4) + raw.translate(_UNDIGITS)), "big")  # led by zero digits
    shift = 6 * nbytes - npairs
    if val & ((1 << shift) - 1):
        raise Graph6Error("nonzero padding bits", head + nbytes - 1)
    return Graph._unchecked(n, _column_rows(n, val >> shift))  # symmetric and loop-free as built


def _emit_code(n: int, val: int) -> str:
    """The graph6 line of order n whose pair bits ``val`` packs as ``_column_rows`` reads them."""
    npairs = n * (n - 1) // 2
    size = chr(63 + n) if n < 63 else "~" + _write_digits(n, 3)
    return size + _write_digits(val << -npairs % 6, (npairs + 5) // 6)


def emit_graph6(g: Graph) -> str:
    """Encode a labelled graph as a graph6 line (no newline), in the long
    size form from order 63 on."""
    # Column j holds the pairs (0, j) .. (j - 1, j): the bits of adj[j]
    # below j, bit i landing at stream position j(j-1)/2 + i.  The stream
    # is one integer, most significant bit first.
    n, adj = g.n, g.adj
    top = n * (n - 1) // 2 - 1
    val = 0
    for j in range(1, n):
        row = adj[j] & ((1 << j) - 1)
        base = top - j * (j - 1) // 2
        while row:
            low = row & -row
            val |= 1 << (base - low.bit_length() + 1)
            row ^= low
    return _emit_code(n, val)
