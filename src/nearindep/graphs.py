"""Immutable bitmask graphs and small-order isomorphism machinery.

A simple graph on n <= 64 vertices is stored as a tuple of adjacency
bitmasks: ``adj[v]`` is the open neighbourhood of v.  Vertex subsets
(type alias ``VertexMask``) are plain ints interpreted as bitmasks over
0..n-1, which keeps induced subgraphs, closed-neighbourhood deletions
and memoisation keys cheap.

Isomorphism handling is exact but deliberately small-order.
``canonical_form`` searches by individualisation-refinement: cells by
degree, refined until equitable, then one vertex of the first
non-singleton cell individualised per branch, with twins (vertices with
the same neighbours apart from each other) tried once per class.  Its
code is the least upper-triangle bit-string over the leaves of that
search (equal codes <=> isomorphic, for n up to the canonicalisation
cap), and it also returns generators of the automorphism group (the
twin transpositions and one per further least leaf) and the canonical
labelling, the vertex order that spells the code.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Iterator

from .limits import Limits, check_cap

VertexMask = int


def bits(mask: VertexMask) -> Iterator[int]:
    """Yield the set bit positions of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph(namedtuple("Graph", "n adj")):
    """Immutable simple graph: vertex count plus per-vertex neighbour masks.
    ``Graph(n, adj)`` validates both in ``_check`` before the tuple is built;
    generators, valid by construction, build through ``_unchecked``."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so ``_replace`` validates too

    def __new__(cls, n: int, adj: tuple[int, ...]) -> Graph:
        cls._check(n, adj)
        return tuple.__new__(cls, (n, adj))

    @staticmethod
    def _check(n: int, adj: tuple[int, ...]) -> None:
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"order must be a non-negative int, got {n!r}")
        check_cap(n, Limits.graph_max_n, "Graph")
        if not isinstance(adj, tuple) or not all(isinstance(row, int) for row in adj):
            raise ValueError(f"adjacency must be a tuple of int rows, got {adj!r}")
        if len(adj) != n:
            raise ValueError(f"adjacency length {len(adj)} != order {n}")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"adjacency of vertex {v} mentions vertices >= {n}")
            bit = 1 << v
            if row & bit:
                raise ValueError(f"loop at vertex {v}")
            while row:
                low = row & -row
                u = low.bit_length() - 1
                if not adj[u] & bit:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
                row ^= low

    @classmethod
    def _unchecked(cls, n: int, adj: tuple[int, ...]) -> Graph:
        return tuple.__new__(cls, (n, adj))

    @property
    def full_mask(self) -> VertexMask:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for v in range(self.n) for u in bits(self.adj[v]) if u < v]


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges are collapsed."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"order must be a non-negative int, got {n!r}")
    adj = [0] * n
    for u, v in edges:
        if not (isinstance(u, int) and isinstance(v, int)):
            raise ValueError(f"edge ({u!r},{v!r}) must join two int vertices")
        if u == v:
            raise ValueError(f"loop ({u},{v}) rejected")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for order {n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def make_named(family: str, n: int, t: int | None = None) -> Graph:
    """Construct a named family member with its conventional labelling.

    star: vertex 0 is the centre.  path: vertices in index order.
    matching_plus_isolated: t disjoint edges (2i, 2i+1) plus n-2t
    isolated vertices (requires t).
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"order must be a non-negative int, got {n!r}")
    if family != "matching_plus_isolated" and t is not None:
        raise ValueError(f"parameter t is only valid for matching_plus_isolated, not {family}")
    if family == "star":
        return make_graph(n, [(0, v) for v in range(1, n)])
    if family == "path":
        return make_graph(n, [(v, v + 1) for v in range(n - 1)])
    if family == "complete":
        return make_graph(n, [(u, v) for v in range(n) for u in range(v)])
    if family == "empty":
        return make_graph(n, [])
    if family == "matching_plus_isolated":
        if t is None:
            raise ValueError("matching_plus_isolated requires t")
        if not isinstance(t, int) or t < 0 or 2 * t > n:
            raise ValueError(f"invalid t={t} for order {n}")
        return make_graph(n, [(2 * i, 2 * i + 1) for i in range(t)])
    raise ValueError(f"unknown family {family!r}")


# No caller in the engine, but perfbench/tracer.py binds it where sigma.py and verify.py import it.
def induced_subgraph(g: Graph, keep: VertexMask) -> Graph:
    """Subgraph induced on ``keep``, relabelled compactly in index order."""
    if keep & ~g.full_mask:
        raise ValueError("keep mask mentions vertices outside the graph")
    kept = list(bits(keep))
    newidx = {v: i for i, v in enumerate(kept)}
    adj = tuple(sum(1 << newidx[u] for u in bits(g.adj[v] & keep)) for v in kept)
    return Graph(len(kept), adj)


def split_components(mask: VertexMask, adj: tuple[int, ...]) -> tuple[list[VertexMask], int]:
    """The connected components of ``mask`` with two or more vertices, and
    the number of isolated vertices, found by a bitmask BFS over ``adj``."""
    comps = []
    isolated = 0
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grown & mask & ~comp
            comp |= frontier
        mask ^= comp
        if comp & (comp - 1):
            comps.append(comp)
        else:
            isolated += 1
    return comps, isolated


# No caller in the engine, but perfbench/tracer.py binds it here and where sigma.py imports it.
def connected_components(g: Graph) -> list[VertexMask]:
    """Partition of the vertices into maximal connected masks.

    Components are ordered by their smallest member.  The singletons are
    the vertices that no component of ``split_components`` covers.
    """
    comps, _ = split_components(g.full_mask, g.adj)
    alone = g.full_mask & ~sum(comps)  # the components are disjoint
    return sorted(comps + [1 << v for v in bits(alone)], key=lambda comp: comp & -comp)


def is_connected(g: Graph) -> bool:
    comps, isolated = split_components(g.full_mask, g.adj)
    return len(comps) + isolated <= 1


def max_degree(g: Graph) -> int:
    return max((row.bit_count() for row in g.adj), default=0)


# ---------------------------------------------------------------------------
# canonical codes (exact, individualisation-refinement)
# ---------------------------------------------------------------------------

class CanonicalCode(namedtuple("CanonicalCode", "n code")):
    """Upper-triangle adjacency bit-string of the canonical labelling.

    Bits are packed column by column ((0,1), (0,2), (1,2), (0,3), ...),
    most significant first.  The code is the least such string over the
    leaves of the refinement search, not over all relabellings, so equal
    codes <=> isomorphic graphs within the canonicalisation cap.
    """

    __slots__ = ()


def _column_rows(n: int, val: int) -> tuple[int, ...]:
    """The rows of the n-vertex graph whose upper-triangle bits ``val``
    packs as a ``CanonicalCode`` and a graph6 payload do, last column lowest."""
    adj = [0] * n
    for j in range(n - 1, 0, -1):
        col = val & ((1 << j) - 1)
        val >>= j
        while col:
            low = col & -col
            i = j - low.bit_length()
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            col ^= low
    return tuple(adj)


def _refine(adj: tuple[int, ...], cells: list[int], queue: list[int]) -> list[int]:
    """Refine the ordered partition ``cells`` (vertex masks) until it is
    equitable.  Each splitter w taken from ``queue`` splits every cell by
    the number of neighbours its vertices have in w (a one-vertex w into
    non-neighbours, then neighbours), and the fragments replace the cell
    in increasing count order.  All fragments but the first largest join
    the queue: counts into it are those into the cell less those into
    the others.  Only counts decide the order, so the result commutes
    with relabelling."""
    n = len(adj)
    while queue and len(cells) < n:
        w = queue.pop()
        if not w & (w - 1):
            one = adj[w.bit_length() - 1]
            for i in range(len(cells) - 1, -1, -1):  # a split moves only later cells
                x = cells[i]
                y = x & one
                if y and y != x:
                    cells[i:i + 1] = [x ^ y, y]
                    queue.append(x ^ y if y.bit_count() > (x ^ y).bit_count() else y)
            continue
        for i in range(len(cells) - 1, -1, -1):
            x = cells[i]
            if not x & (x - 1):
                continue
            split: dict[int, int] = {}
            while x:
                low = x & -x
                c = (adj[low.bit_length() - 1] & w).bit_count()
                split[c] = split.get(c, 0) | low
                x ^= low
            if len(split) > 1:
                frags = cells[i:i + 1] = [split[c] for c in sorted(split)]
                big = max(frags, key=int.bit_count)
                queue += [f for f in frags if f != big]
    return cells


def canonical_form(
    g: Graph,
) -> tuple[CanonicalCode, tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Canonical code, a generating set of Aut(g) and the canonical labelling.

    Individualisation-refinement (McKay and Piperno, "Practical graph
    isomorphism, II", J. Symbolic Comput. 60, 2014): the vertices start in
    cells by degree, refined until equitable by ``_refine``; each node of
    the search individualises one vertex of its first non-singleton cell
    (placing it ahead of the rest of the cell) and refines again, and a
    leaf is a partition into singletons, an order of the vertices.  The
    tree commutes with relabelling, so the least column code over its
    leaves is a complete invariant.  A stack of partitions walks it depth
    first, children pushed largest candidate first so that leaves come off
    in candidate order; with no nested function, a call leaves no cycle.

    Twins (u, w with the same neighbours apart from each other) are
    interchangeable: the transposition (u w) is an automorphism, unplaced
    twins share a cell, and only the smallest member of each twin class
    in the cell is individualised; the transpositions of consecutive
    twins are generators.  Every leaf that attains the least code lies in
    its own coset of the twin group, and composing it with the inverse of
    the first such leaf gives one more generator.  The identity is never
    returned, so the trivial group has no generators.

    The labelling is the first least leaf: ``order[i]`` is the vertex at
    position i, so relabelling v to the position of v gives the graph
    whose own column code is the canonical code.  Any two least leaves
    differ by an automorphism, so the vertex at a given position is
    determined up to Aut(g).
    """
    check_cap(g.n, Limits.canonical_max_n, "canonical_form")
    n = g.n
    adj = g.adj
    full = g.full_mask
    root = _refine(adj, [full] if n else [], [full])  # V splits the cells by degree
    # twins share a root cell and have equal open neighbourhoods (if not
    # adjacent) or equal closed ones (if adjacent); no vertex has twins of
    # both kinds, and no open neighbourhood is a closed one
    gens: list[tuple[int, ...]] = []
    before = [0] * n  # the smaller members of v's twin class
    last: dict[int, int] = {}  # a neighbourhood -> the largest vertex so far with it
    for w in bits(sum(x for x in root if x & (x - 1))):
        for hood in (adj[w], adj[w] | 1 << w):
            t = last.get(hood)
            last[hood] = w
            if t is not None:
                before[w] = before[t] | 1 << t
                swap = list(range(n))
                swap[t], swap[w] = w, t
                gens.append(tuple(swap))
    best = -1
    leaves: list[list[int]] = []  # the least leaves so far, as singleton cells
    stack = [root]
    while stack:
        cells = stack.pop()
        if len(cells) < n:  # individualise each candidate of the first non-singleton cell
            for i, x in enumerate(cells):
                if x & (x - 1):
                    break
            head, tail, rest = cells[:i], cells[i + 1:], x
            while rest:
                v = rest.bit_length() - 1
                low = 1 << v
                rest ^= low
                if not before[v] & x:
                    stack.append(_refine(adj, [*head, low, x ^ low, *tail], [low]))
            continue
        code, placed = 0, []
        for x in cells:
            row = adj[x.bit_length() - 1]
            for y in placed:
                code = code << 1 | (row & y != 0)
            placed.append(x)
        if best < 0 or code < best:
            best = code
            leaves[:] = [cells]
        elif code == best:
            leaves.append(cells)
    first, *others = ([x.bit_length() - 1 for x in leaf] for leaf in leaves)
    inv = [0] * n
    for p, v in enumerate(first):
        inv[v] = p
    gens.extend(tuple(leaf[inv[v]] for v in range(n)) for leaf in others)
    return CanonicalCode(n, best), tuple(gens), tuple(first)


def canonical_code(g: Graph) -> CanonicalCode:
    """Deterministic complete isomorphism invariant for small orders."""
    return canonical_form(g)[0]
