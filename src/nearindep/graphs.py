"""Immutable bitmask graphs and small-order isomorphism machinery.

A simple graph on n <= 64 vertices is stored as a tuple of adjacency
bitmasks: ``adj[v]`` is the open neighbourhood of v.  Vertex subsets
(type alias ``VertexMask``) are plain ints interpreted as bitmasks over
0..n-1, which keeps induced subgraphs, closed-neighbourhood deletions
and memoisation keys cheap.

Isomorphism handling is exact but deliberately small-order.

``canonical_code`` minimises the upper-triangle adjacency bit-string
over all vertex relabellings by a pruned branch-and-bound search
(equal codes <=> isomorphic, for n up to the canonicalisation cap).
``canonical_form`` also returns generators of the automorphism group
and the canonical labelling, the vertex order that spells the code
(relabelling by it gives the one graph with that column code): the
search extends every column by one bit per level, places twins
(vertices with the same neighbours apart from each other) in index
order only, with their transpositions as generators, and turns each
further minimal leaf into one more generator, so K_n and the empty
graph cost n search nodes instead of n! leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .limits import Limits, check_cap

VertexMask = int


def bits(mask: VertexMask) -> Iterator[int]:
    """Yield the set bit positions of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> VertexMask:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: vertex count plus per-vertex neighbour masks."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        n, adj = self.n, self.adj
        if n < 0:
            raise ValueError(f"negative order {n}")
        check_cap(n, Limits.graph_max_n, "Graph")
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
    adj = [0] * n
    for u, v in edges:
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
    if n < 0:
        raise ValueError(f"negative order {n}")
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
        if t < 0 or 2 * t > n:
            raise ValueError(f"invalid t={t} for order {n}")
        return make_graph(n, [(2 * i, 2 * i + 1) for i in range(t)])
    raise ValueError(f"unknown family {family!r}")


def induced_subgraph(g: Graph, keep: VertexMask) -> Graph:
    """Subgraph induced on ``keep``, relabelled compactly in index order."""
    if keep & ~g.full_mask:
        raise ValueError("keep mask mentions vertices outside the graph")
    kept = list(bits(keep))
    newidx = {v: i for i, v in enumerate(kept)}
    adj = tuple(mask_of(newidx[u] for u in bits(g.adj[v] & keep)) for v in kept)
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
# canonical codes (exact, permutation branch-and-bound)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalCode:
    """Minimal upper-triangle adjacency bit-string over all relabellings.

    Bits are packed column by column ((0,1), (0,2), (1,2), (0,3), ...),
    most significant first, so equal codes <=> isomorphic graphs within
    the canonicalisation cap.
    """

    n: int
    code: int


def canonical_form(
    g: Graph,
) -> tuple[CanonicalCode, tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Canonical code, a generating set of Aut(g) and the canonical labelling.

    The search assigns vertices to positions 0..n-1 in order; placing a
    vertex at position j fixes the j bits of column j, which are exactly
    the next bits of the code, so lexicographic pruning against the best
    complete code found so far is sound.  A candidate's column grows by
    one bit per level (its adjacency to the vertex just placed), so no
    column is rescanned.  Candidates are ordered by column value and then
    by degree, which makes the first descent nearly minimal and the
    pruning sharp.

    Twins (u, w with the same neighbours apart from each other) are
    interchangeable: the transposition (u w) is an automorphism, so only
    the smallest unplaced member of each twin class is a candidate, and
    the transpositions of consecutive twins are generators.  Every leaf
    that attains the minimum then lies in its own coset of the twin
    group, and composing it with the inverse of the first such leaf
    gives one more generator.  The identity is never returned, so the
    trivial group has no generators.

    The labelling is the first minimal leaf: ``order[i]`` is the vertex
    placed at position i, so relabelling v to the position of v gives the
    graph whose own column code is the canonical code.  Any two minimal
    leaves differ by an automorphism, so the vertex at a given position
    is determined up to Aut(g).
    """
    check_cap(g.n, Limits.canonical_max_n, "canonical_form")
    n = g.n
    adj = g.adj
    # twin classes, each placed in increasing order: only the class minima
    # start as candidates, and placing a twin makes the next one a candidate
    gens: list[tuple[int, ...]] = []
    succ = [0] * n  # bit of the next member of v's twin class, or 0
    tail: dict[int, int] = {}  # smallest member of a class -> its largest so far
    roots = 0
    for w in range(n):
        for u, t in tail.items():
            if adj[u] & ~(1 << w) == adj[w] & ~(1 << u):
                succ[t] = 1 << w
                tail[u] = w
                swap = list(range(n))
                swap[t], swap[w] = w, t
                gens.append(tuple(swap))
                break
        else:
            tail[w] = w
            roots |= 1 << w
    # the columns of all vertices are n-bit fields of one int ``vals`` (a
    # column has at most n - 1 bits): placing w shifts every field left and
    # sets bit 0 in the fields of w's neighbours
    spread = [sum(1 << n * v for v in bits(row)) for row in adj]
    field = (1 << n) - 1
    key = [row.bit_count() << 4 | w for w, row in enumerate(adj)]  # n <= 16

    best = [0] * n
    cols = [0] * n
    placed = [0] * n
    leaves: list[tuple[int, ...]] = []
    leaf_depth = n - 1
    # The current path equals best on columns 0..agree-1.  A node is only
    # entered with a prefix no greater than best's, and best only moves to
    # leaves below the current path, so a node is tight (prefix equal to
    # best's) iff agree >= depth, and strictly below best otherwise.
    agree = -1

    def dfs(depth: int, cands: int, vals: int) -> None:
        nonlocal agree
        if depth == leaf_depth:
            # one vertex is left, and placing it completes a leaf
            w = cands.bit_length() - 1
            c = vals >> n * w & field
            if agree >= depth:
                b = best[depth]
                if c > b:
                    return
                if c == b:
                    placed[depth] = w
                    leaves.append(tuple(placed))
                    return
            cols[depth] = c
            placed[depth] = w
            best[:] = cols
            leaves[:] = [tuple(placed)]
            agree = n
            return
        order = []
        rest = cands
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            order.append((vals >> n * w & field) << 8 | key[w])
            rest ^= low
        order.sort()
        for k in order:
            c = k >> 8
            w = k & 15
            if agree >= depth:
                b = best[depth]
                if c > b:
                    break
                agree = depth + 1 if c == b else depth
            cols[depth] = c
            placed[depth] = w
            dfs(depth + 1, cands ^ 1 << w | succ[w], vals << 1 | spread[w])

    if n:
        dfs(0, roots, 0)
    code = 0
    for j in range(n):
        code = code << j | best[j]
    if leaves:
        inv = [0] * n
        for pos, v in enumerate(leaves[0]):
            inv[v] = pos
        gens.extend(tuple(leaf[inv[v]] for v in range(n)) for leaf in leaves[1:])
    return CanonicalCode(n, code), tuple(gens), leaves[0] if leaves else ()


def canonical_code(g: Graph) -> CanonicalCode:
    """Deterministic complete isomorphism invariant for small orders."""
    return canonical_form(g)[0]
