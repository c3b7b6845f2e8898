"""Immutable bitmask graphs and small-order isomorphism machinery.

A simple graph on n <= 64 vertices is stored as a tuple of adjacency
bitmasks: ``adj[v]`` is the open neighbourhood of v.  Vertex subsets
(type alias ``VertexMask``) are plain ints interpreted as bitmasks over
0..n-1, which keeps induced subgraphs, closed-neighbourhood deletions
and memoisation keys cheap.

Isomorphism handling is exact but deliberately small-order:

* ``canonical_code`` minimises the upper-triangle adjacency bit-string
  over all vertex relabellings by a pruned branch-and-bound search
  (equal codes <=> isomorphic, for n up to the canonicalisation cap);
* ``forest_certificate`` is a linear-time canonical form that works for
  forests of any supported order (centre-rooted subtree encoding).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .limits import CapabilityError, check_cap, effective_limits

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
        check_cap(n, effective_limits().graph_max_n, "Graph")
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


def closed_neighborhood(g: Graph, v: int) -> VertexMask:
    """N[v] = N(v) together with v itself."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for order {g.n}")
    return g.adj[v] | 1 << v


def connected_components(g: Graph) -> list[VertexMask]:
    """Partition of the vertices into maximal connected masks.

    Components are ordered by their smallest member.
    """
    adj = g.adj
    remaining = g.full_mask
    out: list[VertexMask] = []
    while remaining:
        comp = frontier = remaining & -remaining
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grown & remaining & ~comp
            comp |= frontier
        out.append(comp)
        remaining &= ~comp
    return out


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


def max_degree(g: Graph) -> int:
    return max((row.bit_count() for row in g.adj), default=0)


def is_forest(g: Graph) -> bool:
    """True iff g is acyclic: it has n - (number of components) edges.

    Every component on k vertices has at least k - 1 edges, with equality
    exactly for a tree, so the count rule holds iff every component is one.
    """
    return g.edge_count() == g.n - len(connected_components(g))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; vertices of h are shifted after those of g."""
    shift = g.n
    adj = g.adj + tuple(row << shift for row in h.adj)
    return Graph(g.n + h.n, adj)


def relabel(g: Graph, perm: Iterable[int]) -> Graph:
    """Relabel so that old vertex v becomes perm[v]."""
    p = list(perm)
    if sorted(p) != list(range(g.n)):
        raise ValueError("perm is not a permutation of the vertices")
    adj = [0] * g.n
    for v in range(g.n):
        adj[p[v]] = mask_of(p[u] for u in bits(g.adj[v]))
    return Graph(g.n, tuple(adj))


def pair_order(n: int) -> list[tuple[int, int]]:
    """The fixed order of vertex pairs used for labelled-graph bitmasks:
    (0,1), (0,2), (1,2), (0,3), ... (same column order as graph6)."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def graph_from_pair_mask(n: int, mask: int) -> Graph:
    """Labelled graph from a bitmask over pair_order(n); bit 0 = pair (0,1)."""
    adj = [0] * n
    for k, (i, j) in enumerate(pair_order(n)):
        if mask >> k & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph(n, tuple(adj))


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


def canonical_form(g: Graph) -> tuple[CanonicalCode, tuple[tuple[int, ...], ...]]:
    """Canonical code together with the automorphisms of g.

    The search assigns vertices to positions 0..n-1 in order; placing a
    vertex at position j fixes the j bits of column j, which are exactly
    the next bits of the code, so lexicographic pruning against the best
    complete code found so far is sound.  Candidates are ordered by
    column value and then by degree, which makes the first descent
    nearly minimal and the pruning sharp.  All permutations attaining
    the minimum are collected; composing any of them with the inverse of
    the first yields the automorphism group of g.
    """
    lim = effective_limits()
    if g.n > lim.canonical_max_n:
        raise CapabilityError(
            f"canonical_code supports order <= {lim.canonical_max_n}, got {g.n}"
        )
    n = g.n
    if n <= 1:
        return CanonicalCode(n, 0), (tuple(range(n)),)
    adj = g.adj
    deg = [adj[v].bit_count() for v in range(n)]

    best: list[int] | None = None
    best_perms: list[tuple[int, ...]] = []
    cols = [0] * n
    placed = [0] * n
    used = [False] * n

    def dfs(depth: int) -> None:
        nonlocal best
        if depth == n:
            if best is None or cols < best:
                best = cols.copy()
                best_perms.clear()
                best_perms.append(tuple(placed))
            elif cols == best:
                best_perms.append(tuple(placed))
            return
        cands = []
        for w in range(n):
            if used[w]:
                continue
            aw = adj[w]
            c = 0
            for i in range(depth):
                if aw >> placed[i] & 1:
                    c |= 1 << (depth - 1 - i)
            cands.append((c, deg[w], w))
        cands.sort()
        for c, _, w in cands:
            if best is not None:
                stale = False
                tight = True
                for i in range(depth):
                    if cols[i] != best[i]:
                        tight = False
                        stale = cols[i] > best[i]
                        break
                if stale:
                    return
                if tight and c > best[depth]:
                    break
            cols[depth] = c
            placed[depth] = w
            used[w] = True
            dfs(depth + 1)
            used[w] = False

    dfs(0)
    assert best is not None
    code = 0
    for j in range(n):
        code = code << j | best[j]
    base = best_perms[0]
    inv = [0] * n
    for pos, v in enumerate(base):
        inv[v] = pos
    autos = tuple(tuple(perm[inv[v]] for v in range(n)) for perm in best_perms)
    return CanonicalCode(n, code), autos


def canonical_code(g: Graph) -> CanonicalCode:
    """Deterministic complete isomorphism invariant for small orders."""
    return canonical_form(g)[0]


# ---------------------------------------------------------------------------
# forest certificates (centre-rooted subtree encoding, any supported order)
# ---------------------------------------------------------------------------

def _component_centers(g: Graph, comp: VertexMask) -> list[int]:
    """Centres of a tree component, by iterated leaf stripping."""
    size = comp.bit_count()
    if size <= 2:
        return list(bits(comp))
    degs = {v: (g.adj[v] & comp).bit_count() for v in bits(comp)}
    alive = comp
    layer = [v for v, d in degs.items() if d <= 1]
    remaining = size
    while remaining > 2:
        nxt = []
        for v in layer:
            alive &= ~(1 << v)
            remaining -= 1
            for u in bits(g.adj[v] & alive):
                degs[u] -= 1
                if degs[u] == 1:
                    nxt.append(u)
        layer = nxt
    return list(bits(alive))


def _rooted_encoding(g: Graph, root: int, comp: VertexMask) -> tuple:
    """Nested-tuple encoding of the component rooted at ``root``;
    children are sorted, so equal encodings <=> rooted isomorphism."""

    def enc(v: int, parent: int) -> tuple:
        kids = [enc(u, v) for u in bits(g.adj[v] & comp) if u != parent]
        kids.sort()
        return tuple(kids)

    return enc(root, -1)


def forest_certificate(g: Graph) -> tuple:
    """Complete isomorphism invariant for forests of any supported order.

    Each tree component is encoded rooted at its centre (minimum over
    the at most two centres); the certificate is the sorted tuple of
    component encodings.  Raises ValueError on cyclic input.
    """
    if not is_forest(g):
        raise ValueError("forest_certificate requires acyclic input")
    return tuple(sorted(
        min(_rooted_encoding(g, c, comp) for c in _component_centers(g, comp))
        for comp in connected_components(g)
    ))


def tree_certificate(g: Graph) -> tuple:
    """Certificate of a single tree (connected acyclic graph)."""
    if g.n == 0 or not is_connected(g):
        raise ValueError("tree_certificate requires a connected graph")
    return forest_certificate(g)
