"""Isomorph-free streams of trees, forests and small graphs.

Free trees are produced from canonical level sequences: the successor
rule of Beyer and Hedetniemi walks canonical rooted level sequences in
decreasing lexicographic order, and a sequence is kept exactly when its
root is a centre of the tree (with a size/lexicographic tie rule
picking one of the two centre rootings of bicentral trees).  The walk
starts at the centre-rooted path and, following Wright, Richmond,
Odlyzko and McKay ("Constant time generation of free trees", SIAM J.
Comput. 15, 1986), jumps over each run of off-centre rootings instead of
stepping through it: at n = 18 it visits 129,231 sequences for 123,867
trees, where the plain walk visits all 1,721,159 rooted trees.
Forests are multisets of trees assembled over the integer partitions of
n, each forest built as one graph from the shifted tree rows, and
graph classes on up to eight vertices are built by extending every
class on n-1 vertices with one new vertex and deduplicating on
canonical codes; subsets of the extended class are first reduced to
orbit representatives under its automorphisms, marked orbit by orbit
over all 2^n subsets from the generators ``canonical_form`` returns.

Independent labelled-enumeration oracles (Pruefer sequences, leaf
extension, orbit marking over all labelled graphs) live here too; the
test-suite checks every stream against them on small orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from typing import Iterator

from .graphs import (
    Graph,
    canonical_form,
    forest_certificate,
    graph_from_pair_mask,
    is_connected,
    is_forest,
    make_graph,
    max_degree,
    pair_order,
)
from .limits import CapabilityError, check_cap, effective_limits

FAMILIES = ("trees", "forests", "all_graphs", "connected_graphs", "bounded_degree_graphs")


@dataclass(frozen=True)
class ClassSpec:
    """Names one of the graph universes the verifiers quantify over."""

    family: str
    n: int
    delta: int | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if (self.delta is not None) != (self.family == "bounded_degree_graphs"):
            raise ValueError("delta is required for bounded_degree_graphs and invalid otherwise")
        if self.n < 0:
            raise ValueError(f"negative order {self.n}")


# ---------------------------------------------------------------------------
# free trees from canonical level sequences
# ---------------------------------------------------------------------------

def _next_rooted_layout(layout: list[int], p: int | None = None) -> list[int] | None:
    """Successor of a canonical rooted level sequence (Beyer-Hedetniemi).

    Find the last position p with level >= 2, its chain parent q, and
    repeat the segment q..p-1 to the end; returns None after the star.
    A given p (with level >= 2) skips every sequence that keeps
    layout[:p + 1] and differs only after p.
    """
    if p is None:
        p = len(layout) - 1
        while p > 0 and layout[p] < 2:
            p -= 1
        if p <= 0:
            return None
    q = p - 1
    while layout[q] != layout[p] - 1:
        q -= 1
    out = list(layout)
    for i in range(p, len(out)):
        out[i] = out[i - (p - q)]
    return out


def _first_subtree_end(layout: list[int]) -> int:
    """Index m where the first root subtree layout[1:m] ends."""
    for i in range(2, len(layout)):
        if layout[i] == 1:
            return i
    return len(layout)


def _is_center_rooted(layout: list[int]) -> bool:
    """Keep exactly one rooted representative per free tree.

    In a canonical layout the first root subtree is the deepest one.
    With h1 its depth and h2 the depth of the rest, the root is a
    centre iff h2 >= h1 - 1.  For h2 == h1 the centre is unique; for
    h2 == h1 - 1 the tree is bicentral and the two halves (the first
    subtree re-rooted, and the remainder) are compared by size and then
    lexicographically so that exactly one rooting survives.
    """
    n = len(layout)
    if n <= 2:
        return True
    m = _first_subtree_end(layout)
    h1 = max(layout[1:m])
    h2 = max(layout[m:], default=0)
    if h2 >= h1:
        return True
    if h2 < h1 - 1:
        return False
    left = [x - 1 for x in layout[1:m]]
    rest = [0] + layout[m:]
    if len(left) != len(rest):
        return len(left) < len(rest)
    return left <= rest


def _next_centred_layout(layout: list[int]) -> list[int]:
    """Jump from a rejected layout towards the next centre-rooted one.

    Later layouts with the same first root subtree have remainders that
    are lexicographically smaller, hence no deeper and no larger in the
    tie rule, so their roots are off centre too: the first subtree is
    advanced at once by the successor rule at its last position p.  If
    layout[p] > 2, that successor copies levels >= 2 up to the end and
    leaves no remainder at all; the tail is then reset to the path
    1..h1 below the root, h1 the depth of the new first subtree.
    """
    p = _first_subtree_end(layout) - 1
    out = _next_rooted_layout(layout, p)
    if layout[p] > 2:
        h1 = max(out[1:_first_subtree_end(out)])
        out[len(out) - h1:] = range(1, h1 + 1)
    return out


def _layout_to_graph(layout: list[int]) -> Graph:
    """Tree from a preorder level sequence: each vertex hangs off the
    most recent vertex one level up."""
    n = len(layout)
    adj = [0] * n
    last = [0] * n  # last[k]: the most recent vertex on level k
    for i in range(1, n):
        lev = layout[i]
        parent = last[lev - 1]
        adj[parent] |= 1 << i
        adj[i] = 1 << parent
        last[lev] = i
    return Graph(n, tuple(adj))


def gen_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of free trees on n vertices.

    The walk starts at the path rooted at its centre and visits the
    centre-rooted canonical level sequences in decreasing lexicographic
    order.  A rejected sequence is not stepped past one by one: the jump
    of Wright, Richmond, Odlyzko and McKay ("Constant time generation of
    free trees", SIAM J. Comput. 15, 1986) advances its first root
    subtree at once, so few visited sequences are rejected (about 4% at
    n = 18).  Every yielded sequence still passes ``_is_center_rooted``.
    """
    lim = effective_limits()
    if n < 1:
        raise ValueError(f"gen_trees needs n >= 1, got {n}")
    check_cap(n, lim.trees_max_n, "gen_trees")
    layout: list[int] | None = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while layout is not None:
        if _is_center_rooted(layout):
            yield _layout_to_graph(layout)
            layout = _next_rooted_layout(layout)
        else:
            layout = _next_centred_layout(layout)


@lru_cache(maxsize=32)
def _tree_list(n: int) -> tuple[Graph, ...]:
    return tuple(gen_trees(n))


# ---------------------------------------------------------------------------
# forests as multisets of trees
# ---------------------------------------------------------------------------

def _partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n into non-increasing parts, largest part first."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for k in range(top, 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def gen_forests(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of forests on n vertices.

    A forest class is the multiset of its tree components, so the stream
    walks integer partitions of n and, for each part size, multisets of
    tree classes of that size; no post-hoc deduplication is needed.
    """
    lim = effective_limits()
    if n < 1:
        raise ValueError(f"gen_forests needs n >= 1, got {n}")
    check_cap(n, lim.forests_max_n, "gen_forests")
    for part in _partitions(n):
        sizes = sorted(set(part), reverse=True)
        mult = {s: part.count(s) for s in sizes}
        pools = [
            combinations_with_replacement(range(len(_tree_list(s))), mult[s])
            for s in sizes
        ]
        for choice in product(*pools):
            rows: list[int] = []
            for s, combo in zip(sizes, choice):
                trees = _tree_list(s)
                for idx in combo:
                    shift = len(rows)
                    rows.extend(row << shift for row in trees[idx].adj)
            yield Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# all graphs on <= 8 vertices by vertex extension + canonical dedup
# ---------------------------------------------------------------------------

def _orbit_min_subsets(n: int, gens: tuple[tuple[int, ...], ...]) -> Iterator[int]:
    """Subsets of 0..n-1 that are minimal in their orbit under the group
    generated by gens, in increasing order.

    Subsets are walked upwards over a ``bytearray(1 << n)``; the first
    unmarked one is the least of its orbit, which is then marked whole
    by closing it under the generators' subset maps.
    """
    size = 1 << n
    maps = []
    for a in gens:
        img = [0] * size
        for s in range(1, size):
            low = s & -s
            img[s] = img[s ^ low] | 1 << a[low.bit_length() - 1]
        maps.append(img)
    seen = bytearray(size)
    for s in range(size):
        if seen[s]:
            continue
        yield s
        seen[s] = 1
        stack = [s]
        while stack:
            t = stack.pop()
            for img in maps:
                u = img[t]
                if not seen[u]:
                    seen[u] = 1
                    stack.append(u)


@lru_cache(maxsize=16)
def _graph_classes(n: int) -> tuple[Graph, ...]:
    """All isomorphism classes on n vertices, sorted by canonical code.

    Every class on n vertices arises from some class on n-1 vertices by
    attaching one new vertex to a subset of it, so extending every
    (n-1)-class by every subset and deduplicating on canonical codes is
    exhaustive.  Subsets are reduced to orbit representatives under the
    parent's automorphisms first (the group generated by the generators
    from ``canonical_form``), which only removes children that are
    isomorphic anyway.
    """
    if n == 0:
        return (Graph(0, ()),)
    seen: dict[int, Graph] = {}
    for parent in _graph_classes(n - 1):
        _, gens = canonical_form(parent)
        new_bit = 1 << (n - 1)
        for s in _orbit_min_subsets(parent.n, gens):
            adj = [row | (new_bit if s >> v & 1 else 0) for v, row in enumerate(parent.adj)]
            adj.append(s)
            child = Graph(n, tuple(adj))
            code = canonical_form(child)[0].code
            if code not in seen:
                seen[code] = child
    return tuple(seen[c] for c in sorted(seen))


def gen_graphs(
    n: int, connected_only: bool = False, delta: int | None = None
) -> Iterator[Graph]:
    """One representative per isomorphism class on n vertices, optionally
    restricted to connected graphs and/or to maximum degree exactly delta."""
    check_cap(n, effective_limits().graphs_max_n, "gen_graphs")
    if n < 0:
        raise ValueError(f"negative order {n}")
    for g in _graph_classes(n):
        if connected_only and not is_connected(g):
            continue
        if delta is not None and max_degree(g) != delta:
            continue
        yield g


def gen_class(spec: ClassSpec) -> Iterator[Graph]:
    """Stream the universe named by a ClassSpec."""
    if spec.family == "trees":
        return gen_trees(spec.n)
    if spec.family == "forests":
        return gen_forests(spec.n)
    if spec.family == "all_graphs":
        return gen_graphs(spec.n)
    if spec.family == "connected_graphs":
        return gen_graphs(spec.n, connected_only=True)
    return gen_graphs(spec.n, delta=spec.delta)


# ---------------------------------------------------------------------------
# independent oracles for the test-suite
# ---------------------------------------------------------------------------

def prufer_decode(n: int, seq: tuple[int, ...]) -> Graph:
    """Labelled tree on n >= 2 vertices from a Pruefer sequence."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    ptr = 0
    leaf = -1
    for x in seq:
        if leaf < 0:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            leaf = -1
            ptr += 1
    last = [v for v in range(n) if degree[v] == 1][-2:]
    edges.append((last[0], last[1]))
    return make_graph(n, edges)


def prufer_tree_certs(n: int) -> frozenset:
    """Certificates of all tree classes on n vertices via the n^(n-2)
    labelled Pruefer decodings (oracle; practical for n <= 8)."""
    if n < 1:
        raise ValueError("n >= 1")
    if n == 1:
        return frozenset({forest_certificate(make_graph(1, []))})
    certs = {
        forest_certificate(prufer_decode(n, seq))
        for seq in product(range(n), repeat=n - 2)
    }
    return frozenset(certs)


def leaf_extension_tree_certs(n: int) -> frozenset:
    """Certificates of all tree classes on n vertices by attaching one
    leaf to every vertex of every (n-1)-class (independent oracle)."""
    reps: dict[tuple, Graph] = {forest_certificate(make_graph(1, [])): make_graph(1, [])}
    for k in range(2, n + 1):
        nxt: dict[tuple, Graph] = {}
        for tree in reps.values():
            for v in range(tree.n):
                child = make_graph(k, tree.edges() + [(v, k - 1)])
                cert = forest_certificate(child)
                if cert not in nxt:
                    nxt[cert] = child
        reps = nxt
    return frozenset(reps)


def labelled_class_count(n: int, keep=None) -> int:
    """Isomorphism classes among all 2^C(n,2) labelled graphs, counted by
    marking whole permutation orbits (no canonical codes involved).

    ``keep`` is an optional class-invariant predicate on a representative
    (e.g. connectivity).  Practical for n <= 6.
    """
    npairs = len(pair_order(n))
    index = {pq: k for k, pq in enumerate(pair_order(n))}
    perm_maps = []
    for p in permutations(range(n)):
        perm_maps.append(
            tuple(index[min(p[i], p[j]), max(p[i], p[j])] for (i, j) in pair_order(n))
        )
    seen = bytearray(1 << npairs)
    count = 0
    for m in range(1 << npairs):
        if seen[m]:
            continue
        if keep is None or keep(graph_from_pair_mask(n, m)):
            count += 1
        for pm in perm_maps:
            img = 0
            t = m
            while t:
                low = t & -t
                img |= 1 << pm[low.bit_length() - 1]
                t ^= low
            seen[img] = 1
    return count


def labelled_connected_count(n: int) -> int:
    return labelled_class_count(n, keep=is_connected)


def labelled_forest_count(n: int) -> int:
    return labelled_class_count(n, keep=is_forest)
