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
n, each forest built as one graph from the shifted tree rows.

Graph classes on up to eight vertices come from canonical augmentation
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998).
A class on n-1 vertices is extended by a new vertex v joined to one
subset per orbit of its automorphism group (orbits marked over all
2^(n-1) subsets from generators carried over from the order below).  The
child is kept only if v is the vertex a canonical-deletion rule would
remove: v must have the largest degree and, among the vertices of that
degree, the most triangles, and on a tie it must share an automorphism
orbit with the tied vertex the canonical labelling places last.  Each
class is then found exactly once; ``canonical_form`` runs only on kept
children and on ties.  Every class is emitted in its canonical
labelling, the graph spelled by its canonical code, in increasing code
order, so the output depends only on the set of classes and not on how
it was found.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import combinations_with_replacement, product
from typing import Callable, Iterator

from .graphs import Graph, bits, canonical_form, is_connected, max_degree
from .limits import Limits, check_cap

FAMILIES = ("trees", "forests", "all_graphs", "connected_graphs", "bounded_degree_graphs")

# The families read off the classes of all graphs of one order, each with
# the test a class passes to belong, given the family's delta.
VIEWS: dict[str, Callable[[Graph, int | None], bool]] = {
    "connected_graphs": lambda g, delta: is_connected(g),
    "bounded_degree_graphs": lambda g, delta: max_degree(g) == delta,
}


class ClassSpec(namedtuple("ClassSpec", "family n delta")):
    """Names one of the graph universes the verifiers quantify over."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so ``_replace`` validates too

    def __new__(cls, family: str, n: int, delta: int | None = None) -> ClassSpec:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if (delta is not None) != (family == "bounded_degree_graphs"):
            raise ValueError("delta is required for bounded_degree_graphs and invalid otherwise")
        if not isinstance(n, int):
            raise ValueError(f"order must be an int, got {n!r}")
        if n < 0:
            raise ValueError(f"negative order {n}")
        if delta is not None and not isinstance(delta, int):
            raise ValueError(f"maximum degree must be an int, got {delta!r}")
        if delta is not None and delta < 0:
            raise ValueError(f"negative maximum degree {delta}")
        return tuple.__new__(cls, (family, n, delta))


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
    return Graph._unchecked(n, tuple(adj))


def gen_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of free trees on n vertices.

    The walk starts at the path rooted at its centre and visits the
    centre-rooted canonical level sequences in decreasing lexicographic
    order.  A rejected sequence is not stepped past one by one: the jump
    of Wright, Richmond, Odlyzko and McKay ("Constant time generation of
    free trees", SIAM J. Comput. 15, 1986) advances its first root
    subtree at once, so few visited sequences are rejected (about 4% at
    n = 18).  Every yielded sequence still passes ``_is_center_rooted``.
    Preorder labels give every vertex but 0 one lower neighbour, its parent.
    """
    if n < 1:
        raise ValueError(f"gen_trees needs n >= 1, got {n}")
    check_cap(n, Limits.trees_max_n, "gen_trees")
    layout: list[int] | None = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while layout is not None:
        if _is_center_rooted(layout):
            yield _layout_to_graph(layout)
            layout = _next_rooted_layout(layout)
        else:
            layout = _next_centred_layout(layout)


@cache
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
    Each tree keeps its labels, shifted: no vertex has two lower neighbours.
    """
    if n < 1:
        raise ValueError(f"gen_forests needs n >= 1, got {n}")
    check_cap(n, Limits.forests_max_n, "gen_forests")
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
            yield Graph._unchecked(n, tuple(rows))


# ---------------------------------------------------------------------------
# all graphs on <= 8 vertices by canonical augmentation
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


def _orbit_of(w: int, gens: tuple[tuple[int, ...], ...]) -> int:
    """Mask of the orbit of vertex w under the group generated by gens."""
    orbit = 1 << w
    stack = [w]
    while stack:
        x = stack.pop()
        for a in gens:
            y = a[x]
            if not orbit >> y & 1:
                orbit |= 1 << y
                stack.append(y)
    return orbit


def _deletion_ties(adj: list[int], rivals: int) -> int | None:
    """Mask of v = len(adj) - 1 and of the ``rivals`` (old vertices of v's
    degree) with as many triangles as v, or None if a rival has more."""
    def triangles(x: int) -> int:  # twice the count at x
        row = adj[x]
        return sum((adj[y] & row).bit_count() for y in bits(row))

    v = len(adj) - 1
    mine = triangles(v)
    out = 1 << v
    for x in bits(rivals):
        theirs = triangles(x)
        if theirs > mine:
            return None
        if theirs == mine:
            out |= 1 << x
    return out


@cache
def _graph_classes(n: int) -> tuple[tuple[Graph, tuple[tuple[int, ...], ...]], ...]:
    """All isomorphism classes on n vertices, with generators of their
    automorphism groups, sorted by canonical code.

    Canonical augmentation (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 26, 1998): every class on n vertices is some class on
    n - 1 vertices plus a vertex v = n - 1 joined to a subset s, taken
    once per orbit of the parent's automorphism group.  A child is kept
    only if v lies in the orbit that a canonical-deletion rule picks, so
    it is found from exactly one (parent, orbit) pair and no dedup is
    needed.  The rule wants the largest (degree, triangles at x) key.  Most
    children fail it on degree alone, so triangles are counted only at v
    and at the old vertices of v's degree.  If v is the only vertex with
    the largest key it is kept.  On a tie, v is kept iff it shares an
    Aut(child)-orbit with the tied vertex the canonical labelling places
    last.

    Every kept class is emitted in its canonical labelling, so each graph
    is the one spelled by its canonical code, and the same set of classes
    gives the same tuple whatever found it.  Its generators are conjugated
    into that labelling to seed the next order.
    """
    if n == 0:
        return ((Graph._unchecked(0, ()), ()),)
    v = n - 1
    new_bit = 1 << v
    found = []
    for parent, parent_gens in _graph_classes(v):
        padj = parent.adj
        # above[k]: old vertices of degree > k; exact[k]: of degree k
        exact = [0] * (v + 1)
        for x, row in enumerate(padj):
            exact[row.bit_count()] |= 1 << x
        above = [0] * (v + 1)
        for k in range(v - 1, -1, -1):
            above[k] = above[k + 1] | exact[k + 1]
        for s in _orbit_min_subsets(v, parent_gens):
            k = s.bit_count()
            # an old vertex of degree > k, or of degree k and joined to v,
            # outranks v
            if above[k] | exact[k] & s:
                continue
            rivals = exact[k] & ~s | (exact[k - 1] & s if k else 0)
            adj = [row | new_bit if s >> x & 1 else row for x, row in enumerate(padj)]
            adj.append(s)
            ties = _deletion_ties(adj, rivals) if rivals else new_bit
            if ties is None:
                continue
            code, gens, order = canonical_form(Graph._unchecked(n, tuple(adj)))
            if ties != new_bit:
                last = next(x for x in reversed(order) if ties >> x & 1)
                if not _orbit_of(last, gens) >> v & 1:
                    continue
            inv = [0] * n
            for pos, x in enumerate(order):
                inv[x] = pos
            rows = [sum(1 << inv[y] for y in bits(adj[x])) for x in order]
            conj = tuple(tuple(inv[a[x]] for x in order) for a in gens)
            found.append((code.code, Graph._unchecked(n, tuple(rows)), conj))
    found.sort(key=lambda item: item[0])
    return tuple((g, gens) for _, g, gens in found)


def gen_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class on n vertices, each in its
    canonical labelling, in increasing canonical-code order.

    This is the one stream of graph classes: the connected and the
    bounded-degree universes are its views, filtered by ``gen_class``
    with the tests in ``VIEWS``.
    """
    check_cap(n, Limits.graphs_max_n, "gen_graphs")
    if n < 0:
        raise ValueError(f"negative order {n}")
    for g, _ in _graph_classes(n):
        yield g


def gen_class(spec: ClassSpec) -> Iterator[Graph]:
    """Stream the universe named by a ClassSpec.

    Trees and forests have generators of their own.  Every graph family
    streams the classes of ``gen_graphs`` that pass the family's test in
    ``VIEWS``, so ``VIEWS`` alone decides membership, as in
    ``verify.run_theorem``.
    """
    if spec.family == "trees":
        return gen_trees(spec.n)
    if spec.family == "forests":
        return gen_forests(spec.n)
    graphs = gen_graphs(spec.n)
    keep = VIEWS.get(spec.family)
    return graphs if keep is None else (g for g in graphs if keep(g, spec.delta))
