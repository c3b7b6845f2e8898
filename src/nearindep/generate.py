"""Isomorph-free streams of trees, forests and small graphs.

* ``_tree_classes``: free trees from centre-rooted canonical level
  sequences (the successor rule of Beyer and Hedetniemi, with the jump of
  Wright, Richmond, Odlyzko and McKay, SIAM J. Comput. 15, 1986).
* ``_forest_classes``: forests as multisets of trees over the integer
  partitions of n.
* ``_graph_classes``: graph classes on up to eight vertices by canonical
  augmentation (McKay, J. Algorithms 26, 1998); the connected and
  bounded-degree universes are its views (``VIEWS``).
* ``gen_trees``, ``gen_forests``, ``gen_graphs`` and ``gen_class``: the
  same streams as graphs.

A tree travels as its parent array (``_Tree``), a forest as its trees (``_Forest``),
each with its (sigma0, sigma1); rows are built only where one is read as a graph.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterator
from functools import cache
from itertools import accumulate, chain, combinations_with_replacement, product

from .graphs import Graph, _column_rows, _parent_rows, bits, canonical_form, is_connected, max_degree
from .limits import Limits, check_cap
from .sigma import LEAF, Pair, _graft, _plus_vertex

FAMILIES = ("trees", "forests", "all_graphs", "connected_graphs", "bounded_degree_graphs")

# The families read off the classes of all graphs of one order, each as a
# key of a graph and the value of that key that a spec selects.
VIEWS: dict[str, tuple[Callable[[Graph], object], Callable[[ClassSpec], object]]] = {
    "connected_graphs": (is_connected, lambda spec: True),
    "bounded_degree_graphs": (max_degree, lambda spec: spec.delta),
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

def _next_rooted_layout(layout: list[int], p: int | None = None) -> int | None:
    """Step a canonical rooted level sequence to its successor in place
    (Beyer-Hedetniemi): find the last position p with level >= 2, its chain
    parent q, repeat the segment q..p-1 to the end and return p; None, after
    the star.  A given p (with level >= 2) skips every sequence that keeps
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
    for i in range(p, len(layout)):
        layout[i] = layout[i - (p - q)]
    return p


def _first_subtree(layout: list[int]) -> tuple[int, int]:
    """(m, h1): the end m of the first root subtree layout[1:m] and its
    depth h1 (0 for the one-vertex tree)."""
    m = next((i for i in range(2, len(layout)) if layout[i] == 1), len(layout))
    return m, max(layout[1:m], default=0)


class _Tree(bytes):
    """A tree as its parent array: entry j > 0 is vertex j's preorder parent, the
    root 0's is n, where ``sigma._label_fold`` keeps ``TOP``; rows built on each read."""

    __slots__ = ()
    n = property(len)
    adj = property(_parent_rows)
    par = property(lambda self: self)
    full_mask, edge_count = Graph.full_mask, Graph.edge_count


def _tree_classes(n: int) -> Iterator[tuple[_Tree, Pair]]:
    """One representative per isomorphism class of free trees on n vertices,
    as its parent array, with its (sigma0, sigma1).

    The walk starts at the path rooted at its centre and visits the
    centre-rooted canonical level sequences in decreasing lexicographic
    order.  A sequence is kept when its root is a centre: in a canonical
    layout the first root subtree layout[1:m] is the deepest, so with h1
    its depth and h2 that of the rest, the root is a centre iff h2 >= h1 - 1.
    At h2 == h1 - 1 the tree is bicentral, and the two halves (the first
    subtree re-rooted, and the remainder) are compared by size and then
    lexicographically so that one rooting survives.  (m, h1) is carried
    from visit to visit and re-read only when the step rewrote from a
    position p <= m; any other visit costs the max of the remainder.

    A rejected sequence is not stepped past one by one: the jump of
    Wright, Richmond, Odlyzko and McKay ("Constant time generation of free
    trees", SIAM J. Comput. 15, 1986) advances its first root subtree at
    once by the successor rule at p = m - 1, as later sequences with the
    same first subtree have smaller remainders, so off-centre roots too.
    If layout[p] > 2, that step leaves no remainder at all; the tail is
    then reset to the path 1..h1 below the root.  So few visited sequences
    are rejected (about 4% at n = 18): the walk visits 129,231 sequences
    for 123,867 trees, where the plain walk visits all 1,721,159 rooted
    trees.  The first subtree is re-read on 1,230 of 20,542 visits at
    n = 16.  Preorder labels give every vertex but 0 one lower neighbour,
    its parent, so the walk's list ``par`` is the whole tree, yielded as a ``_Tree``.

    Each layout is built from position ``keep`` on, the first one rewritten
    since the last layout built.  Below ``keep``, par[i] is vertex i's
    parent and path[i] the ``_graft`` states of the path from the root to
    i, every closed subtree hung, as a (state, below) pair whose below is
    shared with its parent's.  So only the suffix is relinked and grafted,
    and the tree's pair is its path closed onto the root.
    """
    if n < 1:
        raise ValueError(f"gen_trees needs n >= 1, got {n}")
    check_cap(n, Limits.trees_max_n, "gen_trees")
    layout = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    par, path, keep = [n] * n, [(LEAF, None)] * n, 1  # par[0] = n: the root's entry
    m, h1 = _first_subtree(layout)
    while True:
        h2 = max(layout[m:], default=0)
        if h2 >= h1 or h2 == h1 - 1 and (
            2 * m < n + 2 if 2 * m != n + 2 else [x - 1 for x in layout[1:m]] <= [0, *layout[m:]]
        ):
            top, v = path[keep - 1], keep - 1
            for j in range(keep, n):
                while layout[v] >= layout[j]:  # close the subtrees at j's level and below
                    state, (below, rest) = top
                    top = (_graft(below, state), rest)
                    v = par[v]
                par[j], v = v, j
                top = path[j] = (LEAF, top)
            state, top = top
            while top:
                below, top = top
                state = _graft(below, state)
            a0, a1, b0, b1 = state  # root in plus root out
            yield _Tree(par), (a0 + b0, a1 + b1)
            keep = p = _next_rooted_layout(layout)
            if p is None:  # after the star
                return
        else:
            p = m - 1
            _next_rooted_layout(layout, p)
            if layout[p] > 1:  # it was > 2: the first subtree now runs to the end
                h1 = max(layout[1:])
                layout[n - h1:] = range(1, h1 + 1)
            keep = min(keep, p)
        if p <= m:
            m, h1 = _first_subtree(layout)


def gen_trees(n: int) -> Iterator[Graph]:
    """The trees of ``_tree_classes`` as graphs, without their pairs."""
    return (Graph._unchecked(n, t.adj) for t, _ in _tree_classes(n))


@cache
def _tree_list(n: int) -> tuple[tuple[_Tree, Pair], ...]:
    return tuple(_tree_classes(n))


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


def _forest_parents(forest: _Forest) -> bytes:
    """The parents of a forest: each tree's, shifted past the trees before it."""
    trees = [tree for tree, _ in chain.from_iterable(forest)]
    return bytes(p + shift for tree, shift in zip(trees, accumulate(map(len, trees), initial=0)) for p in tree)


def _forest_rows(forest: _Forest) -> tuple[int, ...]:
    """The adjacency rows of a forest, from its parents."""
    return _parent_rows(forest.par)


class _Forest(tuple):
    """A forest as the (tree, pair) classes chosen for it, one tuple per tree
    order: read as a ``Graph``, its rows built by ``_forest_rows`` on each read."""

    __slots__ = ()
    n = property(lambda self: sum(tree.n for tree, _ in chain.from_iterable(self)))
    adj = property(lambda self: _forest_rows(self))
    par = property(_forest_parents)


def _forest_classes(n: int) -> Iterator[tuple[_Forest, Pair]]:
    """One representative per isomorphism class of forests on n vertices,
    with its (sigma0, sigma1), joined from its trees' by the union rule.

    A forest class is the multiset of its tree components, so the stream
    walks integer partitions of n and, for each part size, multisets of
    tree classes of that size; no post-hoc deduplication is needed.
    Each forest is yielded as the trees chosen for it, and becomes a graph
    only when read: each tree keeps its labels, shifted, so no vertex has
    two lower neighbours.
    """
    if n < 1:
        raise ValueError(f"gen_forests needs n >= 1, got {n}")
    check_cap(n, Limits.forests_max_n, "gen_forests")
    for part in _partitions(n):
        pools = [combinations_with_replacement(_tree_list(s), part.count(s))
                 for s in dict.fromkeys(part)]
        for choice in product(*pools):
            s0, s1 = 1, 0
            for _, (t0, t1) in chain.from_iterable(choice):
                s0, s1 = s0 * t0, s1 * t0 + t1 * s0
            yield _Forest(choice), (s0, s1)


def gen_forests(n: int) -> Iterator[Graph]:
    """The forests of ``_forest_classes`` as graphs, without their pairs."""
    return (Graph._unchecked(n, _forest_rows(f)) for f, _ in _forest_classes(n))


# ---------------------------------------------------------------------------
# all graphs on <= 8 vertices by canonical augmentation
# ---------------------------------------------------------------------------

def _orbit_min_subsets(n: int, gens: tuple[tuple[int, ...], ...], k: int) -> Iterator[int]:
    """Subsets of 0..n-1 of size >= k that are minimal in their orbit under
    the group generated by gens, in increasing order.

    Subsets are walked upwards over a ``bytearray(1 << n)`` whose smaller
    subsets start marked, as an orbit keeps the size of its members; the
    first unmarked one is the least of its orbit, which is then marked
    whole by closing it under the generators' subset maps.
    """
    size = 1 << n
    maps = []
    for a in gens:
        img = [0]  # the images of the subsets of 0..x-1, then of those holding x too
        for x in range(n):
            img += [t | 1 << a[x] for t in img]
        maps.append(img)
    seen = bytearray(map(k.__gt__, map(int.bit_count, range(size))))
    s = seen.find(0)
    while s >= 0:
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
        s = seen.find(0, s)


def _outranked(padj: tuple[int, ...], tri: list[int], s: int, rivals: int) -> bool:
    """Whether one of the ``rivals`` (old vertices of the degree of the new
    vertex v) has more triangles than v once v is joined to ``s``, read off
    the parent's rows ``padj`` and twice its triangle counts ``tri``: v gets
    twice e(s), and an old x in s gains 2|N(x) & s|."""
    mine = sum((padj[y] & s).bit_count() for y in bits(s))
    return any(tri[x] + (2 * (padj[x] & s).bit_count() if s >> x & 1 else 0) > mine for x in bits(rivals))


@cache
def _graph_classes(n: int) -> tuple[tuple[Graph, tuple[tuple[int, ...], ...], Pair], ...]:
    """All isomorphism classes on n vertices, with generators of their
    automorphism groups and their (sigma0, sigma1), by canonical code.

    Canonical augmentation (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 26, 1998): every class on n vertices is some class on
    n - 1 vertices plus a vertex v = n - 1 joined to a subset s, taken
    once per orbit of the parent's automorphism group.  A child passes
    only if v has the largest (degree, triangles at x) key, which some
    vertex of every class has, so s is no smaller than the parent's
    maximum degree.  Most children fail on degree alone, the others on
    triangles counted once per parent; only a child that passes is built
    and given to ``canonical_form``, and kept unless its canonical code is
    already in ``found``.

    Each kept class is the graph its canonical code spells, so the same
    set of classes gives the same tuple whatever found it.  Its generators,
    conjugated into that labelling, seed the next order; its pair extends
    the parent's by ``_plus_vertex``, whose memos serve all the children.
    """
    if n == 0:
        return ((Graph._unchecked(0, ()), (), (1, 0)),)
    v = n - 1
    new_bit = 1 << v
    found = {}
    for parent, parent_gens, pair in _graph_classes(v):
        padj = parent.adj
        plus = _plus_vertex(parent, pair)
        exact = [0] * (v + 1)  # exact[k]: the old vertices of degree k
        for x, row in enumerate(padj):
            exact[row.bit_count()] |= 1 << x
        tri = [sum((padj[y] & row).bit_count() for y in bits(row)) for row in padj]  # twice the triangles at x
        for s in _orbit_min_subsets(v, parent_gens, max_degree(parent)):
            k = s.bit_count()
            # an old vertex of degree k joined to v outranks v
            if exact[k] & s:
                continue
            rivals = exact[k] & ~s | (exact[k - 1] & s if k else 0)
            if rivals and _outranked(padj, tri, s, rivals):
                continue
            adj = [row | new_bit if s >> x & 1 else row for x, row in enumerate(padj)]
            adj.append(s)
            code, gens, order = canonical_form(Graph._unchecked(n, tuple(adj)))
            if code.code in found:
                continue
            inv = sorted(range(n), key=order.__getitem__)  # inv[x]: the position of x in order
            conj = tuple(tuple(map(inv.__getitem__, map(a.__getitem__, order))) for a in gens)
            found[code.code] = (Graph._unchecked(n, _column_rows(n, code.code)), conj, plus(s))
    return tuple(found[c] for c in sorted(found))


def gen_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class on n vertices, each in its
    canonical labelling, in increasing canonical-code order.

    This is the one stream of graph classes: the connected and the
    bounded-degree universes are its views, filtered by ``gen_class``
    on the keys in ``VIEWS``.
    """
    check_cap(n, Limits.graphs_max_n, "gen_graphs")
    if n < 0:
        raise ValueError(f"negative order {n}")
    for g, _, _ in _graph_classes(n):
        yield g


def gen_class(spec: ClassSpec) -> Iterator[Graph]:
    """Stream the universe named by a ClassSpec.

    Trees and forests have generators of their own.  Every graph family
    streams the classes of ``gen_graphs`` whose key in ``VIEWS`` has the
    value the spec selects, so ``VIEWS`` alone decides membership, as in
    ``verify.run_theorem``.
    """
    if spec.family == "trees":
        return gen_trees(spec.n)
    if spec.family == "forests":
        return gen_forests(spec.n)
    graphs = gen_graphs(spec.n)
    if spec.family not in VIEWS:
        return graphs
    key, select = VIEWS[spec.family]
    value = select(spec)
    return (g for g in graphs if key(g) == value)
