"""Independent oracles for the test-suite, kept out of the engine.

Labelled enumerations (Pruefer sequences, leaf extension, orbit marking
over all 2^C(n,2) labelled graphs) that check the isomorph-free streams
of ``nearindep.generate`` on small orders without canonical codes, the
column-packed code of a fixed labelling, and the leaf deletions of a tree
solved one induced subgraph at a time.

The forest certificate lives here too: ``forest_certificate`` is a
complete isomorphism invariant for forests of any supported order (the
sorted centre-rooted encodings of the components, built by leaf
stripping in ``neighbour_lists_certificate``), which the tests use to
tell tree and forest classes apart without canonical codes.  So do the
graph helpers only the tests need (``components``, ``is_connected`` and
``induced``, read off the edge list rather than the engine's component
splitter; ``closed_neighborhood``, ``is_forest``, ``lower_degrees``,
``disjoint_union``, ``relabel``, ``strip_isolated``) and
``combine_union``, the union rule of the counts as a function.
``random_pivots`` swaps the deletion recursion's pivot rule for a random
one, which must give the same counts.
"""

import random
from contextlib import contextmanager
from itertools import combinations, permutations, product
from typing import Iterable, Iterator

import nearindep.sigma
from nearindep.graphs import Graph, VertexMask, bits, make_graph
from nearindep.sigma import SigmaPair, sigma01_recursive


def components(g: Graph) -> list[VertexMask]:
    """The vertex masks of g's connected components, ordered by smallest
    member, by union-find over the edge list: not the engine's BFS
    splitter, which the deletion recursion and its connectivity filter use."""
    root = list(range(g.n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for u, v in g.edges():
        root[find(u)] = find(v)
    comps: dict[int, VertexMask] = {}
    for v in range(g.n):  # a root is first met at its smallest member
        r = find(v)
        comps[r] = comps.get(r, 0) | 1 << v
    return list(comps.values())


def is_connected(g: Graph) -> bool:
    return len(components(g)) <= 1


def induced(g: Graph, keep: VertexMask) -> Graph:
    """The subgraph induced on ``keep``, relabelled in index order, from
    the edge list."""
    index = {v: i for i, v in enumerate(bits(keep))}
    return make_graph(len(index), [(index[u], index[v]) for u, v in g.edges() if u in index and v in index])


def closed_neighborhood(g: Graph, v: int) -> VertexMask:
    """N[v] = N(v) together with v itself."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for order {g.n}")
    return g.adj[v] | 1 << v


def is_forest(g: Graph) -> bool:
    """True iff g is acyclic: it has n - (number of components) edges.

    Every component on k vertices has at least k - 1 edges, with equality
    exactly for a tree, so the count rule holds iff every component is one.
    """
    return g.edge_count() == g.n - len(components(g))


def lower_degrees(g: Graph) -> list[int]:
    """How many lower-numbered neighbours each vertex has."""
    return [(row & ((1 << v) - 1)).bit_count() for v, row in enumerate(g.adj)]


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
        adj[p[v]] = sum(1 << p[u] for u in bits(g.adj[v]))
    return Graph(g.n, tuple(adj))


def strip_isolated(g: Graph) -> Graph:
    """The subgraph induced by the vertices of positive degree."""
    return induced(g, sum(1 << v for v in range(g.n) if g.adj[v]))


def combine_union(a: SigmaPair, b: SigmaPair) -> SigmaPair:
    """Counts of a vertex-disjoint union from the counts of its parts."""
    return SigmaPair(
        a.sigma0 * b.sigma0,
        a.sigma1 * b.sigma0 + b.sigma1 * a.sigma0,
    )


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


def prufer_neighbours(n: int, seq: tuple[int, ...]) -> list[list[int]]:
    """The neighbour lists of the labelled tree on n >= 2 vertices that a
    Pruefer sequence encodes.

    Each entry x of the sequence is joined to the smallest leaf left,
    which is then removed; the last edge joins the final leaf to n - 1.
    ``ptr`` only moves up: when x becomes a leaf below it, x is the
    smallest leaf and is joined next.  This is a bijection between the
    n^(n-2) sequences and the labelled trees on n vertices.
    """
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    ptr = degree.index(1)
    leaf = ptr
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for x in seq:
        nbrs[leaf].append(x)
        nbrs[x].append(leaf)
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr = degree.index(1, ptr + 1)
            leaf = ptr
    nbrs[leaf].append(n - 1)
    nbrs[n - 1].append(leaf)
    return nbrs


def prufer_decode(n: int, seq: tuple[int, ...]) -> Graph:
    """The labelled tree of ``prufer_neighbours`` as a ``Graph``."""
    nbrs = prufer_neighbours(n, seq)
    return make_graph(n, [(v, u) for v, row in enumerate(nbrs) for u in row if v < u])


def neighbour_lists_certificate(nbrs: list[list[int]]) -> tuple:
    """Certificate of a tree given as neighbour lists: the 1-tuple of its
    encoding rooted at a centre, built without a ``Graph``.

    A rooted encoding is the sorted tuple of the children's encodings, so
    equal encodings <=> rooted isomorphism.  Leaves are stripped layer by
    layer, and each stripped vertex hangs its encoding on the one
    neighbour still present.  The last layer holds the centres; of two,
    each is encoded as rooted with the other as a child, and the smaller
    encoding is kept.
    """
    degree = [len(row) for row in nbrs]
    kids: list[list[tuple]] = [[] for _ in nbrs]
    alive = [True] * len(nbrs)
    layer = [v for v, d in enumerate(degree) if d <= 1]
    left = len(nbrs)
    while left > 2:
        left -= len(layer)
        for v in layer:
            alive[v] = False
        nxt = []
        for v in layer:
            code = tuple(sorted(kids[v]))
            for u in nbrs[v]:
                if alive[u]:
                    kids[u].append(code)
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt
    if len(layer) == 1:
        return (tuple(sorted(kids[layer[0]])),)
    a, b = layer
    enc_a, enc_b = tuple(sorted(kids[a])), tuple(sorted(kids[b]))
    return (min(tuple(sorted(kids[a] + [enc_b])), tuple(sorted(kids[b] + [enc_a]))),)


def forest_certificate(g: Graph) -> tuple:
    """Complete isomorphism invariant for forests of any supported order:
    the sorted ``neighbour_lists_certificate`` encodings of the tree
    components.  Raises ValueError on cyclic input."""
    if not is_forest(g):
        raise ValueError("forest_certificate requires acyclic input")
    encodings = []
    for comp in components(g):
        tree = induced(g, comp)
        encodings += neighbour_lists_certificate([list(bits(row)) for row in tree.adj])
    return tuple(sorted(encodings))


def prufer_tree_certs(n: int) -> frozenset:
    """Certificates of all tree classes on n vertices via the n^(n-2)
    labelled Pruefer decodings (oracle; practical for n <= 8).  Each
    decoding goes straight to neighbour lists, with no ``Graph`` built."""
    if n < 1:
        raise ValueError("n >= 1")
    if n == 1:
        return frozenset({neighbour_lists_certificate([[]])})
    certs = {
        neighbour_lists_certificate(prufer_neighbours(n, seq))
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


def graph_from_code(n: int, code: int) -> Graph:
    """The graph on 0..n-1 spelled by a column-packed code (the inverse of
    ``packed_code`` under the identity order)."""
    adj = [0] * n
    k = n * (n - 1) // 2
    for j in range(n):
        for i in range(j):
            k -= 1
            if code >> k & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def deletion_keys(g: Graph) -> list[tuple[int, int]]:
    """The (degree, triangles at x) key of every vertex x, read off the
    edge list: x's neighbours, and the pairs of them that are edges."""
    edges = set(g.edges())
    keys = []
    for x in range(g.n):
        ys = [y for y in range(g.n) if (min(x, y), max(x, y)) in edges]
        keys.append((len(ys), sum(1 for pair in combinations(ys, 2) if pair in edges)))
    return keys


def packed_code(g: Graph, order) -> int:
    """Column-packed code of g relabelled so that position i holds vertex
    order[i]: bits (0,1), (0,2), (1,2), (0,3), ..., most significant first."""
    code = 0
    for j in range(g.n):
        for i in range(j):
            code = code << 1 | g.adj[order[j]] >> order[i] & 1
    return code


def min_column_code(g: Graph) -> int:
    """The least ``packed_code`` of g over all relabellings, by the
    branch-and-bound search that was the engine's canonical code before
    individualisation-refinement.

    The search assigns vertices to positions 0..n-1 in order; placing a
    vertex at position j fixes the j bits of column j, the next bits of
    the code, so a prefix above the best complete code found so far is
    cut.  A candidate's column grows by one bit per level (its adjacency
    to the vertex just placed).  Twins (u, w with the same neighbours
    apart from each other) are interchangeable, so only the smallest
    unplaced member of each twin class is a candidate.
    """
    n = g.n
    adj = g.adj
    succ = [0] * n  # bit of the next member of v's twin class, or 0
    tail: dict[int, int] = {}  # smallest member of a class -> its largest so far
    roots = 0
    for w in range(n):
        for u, t in tail.items():
            if adj[u] & ~(1 << w) == adj[w] & ~(1 << u):
                succ[t] = 1 << w
                tail[u] = w
                break
        else:
            tail[w] = w
            roots |= 1 << w
    # the columns of all vertices are n-bit fields of one int ``vals``:
    # placing w shifts every field left and sets bit 0 in the fields of
    # w's neighbours
    spread = [sum(1 << n * v for v in bits(row)) for row in adj]
    field = (1 << n) - 1
    key = [row.bit_count() << 8 | w for w, row in enumerate(adj)]
    best = [0] * n
    cols = [0] * n
    agree = -1  # the current path equals best on columns 0..agree-1

    def dfs(depth: int, cands: int, vals: int) -> None:
        nonlocal agree
        if depth == n:
            best[:] = cols
            agree = n
            return
        order = []
        rest = cands
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            order.append((vals >> n * w & field) << 16 | key[w])
            rest ^= low
        order.sort()
        for k in order:
            c = k >> 16
            w = k & 255
            if agree >= depth:
                b = best[depth]
                if c >= b and (c > b or depth == n - 1):
                    break
                agree = depth + 1 if c == b else depth
            cols[depth] = c
            dfs(depth + 1, cands ^ 1 << w | succ[w], vals << 1 | spread[w])

    dfs(0, roots, 0)
    code = 0
    for j in range(n):
        code = code << j | best[j]
    return code


def leaf_deletion_counts(tree: Graph) -> tuple[tuple, list[tuple]]:
    """(sigma of T, leaves), leaves holding (v, sigma of T-v, sigma of
    T-N[v], sigma of T-N[u]) for every leaf v of a tree, u its support
    vertex, each sigma a (sigma0, sigma1) pair, all by the deletion
    recursion, which never walks the tree DP's fold: T whole, and one
    ``induced`` subgraph per deleted set."""
    full = tree.full_mask
    out = []
    for v in range(tree.n):
        if tree.degree(v) != 1:
            continue
        u = tree.adj[v].bit_length() - 1
        kept = (full & ~(1 << v), full & ~closed_neighborhood(tree, v), full & ~closed_neighborhood(tree, u))
        pairs = [sigma01_recursive(induced(tree, mask)) for mask in kept]
        out.append((v, *((p.sigma0, p.sigma1) for p in pairs)))
    t = sigma01_recursive(tree)
    return (t.sigma0, t.sigma1), out


@contextmanager
def random_pivots(rng: random.Random) -> Iterator[None]:
    """Within the block, the deletion recursion pivots on a uniformly random
    vertex of each component, drawn by ``rng.randrange``; the real rule is
    put back on exit.  A context manager, so hypothesis tests can use it."""
    real = nearindep.sigma._pivot_vertex

    def rule(comp: int, adj: tuple[int, ...]) -> int:
        vs = list(bits(comp))
        return vs[rng.randrange(len(vs))]

    nearindep.sigma._pivot_vertex = rule
    try:
        yield
    finally:
        nearindep.sigma._pivot_vertex = real
