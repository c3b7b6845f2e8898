"""Independent oracles for the test-suite, kept out of the engine.

Labelled enumerations (Pruefer sequences, leaf extension, orbit marking
over all 2^C(n,2) labelled graphs) that check the isomorph-free streams
of ``nearindep.generate`` on small orders without canonical codes, the
column-packed code of a fixed labelling, and the leaf deletions of a tree
solved one induced subgraph at a time.
"""

from itertools import permutations, product

from nearindep.graphs import (
    Graph,
    closed_neighborhood,
    forest_certificate,
    induced_subgraph,
    is_connected,
    is_forest,
    make_graph,
)
from nearindep.sigma import sigma01, sigma01_recursive


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
    """``forest_certificate`` of a tree given as neighbour lists, built
    without a ``Graph``.

    Leaves are stripped layer by layer, and each stripped vertex hangs
    its encoding (the sorted tuple of its own children's encodings) on
    the one neighbour still present.  The last layer holds the centres;
    of two, each is encoded as rooted with the other as a child, and the
    smaller encoding is kept, as ``forest_certificate`` does.
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


def packed_code(g: Graph, order) -> int:
    """Column-packed code of g relabelled so that position i holds vertex
    order[i]: bits (0,1), (0,2), (1,2), (0,3), ..., most significant first."""
    code = 0
    for j in range(g.n):
        for i in range(j):
            code = code << 1 | g.adj[order[j]] >> order[i] & 1
    return code


def leaf_deletion_counts(tree: Graph) -> tuple[tuple, list[tuple]]:
    """(sigma of T, leaves), leaves holding (v, sigma of T-v, sigma of
    T-N[v], sigma of T-N[u]) for every leaf v of a tree, u its support
    vertex, each sigma a (sigma0, sigma1) pair: T by the deletion
    recursion, which never walks the tree DP's fold, and one
    ``induced_subgraph`` and one ``sigma01`` per deleted set."""
    full = tree.full_mask
    out = []
    for v in range(tree.n):
        if tree.degree(v) != 1:
            continue
        u = tree.adj[v].bit_length() - 1
        kept = (full & ~(1 << v), full & ~closed_neighborhood(tree, v), full & ~closed_neighborhood(tree, u))
        pairs = [sigma01(induced_subgraph(tree, mask)) for mask in kept]
        out.append((v, *((p.sigma0, p.sigma1) for p in pairs)))
    t = sigma01_recursive(tree)
    return (t.sigma0, t.sigma1), out
