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
from nearindep.sigma import sigma01


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


def prufer_decode(n: int, seq: tuple[int, ...]) -> Graph:
    """Labelled tree on n >= 2 vertices from a Pruefer sequence.

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
    edges = []
    for x in seq:
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr = degree.index(1, ptr + 1)
            leaf = ptr
    edges.append((leaf, n - 1))
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


def leaf_deletion_counts(tree: Graph) -> list[tuple]:
    """(v, sigma of T-v, sigma of T-N[v], sigma of T-N[u]) for every leaf v
    of a tree, u its support vertex, each sigma a (sigma0, sigma1) pair:
    one ``induced_subgraph`` and one ``sigma01`` per deleted set."""
    full = tree.full_mask
    out = []
    for v in range(tree.n):
        if tree.degree(v) != 1:
            continue
        u = tree.adj[v].bit_length() - 1
        kept = (full & ~(1 << v), full & ~closed_neighborhood(tree, v), full & ~closed_neighborhood(tree, u))
        pairs = [sigma01(induced_subgraph(tree, mask)) for mask in kept]
        out.append((v, *((p.sigma0, p.sigma1) for p in pairs)))
    return out
