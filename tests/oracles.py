"""Independent oracles for the test-suite, kept out of the engine.

Labelled enumerations (Pruefer sequences, leaf extension, orbit marking
over all 2^C(n,2) labelled graphs) that check the isomorph-free streams
of ``nearindep.generate`` on small orders without canonical codes, the
column-packed code of a fixed labelling, ``write_digits`` (graph6's
digits one ``chr`` at a time), the leaf deletions of a tree solved one
induced subgraph at a time, and ``_is_center_rooted``, the
centre test of a level sequence read whole, which the tree walk's
carried test must match.

The forest certificate lives here too: ``forest_certificate`` is a
complete isomorphism invariant for forests of any supported order (the
sorted centre-rooted encodings of the components, built by leaf
stripping in ``neighbour_lists_certificate``), which the tests use to
tell tree and forest classes apart without canonical codes.  So do the
graph helpers only the tests need (``components``, ``is_connected`` and
``induced``, read off the edge list rather than the engine's component
splitter; ``closed_neighborhood``, ``is_forest``, ``lower_degrees``,
``disjoint_union``, ``relabel``, ``shuffled``, ``in_label_order``,
``strip_isolated``) and ``combine_union``, the union rule of the counts
as a function.
``random_pivots`` swaps the deletion recursion's pivot rule for a random
one, which must give the same counts; under it the recursion folds no
tree, and ``fold_free_recursion`` counts that way for the checks of the
tree DP.  ``forest_pair`` counts a forest by a rooted count over its
neighbour lists, for the leaf checks and the report oracle.  For the
orbit-stabiliser identity,
``aut_count`` counts automorphisms by backtracking and
``forest_aut_count`` those of a forest by rooted counting at each tree's
centre, and ``labelled_connected_graphs`` and ``labelled_forests`` count
labelled connected graphs and labelled forests by recurrence.  The
``orbit_*_count`` functions count isomorphism classes by marking whole
orbits of labelled graphs.

``oracle_reports`` is the report oracle: every report of
``verify.run_theorem`` derived from the statements it checks, with each
Q counted by the subset sweep or ``forest_pair``, each bound from its
closed form and each bound scan by ``scan_doc``, none of them the
engine's scoring, so a deliberate change of report bytes has something
independent to meet.
"""

import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from itertools import combinations, groupby, permutations, product
from math import comb, factorial
from operator import itemgetter
from typing import Iterable, Iterator

import nearindep.sigma
from nearindep.generate import ClassSpec, gen_forests, gen_graphs, gen_trees
from nearindep.graph6 import emit_graph6
from nearindep.graphs import Graph, VertexMask, bits, make_graph
from nearindep.limits import Limits
from nearindep.sigma import SigmaPair, sigma01_recursive, sigma_distribution_bruteforce


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


def shuffled(g: Graph, rng: random.Random) -> Graph:
    """g relabelled by a permutation that ``rng.shuffle`` draws."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def in_label_order(g: Graph) -> Graph:
    """g relabelled in the visiting order of a BFS over the edge list, from
    each unvisited vertex in turn: not the engine's walk.  In a forest each
    vertex then has at most one lower neighbour, its BFS parent, and a tree
    has vertex 0 as its root."""
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges():
        nbrs[u].append(v)
        nbrs[v].append(u)
    label: dict[int, int] = {}
    for root in range(g.n):
        if root in label:
            continue
        label[root] = len(label)
        queue = [root]
        for v in queue:  # grows while it is walked
            for u in nbrs[v]:
                if u not in label:
                    label[u] = len(label)
                    queue.append(u)
    return relabel(g, [label[v] for v in range(g.n)])


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


def write_digits(val: int, ndigits: int) -> str:
    """``val`` as ``ndigits`` graph6 digits, most significant first, one
    ``chr`` per 6-bit digit: the writer that ``graph6._write_digits``, which
    goes through base64, must match."""
    return "".join(chr(63 + (val >> 6 * k & 63)) for k in range(ndigits - 1, -1, -1))


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


def _is_center_rooted(layout: list[int]) -> bool:
    """Keep exactly one rooted representative per free tree, reading the
    whole layout.

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
    m = next((i for i in range(2, n) if layout[i] == 1), n)
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


def layout_to_graph(layout: list[int]) -> Graph:
    """Tree from a preorder level sequence, built whole: each vertex hangs
    off the most recent vertex one level up."""
    n = len(layout)
    adj = [0] * n
    last = [0] * n  # last[k]: the most recent vertex on level k
    for i in range(1, n):
        parent = last[layout[i] - 1]
        adj[parent] |= 1 << i
        adj[i] = 1 << parent
        last[layout[i]] = i
    return Graph(n, tuple(adj))


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


def orbit_class_count(n: int, keep=None) -> int:
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


def orbit_connected_count(n: int) -> int:
    return orbit_class_count(n, keep=is_connected)


def orbit_forest_count(n: int) -> int:
    return orbit_class_count(n, keep=is_forest)


def labelled_connected_graphs(n: int) -> int:
    """Labelled connected graphs on n vertices (OEIS A001187), by the
    standard recurrence: of the 2^C(n,2) labelled graphs, remove those whose
    component at vertex 0 has k < n vertices."""
    c = [1, 1]
    for m in range(2, n + 1):
        c.append((1 << comb(m, 2)) - sum(comb(m - 1, k - 1) * c[k] * (1 << comb(m - k, 2)) for k in range(1, m)))
    return c[n]


def aut_count(g: Graph) -> int:
    """|Aut(g)| by backtracking over g's rows alone, no engine code: map
    the vertices 0, 1, ... in turn, each to an unused vertex of its degree
    whose neighbours among the images so far are the images of its own
    lower neighbours."""
    n, adj = g.n, g.adj
    deg = [row.bit_count() for row in adj]
    image = [0] * n

    def extend(v: int, used: int) -> int:
        if v == n:
            return 1
        want = sum(1 << image[u] for u in range(v) if adj[v] >> u & 1)
        total = 0
        for w in range(n):
            if not used >> w & 1 and deg[w] == deg[v] and adj[w] & used == want:
                image[v] = w
                total += extend(v + 1, used | 1 << w)
        return total

    return extend(0, 0)


def labelled_forests(n: int) -> int:
    """Labelled forests on n vertices (OEIS A001858), by the recurrence
    f(m) = sum over k of C(m-1, k-1) k^(k-2) f(m-k): the tree at vertex 0
    has k vertices, chosen with it in C(m-1, k-1) ways and joined in
    k^(k-2) (Cayley)."""
    f = [1]
    for m in range(1, n + 1):
        f.append(sum(comb(m - 1, k - 1) * k ** max(k - 2, 0) * f[m - k] for k in range(1, m + 1)))
    return f[n]


def tree_centres(nbrs: list[list[int]]) -> list[int]:
    """The one or two centres of a tree given as neighbour lists: what is
    left after stripping its leaves layer by layer."""
    degree = [len(row) for row in nbrs]
    layer, left = [v for v, d in enumerate(degree) if d <= 1], len(nbrs)
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for u in nbrs[v]:
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
        layer = nxt
    return layer


def rooted_aut(nbrs: list[list[int]], v: int, parent: int) -> tuple[tuple, int]:
    """(encoding, |Aut|) of the tree ``nbrs`` rooted at v, the branch at
    ``parent`` cut away: the encoding is the sorted tuple of the children's,
    and |Aut| the product of the children's, times m! for each group of m
    isomorphic children."""
    kids = sorted(rooted_aut(nbrs, u, v) for u in nbrs[v] if u != parent)
    aut = 1
    for (_, kid_aut), group in groupby(kids):
        m = len(list(group))
        aut *= factorial(m) * kid_aut ** m
    return tuple(code for code, _ in kids), aut


def forest_aut_count(g: Graph) -> int:
    """|Aut(g)| of a forest by rooted counting, no engine code.  A tree
    with one centre counts as rooted there; one with two counts as its two
    halves rooted at the ends of the central edge, doubled when the halves
    are isomorphic.  Each group of m isomorphic trees adds a factor m!."""
    aut, trees = 1, Counter()
    for comp in components(g):
        nbrs = [list(bits(row)) for row in induced(g, comp).adj]
        centres = tree_centres(nbrs)
        if len(centres) == 1:
            key, tree_aut = rooted_aut(nbrs, centres[0], -1)
        else:
            u, v = centres
            (cu, au), (cv, av) = rooted_aut(nbrs, u, v), rooted_aut(nbrs, v, u)
            key, tree_aut = (min(cu, cv), max(cu, cv)), au * av * (2 if cu == cv else 1)
        trees[len(centres), key] += 1
        aut *= tree_aut
    for m in trees.values():
        aut *= factorial(m)
    return aut


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
    vertex, each sigma a (sigma0, sigma1) pair, all by ``forest_pair``,
    which never walks the tree DP's fold: T whole, and one ``induced``
    subgraph per deleted set."""
    full = tree.full_mask
    out = []
    for v in range(tree.n):
        if tree.degree(v) != 1:
            continue
        u = tree.adj[v].bit_length() - 1
        kept = (full & ~(1 << v), full & ~closed_neighborhood(tree, v), full & ~closed_neighborhood(tree, u))
        out.append((v, *(forest_pair(induced(tree, mask)) for mask in kept)))
    return forest_pair(tree), out


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


def fold_free_recursion(g: Graph) -> SigmaPair:
    """``sigma01_recursive`` of g under ``random_pivots``, whose rule never
    reports a tree, so no component is folded and the count shares no code
    with the tree DP's ``_graft``."""
    with random_pivots(random.Random(0)):
        return sigma01_recursive(g)


def fraction_leaf_failures(n, t, minus_v, minus_nv, minus_nu):
    """The leaf lemmas as the rational comparisons written out in
    ``verify.leaf_lemma_failures``' docstring, term by term: (lhs, rhs,
    lemma) for each that one leaf breaks."""
    q = lambda p: Fraction(p[1], p[0])  # noqa: E731
    ratio_cap = 1 - Fraction(1, (1 << (n - 2)) + 1)
    q_t, out = q(t), []
    ratio = Fraction(minus_nv[0], minus_v[0])
    if ratio > ratio_cap:
        out.append((ratio, ratio_cap, "lemma-4.2"))
    r = Fraction(minus_v[0], minus_nv[0])
    leaf_bound = (r * q(minus_v) + 1 + q(minus_nv)) / (1 + r)
    if q_t > leaf_bound:
        out.append((q_t, leaf_bound, "lemma-4.3"))
    lhs44, rhs44 = Fraction(t[0]), Fraction(2 * minus_nv[0] + minus_nu[0])
    if lhs44 != rhs44:
        out.append((lhs44, rhs44, "lemma-4.4 sigma0"))
    decomposed = (
        Fraction(2 * minus_nv[0], t[0]) * (q(minus_v) + q(minus_nv)) / 2
        + Fraction(minus_nu[0], t[0]) * (1 + q(minus_v))
    )
    if q_t != decomposed:
        out.append((q_t, decomposed, "lemma-4.4 ratio"))
    return out


# ---------------------------------------------------------------------------
# the report oracle: every report of ``run_theorem`` from the statements
# ---------------------------------------------------------------------------

def forest_pair(g: Graph) -> tuple[int, int]:
    """(sigma0, sigma1) of a forest by a rooted count over its neighbour
    lists, not the engine's tree DP.  Each tree is walked breadth first
    from its least vertex and folded leaves first: ``state[v]`` counts the
    subsets of v's branch that hold v, then those that do not, inducing no
    edge and then exactly one.  A child is out of the subset or in it, and
    in it, it adds its edge to v when v is in too.  The trees are joined
    by the union rule."""
    nbrs = [list(bits(row)) for row in g.adj]
    parent: list[int | None] = [None] * g.n
    state = [(1, 0, 1, 0)] * g.n
    s0, s1 = 1, 0
    for root in range(g.n):
        if parent[root] is not None:
            continue
        parent[root] = -1
        order = [root]
        for v in order:  # grows while it is walked
            for u in nbrs[v]:
                if parent[u] is None:
                    parent[u] = v
                    order.append(u)
        for v in reversed(order):
            in0, in1, out0, out1 = 1, 0, 1, 0
            for u in nbrs[v]:
                if u != parent[v]:
                    a0, a1, b0, b1 = state[u]
                    in0, in1 = in0 * b0, in0 * (b1 + a0) + in1 * b0
                    out0, out1 = out0 * (a0 + b0), out0 * (a1 + b1) + out1 * (a0 + b0)
            state[v] = in0, in1, out0, out1
        t0, t1 = in0 + out0, in1 + out1  # the root's, folded last
        s0, s1 = s0 * t0, s0 * t1 + s1 * t0
    return s0, s1


def sweep_q(g: Graph) -> Fraction:
    """Q of g from the subset sweep's histogram: counts[k] subsets induce
    k edges, and an edgeless graph has only counts[0]."""
    counts = sigma_distribution_bruteforce(g).counts
    return Fraction(counts[1] if len(counts) > 1 else 0, counts[0])


@cache
def scored(family: str, n: int) -> tuple[tuple[Graph, Fraction], ...]:
    """(graph, Q) of every member of the trees, forests or all graphs of
    order n, in stream order: Q by ``forest_pair``, or over graphs by
    ``sweep_q``."""
    if family == "all_graphs":
        return tuple((g, sweep_q(g)) for g in gen_graphs(n))
    stream = gen_trees(n) if family == "trees" else gen_forests(n)
    return tuple((g, Fraction(*forest_pair(g)[::-1])) for g in stream)


def star_bound(n: int) -> Fraction:
    """Q of the star on n vertices, in closed form: (n-1)/(2^(n-1)+1)."""
    return Fraction(n - 1, 2 ** (n - 1) + 1)


def is_star(g: Graph) -> bool:
    """Some vertex is joined to all the others, and no other edge is present."""
    return g.n <= 1 or g.edge_count() == g.n - 1 and any(row.bit_count() == g.n - 1 for row in g.adj)


def star_plus_isolated(g: Graph, k: int) -> bool:
    """Without its isolated vertices, g is the star on k vertices."""
    core = strip_isolated(g)
    return core.n == k and is_star(core)


def report_doc(theorem_id: str, spec: ClassSpec, checked: int, rows, violations, equal=(), notes=()) -> dict:
    """A report laid out as ``VerificationReport.to_json`` lays it out:
    the first least and first greatest Q of ``rows`` as witnesses, each
    violation given as (graph or "", lhs, rhs, context), graphs as graph6
    and Fractions as decimal numerator and denominator strings."""
    def frac(q: Fraction, prefix: str = "") -> dict:
        return {f"{prefix}num": str(q.numerator), f"{prefix}den": str(q.denominator)}

    def witness(pick):
        return None if pick is None else {"graph6": emit_graph6(pick[0]), **frac(pick[1], "q_")}

    return {
        "theorem": theorem_id, "family": spec.family, "n": spec.n, "delta": spec.delta,
        "checked": checked, "passed": not violations,
        "violations": [{"graph6": g if isinstance(g, str) else emit_graph6(g), **frac(lhs, "lhs_"), **frac(rhs, "rhs_"),
                        "context": context} for g, lhs, rhs, context in violations],
        "equality_witnesses": [emit_graph6(g) for g in equal],
        "min_witness": witness(min(rows, key=itemgetter(1), default=None)),
        "max_witness": witness(max(rows, key=itemgetter(1), default=None)),
        "notes": {k: frac(v) if isinstance(v, Fraction) else v for k, v in dict(notes).items()},
    }


def scan_doc(theorem_id: str, spec: ClassSpec, rows, bound: Fraction | None, lower: bool, exempt=None,
             extremal=None, off: str = "", miss: str = "", note_attained: bool = False,
             zero_test: bool = False, notes=()) -> dict:
    """The report of a bound on Q over ``rows`` of (graph, Q): Q >= bound
    if ``lower``, else Q <= bound, on every graph that ``exempt`` does not
    accept.  A graph attaining the bound that ``extremal`` rejects is a
    violation ``off``; if no graph it accepts attains it, the first graph
    it accepts is a violation ``miss``.  ``zero_test`` adds 3.1's tests of
    each row, ahead of its bound: Q >= 0, and zero exactly for the
    edgeless graph.  ``notes`` come ahead of the bound's."""
    violations, equal, attained = [], [], False
    for g, q in rows:
        if zero_test:
            edgeless = g.edge_count() == 0
            violations += [(g, q, Fraction(0), context) for context, bad in (
                ("negative ratio", q < 0), ("edgeless graph with nonzero ratio", edgeless and q != 0),
                ("zero ratio off the edgeless graph", not edgeless and q == 0)) if bad]
        if bound is None or exempt and exempt(g):
            continue
        if q < bound if lower else q > bound:
            violations.append((g, q, bound, ""))
        elif q == bound:
            equal.append(g)
            if extremal and not extremal(g):
                violations.append((g, bound, bound, off))
            else:
                attained = True
    notes = dict(notes)
    if bound is not None:
        if extremal and not attained:
            violations.append((*next(((g, q) for g, q in rows if extremal(g)), ("", Fraction(0))), bound, miss))
        notes["bound"] = bound
        if note_attained:
            notes["bound_attained"] = bool(equal)
    return report_doc(theorem_id, spec, len(rows), rows, violations, equal, notes)


def _general_doc(n: int) -> dict:
    """3.1 over all graphs of order n, with 3.5's star bound from order 4
    on, the edgeless graph exempt, and the least Q of a graph with an edge."""
    rows = scored("all_graphs", n)
    nonzero = [(g, q) for g, q in rows if g.edge_count()]
    notes = {}
    if nonzero:
        second = min(q for _, q in nonzero)
        notes = {"second_smallest": second,
                 "second_smallest_witnesses": [emit_graph6(g) for g, q in nonzero if q == second]}
    return scan_doc("thm-3.1+3.5" if n >= 4 else "thm-3.1", ClassSpec("all_graphs", n), rows,
                    star_bound(n) if n >= 4 else None, True, exempt=lambda g: g.edge_count() == 0,
                    zero_test=True, notes=notes)


def _max_degree_doc(n: int, delta: int) -> dict:
    """3.6 over the graphs of order n and maximum degree delta (3.4 at
    delta 1): Q >= min(1/3, Q of the star on delta + 1 vertices), attained
    by that star plus isolated vertices alone; at delta 2 not attained."""
    rows = [(g, q) for g, q in scored("all_graphs", n) if max(row.bit_count() for row in g.adj) == delta]
    doc = scan_doc(
        "prop-3.4" if delta == 1 else "thm-3.6", ClassSpec("bounded_degree_graphs", n, delta), rows,
        min(Fraction(1, 3), star_bound(delta + 1)), True,
        extremal=None if delta == 2 else lambda g: star_plus_isolated(g, delta + 1),
        off="bound attained off the star-plus-isolated graph", miss="star-plus-isolated graph misses the bound",
        note_attained=True)
    if delta == 2 and not doc["equality_witnesses"]:
        doc["notes"]["anomaly"] = "stated bound 1/3 is strictly below the class minimum for maximum degree 2"
    return doc


def _leaf_doc(n: int) -> dict:
    """4.2-4.4 at every leaf of every tree of order n, by
    ``leaf_deletion_counts`` and ``fraction_leaf_failures``."""
    checked, violations = 0, []
    for tree in gen_trees(n):
        t, leaves = leaf_deletion_counts(tree)
        checked += len(leaves)
        violations += [(tree, lhs, rhs, f"{lemma} leaf {v}")
                       for v, *deletions in leaves for lhs, rhs, lemma in fraction_leaf_failures(n, t, *deletions)]
    return report_doc("lem-4.2/4.3/4.4", ClassSpec("trees", n), checked, (), violations)


def oracle_reports(theorem: str, n_max: int) -> list[dict]:
    """What ``run_theorem(theorem, n_max)`` reports, to_json'd, derived
    from the statements without the engine's scoring: the universes from
    the generators, each Q by the subset sweep or ``forest_pair``, the
    bounds from their closed forms, the views by ``is_connected`` and a
    plain maximum-degree test.  Each check runs over the orders that the
    cap of its universe allows: graphs, the tree checks and forests."""
    graphs, trees, forests = (range(1, min(n_max, cap) + 1) for cap in (
        Limits.graphs_max_n, Limits.tree_checks_max_n, Limits.forests_max_n))

    def upper(theorem_id, bound):  # 4.1 and 4.5, over forests, then trees
        return [scan_doc(theorem_id, ClassSpec(family, n), scored(family, n), bound(n), False, note_attained=True)
                for family, orders in (("forests", forests), ("trees", trees)) for n in orders]

    series = {
        "3.1": lambda: [_general_doc(n) for n in graphs],
        "3.2": lambda: [scan_doc("thm-3.2", ClassSpec("connected_graphs", n),
                                 [(g, q) for g, q in scored("all_graphs", n) if is_connected(g)],
                                 star_bound(n), True, extremal=is_star, off="bound attained by a non-star graph",
                                 miss="star does not attain the bound") for n in graphs],
        "3.3": lambda: [scan_doc("cor-3.3", ClassSpec("trees", n), scored("trees", n), star_bound(n), True,
                                 extremal=is_star, off="bound attained by a non-star tree",
                                 miss="star does not attain the bound") for n in trees],
        "3.4": lambda: [_max_degree_doc(n, 1) for n in graphs[1:]],
        "3.5": lambda: [_general_doc(n) for n in graphs[3:]],
        "3.6": lambda: [_max_degree_doc(n, d) for n in graphs[1:] for d in range(1, n)],
        "4.1": lambda: upper("thm-4.1", lambda n: Fraction(n - 1, 3)),
        **dict.fromkeys(("4.2", "4.3", "4.4"), lambda: [_leaf_doc(n) for n in trees[1:]]),
        "4.5": lambda: upper("thm-4.5", lambda n: Fraction(n, 4) - Fraction(1, 6)),
    }
    return [doc for t in (series if theorem == "all" else (theorem,)) for doc in series[t]()]
