import hashlib
from collections import Counter
from itertools import chain, product
from math import comb, factorial
from operator import itemgetter

import pytest

import nearindep.generate as generate
from nearindep.generate import (
    ClassSpec,
    _next_rooted_layout,
    _forest_classes,
    _graph_classes,
    _orbit_min_subsets,
    _outranked,
    _tree_classes,
    _tree_list,
    gen_class,
    gen_forests,
    gen_graphs,
    gen_trees,
)
from nearindep.graph6 import _emit_code, emit_graph6
from nearindep.graphs import (
    Graph,
    _parent_code,
    canonical_code,
    canonical_form,
    make_graph,
    max_degree,
)
from nearindep.limits import CapabilityError, Limits
from nearindep.sigma import q_ratio, sigma01, sigma01_recursive, sigma01_tree_dp, sigma_distribution_bruteforce

from conftest import brute_force_automorphisms, subset_image
from oracles import (
    _is_center_rooted,
    aut_count,
    deletion_keys,
    fold_free_recursion,
    forest_aut_count,
    forest_certificate,
    graph_from_pair_mask,
    is_connected,
    is_forest,
    labelled_connected_graphs,
    labelled_forests,
    layout_to_graph,
    leaf_extension_tree_certs,
    lower_degrees,
    min_column_code,
    orbit_forest_count,
    packed_code,
    prufer_decode,
)

FOREST_COUNTS = [1, 2, 3, 6, 10, 20, 37, 76]               # n = 1..8
GRAPH_COUNTS = [1, 1, 2, 4, 11, 34, 156, 1044, 12346]      # n = 0..8, OEIS A000088
CONNECTED_COUNTS = [1, 1, 1, 2, 6, 21, 112, 853, 11117]    # n = 0..8, OEIS A001349


def test_trees_match_leaf_extension_oracle():
    for n in (9, 10, 11, 12):
        got = frozenset(forest_certificate(t) for t in gen_trees(n))
        assert got == leaf_extension_tree_certs(n)


def filtered_walk(n):
    """Every canonical rooted level sequence in Beyer-Hedetniemi order,
    kept when rooted at a centre, each tree built whole from its sequence:
    the plain walk that the jumps and the rebuilt suffixes must match."""
    layout = list(range(n))
    while True:
        if _is_center_rooted(layout):
            yield layout_to_graph(layout)
        if _next_rooted_layout(layout) is None:
            return


def test_tree_stream_equals_filtered_walk():
    for n in range(1, Limits.tree_checks_max_n + 1):
        assert [t.adj for t in gen_trees(n)] == [t.adj for t in filtered_walk(n)], n


def test_tree_and_forest_records_read_and_print_as_their_graphs():
    """Each tree the walk yields, a parent array, reads as the rows of the
    plain walk, and the graph6 line printed from its parents is that of
    the graph, every tree to order 14.  A forest reads as its trees' rows,
    each shifted past the trees before it, and prints as that graph, every
    forest to order 12, as ``gen`` prints them."""
    def printed(record):
        return _emit_code(record.n, _parent_code(record.par))

    for n in range(1, 15):
        records = [t for t, _ in _tree_classes(n)]
        graphs = [Graph(n, adj) for adj in (t.adj for t in filtered_walk(n))]
        assert [t.adj for t in records] == [g.adj for g in graphs], n
        assert list(map(printed, records)) == list(map(emit_graph6, graphs)), n
    for n in range(1, 13):
        for f, _ in _forest_classes(n):
            rows = []
            for tree, _ in chain.from_iterable(f):
                rows += [row << len(rows) for row in tree.adj]
            g = Graph(n, tuple(rows))
            assert f.adj == g.adj and printed(f) == emit_graph6(g), f


def test_tree_walk_rereads_the_first_subtree_only_when_rewritten(spy):
    """The walk carries the first root subtree's end and depth from visit
    to visit and re-reads them only when a step rewrote from inside it:
    82 reads at n = 12 and 1,230 of the 20,542 visits at n = 16."""
    reads = spy(generate, "_first_subtree")
    assert sum(1 for _ in gen_trees(12)) == 551
    assert sum(1 for _ in gen_trees(16)) == 19320
    assert Counter(len(layout) for (layout,), _ in reads) == {12: 82, 16: 1230}


def test_trees_match_networkx():
    nx = pytest.importorskip("networkx")
    for n in range(1, 13):
        theirs = set()
        for t in nx.nonisomorphic_trees(n):
            index = {v: i for i, v in enumerate(t.nodes)}
            theirs.add(forest_certificate(make_graph(n, [(index[u], index[v]) for u, v in t.edges])))
        ours = [forest_certificate(t) for t in gen_trees(n)]
        assert len(ours) == len(set(ours)) and set(ours) == theirs, n


def test_prufer_decode_is_a_tree():
    t = prufer_decode(6, (3, 3, 0, 1))
    assert t.n == 6 and is_forest(t) and is_connected(t)


def test_prufer_decode_is_the_bijection_networkx_uses():
    nx = pytest.importorskip("networkx")
    for n in range(2, 7):
        trees = set()
        for seq in product(range(n), repeat=n - 2):
            edges = frozenset(frozenset(e) for e in prufer_decode(n, seq).edges())
            assert edges == frozenset(frozenset(e) for e in nx.from_prufer_sequence(list(seq)).edges()), seq
            trees.add(edges)
        assert len(trees) == n ** (n - 2)  # Cayley: every labelled tree, once


def test_forest_counts_match_euler_transform():
    # forests are multisets of trees, so their counts are the Euler
    # transform of the tree counts: with b(n) = sum_{d|n} d t(d),
    # n f(n) = b(n) + sum_{k<n} b(k) f(n-k)
    top = 10
    t = [0] + [sum(1 for _ in gen_trees(n)) for n in range(1, top + 1)]
    b = [0] + [
        sum(d * t[d] for d in range(1, n + 1) if n % d == 0) for n in range(1, top + 1)
    ]
    f = [1] + [0] * top
    for n in range(1, top + 1):
        f[n] = (b[n] + sum(b[k] * f[n - k] for k in range(1, n))) // n
    counts = [sum(1 for _ in gen_forests(n)) for n in range(1, top + 1)]
    assert counts == f[1:]
    assert counts[:8] == FOREST_COUNTS
    assert counts[:6] == [orbit_forest_count(n) for n in range(1, 7)]


def test_forests_distinct_and_acyclic():
    for n in (3, 6, 7):
        certs = set()
        for f in gen_forests(n):
            assert f.n == n and is_forest(f)
            certs.add(forest_certificate(f))
        assert len(certs) == FOREST_COUNTS[n - 1]


def test_exhaustiveness_small():
    # every labelled graph's canonical code appears in the class stream
    for n in range(7):
        stream = {canonical_code(g).code for g in gen_graphs(n)}
        npairs = n * (n - 1) // 2
        for m in range(1 << npairs):
            assert canonical_code(graph_from_pair_mask(n, m)).code in stream


@pytest.mark.parametrize("family, digest", [
    ("all_graphs", "df1c1062b9dabc27fff7464834a1cbe7608afc785157cd067bb53916381fd265"),
    ("connected_graphs", "05617d11891a9342348f2132f1948ab9a6a95275631f5e8dc223d90363c3ab3c"),
], ids=["all_graphs", "connected_graphs"])
def test_code_and_q_sequence_is_pinned(family, digest):
    """The (canonical code, Q) sequence of each graph stream, n <= 7, in
    stream order.  It does not depend on which representative a class
    gets, so it pins the generator's output independently of its method."""
    h = hashlib.sha256()
    for n in range(1, 8):
        for g in gen_class(ClassSpec(family, n)):
            q = q_ratio(g)
            h.update(f"{n} {canonical_code(g).code} {q.numerator}/{q.denominator}\n".encode("ascii"))
    assert h.hexdigest() == digest


def graph_streams(n_max: int):
    """Every graph universe (all, connected, each exact maximum degree)."""
    for n in range(n_max + 1):
        yield ClassSpec("all_graphs", n)
        yield ClassSpec("connected_graphs", n)
        for delta in range(n):
            yield ClassSpec("bounded_degree_graphs", n, delta)


STREAM_FAMILIES = ("all_graphs", "connected_graphs", "bounded_degree_graphs")


def stream_digest(n_max: int, family: str, line) -> str:
    """sha256 of the sorted ``line(spec, g)`` over every graph of the
    streams of one family up to order n_max: a digest of the multiset,
    blind to the labelling and the order in which classes come out."""
    lines = sorted(line(spec, g) for spec in graph_streams(n_max) if spec.family == family
                   for g in gen_class(spec))
    return hashlib.sha256("".join(lines).encode("ascii")).hexdigest()


@pytest.mark.parametrize("family, digest", zip(STREAM_FAMILIES, [
    "357bf5bc9574220f832289b74ba34ed8f050ba06b8869cad0f5585cdb1feb6f9",
    "85c5c47e05e9a4c87df549ecbb7816642bc3a69fda9e3f198e0d0074110d4040",
    "6e0c14a475d6e01d799300b903a6e48f9b19d4e17677e6105a6913236d311945",
]), ids=STREAM_FAMILIES)
def test_stream_invariants_are_pinned(family, digest):
    """The multiset of (n, delta, m, degree sequence, sigma0, sigma1) of
    each graph stream, n <= 8: facts of the classes alone, recorded under
    the minimum-column-code search that preceded the refinement search."""
    counts = {}

    def line(spec, g):
        if g not in counts:
            p = sigma01(g)
            degrees = ",".join(str(d) for d in sorted(row.bit_count() for row in g.adj))
            counts[g] = f"{g.edge_count()} {degrees} {p.sigma0} {p.sigma1}"
        return f"{spec.n} {spec.delta} {counts[g]}\n"

    assert stream_digest(8, family, line) == digest


@pytest.mark.parametrize("family, digest", zip(STREAM_FAMILIES, [
    "06a1d68248c798dc58dcf97609b23f7c5cf22e8ff5ef3a868d6f9899a5bf79fc",
    "55b9d3768353052287d7751eb54c1f64eb731a4d2e15e9d23e189d172c353761",
    "8f270cf456a830a60269583a0dc391596abe309a5e97cd75196f664dec01ec2d",
]), ids=STREAM_FAMILIES)
def test_streams_hold_the_pinned_classes(family, digest):
    """The multiset of (n, delta, least column code over all relabellings)
    of each graph stream, n <= 7: the same classes as under the old
    search, whatever labelling and order they now come in."""
    line = lambda spec, g: f"{spec.n} {spec.delta} {min_column_code(g)}\n"
    assert stream_digest(7, family, line) == digest


def test_graph_streams_emit_each_class_spelled_by_its_code():
    """Each class comes in its canonical labelling: the graph's own
    column-packed code is its canonical code, so it is the one graph that
    code spells.  Codes strictly increase along every stream."""
    for spec in graph_streams(7):
        codes = []
        for g in gen_class(spec):
            code = canonical_code(g).code
            assert packed_code(g, range(g.n)) == code, spec
            codes.append(code)
        assert all(a < b for a, b in zip(codes, codes[1:])), spec


def test_graph_streams_match_the_networkx_atlas():
    """The code set of every graph stream equals that of the atlas of all
    1,253 graphs on at most 7 vertices."""
    nx = pytest.importorskip("networkx")
    atlas = []
    for h in nx.graph_atlas_g():
        index = {v: i for i, v in enumerate(h.nodes)}
        atlas.append(make_graph(len(index), [(index[u], index[v]) for u, v in h.edges]))
    assert len(atlas) == 1253
    for spec in graph_streams(7):
        keep = {
            "all_graphs": lambda g: True,
            "connected_graphs": is_connected,
            "bounded_degree_graphs": lambda g: max_degree(g) == spec.delta,
        }[spec.family]
        theirs = {canonical_code(g).code for g in atlas if g.n == spec.n and keep(g)}
        assert {canonical_code(g).code for g in gen_class(spec)} == theirs, spec


def test_orbit_min_subsets_match_the_brute_force_group():
    """Orbit marking from the generators keeps exactly the subsets that no
    automorphism (all n! relabellings tried) maps to a smaller one.  That
    holds for the generators ``canonical_form`` returns and for those the
    generator carries from one order to the next, conjugated into each
    class's canonical labelling.  A walk from size k keeps exactly those
    minima of size >= k, for every k."""
    for n in range(7):
        for g, carried, _ in _graph_classes(n):
            group = brute_force_automorphisms(g)
            minima = [
                s for s in range(1 << n)
                if all(subset_image(s, phi) >= s for phi in group)
            ]
            assert list(_orbit_min_subsets(n, canonical_form(g)[1], 0)) == minima
            for k in range(n + 2):
                assert list(_orbit_min_subsets(n, carried, k)) == [s for s in minima if s.bit_count() >= k]


def test_outranked_matches_the_key_oracle():
    """Every child at order <= 7 (each class below plus v joined to any
    subset) that passes the degree filter and has rivals: ``_outranked``,
    given the parent's rows, twice its triangle counts and the subset,
    holds exactly when some vertex's (degree, triangles) key exceeds v's."""
    outcomes = Counter()
    for n in range(2, 8):
        v = n - 1
        for parent, _, _ in _graph_classes(v):
            tri = [2 * t for _, t in deletion_keys(parent)]
            for s in range(1 << v):
                adj = [row | 1 << v if s >> x & 1 else row for x, row in enumerate(parent.adj)]
                adj.append(s)
                keys = deletion_keys(Graph(n, tuple(adj)))
                mine = keys[v]
                rivals = sum(1 << x for x in range(v) if keys[x][0] == mine[0])
                if max(key[0] for key in keys) > mine[0] or not rivals:
                    continue
                want = max(keys) > mine
                assert _outranked(parent.adj, tri, s, rivals) == want, (adj, rivals)
                outcomes["outranked" if want else "kept"] += 1
    assert outcomes == {"outranked": 561, "kept": 1383}


def test_canonical_form_calls_are_pinned(spy):
    """The work of generation up to order 8, one call per child that
    passes the deletion rule: 1,252 calls find the classes of orders 1-7, and the other 103
    return a code already found; to order 8 it is 15,047 calls."""
    calls = spy(generate, "canonical_form")
    _graph_classes.cache_clear()
    _graph_classes(8)
    _graph_classes.cache_clear()
    codes = [code for _, (code, _, _) in calls]
    below = [code for code in codes if code.n < 8]
    assert len(below) == 1355
    assert len(set(below)) == sum(GRAPH_COUNTS[1:8]) == 1252
    assert len(codes) == 15047


def test_carried_pairs_match_the_recursion_and_the_sweep():
    """The (sigma0, sigma1) each class carries out of the augmentation is
    that of the graph it emits: by the deletion recursion on orders 1-8,
    and by the subset sweep, which shares no code with it, on orders 1-7."""
    for n in range(1, Limits.graphs_max_n + 1):
        for g, _, pair in _graph_classes(n):
            assert pair == sigma01_recursive(g), g
            assert n == 8 or pair == sigma_distribution_bruteforce(g).pair(), g


GRAPH_CLASS_DIGESTS = [
    "de10f7f9adc82698c620887ebce1884a0a1b645ab20bf102e3290bc4dfe22a4d",
    "3d2cda7a4d92560ffd5dbb1d772f296f9a3cd0ebe7591f6e4409189b8d7c7029",
    "8a3d172a8349e5727f75e6ce358ecd4ebe764c665c4938c797058502309cbd6f",
    "263801080932fae83f5ac723ff24904da76306291dca9f5cc29b0117764f3fa0",
    "79d230155f311684921a6fc0b8c4f441fadcd8279ecd67bf6ed7a2fd397523e8",
    "050ebd95d2e132127dfe3c91a0e0d2919a1c408e3ae0026463918ec9f70058f2",
    "06a4561d5a9271014732a5bb6e2be792d2ffd5cf67945a3c89b10a38a8b52640",
    "f4cebcdb86b3bb6a0b2edaeba1025eb3f2a6e22cdcb1bdd384ca6cdedd48357b",
]


def test_graph_classes_are_pinned_with_their_generators():
    """sha256 of every ``_graph_classes(n)`` entry for n <= 7, in table
    order: the class's rows, the generators it carries to the next order
    (which fix the orbit walk and so which children are tried) and its
    pair.  The code and stream pins above are blind to the generators."""
    digests = []
    for n in range(8):
        h = hashlib.sha256()
        for g, gens, pair in _graph_classes(n):
            h.update(f"{g.adj} {gens} {pair}\n".encode("ascii"))
        digests.append(h.hexdigest())
    assert digests == GRAPH_CLASS_DIGESTS


def test_trees_and_forests_carry_their_pairs():
    """The (sigma0, sigma1) each tree and forest carries out of generation
    is that of the graph it emits: by the tree DP's fold for every tree to
    order 16 and every forest to order 14, and to order 10 also by the
    fold-free recursion, which shares no ``_graft`` with the walk.  Each
    forest's pair is zipped with the graph ``gen_forests`` emits for it."""
    def forests(n):
        return zip(gen_forests(n), map(itemgetter(1), _forest_classes(n)), strict=True)

    for classes, top in [(_tree_list, Limits.tree_checks_max_n), (forests, Limits.forests_max_n)]:
        for n in range(1, top + 1):
            for g, pair in classes(n):
                assert pair == sigma01_tree_dp(g), g
                assert n > 10 or pair == fold_free_recursion(g), g


def test_graph_streams_meet_the_orbit_stabiliser_identity():
    """A class G on n vertices holds n!/|Aut(G)| labelled graphs, so the
    stream's masses sum to 2^C(n,2), its connected view's to the labelled
    connected graphs, and its bounded-degree views' together to 2^C(n,2)
    again (Harary and Palmer, Graphical Enumeration, 1973): a dropped or
    repeated class moves the sum.  The members are pairwise non-isomorphic
    by ``min_column_code``, so a member relabelled into another is caught
    even where the masses balance.  Neither |Aut|, from a backtracking
    count, nor the code shares code with ``canonical_form``.  The class
    counts are the OEIS ones."""
    for n in range(9):
        graphs = list(gen_graphs(n))
        assert len({min_column_code(g) for g in graphs}) == len(graphs) == GRAPH_COUNTS[n]
        aut = {g: aut_count(g) for g in graphs}
        assert sum(factorial(n) // aut[g] for g in graphs) == 1 << comb(n, 2)
        connected = list(gen_class(ClassSpec("connected_graphs", n)))
        assert len(connected) == CONNECTED_COUNTS[n]
        assert sum(factorial(n) // aut[g] for g in connected) == labelled_connected_graphs(n)
        bounded = (gen_class(ClassSpec("bounded_degree_graphs", n, delta)) for delta in range(n + 1))
        assert sum(factorial(n) // aut[g] for view in bounded for g in view) == 1 << comb(n, 2)


def test_tree_stream_meets_the_orbit_stabiliser_identity():
    """The trees of order 16 are pairwise non-isomorphic trees by
    ``forest_certificate`` (one encoding each), and their masses
    16!/|Aut| sum to Cayley's 16^14 labelled trees: one member per class.
    |Aut| comes from rooted counting at the centre, no engine code."""
    trees = list(gen_trees(16))
    certs = {forest_certificate(t) for t in trees}
    assert len(certs) == len(trees) and all(len(c) == 1 for c in certs)
    assert sum(factorial(16) // forest_aut_count(t) for t in trees) == 16 ** 14


def test_forest_stream_meets_the_orbit_stabiliser_identity():
    """The forests of order 14 are pairwise non-isomorphic by
    ``forest_certificate``, and their masses 14!/|Aut| sum to the labelled
    forests on 14 vertices (OEIS A001858): one member per class."""
    forests = list(gen_forests(14))
    assert len({forest_certificate(f) for f in forests}) == len(forests)
    assert labelled_forests(14) == 110_284_283_006_640
    assert sum(factorial(14) // forest_aut_count(f) for f in forests) == labelled_forests(14)


def test_streams_are_deterministic():
    a = [canonical_code(g).code for g in gen_graphs(5)]
    b = [canonical_code(g).code for g in gen_graphs(5)]
    assert a == b
    assert [t.adj for t in gen_trees(7)] == [t.adj for t in gen_trees(7)]
    assert [f.adj for f in gen_forests(6)] == [f.adj for f in gen_forests(6)]


def assert_passes_full_check(g: Graph) -> None:
    """The generators build through ``Graph._unchecked``: the full validator
    must accept the graph, and the validated copy equal and hash like it."""
    checked = Graph(g.n, g.adj)
    assert checked == g and hash(checked) == hash(g), g


@pytest.mark.parametrize("gen, cap", [(gen_trees, Limits.trees_max_n), (gen_forests, Limits.forests_max_n)])
def test_generated_trees_and_forests_pass_the_full_check(gen, cap):
    """Also the label order that ``sigma01_tree_dp`` and
    ``leaf_deletion_counts`` fold: every vertex has at most one lower
    neighbour, and in a tree only vertex 0 has none.  The same walk counts
    the classes at the cap."""
    for n in range(1, cap + 1):
        count = 0
        for count, g in enumerate(gen(n), 1):
            assert_passes_full_check(g)
            lower = lower_degrees(g)
            assert max(lower) <= 1, g
            assert gen is gen_forests or lower.count(0) == 1, g
    assert count == {gen_trees: 123_867, gen_forests: 8_599}[gen]  # OEIS A000055, A005195


def test_graph_classes_pass_the_full_check():
    for n in range(Limits.graphs_max_n + 1):
        for g, _, _ in _graph_classes(n):
            assert_passes_full_check(g)


def test_generators_do_not_run_the_full_check(monkeypatch):
    def refuse(n, adj):
        raise AssertionError(f"Graph._check ran on generated ({n}, {adj})")

    monkeypatch.setattr(Graph, "_check", refuse)
    assert len(list(gen_trees(9))) == 47 and len(list(gen_forests(7))) == 37
    assert len(_graph_classes.__wrapped__(5)) == 34


def test_every_graph_given_to_canonical_form_passes_the_full_check(spy):
    calls = spy(generate, "canonical_form")
    _graph_classes.cache_clear()
    _graph_classes(7)
    seen = [g for (g,), _ in calls]
    assert {g.n for g in seen} == set(range(1, 8))
    for g in seen:
        assert_passes_full_check(g)


def test_caps_and_ranges():
    with pytest.raises(CapabilityError):
        list(gen_trees(19))
    with pytest.raises(CapabilityError):
        list(gen_forests(15))
    with pytest.raises(CapabilityError):
        list(gen_graphs(9))
    with pytest.raises(ValueError):
        list(gen_trees(0))
    with pytest.raises(ValueError):
        list(gen_forests(0))


def test_class_spec_validation():
    with pytest.raises(ValueError):
        ClassSpec("cliques", 4)
    with pytest.raises(ValueError):
        ClassSpec("trees", 4, delta=2)
    with pytest.raises(ValueError):
        ClassSpec("bounded_degree_graphs", 4)
    with pytest.raises(ValueError):
        ClassSpec("bounded_degree_graphs", 4, -1)
    with pytest.raises(ValueError, match="maximum degree must be an int"):
        ClassSpec("bounded_degree_graphs", 4, 1.5)   # was an empty universe
    with pytest.raises(ValueError, match="order must be an int"):
        ClassSpec("trees", 2.5)                      # was a TypeError deep in generation
    assert [g.edge_count() for g in gen_class(ClassSpec("bounded_degree_graphs", 4, 0))] == [0]
    spec = ClassSpec("bounded_degree_graphs", 4, 1)
    assert sum(1 for _ in gen_class(spec)) == 2
