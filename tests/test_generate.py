import hashlib
from collections import Counter
from itertools import product

import pytest

import nearindep.generate as generate
from nearindep.generate import (
    ClassSpec,
    _is_center_rooted,
    _layout_to_graph,
    _next_rooted_layout,
    _deletion_ties,
    _graph_classes,
    _orbit_min_subsets,
    gen_class,
    gen_forests,
    gen_graphs,
    gen_trees,
)
from nearindep.graphs import (
    Graph,
    canonical_code,
    canonical_form,
    make_graph,
    max_degree,
)
from nearindep.limits import CapabilityError, Limits
from nearindep.sigma import q_ratio, sigma01

from conftest import brute_force_automorphisms, subset_image
from oracles import (
    components,
    deletion_keys,
    forest_certificate,
    graph_from_pair_mask,
    is_connected,
    is_forest,
    labelled_class_count,
    labelled_connected_count,
    labelled_forest_count,
    leaf_extension_tree_certs,
    lower_degrees,
    min_column_code,
    packed_code,
    prufer_decode,
    prufer_tree_certs,
)

TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]          # n = 1..10
FOREST_COUNTS = [1, 2, 3, 6, 10, 20, 37, 76]               # n = 1..8
GRAPH_COUNTS = [1, 1, 2, 4, 11, 34, 156, 1044, 12346]      # n = 0..8, OEIS A000088
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853, 11117]       # n = 1..8, OEIS A001349


def test_tree_counts():
    assert [sum(1 for _ in gen_trees(n)) for n in range(1, 11)] == TREE_COUNTS


def test_trees_are_trees_and_distinct():
    for n in range(1, 11):
        certs = set()
        for t in gen_trees(n):
            assert t.n == n and is_forest(t) and is_connected(t)
            certs.add(forest_certificate(t))
        assert len(certs) == TREE_COUNTS[n - 1]


def test_trees_match_prufer_oracle():
    for n in range(1, 8):
        assert frozenset(forest_certificate(t) for t in gen_trees(n)) == prufer_tree_certs(n)


def test_trees_match_leaf_extension_oracle():
    for n in (9, 10, 11, 12):
        got = frozenset(forest_certificate(t) for t in gen_trees(n))
        assert got == leaf_extension_tree_certs(n)


def filtered_walk(n):
    """Every canonical rooted level sequence in Beyer-Hedetniemi order,
    kept when rooted at a centre: the plain walk the jumps must match."""
    layout = list(range(n))
    while layout is not None:
        if _is_center_rooted(layout):
            yield _layout_to_graph(layout)
        layout = _next_rooted_layout(layout)


def test_tree_stream_equals_filtered_walk():
    for n in range(1, 16):
        assert [t.adj for t in gen_trees(n)] == [t.adj for t in filtered_walk(n)], n


def test_trees_match_networkx():
    nx = pytest.importorskip("networkx")
    for n in range(1, 13):
        theirs = set()
        for t in nx.nonisomorphic_trees(n):
            index = {v: i for i, v in enumerate(t.nodes)}
            theirs.add(forest_certificate(make_graph(n, [(index[u], index[v]) for u, v in t.edges])))
        ours = [forest_certificate(t) for t in gen_trees(n)]
        assert len(ours) == len(set(ours)) and set(ours) == theirs, n


def test_tree_count_at_the_cap():
    assert sum(1 for _ in gen_trees(18)) == 123867  # OEIS A000055


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


def test_forest_counts():
    assert [sum(1 for _ in gen_forests(n)) for n in range(1, 9)] == FOREST_COUNTS


def test_forest_counts_match_labelled_oracle():
    for n in range(1, 7):
        assert sum(1 for _ in gen_forests(n)) == labelled_forest_count(n)


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
    assert [sum(1 for _ in gen_forests(n)) for n in range(1, top + 1)] == f[1:]


def test_forests_distinct_and_acyclic():
    for n in (3, 6, 7):
        certs = set()
        for f in gen_forests(n):
            assert f.n == n and is_forest(f)
            certs.add(forest_certificate(f))
        assert len(certs) == FOREST_COUNTS[n - 1]


def test_graph_class_counts():
    assert [sum(1 for _ in gen_graphs(n)) for n in range(0, 9)] == GRAPH_COUNTS


def test_graph_counts_match_labelled_oracle():
    for n in range(1, 7):
        assert sum(1 for _ in gen_graphs(n)) == labelled_class_count(n)
        assert sum(1 for _ in gen_class(ClassSpec("connected_graphs", n))) == labelled_connected_count(n)


def test_connected_counts():
    got = [sum(1 for _ in gen_class(ClassSpec("connected_graphs", n))) for n in range(1, 9)]
    assert got == CONNECTED_COUNTS


def test_stream_has_no_duplicate_codes():
    for n in range(7):
        codes = [canonical_code(g).code for g in gen_graphs(n)]
        assert len(codes) == len(set(codes))


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
    class's canonical labelling."""
    for n in range(7):
        for g, carried in _graph_classes(n):
            group = brute_force_automorphisms(g)
            minima = [
                s for s in range(1 << n)
                if all(subset_image(s, phi) >= s for phi in group)
            ]
            assert list(_orbit_min_subsets(n, canonical_form(g)[1])) == minima
            assert list(_orbit_min_subsets(n, carried)) == minima


def test_deletion_ties_match_the_key_oracle():
    """Every child at order <= 7 (each class below plus v joined to any
    subset) that passes the degree filter and has rivals: ``_deletion_ties``
    gives None exactly when some vertex's (degree, triangles) key exceeds
    v's, and otherwise the mask of the vertices whose key equals v's."""
    outcomes = Counter()
    for n in range(2, 8):
        v = n - 1
        for parent, _ in _graph_classes(v):
            for s in range(1 << v):
                adj = [row | 1 << v if s >> x & 1 else row for x, row in enumerate(parent.adj)]
                adj.append(s)
                keys = deletion_keys(Graph(n, tuple(adj)))
                mine = keys[v]
                rivals = sum(1 << x for x in range(v) if keys[x][0] == mine[0])
                if max(key[0] for key in keys) > mine[0] or not rivals:
                    continue
                want = None if max(keys) > mine else sum(
                    1 << x for x, key in enumerate(keys) if key == mine
                )
                assert _deletion_ties(adj, rivals) == want, (adj, rivals)
                outcomes["outranked" if want is None else "alone" if want == 1 << v else "tied"] += 1
    assert outcomes == {"outranked": 561, "alone": 231, "tied": 1152}


def test_canonical_form_calls_are_pinned(monkeypatch):
    """The work of generation up to order 7, one call per kept child and
    per tie: the deletion rule counts triangles only at v and its rivals,
    and the canonical labelling settles every tie that leaves."""
    calls = []
    real = generate.canonical_form
    monkeypatch.setattr(generate, "canonical_form", lambda g: calls.append(g) or real(g))
    _graph_classes.cache_clear()
    _graph_classes(7)
    _graph_classes.cache_clear()
    assert len(calls) == 1355


def test_delta_filter():
    got = list(gen_class(ClassSpec("bounded_degree_graphs", 4, 1)))
    assert len(got) == 2
    assert all(max_degree(g) == 1 for g in got)
    # the two matchings: one and two edges
    assert sorted(g.edge_count() for g in got) == [1, 2]


def test_connected_stream_is_connected():
    for g in gen_class(ClassSpec("connected_graphs", 5)):
        assert len(components(g)) == 1


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
    """Also the labelling ``sigma01_tree_dp`` folds without a BFS walk:
    every vertex has at most one lower neighbour, and in a tree only
    vertex 0 has none."""
    for n in range(1, cap + 1):
        for g in gen(n):
            assert_passes_full_check(g)
            lower = lower_degrees(g)
            assert max(lower) <= 1, g
            assert gen is gen_forests or lower.count(0) == 1, g


def test_graph_classes_pass_the_full_check():
    for n in range(Limits.graphs_max_n + 1):
        for g, _ in _graph_classes(n):
            assert_passes_full_check(g)


def test_generators_do_not_run_the_full_check(monkeypatch):
    def refuse(n, adj):
        raise AssertionError(f"Graph._check ran on generated ({n}, {adj})")

    monkeypatch.setattr(Graph, "_check", refuse)
    assert len(list(gen_trees(9))) == 47 and len(list(gen_forests(7))) == 37
    assert len(_graph_classes.__wrapped__(5)) == 34


def test_every_graph_given_to_canonical_form_passes_the_full_check(monkeypatch):
    seen = []
    real = generate.canonical_form
    monkeypatch.setattr(generate, "canonical_form", lambda g: seen.append(g) or real(g))
    _graph_classes.cache_clear()
    _graph_classes(7)
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
