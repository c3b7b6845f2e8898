import hashlib
from itertools import product

import pytest

from nearindep.generate import (
    ClassSpec,
    _is_center_rooted,
    _layout_to_graph,
    _next_rooted_layout,
    _graph_classes,
    _orbit_min_subsets,
    gen_class,
    gen_forests,
    gen_graphs,
    gen_trees,
)
from nearindep.graphs import (
    canonical_code,
    canonical_form,
    connected_components,
    forest_certificate,
    is_connected,
    is_forest,
    make_graph,
    max_degree,
)
from nearindep.limits import CapabilityError
from nearindep.sigma import q_ratio

from conftest import brute_force_automorphisms, subset_image
from oracles import (
    graph_from_pair_mask,
    labelled_class_count,
    labelled_connected_count,
    labelled_forest_count,
    leaf_extension_tree_certs,
    neighbour_lists_certificate,
    packed_code,
    prufer_decode,
    prufer_neighbours,
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


def test_neighbour_list_certificates_match_forest_certificate():
    for n in range(2, 7):
        for seq in product(range(n), repeat=n - 2):
            want = forest_certificate(prufer_decode(n, seq))
            assert neighbour_lists_certificate(prufer_neighbours(n, seq)) == want, seq
    assert prufer_tree_certs(1) == {forest_certificate(make_graph(1, []))}


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
        assert sum(1 for _ in gen_graphs(n, connected_only=True)) == labelled_connected_count(n)


def test_connected_counts():
    got = [sum(1 for _ in gen_graphs(n, connected_only=True)) for n in range(1, 9)]
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
    ("all_graphs", "8f1517d5973fe03c2d9e0af4695960fb5bb6237ba257dce849b53ef3ee3b6c65"),
    ("connected_graphs", "8e2b4b2e28c4be0676ae58b10a30513be2a4c531bb32d12cd69529a80314a85d"),
])
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


def test_delta_filter():
    got = list(gen_graphs(4, delta=1))
    assert len(got) == 2
    assert all(max_degree(g) == 1 for g in got)
    # the two matchings: one and two edges
    assert sorted(g.edge_count() for g in got) == [1, 2]


def test_connected_stream_is_connected():
    for g in gen_graphs(5, connected_only=True):
        assert len(connected_components(g)) == 1


def test_streams_are_deterministic():
    a = [canonical_code(g).code for g in gen_graphs(5)]
    b = [canonical_code(g).code for g in gen_graphs(5)]
    assert a == b
    assert [t.adj for t in gen_trees(7)] == [t.adj for t in gen_trees(7)]
    assert [f.adj for f in gen_forests(6)] == [f.adj for f in gen_forests(6)]


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


def test_env_lowers_caps(monkeypatch):
    monkeypatch.setenv("SIGMA_MAX_N", "6")
    with pytest.raises(CapabilityError):
        list(gen_graphs(7))
    assert sum(1 for _ in gen_graphs(6)) == 156


def test_class_spec_validation():
    with pytest.raises(ValueError):
        ClassSpec("cliques", 4)
    with pytest.raises(ValueError):
        ClassSpec("trees", 4, delta=2)
    with pytest.raises(ValueError):
        ClassSpec("bounded_degree_graphs", 4)
    spec = ClassSpec("bounded_degree_graphs", 4, 1)
    assert sum(1 for _ in gen_class(spec)) == 2
