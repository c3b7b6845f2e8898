import itertools

import pytest
from hypothesis import given

from nearindep.graphs import (
    Graph,
    canonical_code,
    canonical_form,
    closed_neighborhood,
    connected_components,
    disjoint_union,
    forest_certificate,
    graph_from_pair_mask,
    induced_subgraph,
    is_forest,
    make_graph,
    make_named,
    max_degree,
    relabel,
    tree_certificate,
)
from nearindep.limits import CapabilityError

from conftest import graphs, random_graph


def test_make_graph_examples():
    k2 = make_graph(2, [(0, 1)])
    assert k2.adj == (0b10, 0b01)
    assert make_graph(3, []).adj == (0, 0, 0)
    p4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert p4.edges() == [(0, 1), (1, 2), (2, 3)]


def test_make_graph_dedups_and_validates():
    g = make_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1
    with pytest.raises(ValueError):
        make_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        make_graph(3, [(0, 3)])


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(2, (0b10,))            # wrong length
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))       # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (0b1,))             # loop
    with pytest.raises(ValueError):
        Graph(1, (0b10,))            # stray bit


def test_graph_order_cap(monkeypatch):
    with pytest.raises(CapabilityError):
        make_named("empty", 65)
    monkeypatch.setenv("SIGMA_MAX_N", "10")
    with pytest.raises(CapabilityError):
        make_named("empty", 12)
    assert make_named("empty", 10).n == 10


def test_make_named():
    s4 = make_named("star", 4)
    assert s4.adj[0] == 0b1110 and all(s4.adj[v] == 1 for v in (1, 2, 3))
    m = make_named("matching_plus_isolated", 5, 2)
    assert m.edges() == [(0, 1), (2, 3)] and m.degree(4) == 0
    assert make_named("empty", 0).n == 0
    assert make_named("complete", 4).edge_count() == 6
    assert make_named("path", 1).n == 1
    with pytest.raises(ValueError):
        make_named("matching_plus_isolated", 5, 3)
    with pytest.raises(ValueError):
        make_named("matching_plus_isolated", 5)
    with pytest.raises(ValueError):
        make_named("star", 4, t=1)
    with pytest.raises(ValueError):
        make_named("wheel", 4)


def test_induced_subgraph():
    p4 = make_named("path", 4)
    assert induced_subgraph(p4, 0b0111) == make_named("path", 3)
    s4 = make_named("star", 4)
    assert induced_subgraph(s4, 0b1110) == make_named("empty", 3)
    # dropping the closed neighbourhood of the second path vertex leaves one vertex
    keep = p4.full_mask & ~closed_neighborhood(p4, 1)
    assert induced_subgraph(p4, keep) == make_named("empty", 1)
    assert induced_subgraph(p4, p4.full_mask) == p4
    assert induced_subgraph(p4, 0).n == 0
    with pytest.raises(ValueError):
        induced_subgraph(p4, 1 << 4)


def test_closed_neighborhood():
    assert closed_neighborhood(make_graph(2, [(0, 1)]), 0) == 0b11
    assert closed_neighborhood(make_named("empty", 3), 1) == 0b010
    assert closed_neighborhood(make_named("star", 4), 0) == 0b1111
    with pytest.raises(ValueError):
        closed_neighborhood(make_named("empty", 3), 3)


def test_connected_components():
    assert connected_components(make_named("matching_plus_isolated", 4, 2)) == [0b0011, 0b1100]
    assert connected_components(make_named("path", 4)) == [0b1111]
    assert connected_components(make_graph(4, [(0, 1)])) == [0b0011, 0b0100, 0b1000]
    assert connected_components(make_named("empty", 0)) == []


def test_components_partition_random(rng):
    for _ in range(50):
        g = random_graph(rng.randint(0, 9), rng)
        comps = connected_components(g)
        total = 0
        for c in comps:
            assert total & c == 0
            total |= c
        assert total == g.full_mask


def test_max_degree():
    assert max_degree(make_named("star", 5)) == 4
    assert max_degree(make_named("empty", 3)) == 0
    assert max_degree(make_named("path", 4)) == 2
    assert max_degree(make_named("empty", 0)) == 0


def test_disjoint_union():
    g = disjoint_union(make_named("path", 2), make_named("path", 3))
    assert g.n == 5 and g.edges() == [(0, 1), (2, 3), (3, 4)]
    assert connected_components(g) == [0b00011, 0b11100]


def test_canonical_code_relabellings():
    a = make_graph(3, [(0, 1), (1, 2)])
    b = make_graph(3, [(1, 0), (0, 2)])
    assert canonical_code(a) == canonical_code(b)
    assert canonical_code(make_named("complete", 3)) != canonical_code(a)


@pytest.mark.parametrize("n,classes", [(3, 4), (4, 11), (5, 34)])
def test_canonical_code_class_counts(n, classes):
    # dedup oracle: every labelled graph on n vertices, one code per class
    npairs = n * (n - 1) // 2
    codes = {canonical_code(graph_from_pair_mask(n, m)).code for m in range(1 << npairs)}
    assert len(codes) == classes


def test_canonical_code_permutation_invariance(rng):
    for _ in range(60):
        n = rng.randint(1, 7)
        g = random_graph(n, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_code(relabel(g, perm)) == canonical_code(g)


def test_canonical_code_cap():
    with pytest.raises(CapabilityError):
        canonical_code(make_named("empty", 11))


def test_canonical_form_automorphisms(rng):
    code, autos = canonical_form(make_named("star", 5))
    assert len(autos) == 24  # the four leaves permute freely
    for _ in range(25):
        g = random_graph(rng.randint(1, 6), rng)
        _, autos = canonical_form(g)
        assert tuple(range(g.n)) in autos
        for phi in autos:
            assert relabel(g, phi) == g


def test_relabel_validates():
    with pytest.raises(ValueError):
        relabel(make_named("path", 3), [0, 0, 2])


def test_is_forest():
    assert is_forest(make_named("path", 5))
    assert is_forest(make_named("empty", 4))
    assert not is_forest(make_named("complete", 3))
    assert is_forest(disjoint_union(make_named("star", 4), make_named("path", 2)))


@given(graphs(min_n=1, max_n=12))  # networkx calls the empty graph pointless
def test_is_forest_matches_networkx(g):
    nx = pytest.importorskip("networkx")
    h = nx.empty_graph(g.n)
    h.add_edges_from(g.edges())
    assert is_forest(g) == nx.is_forest(h)


def test_forest_certificate_rejects_a_cycle_in_a_later_component():
    with pytest.raises(ValueError, match="acyclic"):
        forest_certificate(disjoint_union(make_named("path", 3), make_named("complete", 3)))


def test_forest_certificate_invariance(rng):
    t = make_graph(6, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)])
    for _ in range(20):
        perm = list(range(6))
        rng.shuffle(perm)
        assert forest_certificate(relabel(t, perm)) == forest_certificate(t)
    assert tree_certificate(make_named("path", 5)) != tree_certificate(make_named("star", 5))
    with pytest.raises(ValueError):
        forest_certificate(make_named("complete", 3))
    with pytest.raises(ValueError):
        tree_certificate(make_named("empty", 2))


def test_forest_certificate_agrees_with_canonical_code():
    # on all forests up to 6 vertices the two invariants induce the same classes
    by_cert: dict[tuple, tuple] = {}
    by_code: dict[tuple, tuple] = {}
    for n in range(1, 7):
        npairs = n * (n - 1) // 2
        for m in range(1 << npairs):
            g = graph_from_pair_mask(n, m)
            if not is_forest(g):
                continue
            cert = forest_certificate(g)
            code = (n, canonical_code(g).code)
            assert by_cert.setdefault(cert, code) == code
            assert by_code.setdefault(code, cert) == cert


def test_certificates_respect_union_order():
    a = disjoint_union(make_named("path", 3), make_named("star", 4))
    b = disjoint_union(make_named("star", 4), make_named("path", 3))
    assert forest_certificate(a) == forest_certificate(b)
