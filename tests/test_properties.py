import random

import pytest
from hypothesis import given, strategies as st

from nearindep.graph6 import emit_graph6, parse_graph6
from nearindep.graphs import (
    bits,
    canonical_code,
    connected_components,
    induced_subgraph,
    make_named,
    split_components,
)
from nearindep.sigma import (
    q_ratio,
    sigma01,
    sigma01_recursive,
    sigma_distribution_bruteforce,
)

from conftest import graphs
from oracles import (
    combine_union,
    disjoint_union,
    is_forest,
    lower_degrees,
    random_pivots,
    relabel,
)


@given(graphs(max_n=7), st.randoms(use_true_random=False))
def test_canonical_code_is_permutation_invariant(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_code(relabel(g, perm)) == canonical_code(g)


@given(graphs(max_n=8), graphs(max_n=8))
def test_q_is_additive_over_disjoint_unions(g, h):
    assert q_ratio(disjoint_union(g, h)) == q_ratio(g) + q_ratio(h)


@given(graphs(max_n=8), graphs(max_n=8))
def test_union_counts_combine_bilinearly(g, h):
    assert combine_union(sigma01(g), sigma01(h)) == sigma01(disjoint_union(g, h))


@given(graphs(min_n=0, max_n=9))
def test_isolated_vertex_leaves_q_unchanged(g):
    assert q_ratio(disjoint_union(g, make_named("empty", 1))) == q_ratio(g)


@given(graphs(max_n=9))
def test_distribution_sums_to_all_subsets(g):
    dist = sigma_distribution_bruteforce(g)
    assert sum(dist.counts) == 1 << g.n
    assert dist.pair() == sigma01_recursive(g)


@given(graphs(max_n=8), st.integers(0, 2**32 - 1))
def test_recursion_is_pivot_independent(g, seed):
    with random_pivots(random.Random(seed)):
        got = sigma01_recursive(g)
    assert got == sigma01_recursive(g)


@given(graphs(max_n=12), st.integers(0, 2**32 - 1))
def test_random_pivot_sigma0_matches_the_subset_sweep(g, seed):
    with random_pivots(random.Random(seed)):
        got = sigma01_recursive(g).sigma0
    assert got == sigma_distribution_bruteforce(g).sigma0


@given(graphs(max_n=7), st.randoms(use_true_random=False))
def test_sigma_is_isomorphism_invariant(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert sigma01(relabel(g, perm)) == sigma01(g)


@given(graphs(max_n=9))
def test_at_most_one_lower_neighbour_each_makes_a_forest(g):
    """The highest vertex of a cycle has two lower neighbours on it, which
    is why ``sigma01_tree_dp``'s label-order fold rejects every cycle."""
    if max(lower_degrees(g), default=0) <= 1:
        assert is_forest(g)


@given(graphs(max_n=12))
def test_graph6_roundtrip(g):
    line = emit_graph6(g)
    assert parse_graph6(line) == g
    assert emit_graph6(parse_graph6(line)) == line


@given(graphs(max_n=9))
def test_induced_on_everything_is_identity(g):
    assert induced_subgraph(g, g.full_mask) == g


@given(graphs(max_n=9))
def test_components_partition_the_vertices(g):
    seen = 0
    for comp in connected_components(g):
        assert comp and seen & comp == 0
        seen |= comp
    assert seen == g.full_mask


@given(graphs(max_n=10), st.data())
def test_split_components_of_a_sub_mask_match_networkx(g, data):
    """On any vertex mask, the components of two or more vertices in
    order of their smallest member, and the isolated count, agree with
    networkx on the induced subgraph."""
    nx = pytest.importorskip("networkx")
    mask = data.draw(st.integers(0, g.full_mask))
    kept = list(bits(mask))
    h = nx.empty_graph(len(kept))
    h.add_edges_from(induced_subgraph(g, mask).edges())
    theirs = [sum(1 << kept[i] for i in c) for c in nx.connected_components(h)]
    big = sorted((c for c in theirs if c & (c - 1)), key=lambda c: c & -c)
    assert split_components(mask, g.adj) == (big, len(theirs) - len(big))
