import random

import pytest
from hypothesis import given, strategies as st

from nearindep.graphs import bits, connected_components, induced_subgraph, split_components
from nearindep.sigma import sigma01, sigma01_recursive, sigma_distribution_bruteforce

from conftest import graphs
from oracles import is_forest, lower_degrees, random_pivots, shuffled


@given(graphs(max_n=12), st.integers(0, 2**32 - 1))
def test_random_pivot_sigma0_matches_the_subset_sweep(g, seed):
    with random_pivots(random.Random(seed)):
        got = sigma01_recursive(g).sigma0
    assert got == sigma_distribution_bruteforce(g).sigma0


@given(graphs(max_n=7), st.randoms(use_true_random=False))
def test_sigma_is_isomorphism_invariant(g, rnd):
    assert sigma01(shuffled(g, rnd)) == sigma01(g)


@given(graphs(max_n=9))
def test_at_most_one_lower_neighbour_each_makes_a_forest(g):
    """The highest vertex of a cycle has two lower neighbours on it, which
    is why ``sigma01_tree_dp``'s label-order fold rejects every cycle."""
    if max(lower_degrees(g), default=0) <= 1:
        assert is_forest(g)


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
