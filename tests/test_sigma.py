import gc
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given

import nearindep.sigma
from nearindep.graphs import (
    disjoint_union,
    graph_from_pair_mask,
    is_forest,
    make_graph,
    make_named,
)
from nearindep.limits import CapabilityError
from nearindep.sigma import (
    SigmaDistribution,
    SigmaPair,
    combine_union,
    q_ratio,
    sigma01,
    sigma01_recursive,
    sigma01_tree_dp,
    sigma_distribution_bruteforce,
    star_q,
)

from conftest import forests, graphs, random_graph


def all_labelled(n):
    npairs = n * (n - 1) // 2
    for m in range(1 << npairs):
        yield graph_from_pair_mask(n, m)


def test_distribution_examples():
    assert sigma_distribution_bruteforce(make_named("empty", 2)).counts == (4,)
    assert sigma_distribution_bruteforce(make_named("complete", 3)).counts == (4, 3, 0, 1)
    d = sigma_distribution_bruteforce(make_named("path", 4))
    assert d.counts[0] == 8 and d.counts[1] == 5
    assert sigma_distribution_bruteforce(make_named("empty", 0)).counts == (1,)


def test_distribution_invariants():
    with pytest.raises(ValueError):
        SigmaDistribution(2, (3,))
    d = sigma_distribution_bruteforce(make_named("path", 3))
    assert sum(d.counts) == 8 and d.pair() == SigmaPair(5, 2)


def test_distribution_cap():
    with pytest.raises(CapabilityError):
        sigma_distribution_bruteforce(make_named("empty", 26))


def test_recursive_examples():
    # P3 checked against the subset-sweep oracle first, then frozen
    p3 = make_named("path", 3)
    assert sigma_distribution_bruteforce(p3).pair() == SigmaPair(5, 2)
    assert sigma01_recursive(p3) == SigmaPair(5, 2)
    assert sigma01_recursive(make_named("star", 6)) == SigmaPair(33, 5)
    assert sigma01_recursive(make_named("path", 4)) == SigmaPair(8, 5)


def test_tree_dp_examples():
    assert sigma01_tree_dp(make_named("path", 2)) == SigmaPair(3, 1)
    assert sigma01_tree_dp(make_named("star", 10)) == SigmaPair(513, 9)
    with pytest.raises(ValueError):
        sigma01_tree_dp(make_named("complete", 3))


def test_tree_dp_matches_recursion_on_all_trees():
    from nearindep.generate import gen_trees

    for n in range(1, 11):
        for t in gen_trees(n):
            assert sigma01_tree_dp(t) == sigma01_recursive(t)


@given(forests(max_n=16))
def test_forest_scorers_agree(f):
    assert sigma01(f) == sigma01_tree_dp(f) == sigma01_recursive(f)


def test_tree_dp_rejects_a_cycle_in_a_later_component():
    p3 = make_named("path", 3)
    with pytest.raises(ValueError, match="acyclic"):
        sigma01_tree_dp(disjoint_union(p3, make_named("complete", 3)))
    # the cycle away from the BFS root, and an even cycle
    tail = make_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3)])
    for g in (tail, disjoint_union(p3, cycle(4)), disjoint_union(make_named("empty", 2), cycle(6))):
        with pytest.raises(ValueError, match="acyclic"):
            sigma01_tree_dp(g)


@given(graphs(max_n=9))
def test_tree_dp_accepts_exactly_the_forests(g):
    if is_forest(g):
        assert sigma01_tree_dp(g) == sigma01_recursive(g)
    else:
        with pytest.raises(ValueError, match="acyclic"):
            sigma01_tree_dp(g)


def test_combine_union():
    k2 = SigmaPair(3, 1)
    assert combine_union(k2, k2) == SigmaPair(9, 6)
    assert combine_union(SigmaPair(7, 4), SigmaPair(2, 0)) == SigmaPair(14, 8)
    acc = SigmaPair(1, 0)
    for t in range(1, 7):
        acc = combine_union(acc, k2)
        assert acc == SigmaPair(3**t, t * 3 ** (t - 1))


def test_sigma01_dispatch():
    g = disjoint_union(make_named("path", 2), make_named("empty", 3))
    assert sigma01(g) == SigmaPair(24, 8)
    assert sigma01(make_named("empty", 0)) == SigmaPair(1, 0)
    assert sigma01(make_named("path", 4)) == SigmaPair(8, 5)


def _refuse(*args, **kwargs):
    raise AssertionError("sigma01 took a route it must not take")


def test_sigma01_sends_a_graph_with_a_cycle_whole_to_the_recursion(monkeypatch):
    g = reduce(disjoint_union, [make_named("path", 3), make_named("complete", 3), make_named("empty", 1)])
    calls = []
    real = nearindep.sigma.sigma01_recursive
    monkeypatch.setattr(nearindep.sigma, "sigma01_recursive", lambda h: calls.append(h) or real(h))
    monkeypatch.setattr(nearindep.sigma, "sigma01_tree_dp", _refuse)
    monkeypatch.setattr(nearindep.sigma, "induced_subgraph", _refuse)
    # P3 (5, 2), K3 (4, 3) and K1 (2, 0) folded by the union rule
    assert sigma01(g) == SigmaPair(40, 46)
    assert len(calls) == 1 and calls[0] is g


def test_sigma01_sends_a_forest_to_the_tree_dp(monkeypatch):
    f = disjoint_union(make_named("star", 5), make_named("path", 4))
    calls = []
    real = nearindep.sigma.sigma01_tree_dp
    monkeypatch.setattr(nearindep.sigma, "sigma01_tree_dp", lambda h: calls.append(h) or real(h))
    monkeypatch.setattr(nearindep.sigma, "sigma01_recursive", _refuse)
    assert sigma01(f) == combine_union(SigmaPair(17, 4), SigmaPair(8, 5))
    assert len(calls) == 1 and calls[0] is f


def test_sigma01_equals_recursion_everywhere(rng):
    for _ in range(150):
        g = random_graph(rng.randint(0, 8), rng)
        assert sigma01(g) == sigma01_recursive(g)


def test_q_ratio():
    assert q_ratio(make_named("path", 4)) == Fraction(5, 8)
    assert q_ratio(make_named("matching_plus_isolated", 4, 2)) == Fraction(2, 3)
    for t in range(1, 8):
        for m in range(4):
            g = make_named("matching_plus_isolated", 2 * t + m, t)
            assert q_ratio(g) == Fraction(t, 3)


def test_star_q():
    assert [star_q(n) for n in (1, 2, 3, 4)] == [
        Fraction(0),
        Fraction(1, 3),
        Fraction(2, 5),
        Fraction(1, 3),
    ]
    with pytest.raises(ValueError):
        star_q(0)


def test_star_closed_forms():
    for n in range(1, 21):
        want = SigmaPair((1 << (n - 1)) + 1, n - 1)
        s = make_named("star", n)
        assert sigma01_tree_dp(s) == want
        assert sigma01_recursive(s) == want


def test_oracle_equivalence_exhaustive_small():
    for n in range(6):
        for g in all_labelled(n):
            assert sigma_distribution_bruteforce(g).pair() == sigma01_recursive(g)


def test_pivot_independence(rng):
    for _ in range(60):
        g = random_graph(rng.randint(0, 8), rng)
        reference = sigma01_recursive(g)
        r = random.Random(rng.getrandbits(32))
        assert sigma01_recursive(g, pivot_rng=r) == reference


def test_edge_removal_can_raise_q():
    p4 = make_named("path", 4)
    cut = make_graph(4, [(0, 1), (2, 3)])
    assert q_ratio(p4) == Fraction(5, 8) < Fraction(2, 3) == q_ratio(cut)


def test_sigma_pair_validation():
    with pytest.raises(ValueError):
        SigmaPair(0, 0)
    with pytest.raises(ValueError):
        SigmaPair(1, -1)


def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def lucas(n):
    return fibonacci(n - 1) + fibonacci(n + 1)


def cycle(n):
    return make_graph(n, [(v, (v + 1) % n) for v in range(n)])


# Closed forms: sigma0(P_n) = F_{n+2} and sigma0(C_n) = L_n (Prodinger and
# Tichy, Fibonacci Quart. 20, 1982); sigma1(P_n) = (n L_n - F_n) / 5, the
# Fibonacci self-convolution (OEIS A001629), and sigma1(C_n) = n F_{n-2}.
# test_closed_forms_small checks all four against the subset sweep.
def path_pair(n):
    return SigmaPair(fibonacci(n + 2), (n * lucas(n) - fibonacci(n)) // 5)


def cycle_pair(n):
    return SigmaPair(lucas(n), n * fibonacci(n - 2))


def test_closed_forms_small():
    for n in range(1, 12):
        assert sigma_distribution_bruteforce(make_named("path", n)).pair() == path_pair(n)
    for n in range(3, 12):
        assert sigma_distribution_bruteforce(cycle(n)).pair() == cycle_pair(n)


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_cycle_closed_form_at_order_64(seed):
    rng = None if seed is None else random.Random(seed)
    assert sigma01_recursive(cycle(64), pivot_rng=rng) == SigmaPair(lucas(64), 64 * fibonacci(62))


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_path_closed_form_at_order_64(seed):
    rng = None if seed is None else random.Random(seed)
    p64 = make_named("path", 64)
    got = sigma01_recursive(p64, pivot_rng=rng)
    assert got.sigma0 == fibonacci(66)
    assert got == sigma01_tree_dp(p64) == path_pair(64)


@pytest.mark.parametrize("seed", [None, 7])
def test_union_of_cycles_paths_and_isolated_vertices(seed):
    parts = [(cycle(5), cycle_pair(5)), (make_named("path", 9), path_pair(9)),
             (make_named("empty", 3), SigmaPair(8, 0)), (cycle(20), cycle_pair(20)),
             (make_named("path", 1), path_pair(1)), (make_named("path", 26), path_pair(26))]
    g = reduce(disjoint_union, [graph for graph, _ in parts])
    assert g.n == 64
    want = reduce(combine_union, [pair for _, pair in parts])
    rng = None if seed is None else random.Random(seed)
    assert sigma01_recursive(g, pivot_rng=rng) == want
    assert sigma01(g) == want


def test_recursion_leaves_no_cyclic_garbage():
    g = make_graph(12, [(v, (v + 1) % 12) for v in range(12)] + [(0, 6), (3, 9), (1, 4)])
    gc.collect()
    gc.disable()
    try:
        sigma01_recursive(g)
        sigma01_recursive(g, pivot_rng=random.Random(5))
        sigma01(disjoint_union(g, make_named("path", 4)))
        assert gc.collect() == 0
    finally:
        gc.enable()
