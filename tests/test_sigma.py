import random
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, strategies as st

import nearindep.sigma
from nearindep.graphs import bits, make_graph, make_named
from nearindep.limits import CapabilityError
from nearindep.sigma import (
    SigmaDistribution,
    SigmaPair,
    q_ratio,
    sigma01,
    sigma01_recursive,
    sigma01_tree_dp,
    sigma_distribution_bruteforce,
    star_q,
)

from conftest import forests, graphs, no_cyclic_garbage, random_graph
from oracles import (
    combine_union,
    disjoint_union,
    fold_free_recursion,
    in_label_order,
    induced,
    is_forest,
    lower_degrees,
    prufer_decode,
    random_pivots,
    relabel,
    shuffled,
)


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


def test_tree_dp_examples():
    assert sigma01_tree_dp(make_named("path", 2)) == SigmaPair(3, 1)
    assert sigma01_tree_dp(make_named("star", 10)) == SigmaPair(513, 9)
    with pytest.raises(ValueError):
        sigma01_tree_dp(make_named("complete", 3))


@given(forests(max_n=16), st.randoms(use_true_random=False))
def test_forest_scorers_agree(f, rnd):
    """``forests`` draws each parent below its child, so ``f`` is folded in
    label order; a shuffled copy goes to the DP relabelled into label
    order, and as it is to ``sigma01`` and the recursion, which folds its
    trees with the DP's ``_graft`` unless it runs fold-free."""
    h = shuffled(f, rnd)
    assert sigma01(f) == sigma01_tree_dp(f) == sigma01_recursive(f) == fold_free_recursion(f)
    assert sigma01(h) == sigma01_tree_dp(in_label_order(h)) == sigma01_recursive(h) == sigma01(f)
    assert fold_free_recursion(h) == sigma01(f)


def test_tree_dp_rejects_a_cycle_in_a_later_component():
    p3 = make_named("path", 3)
    with pytest.raises(ValueError, match="acyclic"):
        sigma01_tree_dp(disjoint_union(p3, make_named("complete", 3)))
    # the cycle away from vertex 0, and an even cycle
    tail = make_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3)])
    for g in (tail, disjoint_union(p3, cycle(4)), disjoint_union(make_named("empty", 2), cycle(6))):
        with pytest.raises(ValueError, match="acyclic"):
            sigma01_tree_dp(g)


@given(graphs(max_n=9))
def test_tree_dp_accepts_exactly_the_forests(g):
    """The DP accepts exactly the graphs in label order (no vertex with two
    lower neighbours), counts every forest relabelled into label order, and
    rejects a cycle in any labelling; the recursion it is checked against
    runs fold-free, so shares no ``_graft`` with it."""
    if max(lower_degrees(g), default=0) <= 1:
        assert sigma01_tree_dp(g) == fold_free_recursion(g)
    else:
        with pytest.raises(ValueError, match="label order"):
            sigma01_tree_dp(g)
    if is_forest(g):
        assert sigma01_tree_dp(in_label_order(g)) == fold_free_recursion(g)
    else:
        with pytest.raises(ValueError, match="acyclic"):
            sigma01_tree_dp(g)


@given(graphs(max_n=10), st.data(), st.randoms(use_true_random=False))
def test_plus_vertex_matches_the_sweep_of_each_child(g, data, rnd):
    """``_plus_vertex`` extends the pair of a parent g to g plus a vertex
    joined to s, for several s with one pair of memos; each child's pair
    is its subset sweep, which shares no code with the recursion, here
    run with random pivots."""
    subsets = data.draw(st.lists(st.integers(0, g.full_mask), max_size=4))
    parent = sigma_distribution_bruteforce(g).pair()
    with random_pivots(rnd):
        plus = nearindep.sigma._plus_vertex(g, parent)
        got = [plus(s) for s in subsets]
    children = [make_graph(g.n + 1, g.edges() + [(u, g.n) for u in bits(s)]) for s in subsets]
    assert got == [sigma_distribution_bruteforce(h).pair() for h in children]


def test_combine_union():
    k2 = SigmaPair(3, 1)
    assert combine_union(k2, k2) == SigmaPair(9, 6)
    assert combine_union(SigmaPair(7, 4), SigmaPair(2, 0)) == SigmaPair(14, 8)
    acc = SigmaPair(1, 0)
    for t in range(1, 7):
        acc = combine_union(acc, k2)
        assert acc == SigmaPair(3**t, t * 3 ** (t - 1))


def _sweep(g):
    return sigma_distribution_bruteforce(g).pair()


@pytest.mark.parametrize("g, want, oracle", [
    # P3 (5, 2), K3 (4, 3) and K1 (2, 0) folded by the union rule
    (reduce(disjoint_union, [make_named("path", 3), make_named("complete", 3), make_named("empty", 1)]),
     (40, 46), _sweep),
    (disjoint_union(make_named("star", 5), make_named("path", 4)), (136, 117), _sweep),  # K1,4 (17, 4), P4 (8, 5)
    (reduce(disjoint_union, [make_named("star", 5), make_named("path", 4), make_named("empty", 3)]),
     (1088, 936), _sweep),
    (shuffled(make_named("path", 40), random.Random(0)), (267914296, 1810142185),  # F(42) and sigma1 of P40
     lambda g: path_pair(g.n)),
], ids=["P3+K3+K1", "star5+P4", "star5+P4+3K1", "shuffled-P40"])
def test_sigma01_on_unions_and_a_shuffled_path(g, want, oracle):
    assert sigma01(g) == want == oracle(g)


def test_sigma01_sends_a_tree_off_label_order_to_the_recursion(spy):
    """``sigma01`` is the recursion, looked up as the module-level
    ``sigma01_recursive`` at each call, so a rebinding there (a tracer's
    span) sees every count; a tree the DP would refuse is counted too."""
    t = relabel(make_named("star", 6), [5, 4, 3, 2, 1, 0])  # the centre has five lower neighbours
    calls = spy(nearindep.sigma, "sigma01_recursive")
    assert sigma01(t) == SigmaPair(33, 5)
    assert len(calls) == 1 and calls[0][0][0] is t


def test_star_q():
    assert [star_q(n) for n in (1, 2, 3, 4)] == [
        Fraction(0),
        Fraction(1, 3),
        Fraction(2, 5),
        Fraction(1, 3),
    ]
    with pytest.raises(ValueError):
        star_q(0)


class AskingRandom(random.Random):
    """A seeded rng for ``random_pivots`` that notes in ``askers``, at each
    pivot, which function of ``nearindep.sigma`` asked the random rule."""

    def __init__(self, seed):
        super().__init__(seed)
        self.askers = []

    def randrange(self, *args):
        frame = sys._getframe(1)
        while frame.f_globals["__name__"] != "nearindep.sigma":
            frame = frame.f_back
        self.askers.append(frame.f_code.co_name)
        return super().randrange(*args)


@contextmanager
def pivots(seed):
    """The real pivot rule for seed None, else random pivots drawn from
    AskingRandom(seed); yields the functions that asked the random rule."""
    if seed is None:
        yield []
        return
    r = AskingRandom(seed)
    with random_pivots(r):
        yield r.askers


@pytest.fixture
def solve0_calls(monkeypatch):
    """The mask of every call into the sigma0-only side recursion.  A call
    that ``_solve`` makes for a neighbour term must be on the part of a
    component of the far side that N(u) meets, so a proper part of a
    component in the pair memo: a term where N(u) misses the component
    reads its sigma0 from the memo instead.  Where N(u) meets the
    component C at one vertex x, the call asks for C - N[x] exactly, as
    sigma0(C - x) is sigma0(C) less that count."""
    seen = []
    real = nearindep.sigma._solve0

    def spy(mask, adj, memo, memo0):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_solve":
            assert any(mask & comp == mask != comp for comp in memo), f"a term on {mask:#x}, which N(u) misses"
            comp = caller.f_locals["comp"]
            if not (meet := comp & caller.f_locals["near"]) & (meet - 1):
                x = meet.bit_length() - 1
                assert mask == comp & ~(adj[x] | 1 << x), f"a term on {mask:#x}, not {comp:#x} less N[{x}]"
        seen.append(mask)
        return real(mask, adj, memo, memo0)

    monkeypatch.setattr(nearindep.sigma, "_solve0", spy)
    return seen


@pytest.fixture
def tree_pair_calls(spy):
    """Every fold of a tree component by the recursion."""
    return spy(nearindep.sigma, "_tree_pair")


def folded(calls) -> list[int]:
    """The mask of each tree component in ``tree_pair_calls``."""
    return [comp for (comp, _), _ in calls]


def test_pivot_independence(rng, solve0_calls):
    for _ in range(60):
        g = random_graph(rng.randint(0, 8), rng)
        reference = sigma01_recursive(g)
        r = AskingRandom(rng.getrandbits(32))
        with random_pivots(r):
            assert sigma01_recursive(g) == reference
        assert bool(r.askers) == (g.edge_count() > 0)
    assert solve0_calls


def test_the_pivot_rule_counts_degree_inside_the_mask():
    # vertex 0 has degree 5 in the graph and 3 has degree 3, but the mask
    # 0..4 leaves 0 only the neighbour 1; 2-3-4 is a triangle
    g = make_graph(9, [(0, 1), (0, 5), (0, 6), (0, 7), (0, 8), (3, 1), (3, 2), (3, 4), (2, 4)])
    assert nearindep.sigma._pivot_vertex(0b11111, g.adj) == 3


def test_the_pivot_rule_breaks_ties_to_the_smallest_index():
    # the path 0..5 plus the chords 3-5 and 2-4
    g = make_graph(6, [(v, v + 1) for v in range(5)] + [(3, 5), (2, 4)])
    assert nearindep.sigma._pivot_vertex(0b111100, g.adj) == 3  # on 2..5: 3 and 4 tie
    assert nearindep.sigma._pivot_vertex(0b111110, g.adj) == 2  # on 1..5: 2, 3 and 4 tie


def test_the_pivot_rule_picks_the_hub_of_a_star_in_the_mask():
    # the star centred at 4 on 1..4 with the edge 1-2 closing a triangle,
    # plus the edges 0-1 and 1-5 outside the mask: 1 has degree 4 in the
    # graph, the hub 3
    g = make_graph(6, [(0, 1), (1, 5), (4, 1), (4, 2), (4, 3), (1, 2), (5, 0)])
    assert nearindep.sigma._pivot_vertex(0b011110, g.adj) == 4


def test_the_pivot_rule_returns_none_on_a_tree():
    """A connected mask whose degrees sum to 2(|mask| - 1) is a tree, which
    the recursion folds instead of pivoting on it."""
    g = make_graph(9, [(0, 1), (0, 5), (0, 6), (0, 7), (0, 8), (3, 1), (3, 2), (3, 4)])
    assert nearindep.sigma._pivot_vertex(0b11111, g.adj) is None  # 0-1 and the star at 3
    assert nearindep.sigma._pivot_vertex(g.full_mask, g.adj) is None
    star = make_graph(6, [(0, 1), (4, 1), (4, 2), (4, 3), (5, 0)])
    assert nearindep.sigma._pivot_vertex(0b011110, star.adj) is None
    assert nearindep.sigma._pivot_vertex(0b11, make_named("complete", 2).adj) is None
    assert nearindep.sigma._pivot_vertex(0b111, make_named("complete", 3).adj) == 0


def test_edge_removal_can_raise_q():
    p4 = make_named("path", 4)
    cut = make_graph(4, [(0, 1), (2, 3)])
    assert q_ratio(p4) == Fraction(5, 8) < Fraction(2, 3) == q_ratio(cut)


def test_sigma_pair_validation():
    with pytest.raises(ValueError):
        SigmaPair(0, 0)
    with pytest.raises(ValueError):
        SigmaPair(1, -1)
    with pytest.raises(ValueError, match="counts must be ints"):
        SigmaPair(1.5, 0)
    with pytest.raises(ValueError, match="counts must be ints"):
        SigmaPair(1, Fraction(1))
    with pytest.raises(ValueError, match="must be ints"):
        SigmaDistribution(1, (1.5, 0.5))
    with pytest.raises(ValueError, match="must be ints"):
        SigmaDistribution(1.0, (2,))


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
def test_cycle_closed_form_at_order_64(seed, solve0_calls):
    with pivots(seed) as askers:
        assert sigma01_recursive(cycle(64)) == SigmaPair(lucas(64), 64 * fibonacci(62))
    assert solve0_calls
    assert set(askers) == (set() if seed is None else {"_solve", "_solve0"})


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_path_closed_form_at_order_64(seed, solve0_calls, tree_pair_calls):
    p64 = make_named("path", 64)
    with pivots(seed) as askers:
        got = sigma01_recursive(p64)
    if seed is None:  # one fold of the whole path
        assert folded(tree_pair_calls) == [p64.full_mask]
    else:
        assert solve0_calls and not tree_pair_calls
    assert set(askers) == (set() if seed is None else {"_solve", "_solve0"})
    assert got.sigma0 == fibonacci(66)
    assert got == sigma01_tree_dp(p64) == path_pair(64)


@pytest.mark.parametrize("seed", [None, 7])
def test_union_of_cycles_paths_and_isolated_vertices(seed, solve0_calls):
    parts = [(cycle(5), cycle_pair(5)), (make_named("path", 9), path_pair(9)),
             (make_named("empty", 3), SigmaPair(8, 0)), (cycle(20), cycle_pair(20)),
             (make_named("path", 1), path_pair(1)), (make_named("path", 26), path_pair(26))]
    g = reduce(disjoint_union, [graph for graph, _ in parts])
    assert g.n == 64
    want = reduce(combine_union, [pair for _, pair in parts])
    with pivots(seed) as askers:
        assert sigma01_recursive(g) == want
    assert solve0_calls
    assert set(askers) == (set() if seed is None else {"_solve", "_solve0"})
    assert sigma01(g) == want


def grid(k):
    return make_graph(k * k, [(v, v + 1) for v in range(k * k) if v % k < k - 1]
                      + [(v, v + k) for v in range(k * k - k)])


def grid_transfer_matrix(k):
    """(sigma0, sigma1) of the k x k grid, row by row: a state is the
    subset chosen in the last row and the edges induced so far (0 or 1);
    rows inducing two or more edges are never states."""
    rows = {s: (s & s >> 1).bit_count() for s in range(1 << k) if (s & s >> 1).bit_count() <= 1}
    states = Counter({(s, e): 1 for s, e in rows.items()})
    for _ in range(k - 1):
        nxt = Counter()
        for (a, e), c in states.items():
            for b, inner in rows.items():
                total = e + inner + (a & b).bit_count()
                if total <= 1:
                    nxt[b, total] += c
        states = nxt
    return SigmaPair(*(sum(c for (_, e), c in states.items() if e == want) for want in (0, 1)))


def test_grid_transfer_matrix_matches_the_subset_sweep():
    for k in range(1, 5):
        assert grid_transfer_matrix(k) == sigma_distribution_bruteforce(grid(k)).pair()


GRID_COUNTS = {
    6: SigmaPair(5_598_861, 29_134_076),
    7: SigmaPair(1_280_128_950, 9_039_552_112),
    8: SigmaPair(660_647_962_955, 6_084_192_150_856),
}


@pytest.mark.parametrize("k, seed", [(6, None), (6, 1), (6, 2), (7, None), (7, 1), (7, 2), (8, None)])
def test_grid_counts_match_the_transfer_matrix(k, seed):
    assert grid_transfer_matrix(k) == GRID_COUNTS[k]
    with pivots(seed):
        assert sigma01_recursive(grid(k)) == GRID_COUNTS[k]


def test_folded_trees_match_the_fold_free_recursion(rng, tree_pair_calls):
    """Beyond the subset sweep's cap: a random Pruefer tree on 30-64
    vertices plus 1-4 extra edges reaches the fold deep inside the
    recursion, on tree masks outside label order, and counts as the
    recursion under random pivots, which never folds."""
    off_order = 0
    for _ in range(8):
        n = rng.randint(30, 64)
        t = prufer_decode(n, tuple(rng.randrange(n) for _ in range(n - 2)))
        chords = rng.sample([(u, v) for v in range(n) for u in range(v) if not t.adj[v] >> u & 1],
                            rng.randint(1, 4))
        g = make_graph(n, t.edges() + chords)
        del tree_pair_calls[:]
        want = sigma01_recursive(g)
        comps = folded(tree_pair_calls)
        assert comps and g.full_mask not in comps
        off_order += any(max(lower_degrees(induced(g, comp))) > 1 for comp in comps)
        with random_pivots(random.Random(rng.getrandbits(32))):
            assert sigma01_recursive(g) == want
        assert len(tree_pair_calls) == len(comps)
    assert off_order


def readme_gnm(n, m, seed):
    """The README's random G(n, m): m pairs sampled in graph6 column order."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return make_graph(n, random.Random(seed).sample(pairs, m))


def test_split_calls_are_pinned(spy):
    """The work of one recursion call, free of timing noise: every tree
    component is folded whole, so it is never split again, and each far
    side of a pivot is split once for all its neighbour terms.  The calls of
    ``_solve``, ``_solve0`` and ``_tree_pair`` are pinned too, so a wrong
    N[v] or N[u] mask shows up by name."""
    calls = {name: spy(nearindep.sigma, name) for name in ("split_components", "_solve", "_solve0", "_tree_pair")}
    for g, splits, solve, solve0, folds in ((grid(6), 1683, 405, 1399, 274),
                                            (readme_gnm(64, 96, 1), 5056, 891, 4419, 1364),
                                            (grid(7), 9886, 1891, 8413, 868)):
        for log in calls.values():
            log.clear()
        sigma01_recursive(g)
        assert len(calls["split_components"]) == splits
        assert (len(calls["_solve"]), len(calls["_solve0"]), len(calls["_tree_pair"])) == (solve, solve0, folds)


def test_recursion_leaves_no_cyclic_garbage(solve0_calls):
    g = make_graph(12, [(v, (v + 1) % 12) for v in range(12)] + [(0, 6), (3, 9), (1, 4)])
    r = AskingRandom(5)
    with no_cyclic_garbage():
        sigma01_recursive(g)
        default_calls = len(solve0_calls)
        with random_pivots(r):
            sigma01_recursive(g)
        sigma01(disjoint_union(g, make_named("path", 4)))
    assert 0 < default_calls < len(solve0_calls)
    assert set(r.askers) == {"_solve", "_solve0"}
