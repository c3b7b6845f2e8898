"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every comparison is
exact (integers and rationals); the stated wall-clock budgets for the
heavy exhaustive scans are asserted too.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from nearindep.generate import (
    ClassSpec,
    gen_class,
    gen_trees,
)
from nearindep.graph6 import emit_graph6, parse_graph6
from nearindep.graphs import (
    canonical_code,
    make_graph,
    make_named,
)
from nearindep.sigma import (
    SigmaPair,
    q_ratio,
    sigma01,
    sigma01_recursive,
    sigma01_tree_dp,
    sigma_distribution_bruteforce,
    star_q,
)
from nearindep.verify import is_star_graph, run_theorem

from conftest import random_graph
from oracles import (
    combine_union,
    disjoint_union,
    forest_certificate,
    graph_from_pair_mask,
    labelled_connected_count,
    prufer_tree_certs,
    random_pivots,
    relabel,
    strip_isolated,
)


@contextmanager
def criterion(num: int, label: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:>2} {label}: FAIL "
              f"({time.perf_counter() - t0:.1f}s)")
        raise
    elapsed = time.perf_counter() - t0
    assert budget is None or elapsed < budget, f"criterion {num} took {elapsed:.1f}s"
    print(f"[acceptance] criterion {num:>2} {label}: PASS ({elapsed:.1f}s)")


def test_criterion_1_reference_values():
    with criterion(1, "reference values reproduced exactly"):
        p4 = make_named("path", 4)
        two_k2 = make_named("matching_plus_isolated", 4, 2)
        assert q_ratio(p4) == Fraction(5, 8)
        assert q_ratio(two_k2) == Fraction(6, 9) == Fraction(2, 3)
        assert q_ratio(p4) < q_ratio(two_k2)

        for n in range(1, 21):
            star = make_named("star", n)
            want = SigmaPair((1 << (n - 1)) + 1, n - 1)
            assert sigma01_tree_dp(star) == want
            assert sigma01_recursive(star) == want
            assert sigma_distribution_bruteforce(star).pair() == want

        for t in range(1, 11):
            for m in range(6):
                g = make_named("matching_plus_isolated", 2 * t + m, t)
                assert q_ratio(g) == Fraction(t, 3)

        assert star_q(1) == 0
        assert star_q(2) == Fraction(1, 3)
        assert star_q(3) == Fraction(2, 5)
        assert star_q(4) == Fraction(1, 3)


def test_criterion_2_cross_algorithm_equivalence():
    with criterion(2, "brute force = recursion = tree DP", budget=120):
        for n in range(7):
            npairs = n * (n - 1) // 2
            for mask in range(1 << npairs):
                g = graph_from_pair_mask(n, mask)
                assert sigma_distribution_bruteforce(g).pair() == sigma01_recursive(g)

        for n in range(1, 15):
            for t in gen_trees(n):
                assert sigma01_tree_dp(t) == sigma01_recursive(t)

        rng = random.Random(2025)
        for _ in range(500):
            g = random_graph(rng.randint(7, 12), rng)
            assert sigma_distribution_bruteforce(g).pair() == sigma01_recursive(g)


def test_criterion_3_connected_lower_bound():
    with criterion(3, "connected graphs n<=8: Q >= star bound, equality at star",
                   budget=300):
        reports = run_theorem("3.2", 8)
        assert [r.spec.n for r in reports] == list(range(1, 9))
        for report in reports:
            assert report.passed, report.violations[:3]
            assert len(report.equality_witnesses) == 1
            assert is_star_graph(parse_graph6(report.equality_witnesses[0]))


def test_criterion_4_general_lower_bound():
    with criterion(4, "all graphs 4<=n<=7: zero iff edgeless, else Q >= star bound",
                   budget=120):
        reports = run_theorem("3.5", 7)
        assert [r.spec.n for r in reports] == list(range(4, 8))
        for report in reports:
            assert report.passed, report.violations[:3]
            assert report.min_witness[1] == 0
            assert parse_graph6(report.min_witness[0]).edge_count() == 0
            assert report.notes["second_smallest"] >= star_q(report.spec.n)


def test_criterion_5_max_degree_lower_bound():
    with criterion(5, "graphs n<=7 by exact max degree: Q >= min(1/3, star bound)"):
        anomalies = 0
        reports = run_theorem("3.6", 7)
        assert [(r.spec.n, r.spec.delta) for r in reports] == [(n, d) for n in range(2, 8) for d in range(1, n)]
        for report in reports:
            n, delta = report.spec.n, report.spec.delta
            assert report.passed, (n, delta, report.violations[:3])
            if delta == 2:
                assert not report.notes["bound_attained"]
                anomalies += 1
            else:
                witnesses = [parse_graph6(w) for w in report.equality_witnesses]
                assert len(witnesses) == 1
                core = strip_isolated(witnesses[0])
                assert core.n == delta + 1 and is_star_graph(core)
        assert anomalies == 5  # delta = 2 exists for every n in 3..7


def test_criterion_6_forest_upper_bounds():
    with criterion(6, "forests n<=14 and trees n<=16: both upper bounds", budget=300):
        for theorem, tight in (("4.1", (1, 2)), ("4.5", (2,))):
            reports = run_theorem(theorem, 16)
            assert [(r.spec.family, r.spec.n) for r in reports] == (
                [("forests", n) for n in range(1, 15)] + [("trees", n) for n in range(1, 17)]
            )
            for report in reports:
                assert report.passed, (report.spec, report.theorem_id, report.violations[:3])
                if report.spec.family == "forests" and report.spec.n in tight:
                    assert report.equality_witnesses  # P1 and P2 are tight for 4.1, P2 for 4.5


def test_criterion_7_leaf_lemmas():
    with criterion(7, "per-leaf ratio bound and identities on all trees n<=16"):
        leaves = all_trees = 0
        reports = run_theorem("4.2", 16)
        assert [r.spec.n for r in reports] == list(range(2, 17))
        for report in reports:
            n = report.spec.n
            assert report.passed, (n, report.violations[:3])
            trees = sum(1 for _ in gen_trees(n))
            assert report.checked >= 2 * trees  # every tree has >= 2 leaves
            leaves, all_trees = leaves + report.checked, all_trees + trees
        assert (leaves, all_trees) == (244_692, 32_507)


def test_criterion_8_randomized_property_suites():
    with criterion(8, "randomized property suites, 200 instances each"):
        rng = random.Random(424242)

        for _ in range(200):  # Q additivity and bilinear union counts
            g = random_graph(rng.randint(0, 8), rng)
            h = random_graph(rng.randint(0, 8), rng)
            u = disjoint_union(g, h)
            assert q_ratio(u) == q_ratio(g) + q_ratio(h)
            assert combine_union(sigma01(g), sigma01(h)) == sigma01(u)

        for _ in range(200):  # isolated vertices never change Q
            g = random_graph(rng.randint(0, 9), rng)
            assert q_ratio(disjoint_union(g, make_named("empty", 1))) == q_ratio(g)

        for _ in range(200):  # recursion result is pivot independent
            g = random_graph(rng.randint(0, 8), rng)
            with random_pivots(random.Random(rng.getrandbits(32))):
                got = sigma01_recursive(g)
            assert got == sigma01_recursive(g)

        for _ in range(200):  # subset sweep covers all 2^n subsets
            g = random_graph(rng.randint(0, 10), rng)
            assert sum(sigma_distribution_bruteforce(g).counts) == 1 << g.n

        for _ in range(200):  # canonical code is permutation invariant
            g = random_graph(rng.randint(1, 7), rng)
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_code(relabel(g, perm)) == canonical_code(g)


def test_criterion_9_enumeration_counts():
    with criterion(9, "tree and connected-graph class counts vs oracles"):
        tree_counts = [sum(1 for _ in gen_trees(n)) for n in range(1, 11)]
        assert tree_counts == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
        for n in range(1, 9):
            got = frozenset(forest_certificate(t) for t in gen_trees(n))
            assert got == prufer_tree_certs(n)

        connected = [sum(1 for _ in gen_class(ClassSpec("connected_graphs", n))) for n in range(1, 7)]
        assert connected == [1, 1, 2, 6, 21, 112]
        for n in range(1, 7):
            assert connected[n - 1] == labelled_connected_count(n)


def test_criterion_10_graph6_codec():
    with criterion(10, "graph6 codec round-trips byte-identically"):
        rng = random.Random(606060)
        for _ in range(500):
            g = random_graph(rng.randint(0, 12), rng)
            line = emit_graph6(g)
            assert parse_graph6(line) == g
            assert emit_graph6(parse_graph6(line)) == line

        assert parse_graph6("A?") == make_named("empty", 2)
        assert parse_graph6("A_") == make_graph(2, [(0, 1)])
        k3 = parse_graph6("Bw")
        assert k3.n == 3 and k3.edge_count() == 3
        assert emit_graph6(k3) == "Bw"
