import gc
import hashlib
import json
from collections import Counter
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, strategies as st

import nearindep.sigma as sigma_module
import nearindep.verify as verify_module
from nearindep.generate import ClassSpec, gen_trees
from nearindep.graph6 import emit_graph6, parse_graph6
from nearindep.graphs import make_graph, make_named, max_degree
from nearindep.limits import CapabilityError
from nearindep.sigma import leaf_deletion_counts, q_ratio, sigma01
from nearindep.verify import (
    Check,
    _verify,
    extremal_scan,
    is_star_graph,
    is_star_plus_isolated,
    leaf_lemma_failures,
    run_theorem,
    verify_forest_upper,
)

import oracles
from oracles import closed_neighborhood, is_forest, strip_isolated


def test_connected_lower_small():
    r = _verify("3.2", 4)
    assert r.checked == 6 and r.passed
    assert len(r.equality_witnesses) == 1
    assert is_star_graph(parse_graph6(r.equality_witnesses[0]))
    r1 = _verify("3.2", 1)
    assert r1.checked == 1 and r1.passed and len(r1.equality_witnesses) == 1


def test_connected_lower_n7():
    r = _verify("3.2", 7)
    assert r.checked == 853 and r.passed
    assert [parse_graph6(w).n for w in r.equality_witnesses] == [7]


def test_general_lower_n4():
    r = _verify("3.1", 4)
    assert r.passed and r.checked == 11
    assert r.min_witness is not None and r.min_witness[1] == 0
    assert parse_graph6(r.min_witness[0]).edge_count() == 0
    assert r.notes["second_smallest"] == Fraction(1, 3)
    witnesses = [parse_graph6(w) for w in r.notes["second_smallest_witnesses"]]
    shapes = sorted((strip_isolated(g).n, is_star_graph(strip_isolated(g))) for g in witnesses)
    assert shapes == [(2, True), (4, True)]  # one edge plus isolates, and the star


def test_general_lower_n5():
    r = _verify("3.1", 5)
    assert r.checked == 34 and r.passed
    assert r.notes["bound"] == Fraction(4, 17)


def test_max_degree_one():
    for n in (2, 4, 6):
        r = _verify("3.6", n, 1)
        assert r.theorem_id == "prop-3.4" and r.passed
        assert r.notes["bound"] == Fraction(1, 3)
        core = strip_isolated(parse_graph6(r.equality_witnesses[0]))
        assert core.n == 2 and core.edge_count() == 1
        assert len(r.equality_witnesses) == 1


def test_max_degree_three():
    r = _verify("3.6", 5, 3)
    assert r.passed and r.notes["bound"] == Fraction(1, 3)
    core = strip_isolated(parse_graph6(r.equality_witnesses[0]))
    assert core.n == 4 and is_star_graph(core)


def test_max_degree_two_anomaly():
    r = _verify("3.6", 4, 2)
    assert r.passed  # the bound itself holds
    assert not r.notes["bound_attained"]
    assert r.min_witness[1] == Fraction(2, 5)
    assert "anomaly" in r.notes
    core = strip_isolated(parse_graph6(r.min_witness[0]))
    assert core.n == 3 and is_star_graph(core)  # the 3-path plus an isolate


def test_star_plus_isolated_matches_networkx():
    """The edge-count rule against isomorphism with the star on k vertices,
    once the isolated vertices are stripped, for every graph of the atlas
    (orders up to 7) and k = 2..n."""
    stars = 0
    for h in nx.graph_atlas_g():
        index = {v: i for i, v in enumerate(h)}
        g = make_graph(len(index), [(index[u], index[v]) for u, v in h.edges])
        core = nx.Graph(list(strip_isolated(g).edges()))
        for k in range(2, g.n + 1):
            star = nx.is_isomorphic(core, nx.star_graph(k - 1))
            assert is_star_plus_isolated(g, k) == star, (emit_graph6(g), k)
            stars += star
    assert stars == sum(range(1, 7))  # the star on k vertices fits n = k..7


def test_max_degree_validation():
    with pytest.raises(ValueError):
        _verify("3.6", 4, 0)
    with pytest.raises(ValueError):
        _verify("3.6", 4, 4)
    with pytest.raises(CapabilityError):
        _verify("3.6", 8, 1)
    with pytest.raises(ValueError):
        _verify("3.4", 5, 2)  # 3.4 is maximum degree 1 only


def test_tree_lower():
    r = _verify("3.3", 5)
    assert r.passed and r.min_witness[1] == Fraction(4, 17)
    assert len(r.equality_witnesses) == 1
    assert is_star_graph(parse_graph6(r.equality_witnesses[0]))


def test_forest_upper_small_orders():
    r1 = _verify("4.1", 1)
    assert r1.passed and r1.equality_witnesses  # the single vertex is tight
    r2 = _verify("4.1", 2)
    assert r2.passed
    tight = [parse_graph6(w) for w in r2.equality_witnesses]
    assert any(g.edge_count() == 1 for g in tight)
    r45 = _verify("4.5", 2)
    assert r45.passed and r45.notes["bound"] == Fraction(1, 3) and r45.equality_witnesses


def test_forest_upper_n6():
    r = _verify("4.1", 6)
    assert r.checked == 20 and r.passed
    assert r.max_witness[1] == Fraction(1)  # three disjoint edges
    g = parse_graph6(r.max_witness[0])
    assert g.edge_count() == 3 and is_forest(g)
    r45 = _verify("4.5", 6, series=1)
    assert r45.checked == 6 and r45.passed


def test_forest_upper_validation():
    with pytest.raises(ValueError):
        verify_forest_upper(4, "thm99")
    with pytest.raises(ValueError):
        verify_forest_upper(4, "thm41", universe="graphs")


def test_leaf_lemmas_small():
    r = _verify("4.2", 2)
    assert r.passed and r.checked == 2  # both ends of the single edge
    assert all(r.passed for r in run_theorem("4.2", 8))


def test_leaf_lemma_identity_examples():
    # both deletions of the single edge leave nothing: 3 = 2*1 + 1
    p2 = make_named("path", 2)
    assert sigma01(p2).sigma0 == 3 == 2 * 1 + 1

    # endpoint of the 3-path: the deletion ratio is tight, 2/3 = 1 - 1/(2+1)
    p3 = make_named("path", 3)
    minus_v = oracles.induced(p3, p3.full_mask & ~1)
    minus_nv = oracles.induced(p3, p3.full_mask & ~closed_neighborhood(p3, 0))
    ratio = Fraction(sigma01(minus_nv).sigma0, sigma01(minus_v).sigma0)
    assert ratio == Fraction(2, 3) == 1 - Fraction(1, (1 << 1) + 1)

    # sigma0(S5) = 17 = 2 * sigma0(empty 3) + sigma0(empty 0) = 2*8 + 1
    s5 = make_named("star", 5)
    assert sigma01(s5).sigma0 == 17
    r = _verify("4.2", 5)
    assert r.passed


def test_extremal_scan_examples():
    r = extremal_scan(ClassSpec("trees", 5))
    assert r.min_witness[1] == Fraction(4, 17)
    assert is_star_graph(parse_graph6(r.min_witness[0]))

    r = extremal_scan(ClassSpec("connected_graphs", 4))
    top = parse_graph6(r.max_witness[0])
    assert top.edge_count() == 6  # the complete graph

    r = extremal_scan(ClassSpec("forests", 4))
    assert r.max_witness[1] == Fraction(2, 3)
    assert parse_graph6(r.max_witness[0]).edge_count() == 2


def test_check_rejects_an_unknown_comparison():
    with pytest.raises(ValueError, match="comparison"):
        Check("scan", "==", lambda s: Fraction(1))


def test_witnesses_reverify():
    for rep in (_verify("3.2", 5), _verify("4.1", 6)):
        for g6, q in (rep.min_witness, rep.max_witness):
            assert q_ratio(parse_graph6(g6)) == q
        for g6 in rep.equality_witnesses:
            assert q_ratio(parse_graph6(g6)) == rep.notes["bound"]


def test_report_json_shape():
    doc = _verify("3.2", 3).to_json()
    assert doc["theorem"] == "thm-3.2" and doc["passed"] is True
    assert doc["family"] == "connected_graphs" and doc["checked"] == 2
    assert doc["min_witness"]["q_num"] == "2" and doc["min_witness"]["q_den"] == "5"
    assert doc["notes"]["bound"] == {"num": "2", "den": "5"}


def without_graph6(doc):
    """A report's JSON with every graph6 string dropped and every list of
    them replaced by its length: the fields that do not depend on how a
    class is labelled."""
    if isinstance(doc, dict):
        return {k: without_graph6(v) for k, v in doc.items() if k != "graph6"}
    if isinstance(doc, list):
        if doc and all(isinstance(x, str) for x in doc):
            return len(doc)
        return [without_graph6(x) for x in doc]
    return doc


def test_verify_all_is_pinned_up_to_labelling():
    """Every field of every report of 'all' to order 7 but the graph6
    strings, witness counts included, as recorded under the
    minimum-column-code search."""
    docs = [without_graph6(r.to_json()) for r in run_theorem("all", 7)]
    assert len(docs) == 98
    assert hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest() == (
        "7b65ac9919dd509ae3f6b907eeaccf9c5b781a1236ef37dee244087be7ac91e2"
    )


def test_run_theorem_catalogue():
    reports = run_theorem("3.2", 4)
    assert [r.spec.n for r in reports] == [1, 2, 3, 4]
    assert all(r.passed for r in reports)
    reports = run_theorem("3.6", 4)
    assert {(r.spec.n, r.spec.delta) for r in reports} == {
        (2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3),
    }
    assert all(r.passed for r in reports)
    with pytest.raises(ValueError):
        run_theorem("9.9", 4)


F = Fraction


def _shifted_q(delta):
    return lambda g: q_ratio(g) + delta


# all graphs on 4 vertices with every Q lowered by 1/3: the zero test and
# the star bound (1/3) both fail, interleaved graph by graph
GENERAL_4_SHIFTED = [
    ("C?", F(-1, 3), F(0), "negative ratio"),
    ("C?", F(-1, 3), F(0), "edgeless graph with nonzero ratio"),
    ("C@", F(0), F(0), "zero ratio off the edgeless graph"), ("C@", F(0), F(1, 3), ""),
    ("CB", F(1, 15), F(1, 3), ""),
    ("CF", F(0), F(0), "zero ratio off the edgeless graph"), ("CF", F(0), F(1, 3), ""),
    ("CL", F(7, 24), F(1, 3), ""), ("C]", F(5, 21), F(1, 3), ""),
]

# (patched names of nearindep.verify, run, violations, equality witnesses, note keys)
VIOLATION_CASES = {
    "3.1+3.5": (
        {"q_ratio": _shifted_q(F(-1, 3))},
        lambda: _verify("3.1", 4),
        GENERAL_4_SHIFTED,
        ["CK"],
        ["second_smallest", "second_smallest_witnesses", "bound"],
    ),
    "3.1": (
        {"q_ratio": _shifted_q(F(-1, 3))},
        lambda: _verify("3.1", 3),
        [("B?", F(-1, 3), F(0), "negative ratio"),
         ("B?", F(-1, 3), F(0), "edgeless graph with nonzero ratio"),
         ("BG", F(0), F(0), "zero ratio off the edgeless graph")],
        [],
        ["second_smallest", "second_smallest_witnesses"],
    ),
    "3.5-catalogue": (
        {"q_ratio": _shifted_q(F(-1, 3))},
        lambda: run_theorem("3.5", 4)[0],
        GENERAL_4_SHIFTED,
        ["CK"],
        ["second_smallest", "second_smallest_witnesses", "bound"],
    ),
    "3.2-below": (
        {"star_q": lambda n: F(1, 2)},
        lambda: _verify("3.2", 4),
        [("CF", F(1, 3), F(1, 2), ""),
         ("CF", F(1, 3), F(1, 2), "star does not attain the bound")],
        [],
        ["bound"],
    ),
    "3.2-off": (
        {"is_star_graph": lambda g: g.edge_count() == g.n},
        lambda: _verify("3.2", 4),
        [("CF", F(1, 3), F(1, 3), "bound attained by a non-star graph"),
         ("CN", F(5, 7), F(1, 3), "star does not attain the bound")],
        ["CF"],
        ["bound"],
    ),
    "3.3-off": (
        {"is_star_graph": lambda g: max_degree(g) == 2},
        lambda: _verify("3.3", 6),
        [("Esa?", F(5, 33), F(5, 33), "bound attained by a non-star tree"),
         ("Eh_G", F(20, 21), F(5, 33), "star does not attain the bound")],
        ["Esa?"],
        ["bound"],
    ),
    "3.4-below": (
        {"star_q": lambda n: F(1, 2), "ONE_THIRD": F(1, 2)},
        lambda: _verify("3.4", 4, 1),
        [("C@", F(1, 3), F(1, 2), ""),
         ("C@", F(1, 3), F(1, 2), "star-plus-isolated graph misses the bound")],
        [],
        ["bound", "bound_attained"],
    ),
    "3.6-below": (
        {"star_q": lambda n: F(1, 2), "ONE_THIRD": F(1, 2)},
        lambda: _verify("3.6", 5, 3),
        [("D?[", F(1, 3), F(1, 2), ""),
         ("D?[", F(1, 3), F(1, 2), "star-plus-isolated graph misses the bound")],
        [],
        ["bound", "bound_attained"],
    ),
    "3.6-delta2": (
        {"star_q": lambda n: F(1, 2), "ONE_THIRD": F(1)},
        lambda: _verify("3.6", 5, 2),
        [("D?K", F(2, 5), F(1, 2), "")],
        [],
        ["bound", "bound_attained", "anomaly"],
    ),
    "3.4-off": (
        {"is_star_plus_isolated": lambda g, k: False},
        lambda: _verify("3.4", 4, 1),
        [("C@", F(1, 3), F(1, 3), "bound attained off the star-plus-isolated graph"),
         ("", F(0), F(1, 3), "star-plus-isolated graph misses the bound")],
        ["C@"],
        ["bound", "bound_attained"],
    ),
    "3.6-off": (
        {"is_star_plus_isolated": lambda g, k: False},
        lambda: _verify("3.6", 5, 3),
        [("D?[", F(1, 3), F(1, 3), "bound attained off the star-plus-isolated graph"),
         ("", F(0), F(1, 3), "star-plus-isolated graph misses the bound")],
        ["D?["],
        ["bound", "bound_attained"],
    ),
    "4.1": (
        {"q_ratio": _shifted_q(F(1, 2))},
        lambda: _verify("4.1", 4),
        [("Ck", F(9, 8), F(1), ""), ("C`", F(7, 6), F(1), "")],
        [],
        ["bound", "bound_attained"],
    ),
    "4.5": (
        {"q_ratio": _shifted_q(F(1, 3))},
        lambda: _verify("4.5", 5, series=1),
        [("DkC", F(43, 39), F(13, 12), "")],
        [],
        ["bound", "bound_attained"],
    ),
}


@pytest.mark.parametrize("case", sorted(VIOLATION_CASES))
def test_violation_paths(monkeypatch, case):
    """Bounds, Q values or extremal predicates are patched so that every
    violation branch fires; the violation lists are pinned exactly."""
    patches, run, violations, witnesses, note_keys = VIOLATION_CASES[case]
    for name, value in patches.items():
        monkeypatch.setattr(verify_module, name, value)
    report = run()
    assert [(v.graph6, v.lhs, v.rhs, v.context) for v in report.violations] == violations
    assert report.equality_witnesses == witnesses
    assert list(report.notes) == note_keys
    assert not report.passed


def test_extremal_rule_reads_each_row_once(monkeypatch):
    """The scan records attainment as it goes, so the extremal predicate
    runs on equality rows only: on the star of order 10, which
    ``gen_trees`` yields last of the 106 trees."""
    calls = Counter()

    def counting_star(g):
        calls["star"] += 1
        return is_star_graph(g)

    monkeypatch.setattr(verify_module, "is_star_graph", counting_star)
    report = _verify("3.3", 10)
    assert report.passed and calls["star"] == 1


def test_extremal_rule_needs_one_accepted_graph_to_attain(monkeypatch):
    """With two extremal graphs per order, the path (yielded first, above
    the bound) and the star (attaining it), the bound is met: a graph that
    ``extremal`` accepts must attain it, not the first one."""
    monkeypatch.setattr(verify_module, "is_star_graph", lambda g: max_degree(g) in (2, g.n - 1))
    report = _verify("3.3", 6)
    assert (report.violations, report.equality_witnesses) == ([], ["Esa?"])


# the pair of T from leaf_deletion_counts perturbed on the trees of order
# n only: each mutant breaks one side of the leaf identities; (sha256 of
# the reports' JSON for n = 2..8, violations by lemma), recorded when the
# deletions were solved one induced subgraph at a time, as
# tests/oracles.py still does
LEAF_LEMMA_MUTANTS = {
    "s0+1": (
        lambda s0, s1: (s0 + 1, s1),
        "890359ee3ee6e927a9ae45bb27374048bfd37502bdabbfa93c82828310a73cd1",
        {"lemma-4.4 sigma0": 183},
    ),
    "s0-1": (
        lambda s0, s1: (s0 - 1, s1),
        "b47e94a16f7f530cd9452df915704dd362d549eaa0b52f4f02c4517a8733d60a",
        {"lemma-4.3": 2, "lemma-4.4 sigma0": 183},
    ),
    "s1+1": (
        lambda s0, s1: (s0, s1 + 1),
        "45b0039c49f0aa47bae06b9b82332d7319ad6305d5bf26ca5c7ee2fe31ddbc80",
        {"lemma-4.3": 2, "lemma-4.4 ratio": 183},
    ),
    "s1*2": (
        lambda s0, s1: (s0, 2 * s1),
        "9ae5ab4c2ae3a3631d71bc526801587140a8df267de76bd5f95c5cecba21b496",
        {"lemma-4.3": 153, "lemma-4.4 ratio": 183},
    ),
}


@pytest.mark.parametrize("mutant", sorted(LEAF_LEMMA_MUTANTS))
def test_leaf_lemma_violation_paths(monkeypatch, mutant):
    perturb, digest, by_lemma = LEAF_LEMMA_MUTANTS[mutant]
    docs, found = [], Counter()
    for n in range(2, 9):

        def mutant_counts(g, n=n):
            t, leaves = leaf_deletion_counts(g)
            return (perturb(*t) if g.n == n else t), leaves

        monkeypatch.setattr(verify_module, "leaf_deletion_counts", mutant_counts)
        report = _verify("4.2", n)
        docs.append(report.to_json())
        found.update(v.context.rsplit(" leaf ", 1)[0] for v in report.violations)
    assert dict(found) == by_lemma
    assert hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest() == digest


def test_leaf_deletion_counts_match_subgraph_oracle():
    leaves = 0
    for n in range(1, 11):
        for tree in gen_trees(n):
            got = leaf_deletion_counts(tree)
            assert got == oracles.leaf_deletion_counts(tree)
            leaves += len(got[1])
    assert leaves == sum(r.checked for r in run_theorem("4.2", 10))


@st.composite
def labelled_trees(draw, max_n: int = 16):
    n = draw(st.integers(2, max_n))
    return oracles.prufer_decode(n, tuple(draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))))


@given(labelled_trees())
def test_leaf_deletion_counts_on_labelled_trees(tree):
    assert leaf_deletion_counts(tree) == oracles.leaf_deletion_counts(tree)


def test_leaf_deletion_counts_reject_non_trees():
    cycle = make_graph(5, [(v, (v + 1) % 5) for v in range(5)])
    # a path whose far end closes a triangle, and a tree beside an isolated vertex
    lollipop = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)])
    star_plus_one = make_graph(5, [(0, 1), (0, 2), (0, 3)])
    for g in (cycle, make_named("empty", 2), make_named("empty", 0), lollipop, star_plus_one):
        with pytest.raises(ValueError, match="requires a tree"):
            leaf_deletion_counts(g)
    assert leaf_deletion_counts(make_named("empty", 1)) == ((2, 0), [])


def test_leaf_lemmas_walk_each_tree_once(monkeypatch):
    """Run alone, the leaf checks score no Q: each tree is walked once,
    for its own counts and those of its leaf deletions, and the reports
    are those made from Q-scored rows."""
    scored = [verify_module._leaf_lemmas(spec, verify_module._score(spec))
              for spec in (ClassSpec("trees", n) for n in range(2, 13))]
    calls = Counter()

    def counting_walk(*args, real=sigma_module._rooted_branches):
        calls["walk"] += 1
        return real(*args)

    def no_q(g):
        raise AssertionError("Q scored for the leaf checks alone")

    monkeypatch.setattr(sigma_module, "_rooted_branches", counting_walk)
    monkeypatch.setattr(verify_module, "q_ratio", no_q)
    reports = run_theorem("4.4", 12)
    trees = sum(1 for n in range(2, 13) for _ in gen_trees(n))
    assert calls["walk"] == trees == 986 and all(r.passed for r in reports)
    assert [r.to_json() for r in reports] == [r.to_json() for r in scored]
    assert _verify("4.2", 9).to_json() == scored[7].to_json()


def test_leaf_deletion_counts_leave_no_cyclic_garbage():
    tree = oracles.prufer_decode(12, (3, 3, 7, 0, 11, 7, 7, 2, 9, 0))
    gc.collect()
    gc.disable()
    try:
        leaf_deletion_counts(tree)
        assert gc.collect() == 0
    finally:
        gc.enable()


def fraction_leaf_failures(n, t, minus_v, minus_nv, minus_nu):
    """The leaf lemmas as the rational comparisons written out in
    ``leaf_lemma_failures``' docstring, term by term."""
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


@st.composite
def leaf_pairs(draw):
    """(n, T, T-v, T-N[v], T-N[u]) as (sigma0, sigma1) lists, optionally
    placed on, or one off, the boundary of one of the four tests."""
    n = draw(st.integers(2, 16))
    t, v, nv, nu = ([draw(st.integers(1, 10**6)), draw(st.integers(0, 10**6))] for _ in range(4))
    off, k = draw(st.integers(-1, 1)), draw(st.integers(1, 50))
    tie = draw(st.sampled_from(("none", "4.2", "4.3", "4.4 sigma0", "4.4 ratio")))
    if tie == "4.2":
        num = 1 << (n - 2)
        v[0], nv[0] = k * (num + 1), max(1, k * num + off)
    elif tie == "4.3":
        t[0], t[1] = k * (nv[0] + v[0]), k * (v[1] + nv[0] + nv[1]) + off
    elif tie == "4.4 sigma0":
        t[0] = 2 * nv[0] + nu[0] + off
    elif tie == "4.4 ratio":
        v[1] = k * v[0]
        t[1] = (nv[0] * v[1] + nv[1] * v[0] + nu[0] * (v[0] + v[1])) // v[0] + off
    return n, *map(tuple, (t, v, nv, nu))


@given(leaf_pairs())
def test_leaf_lemma_predicates_match_fractions(case):
    assert leaf_lemma_failures(*case) == fraction_leaf_failures(*case)


@pytest.mark.parametrize("case, fired", [
    # the 3-path at an end: T = (5, 2), T-v = the 2-path, T-N[v] = one vertex
    ((3, (5, 2), (3, 1), (2, 0), (1, 0)), []),  # 4.2 holds with equality
    ((3, (5, 2), (3, 1), (3, 0), (1, 0)), ["lemma-4.2", "lemma-4.4 sigma0", "lemma-4.4 ratio"]),
    ((3, (5, 3), (3, 1), (2, 0), (1, 0)), ["lemma-4.4 ratio"]),  # 4.3 holds with equality
    ((3, (5, 4), (3, 1), (2, 0), (1, 0)), ["lemma-4.3", "lemma-4.4 ratio"]),
    ((3, (6, 2), (3, 1), (2, 0), (1, 0)), ["lemma-4.4 sigma0"]),  # the ratio test ignores t0
])
def test_leaf_lemma_predicates_examples(case, fired):
    got = leaf_lemma_failures(*case)
    assert [lemma for _, _, lemma in got] == fired
    assert got == fraction_leaf_failures(*case)


def _graph6_strings(report) -> int:
    return (
        (report.min_witness is not None) + (report.max_witness is not None)
        + len(report.equality_witnesses) + sum(bool(v.graph6) for v in report.violations)
        + len(report.notes.get("second_smallest_witnesses", ()))
    )


@pytest.mark.parametrize("theorem, n_max", [("4.1", 12), ("all", 6)])
def test_graph6_emitted_only_for_reported_graphs(monkeypatch, theorem, n_max):
    calls = Counter()

    def counting_emit(g):
        calls["emit"] += 1
        return emit_graph6(g)

    monkeypatch.setattr(verify_module, "emit_graph6", counting_emit)
    reports = run_theorem(theorem, n_max)
    distinct = {id(r): r for r in reports}.values()  # 'all' lists shared reports more than once
    assert calls["emit"] == sum(map(_graph6_strings, distinct)) > 0
