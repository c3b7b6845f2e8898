import gc
import hashlib
import json
from collections import Counter
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import nearindep.generate as generate_module
import nearindep.sigma as sigma_module
import nearindep.verify as verify_module
from nearindep.generate import ClassSpec, _graph_classes, gen_class, gen_trees
from nearindep.graph6 import emit_graph6, parse_graph6
from nearindep.graphs import bits, make_graph, make_named, max_degree
from nearindep.limits import CapabilityError
from nearindep.sigma import leaf_deletion_counts, sigma01
from nearindep.verify import (
    Check,
    Violation,
    _verify,
    extremal_scan,
    is_star_graph,
    is_star_plus_isolated,
    leaf_lemma_failures,
    run_theorem,
)

import oracles
from oracles import closed_neighborhood, fraction_leaf_failures, strip_isolated


F = Fraction
K2, P3, S4, S5 = (1, 1), (1, 1, 2), (1, 1, 1, 3), (1, 1, 1, 1, 4)  # one edge, the 3-path, the stars on 4 and 5


def assert_facts(theorem, n, delta=None, **want):
    """The report of ``theorem`` at order n passes and states ``want``:
    facts of the paper and OEIS that the report oracle only derives.  A
    graph is given by its degrees without isolated vertices."""
    def shape(g6):
        return tuple(sorted(row.bit_count() for row in strip_isolated(parse_graph6(g6)).adj))

    r = _verify(theorem, n, delta)
    notes, witness = r.notes, lambda w: w and (w[1], shape(w[0]))
    got = {"checked": r.checked, "bound": notes.get("bound"), "bound_attained": notes.get("bound_attained"),
           "notes": list(notes), "equality": sorted(map(shape, r.equality_witnesses)),
           "min": witness(r.min_witness), "max": witness(r.max_witness),
           "second_smallest": (notes.get("second_smallest"),
                               sorted(map(shape, notes.get("second_smallest_witnesses", ()))))}
    assert r.passed and {k: got[k] for k in want} == want, (theorem, n, delta)


def test_connected_lower_n7():
    assert_facts("3.2", 7, checked=853, equality=[(1,) * 6 + (6,)])  # A001349


def test_general_lower_n4():
    assert_facts("3.1", 4, checked=11, min=(0, ()), second_smallest=(F(1, 3), [K2, S4]))  # A000088


def test_general_lower_n5():
    assert_facts("3.1", 5, checked=34, bound=F(4, 17))


def test_max_degree_one():
    for n in (2, 4, 6):
        assert_facts("3.6", n, 1, bound=F(1, 3), equality=[K2])


def test_max_degree_three():
    assert_facts("3.6", 5, 3, bound=F(1, 3), equality=[S4])


def test_max_degree_two_anomaly():
    assert_facts("3.6", 4, 2, min=(F(2, 5), P3), notes=["bound", "bound_attained", "anomaly"], bound_attained=False)


def test_tree_lower():
    assert_facts("3.3", 5, min=(F(4, 17), S5), equality=[S5])


def test_forest_upper_small_orders():
    assert_facts("4.5", 2, bound=F(1, 3), equality=[K2])


def test_forest_upper_n6():
    assert_facts("4.1", 6, checked=20, max=(1, (1,) * 6))  # A005195; three disjoint edges


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
        _verify("3.6", 9, 1)
    with pytest.raises(ValueError):
        _verify("3.4", 5, 2)  # 3.4 is maximum degree 1 only


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
    assert sigma01(make_named("star", 5)).sigma0 == 17


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

    for family in ("all_graphs", "connected_graphs"):  # refused before any class of order 9 is built
        with pytest.raises(CapabilityError, match="order <= 8, got 9"):
            extremal_scan(ClassSpec(family, 9))


def test_check_rejects_an_unknown_comparison():
    with pytest.raises(ValueError, match="comparison"):
        Check("scan", "==", lambda s: Fraction(1))


def test_reports_match_the_report_oracle():
    """Every report, field by field and in key order, as
    ``oracles.oracle_reports`` derives it without the engine's scoring:
    the 117 reports of 'all' to order 8, the tree and forest bound
    reports to orders 16 and 14, and the leaf reports to order 12."""
    cases = {("all", 8): 117, ("3.3", 16): 16, ("4.1", 16): 30, ("4.5", 16): 30, ("4.2", 12): 11}
    try:
        for (theorem, n_max), count in cases.items():
            got = [json.dumps(r.to_json()) for r in run_theorem(theorem, n_max)]
            assert len(got) == count
            assert got == [json.dumps(doc) for doc in oracles.oracle_reports(theorem, n_max)], theorem
    finally:
        oracles.scored.cache_clear()  # the universes the cases share, scored once


def test_graph_tables_are_scored_at_augmentation(monkeypatch):
    """``run_theorem("all", 7)`` from cold: each graph class takes its Q
    from the pair that ``_plus_vertex`` extends once per class, 1,252
    times, so the recursion never runs (1,233 times when each class was
    scored from scratch), and ``canonical_form`` still runs 1,355 times."""
    calls = Counter()
    real_recursive = sigma_module.sigma01_recursive
    real_plus, real_canonical = generate_module._plus_vertex, generate_module.canonical_form

    def plus_vertex(g, pair):
        plus = real_plus(g, pair)
        return lambda s: calls.update(["plus"]) or plus(s)

    monkeypatch.setattr(sigma_module, "sigma01_recursive", lambda g: calls.update(["recursive"]) or real_recursive(g))
    monkeypatch.setattr(generate_module, "_plus_vertex", plus_vertex)
    monkeypatch.setattr(generate_module, "canonical_form", lambda g: calls.update(["canonical"]) or real_canonical(g))
    _graph_classes.cache_clear()
    try:
        assert len(run_theorem("all", 7)) == 98
    finally:
        _graph_classes.cache_clear()
    assert calls == {"plus": 1252, "canonical": 1355}


def test_tree_and_forest_tables_are_scored_in_generation(monkeypatch):
    """``run_theorem("4.1", 16)`` from cold: each tree and forest takes its Q
    from the pair it carries out of generation, so neither ``q_ratio`` nor
    ``_label_fold`` runs.  The grafting is the tree walk's alone: 147,386
    grafts over the trees of orders 1-16, where one fold per tree makes
    497,380, n grafts for a tree on n vertices."""
    calls = Counter()

    def refuse(*args):
        raise AssertionError("a tree or forest scored from scratch")

    for module, name in ((sigma_module, "q_ratio"), (verify_module, "q_ratio"), (sigma_module, "_label_fold")):
        monkeypatch.setattr(module, name, refuse)
    for module in (sigma_module, generate_module):
        def graft(root, branch, real=module._graft):
            calls["graft"] += 1
            return real(root, branch)
        monkeypatch.setattr(module, "_graft", graft)
    generate_module._tree_list.cache_clear()
    try:
        assert len(run_theorem("4.1", 16)) == 30
    finally:
        generate_module._tree_list.cache_clear()
    assert calls["graft"] == 147386
    assert 3 * 147386 < sum(g.n for n in range(1, 17) for g in gen_trees(n)) == 497380


def test_forests_become_graphs_only_where_a_report_prints_them(monkeypatch):
    """``run_theorem("4.1", 14)`` scans 15,205 forests but builds the rows
    of 30: the least and greatest Q of each of the 14 orders, and the
    equality witnesses at orders 1 and 2, one build per graph6 printed."""
    built = []

    def rows(forest, real=generate_module._forest_rows):
        built.append(forest)
        return real(forest)

    monkeypatch.setattr(generate_module, "_forest_rows", rows)
    forests = [r for r in run_theorem("4.1", 14) if r.spec.family == "forests"]
    assert sum(r.checked for r in forests) == 15205
    printed = sum(2 + len(r.equality_witnesses) + len(r.violations) for r in forests)
    assert len(built) == printed == 30


def _shifted_pairs(delta, *streams):
    """Patches of the class streams that ``verify`` reads (``_graph_classes``
    by default), each carried (sigma0, sigma1) scaled to a Q of Q + delta."""
    num, den = delta.numerator, delta.denominator

    def shifted(real):
        return lambda n: tuple((*head, (s0 * den, s1 * den + s0 * num)) for *head, (s0, s1) in real(n))

    return {name: shifted(getattr(verify_module, name)) for name in streams or ("_graph_classes",)}


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
        _shifted_pairs(F(-1, 3)),
        lambda: _verify("3.1", 4),
        GENERAL_4_SHIFTED,
        ["CK"],
        ["second_smallest", "second_smallest_witnesses", "bound"],
    ),
    "3.1": (
        _shifted_pairs(F(-1, 3)),
        lambda: _verify("3.1", 3),
        [("B?", F(-1, 3), F(0), "negative ratio"),
         ("B?", F(-1, 3), F(0), "edgeless graph with nonzero ratio"),
         ("BG", F(0), F(0), "zero ratio off the edgeless graph")],
        [],
        ["second_smallest", "second_smallest_witnesses"],
    ),
    "3.5-catalogue": (
        _shifted_pairs(F(-1, 3)),
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
        _shifted_pairs(F(1, 2), "_forest_classes", "_tree_list"),
        lambda: _verify("4.1", 4),
        [("Ck", F(9, 8), F(1), ""), ("C`", F(7, 6), F(1), "")],
        [],
        ["bound", "bound_attained"],
    ),
    "4.5": (
        _shifted_pairs(F(1, 3), "_forest_classes", "_tree_list"),
        lambda: run_theorem("4.5", 5)[-1],
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


GRAPHS_4 = list(gen_class(ClassSpec("all_graphs", 4)))


@st.composite
def scan_cases(draw):
    """A check and rows of (graph, (s0 >= 1, s1)), s1 possibly negative as
    ``_shifted_pairs`` makes it; small counts give many ties in Q between
    unequal pairs, and a drawn row may be repeated at a multiple.  The
    bound is None, any small Fraction, or (twice as likely) a row's Q."""
    pairs = st.tuples(st.integers(1, 4), st.integers(-4, 8))
    rows = draw(st.lists(st.tuples(st.sampled_from(GRAPHS_4), pairs), max_size=12))
    if rows and draw(st.booleans()):
        _, (s0, s1) = draw(st.sampled_from(rows))
        k = draw(st.integers(1, 3))
        rows.insert(draw(st.integers(0, len(rows))), (draw(st.sampled_from(GRAPHS_4)), (k * s0, k * s1)))
    bounds = [st.none(), st.fractions(-2, 3, max_denominator=6)]
    bounds += [st.sampled_from([Fraction(s1, s0) for _, (s0, s1) in rows])] * 2 if rows else []
    bound = draw(st.one_of(bounds))
    check = Check(
        "scan", draw(st.sampled_from([">=", "<="])), lambda s: bound,
        draw(st.sampled_from([None, lambda g, s: True, lambda g, s: g.edge_count() % 2 == 1])),
        "off", "miss", draw(st.sampled_from([None, lambda g: g.edge_count() == 0])), draw(st.booleans()),
    )
    return check, rows, draw(st.booleans())


@settings(max_examples=300)
@given(scan_cases())
def test_scan_matches_fraction_scan(case):
    """The integer scan agrees with ``oracles.scan_doc``, which compares a
    Fraction Q per row, report for report: witnesses (ties to the first
    row), violations, equality witnesses and notes; and
    ``_general_lower``'s second-smallest Q with ``min``."""
    check, rows, zero_test = case
    spec = ClassSpec("all_graphs", 4)
    report = verify_module._scan(check, spec, rows, verify_module._zero_test if zero_test else None)
    assert report.to_json() == oracles.scan_doc(
        check.theorem_id, spec, [(g, Fraction(s1, s0)) for g, (s0, s1) in rows], check.bound(spec),
        lower=check.op == ">=", exempt=check.exempt, extremal=check.extremal and (lambda g: check.extremal(g, spec)),
        off=check.off, miss=check.miss, note_attained=check.note_attained, zero_test=zero_test)
    nonzero = [(g, Fraction(s1, s0)) for g, (s0, s1) in rows if g.edge_count()]
    notes = verify_module._general_lower(spec, rows).notes
    if nonzero:
        second = min(q for _, q in nonzero)
        assert notes["second_smallest"] == second
        assert notes["second_smallest_witnesses"] == [emit_graph6(g) for g, q in nonzero if q == second]
    else:
        assert "second_smallest" not in notes


@pytest.mark.parametrize("theorem, n_max, built", [("4.1", 16, 90), ("all", 8, 230)])
def test_fractions_are_built_per_report_not_per_row(monkeypatch, theorem, n_max, built):
    """The scans compare integer pairs, so a ``Fraction`` is built only for
    a value that a report prints: about three per distinct report (the two
    witnesses and the bound), where a Fraction Q per row built 47,743 on
    4.1 to 16 (47,713 rows) and 13,849 on 'all' to 8 when it made 108
    reports."""
    calls = Counter()

    def counting_fraction(*args):
        calls["fraction"] += 1
        return Fraction(*args)

    monkeypatch.setattr(verify_module, "Fraction", counting_fraction)
    distinct = {id(r) for r in run_theorem(theorem, n_max)}
    assert calls["fraction"] == built <= 3 * len(distinct)


def test_views_evaluate_their_key_once_per_row(monkeypatch):
    """Each view's key is evaluated once per row of each table of all
    graphs, however many specs select from it: 'all' to 7 tests 1,252
    rows for connectivity and reads the maximum degree of the 1,251 from
    order 2 once for its 21 degree specs, where a filter per spec read it
    7,223 times."""
    calls = Counter()

    def counting(family):
        key, select = generate_module.VIEWS[family]

        def count(g):
            calls[family] += 1
            return key(g)
        monkeypatch.setitem(generate_module.VIEWS, family, (count, select))

    counting("connected_graphs")
    counting("bounded_degree_graphs")
    reports = run_theorem("all", 7)
    assert calls == {"connected_graphs": 1252, "bounded_degree_graphs": 1251}
    assert len({r.spec for r in reports if r.spec.family == "bounded_degree_graphs"}) == 21


# the pair of T from leaf_deletion_counts, and the pair the tree carries
# with it, perturbed alike on the trees of order n only (so the carried
# pair still matches the walk): each mutant breaks one side of the leaf
# identities; (sha256 of
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

        def mutant_trees(order, n=n):
            return tuple((g, perturb(*t) if order == n else t) for g, t in generate_module._tree_list(order))

        monkeypatch.setattr(verify_module, "leaf_deletion_counts", mutant_counts)
        monkeypatch.setattr(verify_module, "_tree_list", mutant_trees)
        report = _verify("4.2", n)
        docs.append(report.to_json())
        found.update(v.context.rsplit(" leaf ", 1)[0] for v in report.violations)
    assert dict(found) == by_lemma
    assert hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest() == digest


def test_leaf_lemmas_compare_the_carried_pair_with_the_walk(monkeypatch):
    """A tree whose carried (sigma0, sigma1) differs from the sigma the leaf
    walk folds is reported on its own; every other tree still passes."""
    trees = generate_module._tree_list(7)
    (g, (s0, s1)), rest = trees[3], trees[4:]
    patched = (*trees[:3], (g, (s0, s1 + 1)), *rest)
    monkeypatch.setattr(verify_module, "_tree_list", lambda n: patched if n == 7 else generate_module._tree_list(n))
    reports = run_theorem("4.4", 8)
    assert [r.spec.n for r in reports if not r.passed] == [7]
    (bad,) = [v for r in reports for v in r.violations]
    assert bad == Violation(emit_graph6(g), Fraction(s1 + 1, s0), Fraction(s1, s0),
                            f"carried pair {(s0, s1 + 1)} != walk {(s0, s1)}")


def per_leaf(tree):
    """``leaf_deletion_counts(tree)`` with each support record expanded to
    one (v, ...) tuple per leaf v, in vertex order, as the oracle lists
    them; each record's leaves must be exactly the degree-1 neighbours of
    one support vertex u, and the supports must come in increasing u."""
    t, supports = leaf_deletion_counts(tree)
    out, us = [], []
    for leaves, *deletions in supports:
        (row,) = {tree.adj[v] for v in bits(leaves)}  # the one neighbour they share
        u = row.bit_length() - 1
        assert row == 1 << u and leaves == sum(1 << y for y in bits(tree.adj[u]) if tree.degree(y) == 1)
        us.append(u)
        out += ((v, *deletions) for v in bits(leaves))
    assert us == sorted(set(us))
    return t, sorted(out)


def test_leaf_deletion_counts_match_subgraph_oracle():
    for n in range(1, 13):
        for tree in gen_trees(n):
            got = per_leaf(tree)
            assert got == oracles.leaf_deletion_counts(tree)


@st.composite
def labelled_trees(draw, max_n: int = 16):
    n = draw(st.integers(2, max_n))
    return oracles.prufer_decode(n, tuple(draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))))


@given(labelled_trees())
def test_leaf_deletion_counts_on_labelled_trees(tree):
    """Counted relabelled into label order; as drawn, a tree outside label
    order is refused."""
    ordered = oracles.in_label_order(tree)
    assert per_leaf(ordered) == oracles.leaf_deletion_counts(ordered)
    if oracles.lower_degrees(tree)[1:] == [1] * (tree.n - 1):
        assert per_leaf(tree) == oracles.leaf_deletion_counts(tree)
    else:
        with pytest.raises(ValueError, match="requires a tree"):
            leaf_deletion_counts(tree)


def test_leaf_deletion_counts_reject_non_trees():
    cycle = make_graph(5, [(v, (v + 1) % 5) for v in range(5)])
    # a path whose far end closes a triangle, and a tree beside an isolated vertex
    lollipop = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)])
    star_plus_one = make_graph(5, [(0, 1), (0, 2), (0, 3)])
    for g in (cycle, make_named("empty", 2), make_named("empty", 0), lollipop, star_plus_one):
        with pytest.raises(ValueError, match="requires a tree"):
            leaf_deletion_counts(g)
    one = make_named("empty", 1)
    assert per_leaf(one) == oracles.leaf_deletion_counts(one) == ((2, 0), [])


def test_leaf_lemmas_walk_each_tree_once(monkeypatch):
    """Each tree is walked once, for its own counts and those of its leaf
    deletions, and ``run_theorem`` reports what ``_leaf_lemmas`` makes of
    the scored rows.  One walk of a tree on n vertices is n grafts up, the
    root's onto ``TOP`` included, and one graft and one prune down per
    vertex that is neither the root nor a leaf; the lemmas are tested once
    per support vertex.  Grafts are counted where ``generate`` looks them
    up as well: generating the trees from cold adds the tree walk's 4,568."""
    scored = [verify_module._leaf_lemmas(spec, verify_module._score(spec))
              for spec in (ClassSpec("trees", n) for n in range(2, 13))]
    trees = [g for n in range(2, 13) for g in gen_trees(n)]
    calls = Counter()

    def counting(name, module):
        def count(*args, real=getattr(module, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, count)

    counting("_graft", sigma_module)
    counting("_graft", generate_module)
    counting("_prune", sigma_module)
    counting("leaf_lemma_failures", verify_module)
    generate_module._tree_list.cache_clear()
    reports = run_theorem("4.4", 12)
    inner = sum(g.degree(z) > 1 for g in trees for z in range(1, g.n))
    assert sum(g.n for g in trees) + inner == 15362 and all(r.passed for r in reports)
    assert calls["_graft"] == 15362 + 4568
    assert calls["_prune"] == inner == 4357
    assert calls["leaf_lemma_failures"] == 3504 and sum(r.checked for r in reports) == 5663
    assert [r.to_json() for r in reports] == [r.to_json() for r in scored]
    assert _verify("4.2", 9).to_json() == scored[7].to_json()


def test_leaf_deletion_counts_leave_no_cyclic_garbage():
    drawn = oracles.prufer_decode(12, (3, 3, 7, 0, 11, 7, 7, 2, 9, 0))
    with pytest.raises(ValueError, match="requires a tree"):  # vertices 1 and 2 have no lower neighbour
        leaf_deletion_counts(drawn)
    tree = oracles.in_label_order(drawn)
    gc.collect()
    gc.disable()
    try:
        leaf_deletion_counts(tree)
        assert gc.collect() == 0
    finally:
        gc.enable()


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
