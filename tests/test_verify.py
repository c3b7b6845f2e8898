from fractions import Fraction

import pytest

import nearindep.verify as verify_module
from nearindep.generate import ClassSpec
from nearindep.graph6 import parse_graph6
from nearindep.graphs import is_forest, make_named, max_degree
from nearindep.sigma import q_ratio, star_q
from nearindep.verify import (
    extremal_scan,
    is_star_graph,
    run_theorem,
    strip_isolated,
    verify_connected_lower,
    verify_forest_upper,
    verify_general_lower,
    verify_leaf_lemmas,
    verify_max_degree_lower,
    verify_tree_lower,
)


def test_connected_lower_small():
    r = verify_connected_lower(4)
    assert r.checked == 6 and r.passed
    assert len(r.equality_witnesses) == 1
    assert is_star_graph(parse_graph6(r.equality_witnesses[0]))
    r1 = verify_connected_lower(1)
    assert r1.checked == 1 and r1.passed and len(r1.equality_witnesses) == 1


def test_connected_lower_n7():
    r = verify_connected_lower(7)
    assert r.checked == 853 and r.passed
    assert [parse_graph6(w).n for w in r.equality_witnesses] == [7]


def test_general_lower_n4():
    r = verify_general_lower(4)
    assert r.passed and r.checked == 11
    assert r.min_witness is not None and r.min_witness[1] == 0
    assert parse_graph6(r.min_witness[0]).edge_count() == 0
    assert r.notes["second_smallest"] == Fraction(1, 3)
    witnesses = [parse_graph6(w) for w in r.notes["second_smallest_witnesses"]]
    shapes = sorted((strip_isolated(g).n, is_star_graph(strip_isolated(g))) for g in witnesses)
    assert shapes == [(2, True), (4, True)]  # one edge plus isolates, and the star


def test_general_lower_n5():
    r = verify_general_lower(5)
    assert r.checked == 34 and r.passed
    assert r.notes["bound"] == Fraction(4, 17)


def test_max_degree_one():
    for n in (2, 4, 6):
        r = verify_max_degree_lower(n, 1)
        assert r.theorem_id == "prop-3.4" and r.passed
        assert r.notes["bound"] == Fraction(1, 3)
        core = strip_isolated(parse_graph6(r.equality_witnesses[0]))
        assert core.n == 2 and core.edge_count() == 1
        assert len(r.equality_witnesses) == 1


def test_max_degree_three():
    r = verify_max_degree_lower(5, 3)
    assert r.passed and r.notes["bound"] == Fraction(1, 3)
    core = strip_isolated(parse_graph6(r.equality_witnesses[0]))
    assert core.n == 4 and is_star_graph(core)


def test_max_degree_two_anomaly():
    r = verify_max_degree_lower(4, 2)
    assert r.passed  # the bound itself holds
    assert not r.notes["bound_attained"]
    assert r.min_witness[1] == Fraction(2, 5)
    assert "anomaly" in r.notes
    core = strip_isolated(parse_graph6(r.min_witness[0]))
    assert core.n == 3 and is_star_graph(core)  # the 3-path plus an isolate


def test_max_degree_validation():
    with pytest.raises(ValueError):
        verify_max_degree_lower(4, 0)
    with pytest.raises(ValueError):
        verify_max_degree_lower(4, 4)
    with pytest.raises(ValueError):
        verify_max_degree_lower(8, 1)


def test_tree_lower():
    r = verify_tree_lower(5)
    assert r.passed and r.min_witness[1] == Fraction(4, 17)
    assert len(r.equality_witnesses) == 1
    assert is_star_graph(parse_graph6(r.equality_witnesses[0]))


def test_forest_upper_small_orders():
    r1 = verify_forest_upper(1, "thm41")
    assert r1.passed and r1.equality_witnesses  # the single vertex is tight
    r2 = verify_forest_upper(2, "thm41")
    assert r2.passed
    tight = [parse_graph6(w) for w in r2.equality_witnesses]
    assert any(g.edge_count() == 1 for g in tight)
    r45 = verify_forest_upper(2, "thm45")
    assert r45.passed and r45.notes["bound"] == Fraction(1, 3) and r45.equality_witnesses


def test_forest_upper_n6():
    r = verify_forest_upper(6, "thm41")
    assert r.checked == 20 and r.passed
    assert r.max_witness[1] == Fraction(1)  # three disjoint edges
    g = parse_graph6(r.max_witness[0])
    assert g.edge_count() == 3 and is_forest(g)
    r45 = verify_forest_upper(6, "thm45", universe="trees")
    assert r45.checked == 6 and r45.passed


def test_forest_upper_validation():
    with pytest.raises(ValueError):
        verify_forest_upper(4, "thm99")
    with pytest.raises(ValueError):
        verify_forest_upper(4, "thm41", universe="graphs")


def test_leaf_lemmas_small():
    r = verify_leaf_lemmas(2)
    assert r.passed and r.checked == 2  # both ends of the single edge
    for n in range(2, 9):
        assert verify_leaf_lemmas(n).passed


def test_leaf_lemma_identity_examples():
    from nearindep.graphs import closed_neighborhood, induced_subgraph
    from nearindep.sigma import sigma01

    # both deletions of the single edge leave nothing: 3 = 2*1 + 1
    p2 = make_named("path", 2)
    assert sigma01(p2).sigma0 == 3 == 2 * 1 + 1

    # endpoint of the 3-path: the deletion ratio is tight, 2/3 = 1 - 1/(2+1)
    p3 = make_named("path", 3)
    minus_v = induced_subgraph(p3, p3.full_mask & ~1)
    minus_nv = induced_subgraph(p3, p3.full_mask & ~closed_neighborhood(p3, 0))
    ratio = Fraction(sigma01(minus_nv).sigma0, sigma01(minus_v).sigma0)
    assert ratio == Fraction(2, 3) == 1 - Fraction(1, (1 << 1) + 1)

    # sigma0(S5) = 17 = 2 * sigma0(empty 3) + sigma0(empty 0) = 2*8 + 1
    s5 = make_named("star", 5)
    assert sigma01(s5).sigma0 == 17
    r = verify_leaf_lemmas(5)
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


def test_extremal_scan_bound():
    r = extremal_scan(ClassSpec("trees", 5), bound=(">=", star_q(5)))
    assert r.passed and len(r.equality_witnesses) == 1
    r = extremal_scan(ClassSpec("trees", 5), bound=("<=", Fraction(1, 2)))
    assert not r.passed  # several trees exceed 1/2
    with pytest.raises(ValueError):
        extremal_scan(ClassSpec("trees", 5), bound=("==", Fraction(1)))


def test_witnesses_reverify():
    for rep in (verify_connected_lower(5), verify_forest_upper(6, "thm41")):
        for g6, q in (rep.min_witness, rep.max_witness):
            assert q_ratio(parse_graph6(g6)) == q
        for g6 in rep.equality_witnesses:
            assert q_ratio(parse_graph6(g6)) == rep.notes["bound"]


def test_report_json_shape():
    doc = verify_connected_lower(3).to_json()
    assert doc["theorem"] == "thm-3.2" and doc["passed"] is True
    assert doc["family"] == "connected_graphs" and doc["checked"] == 2
    assert doc["min_witness"]["q_num"] == "2" and doc["min_witness"]["q_den"] == "5"
    assert doc["notes"]["bound"] == {"num": "2", "den": "5"}


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


def test_run_theorem_jobs_deterministic():
    a = [r.to_json() for r in run_theorem("3.2", 5, jobs=1)]
    b = [r.to_json() for r in run_theorem("3.2", 5, jobs=2)]
    assert a == b


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
        lambda: verify_general_lower(4),
        GENERAL_4_SHIFTED,
        ["CK"],
        ["second_smallest", "second_smallest_witnesses", "bound"],
    ),
    "3.1": (
        {"q_ratio": _shifted_q(F(-1, 3))},
        lambda: verify_general_lower(3),
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
        lambda: verify_connected_lower(4),
        [("CF", F(1, 3), F(1, 2), ""),
         ("CF", F(1, 3), F(1, 2), "star does not attain the bound")],
        [],
        ["bound"],
    ),
    "3.2-off": (
        {"is_star_graph": lambda g: g.edge_count() == g.n},
        lambda: verify_connected_lower(4),
        [("CF", F(1, 3), F(1, 3), "bound attained by a non-star graph"),
         ("CN", F(5, 7), F(1, 3), "star does not attain the bound")],
        ["CF"],
        ["bound"],
    ),
    "3.3-off": (
        {"is_star_graph": lambda g: max_degree(g) == 2},
        lambda: verify_tree_lower(6),
        [("Esa?", F(5, 33), F(5, 33), "bound attained by a non-star tree"),
         ("Eh_G", F(20, 21), F(5, 33), "star does not attain the bound")],
        ["Esa?"],
        ["bound"],
    ),
    "3.4-below": (
        {"star_q": lambda n: F(1, 2), "ONE_THIRD": F(1, 2)},
        lambda: verify_max_degree_lower(4, 1),
        [("C@", F(1, 3), F(1, 2), ""),
         ("C@", F(1, 3), F(1, 2), "star-plus-isolated graph misses the bound")],
        [],
        ["bound", "bound_attained"],
    ),
    "3.6-below": (
        {"star_q": lambda n: F(1, 2), "ONE_THIRD": F(1, 2)},
        lambda: verify_max_degree_lower(5, 3),
        [("D?[", F(1, 3), F(1, 2), ""),
         ("D?[", F(1, 3), F(1, 2), "star-plus-isolated graph misses the bound")],
        [],
        ["bound", "bound_attained"],
    ),
    "3.6-delta2": (
        {"star_q": lambda n: F(1, 2), "ONE_THIRD": F(1)},
        lambda: verify_max_degree_lower(5, 2),
        [("D?K", F(2, 5), F(1, 2), "")],
        [],
        ["bound", "bound_attained", "anomaly"],
    ),
    "3.4-off": (
        {"is_star_graph": lambda g: False},
        lambda: verify_max_degree_lower(4, 1),
        [("C@", F(1, 3), F(1, 3), "bound attained off the star-plus-isolated graph"),
         ("", F(0), F(1, 3), "star-plus-isolated graph misses the bound")],
        ["C@"],
        ["bound", "bound_attained"],
    ),
    "3.6-off": (
        {"is_star_graph": lambda g: False},
        lambda: verify_max_degree_lower(5, 3),
        [("D?[", F(1, 3), F(1, 3), "bound attained off the star-plus-isolated graph"),
         ("", F(0), F(1, 3), "star-plus-isolated graph misses the bound")],
        ["D?["],
        ["bound", "bound_attained"],
    ),
    "4.1": (
        {"q_ratio": _shifted_q(F(1, 2))},
        lambda: verify_forest_upper(4, "thm41"),
        [("Ck", F(9, 8), F(1), ""), ("C`", F(7, 6), F(1), "")],
        [],
        ["bound", "bound_attained"],
    ),
    "4.5": (
        {"q_ratio": _shifted_q(F(1, 3))},
        lambda: verify_forest_upper(5, "thm45", "trees"),
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
