"""Mutation checks that anyone can re-run: ``python tests/mutants.py``.

Each record of ``MUTANTS`` is one mutant of ``src/``: the file, the exact
text it replaces (which must occur there exactly once) and its
replacement, the tier-1 tests that must all fail on it, and the commit
whose CHANGES.md entry first described it (None: first described here).

The runner copies ``src/`` and ``tests/`` to a temporary directory and
first checks that the unmutated copy passes every named test.  Then it
applies each mutant alone to a fresh copy of its file and runs only that
mutant's tests, one pytest process at a time, with ``PYTHONPATH`` on the
copy, a fixed hypothesis seed and no cache written, so the checkout is
left as it was.  A run that outlives its timeout (a walk that loops
forever) counts as a kill.  It prints one line per mutant and exits 1
if the unmutated copy fails or any mutant survives.

Pytest does not collect this file; ``test_mutants.py`` checks on every
tier-1 run that each record still applies and names tests that exist.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

Mutant = namedtuple("Mutant", "name path old new tests named_in")

C1 = "test_acceptance.py::test_criterion_1_reference_values"
C2 = "test_acceptance.py::test_criterion_2_cross_algorithm_equivalence"
C3 = "test_acceptance.py::test_criterion_3_connected_lower_bound"
C6 = "test_acceptance.py::test_criterion_6_forest_upper_bounds"
C7 = "test_acceptance.py::test_criterion_7_leaf_lemmas"
C8 = "test_acceptance.py::test_criterion_8_randomized_property_suites"
C9 = "test_acceptance.py::test_criterion_9_enumeration_counts"
C10 = "test_acceptance.py::test_criterion_10_graph6_codec"
ATLAS = "test_generate.py::test_graph_streams_match_the_networkx_atlas"
ORBIT = "test_generate.py::test_graph_streams_meet_the_orbit_stabiliser_identity"
CARRIED = "test_generate.py::test_carried_pairs_match_the_recursion_and_the_sweep"
PAIRS = "test_generate.py::test_trees_and_forests_carry_their_pairs"
TREES = "test_generate.py::test_generated_trees_and_forests_pass_the_full_check[gen_trees-18]"
WALK = "test_generate.py::test_tree_stream_equals_filtered_walk"
RECORDS = "test_generate.py::test_tree_and_forest_records_read_and_print_as_their_graphs"
PLUS = "test_sigma.py::test_plus_vertex_matches_the_sweep_of_each_child"
SCAN = "test_verify.py::test_scan_matches_fraction_scan"
ORACLE = "test_verify.py::test_reports_match_the_report_oracle"

SIGMA, GENERATE, VERIFY = "nearindep/sigma.py", "nearindep/generate.py", "nearindep/verify.py"
GRAPHS, GRAPH6, CLI = "nearindep/graphs.py", "nearindep/graph6.py", "nearindep/cli.py"
LAZY = "nearindep/_lazy.py"

MUTANTS = (
    Mutant("label fold never grafts vertex 0 onto TOP", SIGMA,
           "for z in range(n - 1, -1, -1):", "for z in range(n - 1, 0, -1):", (C2,), "b469e6c"),
    Mutant("tree fold skips the first vertex after the root", SIGMA,
           "for u, p in walk[:0:-1]:", "for u, p in walk[:1:-1]:", (C1,), "b469e6c"),
    Mutant("Q divides by sigma0 + 1", SIGMA,
           "return Fraction(self.sigma1, self.sigma0)", "return Fraction(self.sigma1, self.sigma0 + 1)",
           (C1,), "b469e6c"),
    Mutant("pivot rule folds a cycle as a tree", SIGMA,
           "return None if total == 2 * comp.bit_count() - 2 else v",
           "return None if total <= 2 * comp.bit_count() else v", (C2,), "b469e6c"),
    Mutant("label fold drops the top vertex from order 5", SIGMA,
           "down[p] = _graft(down[p], down[z])", "down[p] = _graft(down[p], down[z]) if z != n - 1 or n < 5 else down[p]",
           ("test_sigma.py::test_forest_scorers_agree",), "b469e6c"),
    Mutant("gen_trees drops one tree at order 7", GENERATE,
           "return (Graph._unchecked(n, t.adj) for t, _ in _tree_classes(n))",
           "return (Graph._unchecked(n, t.adj) for i, (t, _) in enumerate(_tree_classes(n)) if n != 7 or i)",
           (C9,), "b469e6c"),
    Mutant("gen_trees repeats the first tree last at order 7", GENERATE,
           "return (Graph._unchecked(n, t.adj) for t, _ in _tree_classes(n))",
           "trees = [Graph._unchecked(n, t.adj) for t, _ in _tree_classes(n)]\n"
           "    return iter(trees[:-1] + trees[:1] if n == 7 else trees)", (C9,), "b469e6c"),
    Mutant("gen_graphs yields one class twice at order 5", GENERATE,
           "    for g, _, _ in _graph_classes(n):\n        yield g\n",
           "    for g, _, _ in _graph_classes(n):\n        yield g\n    if n == 5:\n        yield _graph_classes(n)[3][0]\n",
           ("test_generate.py::test_graph_streams_emit_each_class_spelled_by_its_code",), "b469e6c"),
    Mutant("the edgeless graph joins the maximum-degree-1 view", GENERATE,
           '"bounded_degree_graphs": (max_degree, lambda spec: spec.delta),',
           '"bounded_degree_graphs": (lambda g: max_degree(g) or 1, lambda spec: spec.delta),', (ATLAS,), "b469e6c"),
    Mutant("the connected view admits every graph of order 5", GENERATE,
           '"connected_graphs": (is_connected, lambda spec: True),',
           '"connected_graphs": (lambda g: g.n == 5 or is_connected(g), lambda spec: True),',
           (ATLAS, C9), "b469e6c"),
    Mutant("graph6 payload shift one bit short", GRAPH6,
           "shift = 6 * nbytes - npairs", "shift = 6 * nbytes - npairs - 1", (C10,), "b469e6c"),
    Mutant("plus drops the neighbour terms", SIGMA,
           "a0, a1 = _solve(full ^ s, adj, memo, memo0, s)", "a0, a1 = _solve(full ^ s, adj, memo, memo0)",
           (PLUS, CARRIED), "0d677ff"),
    Mutant("plus solves the parent, not the parent less s", SIGMA,
           "_solve(full ^ s, adj", "_solve(full, adj",
           (PLUS,), "0d677ff"),
    Mutant("_score zips the graph pairs reversed", VERIFY,
           "map(itemgetter(2), _graph_classes(table.n))", "map(itemgetter(2), reversed(_graph_classes(table.n)))",
           (C3,), "0d677ff"),
    Mutant("_column_rows reads the columns in the wrong order", GRAPHS,
           "for j in range(n - 1, 0, -1):", "for j in range(1, n):", (C10,), "0d677ff"),
    Mutant("forest union rule drops its cross term", GENERATE,
           "s0, s1 = s0 * t0, s1 * t0 + t1 * s0", "s0, s1 = s0 * t0, s1 * t0 + t1", (PAIRS,), "0c97f23"),
    Mutant("tree root closure adds b0 to sigma1", GENERATE,
           "(a0 + b0, a1 + b1)", "(a0 + b0, a1 + b0)", (PAIRS,), "0c97f23"),
    Mutant("suffix graft's arguments swapped", GENERATE,
           "top = (_graft(below, state), rest)", "top = (_graft(state, below), rest)", (PAIRS,), "0c97f23"),
    Mutant("tree walk never steps up to the parent", GENERATE,
           "v = par[v]\n", "pass\n", (WALK,), "0c97f23"),
    Mutant("_score swaps the tree and forest streams", VERIFY,
           '(_tree_list if table.family == "trees" else _forest_classes)',
           '(_forest_classes if table.family == "trees" else _tree_list)', (C6,), "0c97f23"),
    Mutant("least-Q test takes the last tie", VERIFY,
           "if s1 * l0 < l1 * s0:", "if s1 * l0 <= l1 * s0:", (SCAN,), "8abee10"),
    Mutant("greatest-Q test takes the last tie", VERIFY,
           "elif s1 * h0 > h1 * s0:", "elif s1 * h0 >= h1 * s0:", (SCAN,), "8abee10"),
    Mutant("bound gap has a fixed sign", VERIFY,
           'sign = 1 if check.op == "<=" else -1', "sign = 1", (SCAN,), "8abee10"),
    Mutant("equality rows are not recorded", VERIFY,
           "report.equality_witnesses.append(g6)", "pass", (SCAN,), "8abee10"),
    Mutant("second-smallest witnesses matched by numerator", VERIFY,
           "if s1 * b0 == b1 * s0]", "if s1 == b1]", (SCAN,), "8abee10"),
    Mutant("zero test flags sigma1 < -1 only", VERIFY,
           '"negative ratio": s1 < 0', '"negative ratio": s1 < -1', (SCAN,), "8abee10"),
    Mutant("orbit walk marks the size-k subsets too", GENERATE,
           "seen = bytearray(map(k.__gt__", "seen = bytearray(map(k.__ge__",
           ("test_generate.py::test_orbit_min_subsets_match_the_brute_force_group",), "2eac5bf"),
    Mutant("_outranked counts N(x) & s once", GENERATE,
           "2 * (padj[x] & s).bit_count()", "1 * (padj[x] & s).bit_count()",
           ("test_generate.py::test_outranked_matches_the_key_oracle",), "2eac5bf"),
    Mutant("carried generators conjugated by the reversed inverse", GENERATE,
           "inv = sorted(range(n), key=order.__getitem__)", "inv = sorted(range(n), key=order.__getitem__)[::-1]",
           ("test_generate.py::test_graph_classes_are_pinned_with_their_generators",), "2eac5bf"),
    Mutant("leaf lemmas skip the carried-pair cross-check", VERIFY,
           "if carried != t:", "if False:",
           ("test_verify.py::test_leaf_lemmas_compare_the_carried_pair_with_the_walk",), "2eac5bf"),
    Mutant("each view key evaluated twice", VERIFY,
           "split.setdefault(key(row[0]), []).append(row)", "split.setdefault(key(row[0]) and key(row[0]), []).append(row)",
           ("test_verify.py::test_views_evaluate_their_key_once_per_row",), "2eac5bf"),
    Mutant("tree root closure drops its sigma1 term", GENERATE,
           "(a0 + b0, a1 + b1)", "(a0 + b0, b1)", (PAIRS, C7), "2eac5bf"),
    Mutant("successor step never moves to the chain parent", GENERATE,
           "q -= 1", "q -= 0", ("test_generate.py::test_tree_walk_rereads_the_first_subtree_only_when_rewritten",), None),
    Mutant("refinement orders fragments by label, not by count", GRAPHS,
           "[split[c] for c in sorted(split)]", "[split[c] for c in split]", (C8,), None),
    Mutant("recursion's union rule drops its cross term", SIGMA,
           "s0, s1 = s0 * c0, s1 * c0 + c1 * s0", "s0, s1 = s0 * c0, s1 * c0 + c1", (C8,), None),
    Mutant("isolated vertices double sigma0 only", SIGMA,
           "s0 << isolated, s1 << isolated,", "s0 << isolated, s1,", (C8,), None),
    Mutant("subset sweep skips the mask {0}", SIGMA,
           "for s in range(1, size):", "for s in range(2, size):", (C8,), None),
    Mutant("pivot drops the neighbour term of vertex 0", SIGMA,
           "memo0, adj[v] & comp)", "memo0, adj[v] & comp & ~1)",
           (C8, "test_sigma.py::test_pivot_independence"), None),
    Mutant("a component N(u) misses gives sigma1, not sigma0", SIGMA,
           "memo[comp][0]", "memo[comp][1]", (C8, "test_sigma.py::test_pivot_independence"), None),
    Mutant("a one-vertex term drops only x", SIGMA,
           "comp & ~adj[meet.bit_length() - 1] ^ meet", "comp ^ meet",
           (C2, "test_sigma.py::test_grid_counts_match_the_transfer_matrix[6-None]",
            "test_sigma.py::test_pivot_independence"), None),
    Mutant("a one-vertex term adds sigma0(C - N[x])", SIGMA,
           "c0 -= _solve0(", "c0 += _solve0(",
           (C2, "test_sigma.py::test_grid_counts_match_the_transfer_matrix[6-None]",
            "test_sigma.py::test_pivot_independence"), None),
    Mutant("a neighbour term counts the lone vertices inside N(u)", SIGMA,
           "t = 1 << (lone & ~near).bit_count()", "t = 1 << lone.bit_count()", (C8, PLUS), None),
    Mutant("graph6 emits no column from 11 on", GRAPH6,
           "for j in range(1, n):", "for j in range(1, min(n, 11)):", (C10,), None),
    Mutant("gen_graphs drops a class at order 6", GENERATE,
           "    for g, _, _ in _graph_classes(n):\n",
           "    for g, _, _ in _graph_classes(n)[n == 6:]:\n", (ORBIT,), None),
    Mutant("the connected view drops graphs with nine edges", GENERATE,
           '"connected_graphs": (is_connected, lambda spec: True),',
           '"connected_graphs": (lambda g: is_connected(g) and g.edge_count() != 9, lambda spec: True),',
           (ORBIT, C9), None),
    Mutant("main re-enables the collector without freezing", CLI,
           "gc.freeze()", "pass", ("test_cli.py::test_main_freezes_what_the_command_holds",), None),
    Mutant("gen_trees drops one tree at order 18", GENERATE,
           "return (Graph._unchecked(n, t.adj) for t, _ in _tree_classes(n))",
           "return (Graph._unchecked(n, t.adj) for i, (t, _) in enumerate(_tree_classes(n)) if n != 18 or i)",
           (TREES,), None),
    Mutant("gen_forests drops one forest at order 6", GENERATE,
           "for f, _ in _forest_classes(n))", "for i, (f, _) in enumerate(_forest_classes(n)) if n != 6 or i)",
           ("test_generate.py::test_forest_counts_match_euler_transform",), None),
    Mutant("_scan keeps the last minimum instead of the first", VERIFY,
           "for g, q in _extremes(rows))",
           "for g, q in (_extremes(rows[::-1])[0], _extremes(rows)[1]))", (SCAN,), None),
    Mutant("a report drops its first equality witness", VERIFY,
           '"equality_witnesses": list(self.equality_witnesses),',
           '"equality_witnesses": self.equality_witnesses[1:],', (ORACLE,), None),
    Mutant("3.5 stops exempting the edgeless graph", VERIFY,
           "exempt=lambda g: not any(g.adj),", "exempt=None,", (ORACLE,), None),
    Mutant("4.5's bound reads n/4 - 1/5", VERIFY,
           "Fraction(s.n, 4) - Fraction(1, 6)", "Fraction(s.n, 4) - Fraction(1, 5)", (ORACLE,), None),
    Mutant("the delta-2 anomaly note is dropped", VERIFY,
           "if spec.delta == 2 and not report.equality_witnesses:", "if False:", (ORACLE,), None),
    Mutant("_read_digits accepts digit 64", GRAPH6,
           "if not 0 <= digit <= 63:", "if not 0 <= digit <= 64:",
           ("test_graph6.py::test_every_byte_outside_the_digit_range_is_an_error_at_its_offset",
            "test_cli.py::test_input_errors_exit_2"), None),
    Mutant("_report_csv_row blanks max_q", CLI,
           '"max_q": q_str(doc["max_witness"]),', '"max_q": "",', ("test_cli.py::test_verify_csv",), None),
    Mutant("a row echoes its line with the header", CLI,
           'line.decode("ascii").removeprefix(_HEADER)', 'line.decode("ascii")',
           ("test_cli.py::test_rows_echo_their_input_line[compute]",
            "test_cli.py::test_rows_echo_their_input_line[distribution]"), None),
    Mutant("_write_digits pads modulo 3", GRAPH6,
           "pad = -ndigits % 4", "pad = -ndigits % 3",
           ("test_graph6.py::test_write_digits_matches_the_per_digit_writer", C10), None),
    Mutant("3.1 is named 3.1+3.5 from order 3", VERIFY,
           "if spec.n < 4:", "if spec.n < 3:", (ORACLE,), None),
    Mutant("a report's JSON gives its order as its maximum degree", VERIFY,
           '"delta": self.spec.delta,', '"delta": self.spec.n,', (ORACLE,), None),
    Mutant("the anomaly note moves to maximum degree 3", VERIFY,
           "if spec.delta == 2 and", "if spec.delta == 3 and",
           (ORACLE, "test_verify.py::test_max_degree_two_anomaly"), None),
    Mutant("3.5 starts at order 5", VERIFY,
           '"3.5": [(_general_lower, "all_graphs", 4,', '"3.5": [(_general_lower, "all_graphs", 5,', (ORACLE,), None),
    Mutant("the recursion counts the graph of order 0 as one vertex", SIGMA,
           "return (2, 0) if mask else (1, 0)", "return (2, 0) if mask else (2, 0)", (C2,), None),
    Mutant("the label fold lets the top vertex have two lower neighbours", SIGMA,
           "if any(low & (low - 1) for low in lows):", "if any(low & (low - 1) for low in lows[:-1]):",
           ("test_sigma.py::test_tree_dp_rejects_a_cycle_in_a_later_component",
            "test_sigma.py::test_tree_dp_accepts_exactly_the_forests"), None),
    Mutant("the recursion's far side drops its neighbour terms", SIGMA,
           "_solve(far, adj, memo, memo0, adj[v] & comp)", "_solve(far, adj, memo, memo0)", (C2, CARRIED), None),
    Mutant("the class of order 0 holds its rows in a list", GENERATE,
           "Graph._unchecked(0, ())", "Graph._unchecked(0, [])",
           ("test_generate.py::test_graph_classes_pass_the_full_check",), None),
    Mutant("a graft drops the edge from the root to the branch's root", SIGMA,
           "a1 * cb0 + a0 * (cb1 + ca0)", "a1 * cb0 + a0 * cb1", (C1, "test_sigma.py::test_tree_dp_examples"), None),
    Mutant("a prune leaves the edge from the root to the branch's root", SIGMA,
           "(a1 - ra0 * (cb1 + ca0)) // cb0", "(a1 - ra0 * cb1) // cb0",
           (C7, "test_verify.py::test_leaf_deletion_counts_on_labelled_trees"), None),
    Mutant("lemma 4.2 fails at equality", VERIFY,
           "if nv0 * (num + 1) > v0 * num:", "if nv0 * (num + 1) >= v0 * num:",
           (C7, "test_verify.py::test_leaf_lemma_predicates_match_fractions"), None),
    Mutant("a component grows from one vertex of its frontier a step", GRAPHS,
           "grown |= adj[low.bit_length() - 1]", "grown = adj[low.bit_length() - 1]",
           (C2, "test_properties.py::test_split_components_of_a_sub_mask_match_networkx"), None),
    Mutant("canonical_form keeps only the last least leaf", GRAPHS,
           "if best < 0 or code < best:", "if best < 0 or code <= best:",
           ("test_graphs.py::test_canonical_form_generates_the_whole_group",
            "test_graphs.py::test_canonical_form_at_the_cap[petersen]"), None),
    Mutant("the package looks run_theorem up in generate", LAZY,
           '"run_theorem"), "verify")', '"run_theorem"), "verify") | {"run_theorem": "generate"}',
           ("test_cli.py::test_package_names_resolve_to_their_home_modules",), None),
    Mutant("the CLI imports verify at module level", CLI,
           "from .sigma import sigma01, sigma_distribution_bruteforce\n",
           "from .sigma import sigma01, sigma_distribution_bruteforce\nfrom .verify import run_theorem\n",
           ("test_cli.py::test_each_command_loads_only_the_engine_it_runs[compute]",
            "test_cli.py::test_each_command_loads_only_the_engine_it_runs[distribution]",
            "test_cli.py::test_each_command_loads_only_the_engine_it_runs[gen]"), None),
    Mutant("a root column gets a bit in a parent array's code", GRAPHS,
           "if p < j:\n            code", "if p != j:\n            code", (RECORDS,), None),
    Mutant("a parent array's rows leave out each vertex's parent", GRAPHS,
           "adj[j] = 1 << p", "adj[j] = 0", (RECORDS, TREES), None),
    Mutant("a forest's parents are not shifted past the trees before them", GENERATE,
           "bytes(p + shift for tree", "bytes(p for tree", (RECORDS,), None),
    Mutant("the fold keeps each vertex's last child only", SIGMA,
           "kids[p] |= 1 << z", "kids[p] = 1 << z",
           (C7, "test_verify.py::test_leaf_deletion_counts_match_subgraph_oracle"), None),
    Mutant("the leaf walk leaves a vertex's parent out of its neighbours", SIGMA,
           "(1 << par[u] if u else 0)", "0", (C7, "test_verify.py::test_leaf_deletion_counts_match_subgraph_oracle"), None),
    Mutant("a graph's root hangs from vertex 0, not TOP", SIGMA,
           "if low else len(adj) for low in lows]", "if low else 0 for low in lows]",
           (C2, "test_verify.py::test_leaf_deletion_counts_match_subgraph_oracle"), None),
)


def run_tests(tmp: Path, tests, timeout: float) -> dict | None:
    """Outcome and seconds of each named test in the copy ``tmp``, from
    pytest's JUnit report; None if the run timed out."""
    report = tmp / "report.xml"
    report.unlink(missing_ok=True)
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
            f"--rootdir={tmp}", f"--junitxml={report}", *(f"tests/{t}" for t in tests)]
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        subprocess.run(argv, cwd=tmp, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    found = {}
    if report.exists():
        for case in ET.parse(report).iter("testcase"):
            test = f"{case.get('classname').removeprefix('tests.')}.py::{case.get('name')}"
            tags = {child.tag for child in case}
            state = "failed" if tags & {"failure", "error"} else "skipped" if "skipped" in tags else "passed"
            found[test] = (state, float(case.get("time", 0)))
    # a test the run never reported (its module failed to import, say) did not pass
    return {t: found.get(t, ("failed", 0.0)) for t in tests}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="nearindep-mutants-") as name:
        tmp = Path(name)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part, ignore=shutil.ignore_patterns("__pycache__"))
        named = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        start = time.perf_counter()
        clean = run_tests(tmp, named, timeout=900) or {}
        failing = [t for t in named if clean.get(t, ("failed",))[0] != "passed"]
        print(f"unmutated copy: {len(named) - len(failing)} of {len(named)} named tests pass "
              f"({time.perf_counter() - start:.1f} s)")
        if failing:
            print(f"not passing unmutated: {', '.join(failing)}")
            return 1
        survivors = 0
        for m in MUTANTS:
            path = tmp / "src" / m.path
            text = (ROOT / "src" / m.path).read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                print(f"STALE     {m.name}: old text occurs {text.count(m.old)} times in {m.path}")
                survivors += 1
                continue
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            # a run as slow as three clean runs of its tests, plus start-up, is looping
            outcome = run_tests(tmp, m.tests, timeout=10 + 3 * sum(clean[t][1] for t in m.tests))
            path.write_text(text, encoding="utf-8")
            took = f"({time.perf_counter() - start:.1f} s)"
            if outcome is None:
                print(f"killed    {m.name}: timed out {took}")
            elif all(state == "failed" for state, _ in outcome.values()):
                print(f"killed    {m.name} {took}")
            else:
                survivors += 1
                passed = [t for t, (state, _) in outcome.items() if state != "failed"]
                print(f"SURVIVED  {m.name} {took}; not failed: {', '.join(passed)}")
        print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
