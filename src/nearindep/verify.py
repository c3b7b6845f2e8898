"""Exhaustive checkers for the sharp bounds on Q = sigma1/sigma0.

Each checker scans a whole isomorphism-free universe (connected graphs,
all graphs, graphs of fixed maximum degree, trees, forests), compares
exact rationals, and returns a ``VerificationReport``: how many classes
were checked, every violation found (never thrown), the graphs
attaining the bound, and the extremal witnesses.  Witnesses travel as
graph6 strings so any report line can be re-verified from scratch.

The catalogue of named checks (the ``--theorem`` ids of the CLI):

* 3.1  Q >= 0 over all graphs, zero exactly for the edgeless graph.
* 3.2  connected graphs: Q >= (n-1)/(2^(n-1)+1), equality only for
       the star.
* 3.3  the same lower bound over trees.
* 3.4  maximum degree 1: Q >= 1/3, equality only for one edge plus
       isolated vertices.
* 3.5  all graphs, n >= 4: the star bound holds for every graph except
       the edgeless one (second-smallest Q).
* 3.6  maximum degree D: Q >= min(1/3, Q(star on D+1 vertices)); for
       D = 2 the stated bound is not attained (the class minimum is
       2/5), which is reported rather than failed.
* 4.1  forests: Q <= (n-1)/3, tight for orders 1 and 2.
* 4.2  leaf ratio: sigma0(T-N[v]) / sigma0(T-v) <= 1 - 1/(2^(n-2)+1).
* 4.3  leaf upper bound on Q(T) from the deletion quotients.
* 4.4  leaf identities: sigma0(T) = 2 sigma0(T-N[v]) + sigma0(T-N[u])
       and the matching exact decomposition of Q(T).
* 4.5  forests: Q <= n/4 - 1/6, tight at order 2.

A bound check is a ``Check`` record, applied by the one scan loop
(``_scan``) to a scored table of (graph, Q) rows, with 3.1's per-row
zero test and the extremal rule in the same pass.  A graph6 string is
emitted only for a graph that a report names.  The leaf checks count a
tree and every deletion of it from one set of rooted branch states
(``sigma.leaf_deletion_counts``), the tree DP's own, in one walk.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction
from functools import partial
from operator import itemgetter

from .generate import VIEWS, ClassSpec, gen_class
from .graph6 import emit_graph6
from .graphs import Graph, max_degree
from .limits import Limits, check_cap
from .sigma import Pair, leaf_deletion_counts, q_ratio, star_q
# Unused here, but perfbench/tracer.py rebinds these names in this module.
from .graphs import induced_subgraph  # noqa: F401
from .sigma import sigma01  # noqa: F401

ONE_THIRD = Fraction(1, 3)

Row = tuple[Graph, Fraction]  # one scored member of a universe: (graph, Q), Q None if unread


class Violation(namedtuple("Violation", "graph6 lhs rhs context", defaults=("",))):
    __slots__ = ()


class VerificationReport:
    def __init__(self, theorem_id: str, spec: ClassSpec, checked: int) -> None:
        self.theorem_id = theorem_id
        self.spec = spec
        self.checked = checked
        self.violations: list[Violation] = []
        self.equality_witnesses: list[str] = []
        self.min_witness: tuple[str, Fraction] | None = None
        self.max_witness: tuple[str, Fraction] | None = None
        self.notes: dict = {}

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        def frac(q: Fraction, prefix: str = "") -> dict:
            return {f"{prefix}num": str(q.numerator), f"{prefix}den": str(q.denominator)}

        def witness(w: tuple[str, Fraction] | None) -> dict | None:
            return None if w is None else {"graph6": w[0], **frac(w[1], "q_")}

        return {
            "theorem": self.theorem_id,
            "family": self.spec.family,
            "n": self.spec.n,
            "delta": self.spec.delta,
            "checked": self.checked,
            "passed": self.passed,
            "violations": [
                {"graph6": v.graph6, **frac(v.lhs, "lhs_"), **frac(v.rhs, "rhs_"), "context": v.context}
                for v in self.violations
            ],
            "equality_witnesses": list(self.equality_witnesses),
            "min_witness": witness(self.min_witness),
            "max_witness": witness(self.max_witness),
            "notes": {k: frac(v) if isinstance(v, Fraction) else v for k, v in self.notes.items()},
        }


class Check(namedtuple(
    "Check", "theorem_id op bound extremal off miss exempt note_attained",
    defaults=(None, "", "", None, False),
)):
    """A bound ``Q op bound(spec)`` over a universe; ``bound`` may return
    None at orders where nothing is compared.

    Only graphs accepted by ``extremal`` may attain the bound (else a
    violation with context ``off``), and one it accepts must attain it
    (else context ``miss``, naming the first graph it accepts).  Graphs
    accepted by ``exempt`` are not compared.  ``note_attained`` notes
    whether the bound is attained.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so ``_replace`` validates too

    def __new__(cls, *args, **kwargs) -> Check:
        check = super().__new__(cls, *args, **kwargs)
        if check.op not in (">=", "<="):
            raise ValueError("comparison must be '>=' or '<='")
        return check


def is_star_plus_isolated(g: Graph, k: int) -> bool:
    """True for the star on k >= 2 vertices plus isolated vertices: the
    graph has k - 1 edges, all at one vertex of degree k - 1."""
    return g.edge_count() == k - 1 == max_degree(g)


def is_star_graph(g: Graph) -> bool:
    """True for the star on g.n vertices (orders 0 and 1 included)."""
    return g.n <= 1 or is_star_plus_isolated(g, g.n)


STAR_LOWER = Check(
    "thm-3.2", ">=", lambda s: star_q(s.n), lambda g, s: is_star_graph(g),
    off="bound attained by a non-star graph", miss="star does not attain the bound",
)
TREE_LOWER = STAR_LOWER._replace(theorem_id="cor-3.3", off="bound attained by a non-star tree")
GENERAL_LOWER = Check(  # the star bound of 3.5 applies from order 4 on
    "thm-3.1+3.5", ">=", lambda s: star_q(s.n) if s.n >= 4 else None,
    exempt=lambda g: g.edge_count() == 0,
)
MAX_DEGREE_LOWER = Check(
    "thm-3.6", ">=", lambda s: min(ONE_THIRD, star_q(s.delta + 1)),
    lambda g, s: is_star_plus_isolated(g, s.delta + 1),
    off="bound attained off the star-plus-isolated graph",
    miss="star-plus-isolated graph misses the bound", note_attained=True,
)
_MAX_DEGREE_AT = {  # 3.4 is 3.6 at delta 1; at delta 2 no graph attains the bound
    1: MAX_DEGREE_LOWER._replace(theorem_id="prop-3.4"),
    2: MAX_DEGREE_LOWER._replace(extremal=None),
}
FOREST_BOUNDS = {
    "thm41": Check("thm-4.1", "<=", lambda s: Fraction(s.n - 1, 3), note_attained=True),
    "thm45": Check("thm-4.5", "<=", lambda s: Fraction(s.n, 4) - Fraction(1, 6), note_attained=True),
}


def _score(spec: ClassSpec, q: bool = True) -> list[Row]:
    """Every member of the universe with its Q, in generation order; Q is
    None if ``q`` is false, for a table that only ``_leaf_lemmas`` reads."""
    return [(g, q_ratio(g) if q else None) for g in gen_class(spec)]


def _scan(
    check: Check, spec: ClassSpec, rows: list[Row], row_test: Callable | None = None
) -> VerificationReport:
    """The one loop over the scored rows of ``spec``: ``row_test``, if
    given, whose violations come ahead of the row's bound violations,
    then ``check`` and its extremal rule; plus the extremal witnesses.
    The rows are walked again only to name a missing extremal graph."""
    report = VerificationReport(check.theorem_id, spec, len(rows))
    if rows:
        lo, hi = min(rows, key=itemgetter(1)), max(rows, key=itemgetter(1))
        report.min_witness = emit_graph6(lo[0]), lo[1]
        report.max_witness = emit_graph6(hi[0]), hi[1]
    bound = check.bound(spec)
    attained = False
    for g, q in rows:
        if row_test:
            report.violations += row_test(g, q)
        if bound is None or check.exempt and check.exempt(g):
            continue
        if (q < bound) if check.op == ">=" else (q > bound):
            report.violations.append(Violation(emit_graph6(g), q, bound))
        elif q == bound:
            g6 = emit_graph6(g)
            report.equality_witnesses.append(g6)
            if check.extremal and not check.extremal(g, spec):
                report.violations.append(Violation(g6, q, bound, check.off))
            else:
                attained = True
    if bound is not None:
        if check.extremal and not attained:
            named = ((emit_graph6(g), q) for g, q in rows if check.extremal(g, spec))
            report.violations.append(Violation(*next(named, ("", Fraction(0))), bound, check.miss))
        report.notes["bound"] = bound
        if check.note_attained:
            report.notes["bound_attained"] = bool(report.equality_witnesses)
    return report


def _zero_test(g: Graph, q: Fraction) -> list[Violation]:
    """Theorem 3.1 at one row: Q >= 0, zero exactly for the edgeless graph."""
    empty = g.edge_count() == 0
    fails = {"negative ratio": q < 0, "edgeless graph with nonzero ratio": empty and q != 0,
             "zero ratio off the edgeless graph": not empty and q == 0}
    return [Violation(emit_graph6(g), q, Fraction(0), context) for context, bad in fails.items() if bad]


def _general_lower(spec: ClassSpec, rows: list[Row]) -> VerificationReport:
    """Checks 3.1 and 3.5: the zero-iff-edgeless test of each row, run in
    ``_scan``'s loop ahead of the star bound, and the second-smallest Q."""
    report = _scan(GENERAL_LOWER, spec, rows, _zero_test)
    if spec.n < 4:
        report.theorem_id = "thm-3.1"
    nonzero = [(g, q) for g, q in rows if g.edge_count()]
    if nonzero:
        second = min(q for _, q in nonzero)
        report.notes = {
            "second_smallest": second,
            "second_smallest_witnesses": [emit_graph6(g) for g, q in nonzero if q == second],
        } | report.notes
    return report


def _max_degree_lower(spec: ClassSpec, rows: list[Row]) -> VerificationReport:
    """Check 3.6, which is 3.4 at delta 1.  At delta 2 the bound is not
    attained, so no extremal graph is named and the gap is noted."""
    report = _scan(_MAX_DEGREE_AT.get(spec.delta, MAX_DEGREE_LOWER), spec, rows)
    if spec.delta == 2 and not report.equality_witnesses:
        report.notes["anomaly"] = (
            "stated bound 1/3 is strictly below the class minimum for maximum degree 2"
        )
    return report


# ---------------------------------------------------------------------------
# the leaf lemmas: every deletion of a tree from its rooted branches
# ---------------------------------------------------------------------------

def leaf_lemma_failures(
    n: int, t: Pair, minus_v: Pair, minus_nv: Pair, minus_nu: Pair
) -> list[tuple[Fraction, Fraction, str]]:
    """(lhs, rhs, lemma) for each of the lemmas 4.2-4.4 that one leaf of a
    tree of order n breaks, given the (sigma0, sigma1) pairs of T, T-v,
    T-N[v] and T-N[u].

    For a leaf v with support vertex u (its unique neighbour):

    * 4.2: sigma0(T-N[v]) / sigma0(T-v) <= 1 - 1/(2^(n-2)+1)
    * 4.3: Q(T) <= (r Q(T-v) + 1 + Q(T-N[v])) / (1 + r)
      with r = sigma0(T-v) / sigma0(T-N[v])
    * 4.4: sigma0(T) = 2 sigma0(T-N[v]) + sigma0(T-N[u])
    * 4.4: Q(T) = (2 sigma0(T-N[v]) / sigma0(T)) (Q(T-v) + Q(T-N[v])) / 2
                  + (sigma0(T-N[u]) / sigma0(T)) (1 + Q(T-v))

    Each test is an integer identity or inequality; the Fractions are
    built only for a failure, with the values of the rational forms above.
    """
    (t0, t1), (v0, v1), (nv0, nv1), (nu0, nu1) = t, minus_v, minus_nv, minus_nu
    out = []
    num = 1 << (n - 2)
    if nv0 * (num + 1) > v0 * num:
        out.append((Fraction(nv0, v0), Fraction(num, num + 1), "lemma-4.2"))
    if t1 * (nv0 + v0) > t0 * (v1 + nv0 + nv1):
        out.append((Fraction(t1, t0), Fraction(v1 + nv0 + nv1, nv0 + v0), "lemma-4.3"))
    if t0 != 2 * nv0 + nu0:
        out.append((Fraction(t0), Fraction(2 * nv0 + nu0), "lemma-4.4 sigma0"))
    split = nv0 * v1 + nv1 * v0 + nu0 * (v0 + v1)
    if t1 * v0 != split:
        out.append((Fraction(t1, t0), Fraction(split, v0 * t0), "lemma-4.4 ratio"))
    return out


def _leaf_lemmas(spec: ClassSpec, rows: list[Row]) -> VerificationReport:
    """Checks 4.2-4.4, leaf by leaf, over the trees of ``rows``: sigma of
    each tree and of its leaf deletions from one ``leaf_deletion_counts``
    walk.  Sigma of T is its root state, the tree DP's ``_graft`` fold, so
    4.4 tests the rerooting and the leaf factors, not the graft itself."""
    report = VerificationReport("lem-4.2/4.3/4.4", spec, 0)
    for tree, _ in rows:
        t, leaves = leaf_deletion_counts(tree)
        g6 = ""
        for v, *deletions in leaves:
            report.checked += 1
            for lhs, rhs, lemma in leaf_lemma_failures(spec.n, t, *deletions):
                g6 = g6 or emit_graph6(tree)
                report.violations.append(Violation(g6, lhs, rhs, f"{lemma} leaf {v}"))
    return report


# ---------------------------------------------------------------------------
# the catalogue: the named checks of the CLI, as data
# ---------------------------------------------------------------------------

def _over_forests_and_trees(check: Check) -> list[tuple]:
    scan = partial(_scan, check)
    return [(scan, "forests", 1, Limits.forests_max_n), (scan, "trees", 1, Limits.tree_checks_max_n)]


# id -> its report series: (make, family, lowest order, the Limits constant
# capping the order[, the maximum degrees at order n]); make(spec, rows)
# builds one report from the scored rows of spec
CATALOGUE = {
    "3.1": [(_general_lower, "all_graphs", 1, Limits.graphs_max_n)],
    "3.2": [(partial(_scan, STAR_LOWER), "connected_graphs", 1, Limits.graphs_max_n)],
    "3.3": [(partial(_scan, TREE_LOWER), "trees", 1, Limits.tree_checks_max_n)],
    "3.4": [(_max_degree_lower, "bounded_degree_graphs", 2, Limits.degree_checks_max_n, lambda n: (1,))],
    "3.5": [(_general_lower, "all_graphs", 4, Limits.degree_checks_max_n)],
    "3.6": [(_max_degree_lower, "bounded_degree_graphs", 2, Limits.degree_checks_max_n, lambda n: range(1, n))],
    "4.1": _over_forests_and_trees(FOREST_BOUNDS["thm41"]),
    "4.2": [(_leaf_lemmas, "trees", 2, Limits.tree_checks_max_n)],
    "4.3": [(_leaf_lemmas, "trees", 2, Limits.tree_checks_max_n)],
    "4.4": [(_leaf_lemmas, "trees", 2, Limits.tree_checks_max_n)],
    "4.5": _over_forests_and_trees(FOREST_BOUNDS["thm45"]),
}
THEOREMS = tuple(CATALOGUE)

def _verify(theorem: str, n: int, delta: int | None = None, series: int = 0) -> VerificationReport:
    """One report of catalogue id ``theorem`` (from its series-th universe),
    with n and delta checked against the orders and degrees it runs for."""
    make, family, lowest, cap, *deltas = CATALOGUE[theorem][series]
    if n < lowest:
        raise ValueError(f"check {theorem} needs n >= {lowest}")
    check_cap(n, cap, f"check {theorem}")
    allowed = deltas[0](n) if deltas else (None,)
    if delta not in allowed:
        raise ValueError(f"check {theorem} at n={n} needs delta in {list(allowed)}, got delta={delta}")
    return _reports([(make, ClassSpec(family, n, delta))])[0]


# No caller in the engine, but perfbench/tracer.py rebinds these six in this module.
def verify_connected_lower(n: int) -> VerificationReport:
    """Connected graphs on n vertices: Q >= Q(star), equality only at the star."""
    return _verify("3.2", n)


def verify_general_lower(n: int) -> VerificationReport:
    """All graphs on n vertices: Q = 0 exactly for the edgeless graph, and
    (for n >= 4) Q >= Q(star) for every other graph.  Also records the
    second-smallest Q and its witnesses."""
    return _verify("3.1", n)


def verify_max_degree_lower(n: int, delta: int) -> VerificationReport:
    """Graphs on n vertices with maximum degree exactly delta:
    Q >= min(1/3, Q(star on delta+1 vertices)).

    For delta != 2 the set of graphs attaining the bound must be exactly
    the star on delta+1 vertices padded with isolated vertices.  For
    delta = 2 the bound is not attainable (the class minimum is Q of the
    3-vertex path plus isolated vertices); the observed minimum is
    reported instead of being treated as a failure.
    """
    return _verify("3.6", n, delta)


def verify_tree_lower(n: int) -> VerificationReport:
    """Trees on n vertices: Q >= Q(star), equality only at the star."""
    return _verify("3.3", n)


def verify_forest_upper(n: int, which: str, universe: str = "forests") -> VerificationReport:
    """Forests (or just trees) on n vertices against one of the two upper
    bounds: Q <= (n-1)/3 or Q <= n/4 - 1/6.  Equality witnesses and the
    class maximum are recorded; neither bound claims uniqueness."""
    if which not in FOREST_BOUNDS:
        raise ValueError(f"which must be one of {sorted(FOREST_BOUNDS)}")
    if universe not in ("forests", "trees"):
        raise ValueError("universe must be 'forests' or 'trees'")
    return _verify("4.1" if which == "thm41" else "4.5", n, series=1 if universe == "trees" else 0)


def verify_leaf_lemmas(n: int) -> VerificationReport:
    """Per-leaf checks over every tree of order n: the sigma0 deletion
    ratio bound, the leaf upper bound on Q, and both exact identities
    relating a tree to its leaf deletions (their rational forms are in
    ``leaf_lemma_failures``).

    The counts of T and of the three deletions come from one
    ``leaf_deletion_counts`` walk: T's are the root state of the tree
    DP's ``_graft`` fold, the deletions' are rerooted from it.  So the
    identities are not an independent check of that fold: they test the
    rerooting by ``_prune`` and the leaf factors.  The tests compare T
    and the deletions with counts of T and of the deleted subgraphs.
    Each line is tested in its integer form; a violation reports the
    rational sides.
    """
    return _verify("4.2", n)


def extremal_scan(spec: ClassSpec) -> VerificationReport:
    """Generic extremal search over one universe: the members of least
    and greatest Q as witnesses, with no bound compared."""
    return _scan(Check("scan", ">=", lambda s: None), spec, _score(spec))


def _reports(plan: list[tuple[Callable, ClassSpec]]) -> list[VerificationReport]:
    """The report of each (make, spec) step of ``plan``, in plan order: each
    universe is scored once per order, one table at a time (a view filters
    the table of all graphs), and each distinct step is made once."""

    def table_of(spec: ClassSpec) -> ClassSpec:
        return ClassSpec("all_graphs", spec.n) if spec.family in VIEWS else spec

    reports = {}
    for table in dict.fromkeys(table_of(spec) for _, spec in plan):
        steps = dict.fromkeys(s for s in plan if table_of(s[1]) == table)
        rows = _score(table, any(make is not _leaf_lemmas for make, _ in steps))
        for make, spec in steps:
            keep = VIEWS.get(spec.family)
            reports[make, spec] = make(spec, [r for r in rows if keep(r[0], spec.delta)] if keep else rows)
        del rows  # release this table before the next one is built
    return [reports[step] for step in plan]


def run_theorem(theorem: str, n_max: int) -> list[VerificationReport]:
    """Run one named check for every order up to n_max (clamped to the
    documented cap of its universe); 'all' runs the whole catalogue.
    A negative n_max is a ValueError.

    'all' lists one report per check and order, so 3.1/3.5, 3.4/3.6 and
    4.2/4.3/4.4 repeat the one report ``_reports`` makes for each.
    """
    if theorem != "all" and theorem not in CATALOGUE:
        raise ValueError(f"unknown theorem id {theorem!r}")
    if n_max < 0:
        raise ValueError(f"negative order bound n_max={n_max}")
    return _reports([
        (make, ClassSpec(family, n, d))
        for t in (THEOREMS if theorem == "all" else (theorem,))
        for make, family, lowest, cap, *deltas in CATALOGUE[t]
        for n in range(lowest, min(n_max, cap) + 1)
        for d in (deltas[0](n) if deltas else (None,))
    ])
