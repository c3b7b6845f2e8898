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
(``_scan``) to a table of (graph, (sigma0, sigma1)) rows as generation
carries them, with 3.1's per-row zero test and the extremal rule in the
same pass.  Q is compared by cross-multiplying (sigma0 >= 1): a
``Fraction`` is built, and a graph6 string emitted, only for what a
report names.  The leaf checks count a tree and its deletions in one
walk over the tree DP's branch states (``sigma.leaf_deletion_counts``),
rerooting no leaf, once per support.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction
from functools import partial
from operator import itemgetter

from .generate import VIEWS, ClassSpec, _forest_classes, _graph_classes, _tree_list, gen_class
from .graph6 import emit_graph6
from .graphs import Graph, bits, max_degree
from .limits import Limits, check_cap
from .sigma import Pair, leaf_deletion_counts, star_q
# Unused here, but perfbench/tracer.py rebinds these names in this module.
from .graphs import induced_subgraph  # noqa: F401
from .sigma import q_ratio, sigma01  # noqa: F401

ONE_THIRD = Fraction(1, 3)

Row = tuple[Graph, Pair]  # one member of a universe: (graph, (sigma0, sigma1))


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
    exempt=lambda g: not any(g.adj),
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


def _score(table: ClassSpec) -> list[Row]:
    """Every member of a table in generation order, with the (sigma0,
    sigma1) its class carries out of generation; no Q is built."""
    if table.family != "all_graphs":
        return list((_tree_list if table.family == "trees" else _forest_classes)(table.n))
    # gen_graphs checks the cap before _graph_classes runs
    return list(zip(list(gen_class(table)), map(itemgetter(2), _graph_classes(table.n)), strict=True))


def _extremes(rows: list[Row]) -> tuple[tuple[Graph, Fraction], tuple[Graph, Fraction]]:
    """(graph, Q) of the first row of least Q and of the first of greatest
    Q, as ``min`` and ``max`` pick them; s1/s0 < b1/b0 is s1*b0 < b1*s0."""
    lo = hi = rows[0]
    (l0, l1), (h0, h1) = lo[1], hi[1]
    for row in rows:
        s0, s1 = row[1]
        if s1 * l0 < l1 * s0:
            lo, l0, l1 = row, s0, s1
        elif s1 * h0 > h1 * s0:
            hi, h0, h1 = row, s0, s1
    return (lo[0], Fraction(l1, l0)), (hi[0], Fraction(h1, h0))


def _scan(
    check: Check, spec: ClassSpec, rows: list[Row], row_test: Callable | None = None
) -> VerificationReport:
    """The one loop over the rows of ``spec``: ``row_test``, if given,
    whose violations come ahead of the row's bound violations, then
    ``check`` and its extremal rule; plus the extremal witnesses.  A row
    breaks the bound when gap = s1*den - num*s0 > 0 and meets it at 0.
    The rows are walked again only to name a missing extremal graph."""
    report = VerificationReport(check.theorem_id, spec, len(rows))
    if rows:
        report.min_witness, report.max_witness = ((emit_graph6(g), q) for g, q in _extremes(rows))
    bound = check.bound(spec)
    sign = 1 if check.op == "<=" else -1  # so that gap > 0 breaks the bound
    num, den = (sign * bound.numerator, sign * bound.denominator) if bound is not None else (0, 0)
    attained = False
    for g, (s0, s1) in rows:
        if row_test:
            report.violations += row_test(g, (s0, s1))
        if bound is None or check.exempt and check.exempt(g):
            continue
        gap = s1 * den - num * s0
        if gap > 0:
            report.violations.append(Violation(emit_graph6(g), Fraction(s1, s0), bound))
        elif gap == 0:
            g6 = emit_graph6(g)
            report.equality_witnesses.append(g6)
            if check.extremal and not check.extremal(g, spec):
                report.violations.append(Violation(g6, bound, bound, check.off))
            else:
                attained = True
    if bound is not None:
        if check.extremal and not attained:
            named = ((emit_graph6(g), Fraction(s1, s0)) for g, (s0, s1) in rows if check.extremal(g, spec))
            report.violations.append(Violation(*next(named, ("", Fraction(0))), bound, check.miss))
        report.notes["bound"] = bound
        if check.note_attained:
            report.notes["bound_attained"] = bool(report.equality_witnesses)
    return report


def _zero_test(g: Graph, pair: Pair) -> list[Violation]:
    """Theorem 3.1 at one row: Q >= 0, zero exactly for the edgeless graph
    (no row has a neighbour); as sigma0 >= 1, Q has the sign of sigma1."""
    s0, s1 = pair
    empty = not any(g.adj)
    fails = {"negative ratio": s1 < 0, "edgeless graph with nonzero ratio": empty and s1 != 0,
             "zero ratio off the edgeless graph": not empty and s1 == 0}
    return [Violation(emit_graph6(g), Fraction(s1, s0), Fraction(0), c) for c, bad in fails.items() if bad]


def _general_lower(spec: ClassSpec, rows: list[Row]) -> VerificationReport:
    """Checks 3.1 and 3.5: the zero-iff-edgeless test of each row, run in
    ``_scan``'s loop ahead of the star bound, and the second-smallest Q
    (the least with an edge) found as ``_scan`` finds the least."""
    report = _scan(GENERAL_LOWER, spec, rows, _zero_test)
    if spec.n < 4:
        report.theorem_id = "thm-3.1"
    nonzero = [row for row in rows if any(row[0].adj)]
    if nonzero:
        second = _extremes(nonzero)[0][1]
        b0, b1 = second.denominator, second.numerator
        report.notes = {
            "second_smallest": second,
            "second_smallest_witnesses": [emit_graph6(g) for g, (s0, s1) in nonzero if s1 * b0 == b1 * s0],
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
    """Checks 4.2-4.4 over the trees of ``rows``, once per support vertex
    (its leaves share every count) and listed leaf by leaf, with the counts
    of one ``leaf_deletion_counts`` walk.  Sigma of T is its root state, the
    tree DP's ``_graft`` fold, so 4.4 tests the rerooting and leaf factors;
    that sigma must equal the pair the tree carries out of generation."""
    report = VerificationReport("lem-4.2/4.3/4.4", spec, 0)
    for tree, carried in rows:
        t, supports = leaf_deletion_counts(tree)
        if carried != t:
            q = Fraction(carried[1], carried[0]), Fraction(t[1], t[0])
            report.violations.append(Violation(emit_graph6(tree), *q, f"carried pair {carried} != walk {t}"))
        found = []
        for leaves, *deletions in supports:
            report.checked += leaves.bit_count()
            if fails := leaf_lemma_failures(spec.n, t, *deletions):
                found += ((v, *fail) for v in bits(leaves) for fail in fails)
        for v, lhs, rhs, lemma in sorted(found, key=itemgetter(0)):  # stable: lemma order kept
            report.violations.append(Violation(emit_graph6(tree), lhs, rhs, f"{lemma} leaf {v}"))
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
    "3.4": [(_max_degree_lower, "bounded_degree_graphs", 2, Limits.graphs_max_n, lambda n: (1,))],
    "3.5": [(_general_lower, "all_graphs", 4, Limits.graphs_max_n)],
    "3.6": [(_max_degree_lower, "bounded_degree_graphs", 2, Limits.graphs_max_n, lambda n: range(1, n))],
    "4.1": _over_forests_and_trees(Check("thm-4.1", "<=", lambda s: Fraction(s.n - 1, 3), note_attained=True)),
    "4.2": [(_leaf_lemmas, "trees", 2, Limits.tree_checks_max_n)],
    "4.3": [(_leaf_lemmas, "trees", 2, Limits.tree_checks_max_n)],
    "4.4": [(_leaf_lemmas, "trees", 2, Limits.tree_checks_max_n)],
    "4.5": _over_forests_and_trees(
        Check("thm-4.5", "<=", lambda s: Fraction(s.n, 4) - Fraction(1, 6), note_attained=True)),
}
THEOREMS = tuple(CATALOGUE)

def _verify(theorem: str, n: int, delta: int | None = None) -> VerificationReport:
    """One report of catalogue id ``theorem`` (from its first universe),
    with n and delta checked against the orders and degrees it runs for."""
    make, family, lowest, cap, *deltas = CATALOGUE[theorem][0]
    if n < lowest:
        raise ValueError(f"check {theorem} needs n >= {lowest}")
    check_cap(n, cap, f"check {theorem}")
    allowed = deltas[0](n) if deltas else (None,)
    if delta not in allowed:
        raise ValueError(f"check {theorem} at n={n} needs delta in {list(allowed)}, got delta={delta}")
    return _reports([(make, ClassSpec(family, n, delta))])[0]


# No caller in the engine, but perfbench/tracer.py rebinds these six in this module.
verify_general_lower = partial(_verify, "3.1")
verify_connected_lower = partial(_verify, "3.2")
verify_tree_lower = partial(_verify, "3.3")
verify_max_degree_lower = partial(_verify, "3.6")
verify_forest_upper = partial(_verify, "4.1")
verify_leaf_lemmas = partial(_verify, "4.2")


def extremal_scan(spec: ClassSpec) -> VerificationReport:
    """Generic extremal search over one universe: the members of least
    and greatest Q as witnesses, with no bound compared."""
    return _reports([(partial(_scan, Check("scan", ">=", lambda s: None)), spec)])[0]


def _reports(plan: list[tuple[Callable, ClassSpec]]) -> list[VerificationReport]:
    """The report of each (make, spec) step of ``plan``, in plan order: each
    universe is scored once per order, one table at a time, and each
    distinct step is made once.  A view's key splits the table of all
    graphs once, in table order, and each spec takes the rows of its value."""

    def table_of(spec: ClassSpec) -> ClassSpec:
        return ClassSpec("all_graphs", spec.n) if spec.family in VIEWS else spec

    reports = {}
    for table in dict.fromkeys(table_of(spec) for _, spec in plan):
        steps = dict.fromkeys(s for s in plan if table_of(s[1]) == table)
        rows = _score(table)
        views = {spec.family: {} for _, spec in steps if spec.family in VIEWS}
        for family, split in views.items():  # each view's key once per row
            key = VIEWS[family][0]
            for row in rows:
                split.setdefault(key(row[0]), []).append(row)
        for make, spec in steps:
            split = views.get(spec.family)
            view = rows if split is None else split.get(VIEWS[spec.family][1](spec), [])
            reports[make, spec] = make(spec, view)
        del rows, views  # release this table before the next one is built
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
