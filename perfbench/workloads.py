"""Workload definitions and the checks on their outputs.

A workload is one or more ``nearindep`` commands run back to back, each
in a fresh process; one pass over all of them is an iteration.  The
verify workloads scan exhaustive universes and take no seed; only the
compute-stream corpus depends on ``--seed``.

Each check returns (items, problems): the item count behind
``items_per_s`` and a list of human-readable failures, empty when the
output is correct.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import corpus

# OEIS, indexed by order n.
GRAPHS_A000088 = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)
CONNECTED_A001349 = (1, 1, 1, 2, 6, 21, 112, 853, 11117)
TREES_A000055 = (1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320)
FORESTS_A005195 = (1, 1, 2, 3, 6, 10, 20, 37, 76, 153, 329, 710, 1601, 3658, 8599)
CLASS_COUNTS = {
    "all_graphs": GRAPHS_A000088,
    "connected_graphs": CONNECTED_A001349,
    "trees": TREES_A000055,
    "forests": FORESTS_A005195,
}

CORPUS_TOKEN = "{corpus}"


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[tuple[str, ...], ...]  # nearindep argv of each command
    reports: int = 0  # verify: expected report lines over all steps
    required: frozenset = field(default_factory=frozenset)  # (theorem, family, n) that must appear


def _verify_all(n_max: int, reports: int) -> Workload:
    required = {("thm-3.2", "connected_graphs", n) for n in range(1, n_max + 1)}
    required |= {("thm-3.1", "all_graphs", n) for n in range(1, 4)}
    required |= {("thm-3.1+3.5", "all_graphs", n) for n in range(4, n_max + 1)}
    return Workload(
        f"verify-all-{n_max}",
        (("verify", "--theorem", "all", "--n-max", str(n_max), "--jobs", "1"),),
        reports,
        frozenset(required),
    )


WORKLOADS = {
    w.name: w
    for w in (
        _verify_all(7, 98),
        # Not in BENCHMARK.json: one process takes 60-105 s on a 2-vCPU VM
        # with Python 3.11, beyond the per-run budget.  Run it by hand for
        # the n = 8 north-star figures.
        _verify_all(8, 108),
        Workload(
            "verify-forests-16",
            (
                ("verify", "--theorem", "4.1", "--n-max", "16", "--jobs", "1"),
                ("verify", "--theorem", "4.4", "--n-max", "12", "--jobs", "1"),
            ),
            41,
            frozenset(
                {("thm-4.1", "trees", n) for n in range(1, 17)}
                | {("thm-4.1", "forests", n) for n in range(1, 15)}
                | {("lem-4.2/4.3/4.4", "trees", n) for n in range(2, 13)}
            ),
        ),
        Workload("compute-stream", (("compute", "--input", CORPUS_TOKEN),)),
    )
}


def check_verify(w: Workload, stdouts: list[bytes]) -> tuple[int, list[str]]:
    """Every report passed, the class counts match OEIS, nothing is missing."""
    problems: list[str] = []
    docs = []
    for out in stdouts:
        try:
            docs += [json.loads(line) for line in out.decode("ascii").splitlines()]
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 0, [f"unparseable report: {exc}"]
    if len(docs) != w.reports:
        problems.append(f"{len(docs)} reports, expected {w.reports}")
    seen = set()
    for d in docs:
        key = (d["theorem"], d["family"], d["n"])
        seen.add(key)
        if not d["passed"]:
            problems.append(f"{key} did not pass")
        table = CLASS_COUNTS.get(d["family"])
        if table is not None and not d["theorem"].startswith("lem-"):
            if d["n"] >= len(table) or d["checked"] != table[d["n"]]:
                problems.append(f"{key} checked {d['checked']} classes")
    missing = sorted(w.required - seen)
    if missing:
        problems.append(f"missing reports {missing[:3]}")
    return sum(d["checked"] for d in docs), problems


def _import_oracle(src: Path) -> Callable:
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from nearindep.graph6 import parse_graph6
    from nearindep.sigma import sigma_distribution_bruteforce

    return lambda line: sigma_distribution_bruteforce(parse_graph6(line)).pair()


def check_compute(entries: list[corpus.Entry], stdout: bytes, src: Path) -> tuple[int, list[str]]:
    """Rows echo their input, Q is sigma1/sigma0 reduced, cycles meet the
    Lucas/Fibonacci closed forms and atlas rows match the subset sweep."""
    try:
        rows = [json.loads(line) for line in stdout.decode("ascii").splitlines()]
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return 0, [f"unparseable row: {exc}"]
    if len(rows) != len(entries):
        return len(rows), [f"{len(rows)} rows for {len(entries)} input lines"]
    oracle = _import_oracle(src)
    problems: list[str] = []
    for i, (e, row) in enumerate(zip(entries, rows)):
        s0, s1 = int(row["sigma0"]), int(row["sigma1"])
        q = Fraction(s1, s0)
        if row["graph6"] != e.line or (row["n"], row["m"]) != (e.n, e.m):
            problems.append(f"row {i}: echoes {row['graph6']!r} n={row['n']} m={row['m']}")
        if (int(row["q_num"]), int(row["q_den"])) != (q.numerator, q.denominator):
            problems.append(f"row {i}: Q is not sigma1/sigma0 in lowest terms")
        if e.kind == "cycle" and (s0, s1) != corpus.cycle_sigma(e.n):
            problems.append(f"row {i}: C{e.n} gives ({s0}, {s1})")
        if e.kind == "atlas":
            pair = oracle(e.line)
            if (s0, s1) != (pair.sigma0, pair.sigma1):
                problems.append(f"row {i}: atlas graph {e.line!r} disagrees with the subset sweep")
        if len(problems) > 5:
            break
    return len(rows), problems
