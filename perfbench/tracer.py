"""Run one ``nearindep`` command in-process with per-layer span recording.

    PYTHONPATH=src python3 perfbench/tracer.py --out SUMMARY.json -- verify --theorem 4.1 --n-max 16

The package is imported unchanged; public functions are rebound, in the
module where their callers look them up, with recorders that append a
span (name, start, end, parent) to in-memory arrays.  The command runs
through ``nearindep.cli.main`` under a root ``cli`` span, and its stdout
is the command's own.  Afterwards the spans are written to
``SUMMARY.spans.tsv``, and to ``SUMMARY.json`` the calls, total and self
time (the span minus the time its child spans cover) of each span name,
plus work counters: automorphisms returned and canonical forms computed
per graph order, classes yielded by each generator, and reports made,
and how long writing them took (``report_s``).  The exit code is the
command's.

Generators are wrapped to return lists, so a span times the exhaustion
of the stream and not its creation; every caller on the benchmarked
paths iterates the stream exactly once, so behaviour is unchanged.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from array import array
from collections import Counter

import nearindep.cli
import nearindep.generate
import nearindep.graphs
import nearindep.sigma
import nearindep.verify

VERIFY_CHECKS = (
    "verify_general_lower",
    "verify_connected_lower",
    "verify_max_degree_lower",
    "verify_tree_lower",
    "verify_forest_upper",
    "verify_leaf_lemmas",
)

# span name -> (module, attribute) bindings it replaces
SPANS = {
    "graphs.canonical_form": [(nearindep.generate, "canonical_form"), (nearindep.graphs, "canonical_form")],
    "generate.graphs": [(nearindep.generate, "gen_graphs")],
    "generate.trees": [(nearindep.generate, "gen_trees")],
    "generate.forests": [(nearindep.generate, "gen_forests")],
    "verify.gen_class": [(nearindep.verify, "gen_class")],
    "verify.check": [(nearindep.verify, f) for f in VERIFY_CHECKS],
    "sigma.q_ratio": [(nearindep.verify, "q_ratio")],
    "sigma.sigma01": [(nearindep.sigma, "sigma01"), (nearindep.verify, "sigma01"), (nearindep.cli, "sigma01")],
    "sigma.tree_dp": [(nearindep.sigma, "sigma01_tree_dp")],
    "sigma.recursive": [(nearindep.sigma, "sigma01_recursive")],
    "graphs.induced_subgraph": [(nearindep.sigma, "induced_subgraph"), (nearindep.verify, "induced_subgraph")],
    "graphs.connected_components": [(nearindep.sigma, "connected_components"), (nearindep.graphs, "connected_components")],
    "graph6.parse": [(nearindep.cli, "parse_graph6")],
    "graph6.emit": [(nearindep.verify, "emit_graph6"), (nearindep.cli, "emit_graph6")],
}
EXHAUST = {"generate.graphs", "generate.trees", "generate.forests", "verify.gen_class"}


class Tracer:
    """Spans of one process, kept in parallel arrays until the run ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.canonical_calls: Counter = Counter()  # by graph order
        self.graph_classes: dict[int, int] = {}  # most classes one gen_graphs call returned, by order

    def wrap(self, name: str, fn, exhaust: bool = False, observe=None):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack, name_of, parent, start, end = self.stack, self.name_of, self.parent, self.start, self.end

        def recorder(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
                if exhaust:
                    out = list(out)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, out)
            return out

        return recorder

    def install(self) -> None:
        counters = self.counters
        observers = {
            "graphs.canonical_form": self._saw_canonical_form,
            "generate.graphs": self._saw_graphs,
            "generate.trees": lambda args, out: counters.update({"generate.trees.classes": len(out)}),
            "generate.forests": lambda args, out: counters.update({"generate.forests.classes": len(out)}),
            "verify.check": lambda args, out: counters.update({"verify.reports": 1}),
        }
        for name, sites in SPANS.items():
            recorders = {}  # one recorder per distinct original function
            for mod, attr in sites:
                fn = getattr(mod, attr)
                if fn not in recorders:
                    recorders[fn] = self.wrap(name, fn, name in EXHAUST, observers.get(name))
                setattr(mod, attr, recorders[fn])

    def _saw_canonical_form(self, args, out) -> None:
        self.canonical_calls[args[0].n] += 1
        self.counters["graphs.canonical_form.autos"] += len(out[1])

    def _saw_graphs(self, args, out) -> None:
        n = args[0]
        self.graph_classes[n] = max(self.graph_classes.get(n, 0), len(out))

    def summary(self) -> dict:
        count = len(self.start)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        spans = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(count):
            s = spans[self.names[self.name_of[i]]]
            dur = self.end[i] - self.start[i]
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - child[i]
        return {
            "spans": spans,
            "counters": self.counters,
            "canonical_calls": self.canonical_calls,
            "graph_classes": self.graph_classes,
        }

    def write_spans(self, path: str) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id\tparent\tname\tstart_us\tend_us\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name_of[i]]}\t"
                    f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\n"
                )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="summary JSON path; spans go beside it")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the nearindep arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = Tracer()
    tracer.install()
    cli_main = tracer.wrap("cli", nearindep.cli.main)
    code = cli_main(argv)
    sys.stdout.flush()

    t0 = time.perf_counter()
    tracer.write_spans(args.out.removesuffix(".json") + ".spans.tsv")
    doc = tracer.summary()
    doc["report_s"] = time.perf_counter() - t0
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
