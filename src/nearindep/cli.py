"""Command-line surface: compute, distribution, gen, scan, verify.

Graphs travel as graph6 lines (one per line, stdin by default), read as
the same bytes from stdin and ``--input`` and decoded by ``parse_graph6``
alone, whose errors name the byte and its offset.  Reports are JSONL
(default) or CSV; large integers are decimal strings, exact for any
consumer.  Exit codes: 0 success, 1 verification violation, 2 usage or
input error, 141 stdout closed by its reader (``nearindep gen | head``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import json
import os
import sys
from typing import Iterator

from .generate import ClassSpec, gen_class
from .graph6 import _HEADER, Graph6Error, emit_graph6, parse_graph6
from .graphs import Graph
from .limits import CapabilityError
from .sigma import sigma01, sigma_distribution_bruteforce
from .verify import THEOREMS, extremal_scan, run_theorem

CLI_FAMILIES = {
    "trees": "trees",
    "forests": "forests",
    "graphs": "all_graphs",
    "connected": "connected_graphs",
}


def _input_graphs(path: str | None) -> Iterator[tuple[Graph, str]]:
    """The graph and graph6 text of each non-blank input line, read as bytes,
    split at newline and stripped of ASCII whitespace, the same way from
    stdin and a file.  ``parse_graph6`` accepts only a line that encoding
    its graph spells again, so the text is the line, its header cut.  The
    file is opened by this call, not when the first line is read, so a
    missing file fails before any output."""
    stdin = path is None or path == "-"
    fh = sys.stdin.buffer if stdin else open(path, "rb")

    def graphs() -> Iterator[tuple[Graph, str]]:
        with contextlib.nullcontext(fh) if stdin else fh:
            for line in filter(None, map(bytes.strip, fh)):
                yield parse_graph6(line), line.decode("ascii").removeprefix(_HEADER)

    return graphs()


def _record_row(g: Graph, g6: str) -> dict:
    pair = sigma01(g)
    q = pair.q
    return {
        "graph6": g6,
        "n": g.n,
        "m": g.edge_count(),
        "sigma0": str(pair.sigma0),
        "sigma1": str(pair.sigma1),
        "q_num": str(q.numerator),
        "q_den": str(q.denominator),
    }


def _emit_rows(rows: Iterator[dict], fmt: str, fieldnames: list[str]) -> None:
    if fmt == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    else:
        for row in rows:
            print(json.dumps(row))


def _cmd_compute(args) -> int:
    rows = (_record_row(g, g6) for g, g6 in _input_graphs(args.input))
    _emit_rows(rows, args.format, ["graph6", "n", "m", "sigma0", "sigma1", "q_num", "q_den"])
    return 0


def _cmd_distribution(args) -> int:
    def row(g: Graph, g6: str) -> dict:
        counts = [str(c) for c in sigma_distribution_bruteforce(g).counts]
        return {"graph6": g6, "n": g.n,
                "counts": " ".join(counts) if args.format == "csv" else counts}

    rows = (row(g, g6) for g, g6 in _input_graphs(args.input))
    _emit_rows(rows, args.format, ["graph6", "n", "counts"])
    return 0


def _class_spec(args) -> ClassSpec:
    family = CLI_FAMILIES[args.cls]
    delta = args.delta
    if delta is not None:
        if args.cls != "graphs":
            raise ValueError("--delta applies to --class graphs only")
        family = "bounded_degree_graphs"
    return ClassSpec(family, args.n, delta)


def _cmd_gen(args) -> int:
    for g in gen_class(_class_spec(args)):
        print(emit_graph6(g))
    return 0


def _cmd_scan(args) -> int:
    report = extremal_scan(_class_spec(args))
    doc = report.to_json()
    if args.objective is not None:
        doc = {k: doc[k] for k in ("family", "n", "delta", "checked")} | {
            "objective": args.objective,
            "witness": doc[f"{args.objective}_witness"],
        }
    print(json.dumps(doc))
    return 0


def _report_csv_row(doc: dict) -> dict:
    def q_str(w):
        return "" if w is None else f"{w['q_num']}/{w['q_den']}"

    return {
        "theorem": doc["theorem"],
        "family": doc["family"],
        "n": doc["n"],
        "delta": "" if doc["delta"] is None else doc["delta"],
        "checked": doc["checked"],
        "passed": doc["passed"],
        "violations": ";".join(v["graph6"] for v in doc["violations"]),
        "equality_witnesses": ";".join(doc["equality_witnesses"]),
        "min_graph6": (doc["min_witness"] or {}).get("graph6", ""),
        "min_q": q_str(doc["min_witness"]),
        "max_graph6": (doc["max_witness"] or {}).get("graph6", ""),
        "max_q": q_str(doc["max_witness"]),
    }


def _cmd_verify(args) -> int:
    reports = run_theorem(args.theorem, args.n_max)
    docs = (r.to_json() for r in reports)
    rows = map(_report_csv_row, docs) if args.format == "csv" else docs
    fieldnames = [
        "theorem", "family", "n", "delta", "checked", "passed",
        "violations", "equality_witnesses",
        "min_graph6", "min_q", "max_graph6", "max_q",
    ]
    _emit_rows(rows, args.format, fieldnames)
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearindep",
        description="Exact independent/1-nearly-independent subset counts and bound verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", default=None, metavar="FILE",
                       help="graph6 lines; '-' or omitted reads stdin")
        p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")

    p = sub.add_parser("compute", help="sigma0, sigma1 and Q per graph6 line")
    add_io(p)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("distribution", help="full induced-edge-count histogram per graph")
    add_io(p)
    p.set_defaults(func=_cmd_distribution)

    def add_class(p):
        p.add_argument("--class", dest="cls", required=True, choices=sorted(CLI_FAMILIES))
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--delta", type=int, default=None,
                       help="restrict to maximum degree exactly delta (with --class graphs)")

    p = sub.add_parser("gen", help="stream one graph6 line per isomorphism class")
    add_class(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("scan", help="extremal Q over a class")
    add_class(p)
    p.add_argument("--objective", choices=("min", "max"), default=None)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify", help="run the named bound checks up to an order")
    p.add_argument("--theorem", required=True, choices=THEOREMS + ("all",))
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--jobs", type=int, default=1, metavar="K",
                   help="accepted and ignored; scans run in one process")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()  # the engine builds no reference cycles, so the collector would find nothing
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early: exit quietly, with fd 1 on devnull for the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (Graph6Error, CapabilityError, ValueError, OSError) as exc:
        print(f"nearindep: error: {exc}", file=sys.stderr)
        return 2
    finally:
        gc.freeze()  # no later collection, nor the one at exit, walks what the command holds
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
