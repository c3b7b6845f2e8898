"""Self-test of the traced run, from the repository root:

    python3 perfbench/selftest.py [--record]

For every workload in BENCHMARK.json it runs the traced pass twice and
fails (exit 1) unless both passes give the same stdout and exactly the
same deterministic counters (calls, automorphisms, classes, kept ratio,
reports), and unless ``graphs.canonical_form.calls`` is 0 on the
workloads that must bypass canonical forms.  It also prints where the
counters differ from those recorded in ``layers.json``; a change that
alters the work done is expected to move them.  ``--record`` stores the
new counters there.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads

LAYERS = run.Path(__file__).resolve().parent / "layers.json"
NO_CANONICAL_FORM = ("verify-forests-16", "compute-stream")


def main() -> int:
    parser = argparse.ArgumentParser(description="traced-run self-test")
    parser.add_argument("--record", action="store_true", help="store the counters in layers.json")
    args = parser.parse_args()

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = json.loads(LAYERS.read_text(encoding="utf-8"))
    recorded = layers["counters_at_seed"]
    run.WORK.mkdir(exist_ok=True)
    failures = []
    for w in spec["workloads"]:
        name = w["name"]
        bench = run.Bench(workloads.WORKLOADS[name], layers["seeds"]["default"])
        first, second = bench.traced(), bench.traced()
        failures += [f"{name}: {p}" for p in first.problems + second.problems]
        a = run.deterministic(first.layer_metrics(0.0))
        b = run.deterministic(second.layer_metrics(0.0))
        if first.digest != second.digest:
            failures.append(f"{name}: the two traced passes print different stdout")
        failures += [f"{name}: {k} is {a[k]} then {b.get(k)}" for k in sorted(a) if a[k] != b.get(k)]
        if name in NO_CANONICAL_FORM and a.get("graphs.canonical_form.calls") != 0:
            failures.append(f"{name}: graphs.canonical_form.calls is {a.get('graphs.canonical_form.calls')}, not 0")
        old = recorded.get(name, {})
        for k in sorted(set(a) | set(old)):
            if a.get(k) != old.get(k):
                print(f"{name}: {k} recorded {old.get(k)}, now {a.get(k)}")
        print(f"{name}: {len(a)} counters, traced wall {first.wall_s:.2f} s and {second.wall_s:.2f} s")
        recorded[name] = dict(sorted(a.items()))
    if args.record:
        LAYERS.write_text(json.dumps(layers, indent=2) + "\n", encoding="utf-8")
    for f in failures:
        print(f"FAIL {f}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
