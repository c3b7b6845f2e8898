"""Benchmark of the ``nearindep`` command line, run from the repository root:

    python3 perfbench/run.py --workload verify-forests-16 --seed 1 --seconds 15 --trace 0

Every measured run is a fresh ``nearindep`` process started the way the
installed console script starts it, with ``--jobs 1``, one after another:
a closed loop with a single client.  Its wall time, user+sys CPU time and
peak RSS come from ``os.wait4`` on that child alone (``RUSAGE_CHILDREN``
would keep a running maximum, and an in-process repeat would hit the
package's ``lru_cache``d generators).  A run repeats the workload until
``--seconds`` have passed, and at least three times, then reports medians.

Every time is reported at a reference CPU speed.  The host is a slice
of a shared machine whose speed swings by 30% from second to second and
drifts by as much over minutes, in CPU time as in wall time, so raw
times of one program spread past any useful bound.  The benchmark pins
itself and every child to one CPU and runs ``probe.py`` there for the
whole run: a fixed chunk of pure-Python work (no ``nearindep`` code)
every 25 ms, which records the CPU time each chunk took.  A child's time
is scaled by ``PROBE_REF_S / mean chunk time`` over the chunks that
ended while it ran.  A program that does 30% more work still reads 30%
slower; a host that runs 30% slower for a minute does not.  The probe
takes about 4% of the CPU.  Raw medians and the scale factors are
printed above the JSON result line.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones: one untraced pass, then the workload once more in-process under
``perfbench/tracer.py``.  Metric names and units come from
``BENCHMARK.json``; ``perfbench/layers.json`` maps each per-layer metric
to the layer, the end-to-end metric and the workload it should move, and
records the deterministic counters at the seed commit.

Every run's output is checked (see ``workloads.py``); a run that exits
non-zero, differs from the other runs of the set or fails a check counts
as failed.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--seed`` only shapes the
compute-stream corpus; seed 1 is the default and seed 2 the one kept
back for checking claims.  Scratch files go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import corpus
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
LAUNCH = "import sys; from nearindep.cli import main; sys.exit(main())"  # the console script
TRACER = Path(__file__).resolve().parent / "tracer.py"
PROBE = Path(__file__).resolve().parent / "probe.py"
PROBE_REF_S = 0.001  # CPU time of one probe chunk at the reference speed
MIN_ITERATIONS = 3
SETUP_ROUNDS = 4
SETUP_SPAWNS = 5  # per round
CHILD_TIMEOUT_S = 150
COUNTERS = ("graphs.canonical_form.autos", "generate.trees.classes", "generate.forests.classes", "verify.reports")


@dataclass
class Child:
    exit_code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float
    window: tuple[float, float]  # perf_counter() at start and end


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SIGMA_MAX_N", None)  # it lowers caps and so changes the reports
    return env


def spawn(argv: list[str]) -> Child:
    """Run one child to completion and read its own resource usage."""
    with tempfile.TemporaryFile(dir=WORK) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            timer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Child(
            proc.returncode, out, err.read(), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, (t0, t0 + wall),
        )


def nearindep(args: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-c", LAUNCH, *args]


class Probe:
    """``probe.py`` running beside the children, on the CPU they share."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (chunk end, chunk CPU seconds)
        self.proc = subprocess.Popen(
            [sys.executable, str(PROBE)],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            end, cpu = line.split()
            self.samples.append((float(end), float(cpu)))

    def close(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.reader.join()
        self.proc.stdout.close()

    def scale(self, children: list[Child]) -> float:
        """Factor that brings the children's times to the reference speed."""
        cpu = [c for end, c in self.samples if any(t0 <= end <= t1 for t0, t1 in (k.window for k in children))]
        if not cpu:
            raise RuntimeError("the speed probe took no sample while the children ran")
        return PROBE_REF_S / statistics.fmean(cpu)


@dataclass
class Iteration:
    """One pass over the workload's steps, each step a fresh process."""

    children: list[Child]
    items: int = 0
    problems: list[str] = field(default_factory=list)
    scale: float = 1.0  # to the reference speed, from the probe

    def __post_init__(self) -> None:
        self.wall_s = sum(c.wall_s for c in self.children)
        self.cpu_s = sum(c.cpu_s for c in self.children)
        self.rss_mb = max(c.rss_mb for c in self.children)
        self.digest = tuple(hashlib.sha256(c.stdout).hexdigest() for c in self.children)


@dataclass
class Traced:
    """Span and counter summaries of one traced pass, merged over its steps."""

    spans: dict[str, dict]
    counters: Counter
    canonical_calls: Counter  # canonical_form calls by graph order
    graph_classes: dict[int, int]  # most classes one gen_graphs call returned, by order
    wall_s: float = 0.0
    children: list[Child] = field(default_factory=list)
    digest: tuple[str, ...] = ()
    problems: list[str] = field(default_factory=list)

    def layer_metrics(self, untraced_wall: float, scale: float = 1.0) -> dict[str, float]:
        """Every per-layer value by metric name: ``<span>.calls`` and
        ``<span>.self_s`` from the spans, the rest from the counters."""
        out: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        for name, span in self.spans.items():
            out[f"{name}.calls"] = span["calls"]
            out[f"{name}.self_s"] = span["self_s"]
        out.update(self.counters)
        top = max(self.graph_classes, default=0)
        classes = self.graph_classes.get(top, 0)
        children = self.canonical_calls.get(top, 0)  # at the top order every call is on a child
        out["generate.graphs.classes"] = classes
        out["generate.graphs.kept_ratio"] = classes / children if children else 0.0
        out["trace.overhead_s"] = self.wall_s * scale - untraced_wall
        return out


class Bench:
    def __init__(self, workload: workloads.Workload, seed: int):
        self.workload = workload
        self.entries: list[corpus.Entry] = []
        self.corpus_path = WORK / f"{workload.name}-{seed}.g6"
        if any(workloads.CORPUS_TOKEN in step for step in workload.steps):
            self.entries = corpus.build(seed)
            self.corpus_path.write_text("".join(e.line + "\n" for e in self.entries), encoding="ascii")
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._checked: dict[tuple, tuple[int, list[str]]] = {}
        self.reference: tuple[str, ...] = ()  # stdout digests most runs of the set share

    def steps(self) -> list[tuple[str, ...]]:
        rel = str(self.corpus_path.relative_to(ROOT))
        return [tuple(rel if a == workloads.CORPUS_TOKEN else a for a in s) for s in self.workload.steps]

    def record(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)

    def setup_rounds(self) -> list[list[Child]]:
        """Start-up cost: ``nearindep compute`` on empty stdin (interpreter
        start, imports, argparse), after one untimed start that writes
        the bytecode cache as an install would.  Each round's starts
        share one speed scale, so that it rests on enough probe chunks."""
        spawn(nearindep(("compute",)))
        rounds = []
        for _ in range(SETUP_ROUNDS):
            rounds.append([spawn(nearindep(("compute",))) for _ in range(SETUP_SPAWNS)])
            for c in rounds[-1]:
                self.record(c.exit_code == 0 and not c.stdout, f"setup: exit {c.exit_code}, {c.stderr[-200:]!r}")
        return rounds

    def iterate(self) -> Iteration:
        it = Iteration([spawn(nearindep(step)) for step in self.steps()])
        for step, c in zip(self.steps(), it.children):
            if c.exit_code != 0:
                it.problems.append(f"{' '.join(step)}: exit {c.exit_code}, {c.stderr[-300:]!r}")
        if not it.problems:
            if it.digest not in self._checked:  # identical bytes, identical verdict
                self._checked[it.digest] = self.check([c.stdout for c in it.children])
            it.items, problems = self._checked[it.digest]
            it.problems += problems
        return it

    def check(self, stdouts: list[bytes]) -> tuple[int, list[str]]:
        try:
            if self.entries:
                return workloads.check_compute(self.entries, stdouts[0], SRC)
            return workloads.check_verify(self.workload, stdouts)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return 0, [f"malformed output: {exc!r}"]

    def measure(self, seconds: float, min_iterations: int = MIN_ITERATIONS) -> list[Iteration]:
        """Closed loop: next iteration only after the previous one ends,
        and none that would more likely than not end past ``seconds``."""
        runs: list[Iteration] = []
        laps: list[float] = []
        t0 = time.perf_counter()
        while len(runs) < min_iterations or time.perf_counter() - t0 + statistics.median(laps) / 2 < seconds:
            lap = time.perf_counter()
            runs.append(self.iterate())
            laps.append(time.perf_counter() - lap)
        self.reference = Counter(r.digest for r in runs).most_common(1)[0][0]
        for r in runs:
            if r.digest != self.reference:
                r.problems.append("stdout differs from the other runs of the set")
            self.record(not r.problems, "; ".join(r.problems[:3]))
        return runs

    def traced(self) -> Traced:
        """The workload once more, each step in-process under the tracer."""
        t = Traced({}, Counter(), Counter(), {})
        for i, step in enumerate(self.steps()):
            out = WORK / f"{self.workload.name}-trace{i}.json"
            c = spawn([sys.executable, str(TRACER), "--out", str(out), "--", *step])
            t.children.append(c)
            t.digest += (hashlib.sha256(c.stdout).hexdigest(),)
            if c.exit_code != 0:
                t.problems.append(f"traced {' '.join(step)}: exit {c.exit_code}, {c.stderr[-300:]!r}")
                continue
            doc = json.loads(out.read_text(encoding="ascii"))
            t.wall_s += c.wall_s - doc["report_s"]  # writing the trace out is not overhead
            for name, span in doc["spans"].items():
                acc = t.spans.setdefault(name, {"calls": 0, "self_s": 0.0})
                acc["calls"] += span["calls"]
                acc["self_s"] += span["self_s"]
            t.counters.update(doc["counters"])
            t.canonical_calls.update({int(n): k for n, k in doc["canonical_calls"].items()})
            for n, k in doc["graph_classes"].items():
                t.graph_classes[int(n)] = max(k, t.graph_classes.get(int(n), 0))
        return t


def deterministic(values: dict[str, float]) -> dict[str, float]:
    """The counters that repeat exactly from run to run."""
    return {k: v for k, v in values.items() if not k.endswith("_s")}


def main() -> int:
    parser = argparse.ArgumentParser(description="nearindep CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "nearindep" / "cli.py").is_file():
        print(f"perfbench: no nearindep sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so that the probe is stopped
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # inherited by every child

    bench = Bench(workloads.WORKLOADS[args.workload], args.seed)
    probe = Probe()
    try:
        setup_rounds = [] if args.trace else bench.setup_rounds()
        # A traced run needs one untraced pass, for the reference stdout
        # and the tracing overhead.
        runs = bench.measure(0, 1) if args.trace else bench.measure(args.seconds)
        traced = bench.traced() if args.trace else None
    finally:
        probe.close()
    for r in runs:
        r.scale = probe.scale(r.children)
    setup_raw = [c.wall_s for round_ in setup_rounds for c in round_]
    setup = [c.wall_s * probe.scale(round_) for round_ in setup_rounds for c in round_]
    wall = statistics.median(r.wall_s for r in runs)
    items = runs[0].items

    if traced:
        if traced.digest != bench.reference:
            traced.problems.append("traced stdout differs from the untraced runs")
        bench.record(not traced.problems, "; ".join(traced.problems[:3]))
        values = traced.layer_metrics(statistics.median(r.wall_s * r.scale for r in runs), probe.scale(traced.children))
        declared = spec["per_layer"]
        samples = {m["name"]: [values[m["name"]]] for m in declared}
    else:
        samples = {
            "wall_s": [r.wall_s * r.scale for r in runs],
            "cpu_s": [r.cpu_s * r.scale for r in runs],
            "items_per_s": [r.items / (r.wall_s * r.scale) for r in runs],
            "peak_rss_mb": [r.rss_mb for r in runs],
            "setup_s": setup,
        }
        declared = spec["end_to_end"]

    print(f"workload {args.workload}  seed {args.seed}  iterations {len(runs)}  items {items}")
    print(f"  raw (host speed) wall_s {wall:.6g}  cpu_s {statistics.median(r.cpu_s for r in runs):.6g}"
          + (f"  setup_s {statistics.median(setup_raw):.6g}" if setup_raw else ""))
    print("  scale to the reference speed, by iteration: " + " ".join(f"{r.scale:.3f}" for r in runs))
    metrics = {}
    for m in declared:
        vals = samples[m["name"]]
        value = statistics.median(vals)
        line = f"  {m['name']:36s} {value:14.6g} {m['unit']:6s}"
        if len(vals) > 1:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            line += f" q1 {q1:.6g}  q3 {q3:.6g}  n {len(vals)}"
        print(line)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for note in bench.notes[:10]:
        print(f"  FAILED: {note}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
