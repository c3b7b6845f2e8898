"""Samples how fast this CPU runs while the benchmark measures the program.

    python3 perfbench/probe.py

Every ``PERIOD_S`` seconds it runs one fixed chunk of
pure-Python work, about 1 ms, and prints ``<end> <cpu>``: the
``time.perf_counter()`` at which the chunk ended and the CPU seconds the
chunk took.  The benchmark pins it to the CPU the program runs on, so
the chunks sample that CPU's speed all through the program's run: on a
shared host the same code runs up to 30% slower from one second to the
next, and the program and the chunks slow down together.  The chunk
imports nothing from ``nearindep``, so a change to the program cannot
move it.  It is memoised recursion over vertex bitmasks, the kind of
work ``nearindep.sigma`` does, on a graph fixed by ``random.Random(0)``.

The probe takes about 4% of the CPU.  It exits when its output is
closed or its parent is gone.
"""

from __future__ import annotations

import os
import random
import sys
import time

PERIOD_S = 0.025
CHUNK_REPEATS = 10


def independent_sets(adj: list[int]) -> tuple[int, int]:
    """(number of independent sets, sum of their sizes) by bitmask recursion."""
    memo: dict[int, tuple[int, int]] = {}

    def rec(mask: int) -> tuple[int, int]:
        if not mask:
            return 1, 0
        hit = memo.get(mask)
        if hit is not None:
            return hit
        v = mask.bit_length() - 1
        rest = mask & ~(1 << v)
        a0, a1 = rec(rest)
        b0, b1 = rec(rest & ~adj[v])
        memo[mask] = out = (a0 + b0, a1 + b1 + b0)
        return out

    return rec((1 << len(adj)) - 1)


def fixed_graph(n: int = 16, m: int = 22) -> list[int]:
    rng = random.Random(0)
    adj = [0] * n
    for _ in range(m):
        u, v = rng.sample(range(n), 2)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def main() -> int:
    parent = os.getppid()
    adj = fixed_graph()
    expected = independent_sets(adj)
    while os.getppid() == parent:
        c0 = time.thread_time()
        for _ in range(CHUNK_REPEATS):
            if independent_sets(adj) != expected:
                return 1
        cpu = time.thread_time() - c0
        try:
            print(f"{time.perf_counter():.6f} {cpu:.9f}", flush=True)
        except BrokenPipeError:
            return 0
        time.sleep(PERIOD_S)
    return 0


if __name__ == "__main__":
    sys.exit(main())
