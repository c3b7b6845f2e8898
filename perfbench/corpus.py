"""The compute-stream corpus: graph6 lines encoded by networkx, never by nearindep.

Three parts, in this order:

* the networkx graph atlas, all 1,253 graphs on at most 7 vertices
  (small enough for the subset-sweep oracle to check every row);
* random sparse G(n, m) graphs drawn with the benchmark's own
  ``random.Random(seed)``: ``GNM_REPLICAS`` graphs for every order n in
  20..36 and average degree d in {1.5, 3, 4.5}, m = round(d n / 2).
  They come in rounds, one graph of every (n, d) cell a round, the cells
  always in the same mixed order (``CELL_ORDER``).  Every seed gets the
  same (n, m) sequence and only the edges differ, which keeps the total
  work nearly equal across seeds.  The order matters for peak RSS: the
  recursion's memo tables are freed only by the cyclic garbage
  collector, so large graphs in a row pile them up (80-111 MB of growth
  when sorted by n, 15-30 MB in a seeded shuffle, on seeds 1-6 at the
  seed commit).  A fixed order took the spread of peak RSS over seeds
  from about 0.15 of its median to 0.09;
* cycles C20..C28 (closed forms below) and grids P_a x P_b up to 5 x 6.

Only the G(n, m) part depends on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import networkx as nx

GNM_ORDERS = range(20, 37)
GNM_DEGREES = (1.5, 3.0, 4.5)
GNM_REPLICAS = 8
CELLS = [(n, d) for n in GNM_ORDERS for d in GNM_DEGREES]
CELL_ORDER = random.Random(0).sample(CELLS, len(CELLS))  # fixed for every seed
CYCLE_ORDERS = range(20, 29)
GRID_SHAPES = tuple((a, b) for a in range(2, 6) for b in range(a, 7))


@dataclass(frozen=True)
class Entry:
    kind: str  # "atlas", "gnm", "cycle" or "grid"
    n: int
    m: int
    line: str


def _encode(g: nx.Graph) -> str:
    return nx.to_graph6_bytes(g, header=False).decode("ascii").strip()


def _entry(kind: str, g: nx.Graph) -> Entry:
    return Entry(kind, g.number_of_nodes(), g.number_of_edges(), _encode(g))


def _gnm(rng: random.Random, n: int, m: int) -> nx.Graph:
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    g = nx.Graph()
    g.add_nodes_from(range(n))  # keep isolated vertices
    g.add_edges_from(rng.sample(pairs, m))
    return g


def build(seed: int) -> list[Entry]:
    rng = random.Random(seed)
    out = [_entry("atlas", g) for g in nx.graph_atlas_g()]
    gnm = {(n, d): [_entry("gnm", _gnm(rng, n, round(d * n / 2))) for _ in range(GNM_REPLICAS)] for n, d in CELLS}
    out += [gnm[cell][r] for r in range(GNM_REPLICAS) for cell in CELL_ORDER]
    out += [_entry("cycle", nx.cycle_graph(n)) for n in CYCLE_ORDERS]
    out += [_entry("grid", nx.grid_2d_graph(a, b)) for a, b in GRID_SHAPES]
    return out


def fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def cycle_sigma(n: int) -> tuple[int, int]:
    """(sigma0, sigma1) of C_n: the Lucas number L_n = F_{n-1} + F_{n+1}
    (Prodinger and Tichy, Fibonacci Quart. 20, 1982) and n F_{n-2}."""
    return fibonacci(n - 1) + fibonacci(n + 1), n * fibonacci(n - 2)
