"""Hard size caps for the exact algorithms.

Each algorithm in this package accepts graphs up to a fixed order, and
``Limits`` holds those orders as class constants, one number per cap.
``check_cap`` is the one test against them: an order above its cap raises
``CapabilityError``, which the CLI reports with exit code 2.  A smaller
run needs no setting here: pass a smaller order or input graph.
"""

from __future__ import annotations


class CapabilityError(Exception):
    """A requested size exceeds a documented cap of this library."""


class Limits:
    graph_max_n: int = 64        # Graph(n, adj), so sigma01 too; generators keep lower caps; one machine word
    oracle_max_n: int = 25       # 2^n subset sweep
    canonical_max_n: int = 10    # refinement search; slowest on regular graphs, where no cell splits
    trees_max_n: int = 18
    forests_max_n: int = 14
    graphs_max_n: int = 8        # 12346 classes at n = 8
    tree_checks_max_n: int = 16  # tree universes of checks 3.3 and 4.1-4.5


def check_cap(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise CapabilityError(f"{what} supports order <= {cap}, got {n}")
