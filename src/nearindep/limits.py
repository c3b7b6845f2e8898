"""Hard size caps for the exact algorithms.

Each algorithm in this package has a documented cap on the graph order it
accepts.  The environment variable SIGMA_MAX_N may lower (never raise)
every cap at once, which is handy for smoke runs on slow machines; any
value but a non-negative integer is rejected with a ValueError.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from functools import lru_cache


class CapabilityError(Exception):
    """A requested size exceeds a documented cap of this library."""


@dataclass(frozen=True)
class Limits:
    graph_max_n: int = 64        # every Graph, so sigma01 too; bitmasks fit one machine word
    oracle_max_n: int = 25       # 2^n subset sweep
    canonical_max_n: int = 10    # permutation search
    trees_max_n: int = 18
    forests_max_n: int = 14
    graphs_max_n: int = 8        # 12346 classes at n = 8
    tree_checks_max_n: int = 16  # tree universes of checks 3.3 and 4.1-4.5
    degree_checks_max_n: int = 7  # checks 3.4, 3.5 and 3.6


def effective_limits() -> Limits:
    """Default limits, clamped by SIGMA_MAX_N when the variable is set.

    The variable is read on every call, so a change takes effect at once;
    only the parsing is memoised, per raw value.
    """
    return _limits_for(os.environ.get("SIGMA_MAX_N"))


@lru_cache(maxsize=16)
def _limits_for(raw: str | None) -> Limits:
    """Limits for one raw SIGMA_MAX_N value; an invalid value raises on
    every call, because lru_cache does not store exceptions."""
    if raw is None:
        return Limits()
    if not raw.strip().isdecimal():
        raise ValueError(f"SIGMA_MAX_N must be a non-negative integer, got {raw!r}")
    cap = int(raw)
    base = Limits()
    return Limits(**{f.name: min(getattr(base, f.name), cap) for f in fields(base)})


def check_cap(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise CapabilityError(f"{what} supports order <= {cap}, got {n}")
