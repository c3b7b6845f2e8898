"""Exact counts of independent and 1-nearly independent vertex subsets.

For a graph G, sigma0(G) counts the vertex subsets inducing no edge (the
empty set included; this is the Merrifield-Simmons index) and sigma1(G)
those inducing exactly one edge.  Their exact ratio Q(G) = sigma1/sigma0
is the invariant everything in this package revolves around.

Three mutually checking routes are implemented:

* a definitional oracle that sweeps all 2^n subsets and histograms the
  number of induced edges (``sigma_distribution_bruteforce``);
* deletion recursion on a pivot vertex v, using
  sigma0(G) = sigma0(G-v) + sigma0(G-N[v]) and
  sigma1(G) = sigma1(G-v) + sigma1(G-N[v])
              + sum over u in N(v) of sigma0(G-N[v]-N[u]),
  memoised on the surviving-vertex mask (``sigma01_recursive``);
* a linear-time rooted DP for forests (``sigma01_tree_dp``).

Counts for vertex-disjoint unions combine bilinearly:
sigma0(G1 u G2) = sigma0(G1) sigma0(G2) and
sigma1(G1 u G2) = sigma1(G1) sigma0(G2) + sigma1(G2) sigma0(G1),
hence Q is additive over disjoint unions.

Everything is arbitrary-precision integer arithmetic; ratios are exact
``fractions.Fraction`` values and no floating point appears anywhere.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .graphs import Graph, bits, connected_components, induced_subgraph
from .limits import check_cap, effective_limits


@dataclass(frozen=True)
class SigmaPair:
    """Exact (sigma0, sigma1) of one graph."""

    sigma0: int
    sigma1: int

    def __post_init__(self) -> None:
        if self.sigma0 < 1:
            raise ValueError("sigma0 >= 1 always (the empty subset is independent)")
        if self.sigma1 < 0:
            raise ValueError("sigma1 is a count")

    @property
    def q(self) -> Fraction:
        return Fraction(self.sigma1, self.sigma0)


@dataclass(frozen=True)
class SigmaDistribution:
    """counts[k] = number of vertex subsets inducing exactly k edges."""

    n: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if sum(self.counts) != 1 << self.n:
            raise ValueError("distribution does not cover all 2^n subsets")

    @property
    def sigma0(self) -> int:
        return self.counts[0]

    @property
    def sigma1(self) -> int:
        return self.counts[1] if len(self.counts) > 1 else 0

    def pair(self) -> SigmaPair:
        return SigmaPair(self.sigma0, self.sigma1)


def sigma_distribution_bruteforce(g: Graph) -> SigmaDistribution:
    """Definitional oracle: histogram induced edge counts over all subsets.

    The edge count of a subset S is extended from S minus its lowest
    vertex, so the sweep is one pass over the 2^n masks.
    """
    check_cap(g.n, effective_limits().oracle_max_n, "sigma_distribution_bruteforce")
    n = g.n
    m = g.edge_count()
    adj = g.adj
    hist = [0] * (m + 1)
    hist[0] = 1  # empty subset
    size = 1 << n
    edge_cnt = array("l", bytes(8 * size)) if size > 1 else array("l", [0])
    for s in range(1, size):
        v = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        e = edge_cnt[rest] + (adj[v] & rest).bit_count()
        edge_cnt[s] = e
        hist[e] += 1
    return SigmaDistribution(n, tuple(hist))


def sigma01_recursive(g: Graph, *, pivot_rng: random.Random | None = None) -> SigmaPair:
    """Exact (sigma0, sigma1) by deletion recursion on a pivot vertex.

    The pivot is a maximum-degree vertex of the current induced subgraph
    (ties to the smallest index); any pivot gives the same counts, and
    passing ``pivot_rng`` picks pivots at random, which the property
    tests use.  Both memo tables are keyed by the surviving-vertex mask
    of the original graph and live only for this call.
    """
    check_cap(g.n, effective_limits().recursion_max_n, "sigma01_recursive")
    adj = g.adj
    closed = tuple(row | 1 << v for v, row in enumerate(adj))
    memo0: dict[int, int] = {0: 1}
    memo1: dict[int, int] = {0: 0}

    def pick(mask: int) -> tuple[int, int]:
        """Pivot vertex of the induced subgraph plus its masked degree."""
        if pivot_rng is not None:
            vs = list(bits(mask))
            v = vs[pivot_rng.randrange(len(vs))]
            return v, (adj[v] & mask).bit_count()
        best_v, best_d = -1, -1
        for v in bits(mask):
            d = (adj[v] & mask).bit_count()
            if d > best_d:
                best_v, best_d = v, d
        return best_v, best_d

    def s0(mask: int) -> int:
        try:
            return memo0[mask]
        except KeyError:
            pass
        v, d = pick(mask)
        if d == 0 and pivot_rng is None:
            out = 1 << mask.bit_count()
        else:
            out = s0(mask & ~(1 << v)) + s0(mask & ~closed[v])
        memo0[mask] = out
        return out

    def s1(mask: int) -> int:
        try:
            return memo1[mask]
        except KeyError:
            pass
        v, d = pick(mask)
        if d == 0 and pivot_rng is None:
            out = 0
        else:
            out = s1(mask & ~(1 << v)) + s1(mask & ~closed[v])
            gone = mask & ~closed[v]
            for u in bits(adj[v] & mask):
                out += s0(gone & ~closed[u])
        memo1[mask] = out
        return out

    full = g.full_mask
    return SigmaPair(s0(full), s1(full))


def _component_tree_dp(g: Graph, comp: int) -> SigmaPair:
    """Rooted DP over one tree component of g.

    State per processed subtree: counts of subsets by (root included?,
    induced edges so far in {0, 1}); merging a child multiplies counts
    and adds one edge when both merge endpoints are included.  Subsets
    with two or more edges are dropped.
    """
    root = (comp & -comp).bit_length() - 1
    parent = {root: -1}
    order = [root]
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for u in bits(g.adj[v] & comp):
            if u not in parent:
                parent[u] = v
                order.append(u)
    # (a0, a1, b0, b1): root in with 0/1 edges, root out with 0/1 edges
    state = {v: (1, 0, 1, 0) for v in order}
    for v in reversed(order):
        p = parent[v]
        if p < 0:
            continue
        a0, a1, b0, b1 = state[p]
        ca0, ca1, cb0, cb1 = state[v]
        state[p] = (
            a0 * cb0,
            a1 * cb0 + a0 * (cb1 + ca0),
            b0 * (cb0 + ca0),
            b1 * (cb0 + ca0) + b0 * (cb1 + ca1),
        )
    a0, a1, b0, b1 = state[root]
    return SigmaPair(a0 + b0, a1 + b1)


def sigma01_tree_dp(g: Graph) -> SigmaPair:
    """Exact (sigma0, sigma1) of a forest by rooted DP per component."""
    pairs = []
    for comp in connected_components(g):
        size = comp.bit_count()
        edges = sum((g.adj[v] & comp).bit_count() for v in bits(comp)) // 2
        if edges != size - 1:
            raise ValueError("sigma01_tree_dp requires acyclic input")
        pairs.append(_component_tree_dp(g, comp))
    return reduce(combine_union, pairs, SigmaPair(1, 0))


def combine_union(a: SigmaPair, b: SigmaPair) -> SigmaPair:
    """Counts of a vertex-disjoint union from the counts of its parts."""
    return SigmaPair(
        a.sigma0 * b.sigma0,
        a.sigma1 * b.sigma0 + b.sigma1 * a.sigma0,
    )


def sigma01(g: Graph) -> SigmaPair:
    """Exact (sigma0, sigma1): per-component dispatch, then combine.

    Acyclic components go through the tree DP, the rest through the
    deletion recursion; the result always equals sigma01_recursive(g).
    """
    check_cap(g.n, effective_limits().recursion_max_n, "sigma01")
    pairs = []
    for comp in connected_components(g):
        sub = induced_subgraph(g, comp)
        if sub.edge_count() == sub.n - 1:
            pairs.append(sigma01_tree_dp(sub))
        else:
            pairs.append(sigma01_recursive(sub))
    return reduce(combine_union, pairs, SigmaPair(1, 0))


def q_ratio(g: Graph) -> Fraction:
    """Q(G) = sigma1(G) / sigma0(G), exact and normalised."""
    return sigma01(g).q


def star_q(n: int) -> Fraction:
    """Q of the n-vertex star: (n-1) / (2^(n-1) + 1)."""
    if n < 1:
        raise ValueError(f"star order must be >= 1, got {n}")
    return Fraction(n - 1, (1 << (n - 1)) + 1)
