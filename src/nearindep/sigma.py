"""Exact counts of independent and 1-nearly independent vertex subsets.

For a graph G, sigma0(G) counts the vertex subsets inducing no edge (the
empty set included; this is the Merrifield-Simmons index) and sigma1(G)
those inducing exactly one edge.  Their exact ratio Q(G) = sigma1/sigma0
is the invariant everything in this package revolves around.

Three mutually checking routes are implemented:

* a definitional oracle that sweeps all 2^n subsets and histograms the
  number of induced edges (``sigma_distribution_bruteforce``);
* deletion recursion that decomposes (``sigma01_recursive``).  Each
  surviving-vertex mask loses its isolated vertices (a factor 2 on both
  counts each) and is split into connected components, folded with the
  union rule below.  Each connected component is memoised by its mask
  and solved by deletion on a pivot vertex v:
  sigma0(G) = sigma0(G-v) + sigma0(G-N[v]) and
  sigma1(G) = sigma1(G-v) + sigma1(G-N[v])
              + sum over u in N(v) of sigma0(G-N[v]-N[u]).
  Paths and cycles cost polynomial time, and the work on other graphs
  grows with how slowly deletions break them apart;
* a linear-time rooted DP for forests (``sigma01_tree_dp``).

None of the three calls another, so each checks the other two.
``sigma01`` has two routes: a forest (``graphs.is_forest``) goes to the
tree DP and any other graph whole to the recursion, which splits it into
components itself, trees included.

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

from .graphs import Graph, bits, is_forest
# Unused here, but perfbench/tracer.py rebinds these two names in this module.
from .graphs import connected_components, induced_subgraph  # noqa: F401
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


def _solve(mask: int, adj: tuple[int, ...], closed: tuple[int, ...],
           memo: dict[int, tuple[int, int]], rng: random.Random | None) -> tuple[int, int]:
    """(sigma0, sigma1) of the subgraph induced on ``mask``.

    Splits the mask into connected components by a bitmask BFS over
    ``adj`` and folds them with the union rule.  A singleton component
    is an isolated vertex: each one doubles both counts.  Any other
    component is looked up in, or pivoted into, the connected-mask memo.
    """
    s0, s1, isolated = 1, 0, 0
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grown & mask & ~comp
            comp |= frontier
        mask ^= comp
        if not comp & (comp - 1):
            isolated += 1
            continue
        pair = memo.get(comp)
        if pair is None:
            pair = memo[comp] = _pivot(comp, adj, closed, memo, rng)
        c0, c1 = pair
        s0, s1 = s0 * c0, s1 * c0 + c1 * s0
    return s0 << isolated, s1 << isolated


def _pivot(comp: int, adj: tuple[int, ...], closed: tuple[int, ...],
           memo: dict[int, tuple[int, int]], rng: random.Random | None) -> tuple[int, int]:
    """(sigma0, sigma1) of a connected mask by deletion on one pivot v.

    sigma0 = s0(M-v) + s0(M-N[v]) and
    sigma1 = s1(M-v) + s1(M-N[v]) + sum over u in N(v) of s0(M-N[v]-N[u]).
    The pivot is a vertex of maximum degree inside the mask, ties to the
    smallest index, or a uniformly random vertex of the mask under ``rng``.
    """
    if rng is None:
        v, best = -1, -1
        rest = comp
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            d = (adj[u] & comp).bit_count()
            if d > best:
                v, best = u, d
            rest ^= low
    else:
        vs = list(bits(comp))
        v = vs[rng.randrange(len(vs))]
    a0, a1 = _solve(comp & ~(1 << v), adj, closed, memo, rng)
    far = comp & ~closed[v]
    b0, b1 = _solve(far, adj, closed, memo, rng)
    s1 = a1 + b1
    for u in bits(adj[v] & comp):
        s1 += _solve(far & ~closed[u], adj, closed, memo, rng)[0]
    return a0 + b0, s1


def sigma01_recursive(g: Graph, *, pivot_rng: random.Random | None = None) -> SigmaPair:
    """Exact (sigma0, sigma1) by deletion recursion that decomposes.

    Every vertex mask the recursion meets is solved in three steps: its
    isolated vertices are stripped (k of them multiply both counts by
    2^k), the rest is split into connected components that are folded
    with the union rule, and each component of two or more vertices is
    memoised as one (sigma0, sigma1) pair, keyed by its mask.  A
    component missing from the memo is solved by deletion on a pivot of
    maximum degree; any pivot gives the same counts, and ``pivot_rng``
    picks random pivots, which the property tests use.  The memo lives
    only for this call; the helpers are plain functions, not closures,
    so no reference cycle keeps it alive after the call returns.  Paths
    and cycles cost time polynomial in n.
    """
    check_cap(g.n, effective_limits().recursion_max_n, "sigma01_recursive")
    adj = g.adj
    closed = tuple(row | 1 << v for v, row in enumerate(adj))
    s0, s1 = _solve(g.full_mask, adj, closed, {}, pivot_rng)
    return SigmaPair(s0, s1)


def sigma01_tree_dp(g: Graph) -> SigmaPair:
    """Exact (sigma0, sigma1) of a forest by rooted DP per component.

    One BFS per component, from its smallest vertex, gives the DP order
    and checks acyclicity: in a tree the only neighbour of v that the
    BFS has already seen is v's parent, and any cycle shows up as a
    second one.  The DP state per vertex counts the subsets of its
    processed subtree by (v included?, induced edges so far in {0, 1});
    merging a child multiplies counts and adds one edge when both
    endpoints are included.  Subsets with two or more edges are dropped,
    and the components are folded with the union rule.
    """
    adj = g.adj
    n = g.n
    parent = [-1] * n
    # a*: v included, b*: v excluded; *0/*1: no edge / one edge induced
    a0, a1, b0, b1 = [1] * n, [0] * n, [1] * n, [0] * n
    s0, s1 = 1, 0
    seen = 0
    for root in range(n):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        order = [root]
        for v in order:  # grows while it is walked: a BFS queue
            row = adj[v]
            back = row & seen
            if back != (1 << parent[v] if v != root else 0):
                raise ValueError("sigma01_tree_dp requires acyclic input")
            kids = row ^ back
            seen |= kids
            while kids:
                low = kids & -kids
                u = low.bit_length() - 1
                parent[u] = v
                order.append(u)
                kids ^= low
        for v in reversed(order[1:]):
            p = parent[v]
            ca0, ca1, cb0, cb1 = a0[v], a1[v], b0[v], b1[v]
            out0 = cb0 + ca0
            a1[p] = a1[p] * cb0 + a0[p] * (cb1 + ca0)
            a0[p] *= cb0
            b1[p] = b1[p] * out0 + b0[p] * (cb1 + ca1)
            b0[p] *= out0
        c0, c1 = a0[root] + b0[root], a1[root] + b1[root]
        s0, s1 = s0 * c0, s1 * c0 + c1 * s0
    return SigmaPair(s0, s1)


def combine_union(a: SigmaPair, b: SigmaPair) -> SigmaPair:
    """Counts of a vertex-disjoint union from the counts of its parts."""
    return SigmaPair(
        a.sigma0 * b.sigma0,
        a.sigma1 * b.sigma0 + b.sigma1 * a.sigma0,
    )


def sigma01(g: Graph) -> SigmaPair:
    """Exact (sigma0, sigma1): a forest by the tree DP, any other graph by
    the deletion recursion.

    ``is_forest`` decides the route.  A graph with a cycle goes whole to
    ``sigma01_recursive``, which strips its isolated vertices and splits
    its components, trees included, by itself.  The result always equals
    sigma01_recursive(g).
    """
    check_cap(g.n, effective_limits().recursion_max_n, "sigma01")
    return sigma01_tree_dp(g) if is_forest(g) else sigma01_recursive(g)


def q_ratio(g: Graph) -> Fraction:
    """Q(G) = sigma1(G) / sigma0(G), exact and normalised."""
    return sigma01(g).q


def star_q(n: int) -> Fraction:
    """Q of the n-vertex star: (n-1) / (2^(n-1) + 1)."""
    if n < 1:
        raise ValueError(f"star order must be >= 1, got {n}")
    return Fraction(n - 1, (1 << (n - 1)) + 1)
