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
  The deg(v) neighbour terms need sigma0 alone, so they go to a
  sigma0-only side recursion (the same decomposition and pivot, the
  first rule only, its own memo of counts) instead of spawning pairs.
  Paths and cycles cost polynomial time, and the work on other graphs
  grows with how slowly deletions break them apart;
* a linear-time rooted DP for forests (``sigma01_tree_dp``).  One BFS
  walk per component (``_rooted_branches``) gives the order and parents
  and folds ``_graft`` over them; the leaf checks of ``verify`` reroot
  the same branch states with ``_prune``.

None of the three calls another, so each checks the other two.
``sigma01`` tries the tree DP, whose walk stops at the first cycle, and
sends a graph with a cycle whole to the recursion, which splits it into
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

from .graphs import Graph, bits
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


def _components(mask: int, adj: tuple[int, ...]) -> tuple[list[int], int]:
    """The connected components of ``mask`` with two or more vertices, and
    the number of isolated vertices, found by a bitmask BFS over ``adj``."""
    comps = []
    isolated = 0
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
        if comp & (comp - 1):
            comps.append(comp)
        else:
            isolated += 1
    return comps, isolated


def _pivot_vertex(comp: int, adj: tuple[int, ...], rng: random.Random | None) -> int:
    """A vertex of maximum degree inside ``comp``, ties to the smallest
    index, or a uniformly random vertex of ``comp`` under ``rng``."""
    if rng is not None:
        vs = list(bits(comp))
        return vs[rng.randrange(len(vs))]
    v, best = -1, -1
    rest = comp
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        d = (adj[u] & comp).bit_count()
        if d > best:
            v, best = u, d
        rest ^= low
    return v


def _solve(mask: int, adj: tuple[int, ...], closed: tuple[int, ...], memo: dict[int, tuple[int, int]],
           memo0: dict[int, int], rng: random.Random | None) -> tuple[int, int]:
    """(sigma0, sigma1) of the subgraph induced on ``mask``.

    The components of the mask are folded with the union rule.  Each
    isolated vertex doubles both counts; any other component is looked
    up in, or pivoted into, the connected-mask memo of pairs.
    """
    if not mask & (mask - 1):  # no vertex or one: skip the split
        return (2, 0) if mask else (1, 0)
    comps, isolated = _components(mask, adj)
    s0, s1 = 1, 0
    for comp in comps:
        pair = memo.get(comp)
        if pair is None:
            pair = memo[comp] = _pivot(comp, adj, closed, memo, memo0, rng)
        c0, c1 = pair
        s0, s1 = s0 * c0, s1 * c0 + c1 * s0
    return s0 << isolated, s1 << isolated


def _pivot(comp: int, adj: tuple[int, ...], closed: tuple[int, ...], memo: dict[int, tuple[int, int]],
           memo0: dict[int, int], rng: random.Random | None) -> tuple[int, int]:
    """(sigma0, sigma1) of a connected mask by deletion on one pivot v.

    sigma0 = s0(M-v) + s0(M-N[v]) and
    sigma1 = s1(M-v) + s1(M-N[v]) + sum over u in N(v) of s0(M-N[v]-N[u]).
    The two deletions are solved as pairs by ``_solve``; the neighbour
    terms need sigma0 alone, so they go to ``_solve0``.
    """
    v = _pivot_vertex(comp, adj, rng)
    a0, a1 = _solve(comp & ~(1 << v), adj, closed, memo, memo0, rng)
    far = comp & ~closed[v]
    b0, b1 = _solve(far, adj, closed, memo, memo0, rng)
    s1 = a1 + b1
    for u in bits(adj[v] & comp):
        s1 += _solve0(far & ~closed[u], adj, closed, memo, memo0, rng)
    return a0 + b0, s1


def _solve0(mask: int, adj: tuple[int, ...], closed: tuple[int, ...], memo: dict[int, tuple[int, int]],
            memo0: dict[int, int], rng: random.Random | None) -> int:
    """sigma0 of the subgraph induced on ``mask``.

    The same decomposition as ``_solve``, on sigma0 alone: each isolated
    vertex doubles the count and the components multiply.  A component
    is read from ``memo0``, or from the pair memo when ``_solve`` has
    already met it, or else solved by deletion on the same pivot rule,
    sigma0(M) = sigma0(M-v) + sigma0(M-N[v]), and kept in ``memo0``.
    """
    if not mask & (mask - 1):
        return 2 if mask else 1
    comps, isolated = _components(mask, adj)
    s0 = 1 << isolated
    for comp in comps:
        c0 = memo0.get(comp)
        if c0 is None:
            pair = memo.get(comp)
            if pair is None:
                v = _pivot_vertex(comp, adj, rng)
                c0 = memo0[comp] = (_solve0(comp & ~(1 << v), adj, closed, memo, memo0, rng)
                                    + _solve0(comp & ~closed[v], adj, closed, memo, memo0, rng))
            else:
                c0 = pair[0]
        s0 *= c0
    return s0


def sigma01_recursive(g: Graph, *, pivot_rng: random.Random | None = None) -> SigmaPair:
    """Exact (sigma0, sigma1) by deletion recursion that decomposes.

    Every vertex mask the recursion meets is solved in three steps: its
    isolated vertices are stripped (k of them multiply both counts by
    2^k), the rest is split into connected components that are folded
    with the union rule, and each component of two or more vertices is
    memoised by its mask.  A component missing from the memo is solved
    by deletion on a pivot v of maximum degree.  sigma1 of a component
    needs the pair (sigma0, sigma1) of M - v and M - N[v], but only
    sigma0 of each M - N[v] - N[u], u in N(v); those neighbour terms go
    to a sigma0-only side recursion with the same decomposition, the
    two-branch rule sigma0(M) = sigma0(M-v) + sigma0(M-N[v]) and its own
    memo of counts, which first reads a pair already memoised.  Any
    pivot gives the same counts, and ``pivot_rng`` picks random pivots
    in both recursions, which the property tests use.  The memos live
    only for this call; the helpers are plain functions, not closures,
    so no reference cycle keeps them alive after the call returns.
    Paths and cycles cost time polynomial in n.
    """
    adj = g.adj
    closed = tuple(row | 1 << v for v, row in enumerate(adj))
    s0, s1 = _solve(g.full_mask, adj, closed, {}, {}, pivot_rng)
    return SigmaPair(s0, s1)


State = tuple[int, int, int, int]  # a rooted branch: (a0, a1, b0, b1), see _graft
LEAF: State = (1, 0, 1, 0)  # a single vertex as a rooted branch


def _graft(root: State, branch: State) -> State:
    """The rooted state ``root`` with ``branch`` hung from its root.

    A state counts the subsets of a rooted tree by (root included in a*,
    excluded in b*; induced edges 0 or 1); subsets with two or more edges
    are dropped.  Read as polynomials mod x^2, where x marks one induced
    edge, grafting multiplies a by (b + x a0) of the branch and b by
    (b + a) of it.
    """
    a0, a1, b0, b1 = root
    ca0, ca1, cb0, cb1 = branch
    out0 = cb0 + ca0
    return a0 * cb0, a1 * cb0 + a0 * (cb1 + ca0), b0 * out0, b1 * out0 + b0 * (cb1 + ca1)


def _prune(whole: State, branch: State) -> State:
    """The inverse of ``_graft``: ``whole`` with ``branch`` cut from its
    root.  Each factor of the graft has a constant term of at least 1, so
    both polynomial divisions are exact."""
    a0, a1, b0, b1 = whole
    ca0, ca1, cb0, cb1 = branch
    out0 = cb0 + ca0
    ra0, rb0 = a0 // cb0, b0 // out0
    return ra0, (a1 - ra0 * (cb1 + ca0)) // cb0, rb0, (b1 - rb0 * (cb1 + ca1)) // out0


def _rooted_branches(adj: tuple[int, ...], root: int, parent: list[int], down: list[State]) -> list[int] | None:
    """The BFS order of the component of ``root``, or None at its first
    back edge.

    In a tree the only neighbour of v that the BFS has already seen is
    v's parent, so a second one closes a cycle.  The walk sets parent[z]
    for every z but the root, and the fold then grafts bottom-up, so that
    down[z] is the branch at z away from its parent.  ``down`` must hold
    LEAF for every vertex of the component.
    """
    seen = 1 << root
    order = [root]
    for v in order:  # grows while it is walked: a BFS queue
        row = adj[v]
        back = row & seen
        if back != (1 << parent[v] if v != root else 0):
            return None
        kids = row ^ back
        seen |= kids
        while kids:
            low = kids & -kids
            z = low.bit_length() - 1
            parent[z] = v
            order.append(z)
            kids ^= low
    for z in reversed(order[1:]):
        p = parent[z]
        down[p] = _graft(down[p], down[z])
    return order


def sigma01_tree_dp(g: Graph) -> SigmaPair:
    """Exact (sigma0, sigma1) of a forest by rooted DP per component.

    Each component is walked from its smallest vertex by
    ``_rooted_branches``, which folds ``_graft`` over it and stops at the
    first cycle; the root's state counts the component, and the
    components are folded with the union rule.  Raises ValueError on a
    graph with a cycle.
    """
    n = g.n
    parent, down = [-1] * n, [LEAF] * n
    s0, s1 = 1, 0
    for root in range(n):
        if parent[root] >= 0:  # walked already, from a smaller root
            continue
        if _rooted_branches(g.adj, root, parent, down) is None:
            raise ValueError("sigma01_tree_dp requires acyclic input")
        a0, a1, b0, b1 = down[root]
        c0, c1 = a0 + b0, a1 + b1
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

    The tree DP is tried first, and its walk is the forest test: at the
    first cycle it raises, and the graph goes whole to
    ``sigma01_recursive``, which strips its isolated vertices and splits
    its components, trees included, by itself.  The result always equals
    sigma01_recursive(g).  Neither route has a cap of its own: ``Graph``
    enforces ``Limits.graph_max_n`` on every graph when it is built.
    """
    try:
        return sigma01_tree_dp(g)
    except ValueError:
        return sigma01_recursive(g)


def q_ratio(g: Graph) -> Fraction:
    """Q(G) = sigma1(G) / sigma0(G), exact and normalised."""
    return sigma01(g).q


def star_q(n: int) -> Fraction:
    """Q of the n-vertex star: (n-1) / (2^(n-1) + 1)."""
    if n < 1:
        raise ValueError(f"star order must be >= 1, got {n}")
    return Fraction(n - 1, (1 << (n - 1)) + 1)
