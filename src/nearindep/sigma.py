"""Exact counts of independent and 1-nearly independent vertex subsets.

For a graph G, sigma0(G) counts the vertex subsets inducing no edge (the
empty set included; this is the Merrifield-Simmons index) and sigma1(G)
those inducing exactly one edge.  Their exact ratio Q(G) = sigma1/sigma0
is the invariant everything in this package revolves around.

Three mutually checking routes:

* ``sigma_distribution_bruteforce``: the definitional oracle, which
  sweeps all 2^n subsets and histograms the number of induced edges;
* ``sigma01_recursive``: deletion recursion that decomposes, by
  ``_solve`` and ``_solve0``, splitting each pivot's far side once for
  all its neighbour terms, sigma0(C - x) as sigma0(C) - sigma0(C - N[x]);
  ``_plus_vertex`` applies its rules at a vertex added to a graph whose
  pair is known;
* ``sigma01_tree_dp``: a linear-time rooted DP for forests in label
  order, one ``_label_fold``, whose states ``leaf_deletion_counts``
  reroots for the leaf checks of ``verify``.

Counts for vertex-disjoint unions combine bilinearly:
sigma0(G1 u G2) = sigma0(G1) sigma0(G2) and
sigma1(G1 u G2) = sigma1(G1) sigma0(G2) + sigma1(G2) sigma0(G1),
hence Q is additive over disjoint unions.

Everything is arbitrary-precision integer arithmetic; ratios are exact
``fractions.Fraction`` values and no floating point appears anywhere.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction

from .graphs import Graph, bits, split_components
# Unused here, but perfbench/tracer.py rebinds these two names in this module.
from .graphs import connected_components, induced_subgraph  # noqa: F401
from .limits import Limits, check_cap


class SigmaPair(namedtuple("SigmaPair", "sigma0 sigma1")):
    """Exact (sigma0, sigma1) of one graph."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so ``_replace`` validates too

    def __new__(cls, sigma0: int, sigma1: int) -> SigmaPair:
        if not (isinstance(sigma0, int) and isinstance(sigma1, int)):
            raise ValueError(f"counts must be ints, got ({sigma0!r}, {sigma1!r})")
        if sigma0 < 1:
            raise ValueError("sigma0 >= 1 always (the empty subset is independent)")
        if sigma1 < 0:
            raise ValueError("sigma1 is a count")
        return tuple.__new__(cls, (sigma0, sigma1))

    @property
    def q(self) -> Fraction:
        return Fraction(self.sigma1, self.sigma0)


class SigmaDistribution(namedtuple("SigmaDistribution", "n counts")):
    """counts[k] = number of vertex subsets inducing exactly k edges."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so ``_replace`` validates too

    def __new__(cls, n: int, counts: tuple[int, ...]) -> SigmaDistribution:
        if not (isinstance(n, int) and all(isinstance(c, int) for c in counts)):
            raise ValueError(f"order and counts must be ints, got {n!r} and {counts!r}")
        if sum(counts) != 1 << n:
            raise ValueError("distribution does not cover all 2^n subsets")
        return tuple.__new__(cls, (n, counts))

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
    check_cap(g.n, Limits.oracle_max_n, "sigma_distribution_bruteforce")
    n = g.n
    m = g.edge_count()
    adj = g.adj
    hist = [0] * (m + 1)
    hist[0] = 1  # empty subset
    size = 1 << n
    edge_cnt = array("H", [0]) * size  # <= 300 edges on oracle_max_n = 25 vertices
    for s in range(1, size):
        v = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        e = edge_cnt[rest] + (adj[v] & rest).bit_count()
        edge_cnt[s] = e
        hist[e] += 1
    return SigmaDistribution(n, tuple(hist))


def _pivot_vertex(comp: int, adj: tuple[int, ...]) -> int | None:
    """A vertex of maximum degree inside ``comp``, ties to the smallest index;
    None on a tree: a connected ``comp`` whose degrees sum to 2(|comp| - 1)."""
    v, best, total = -1, -1, 0
    rest = comp
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        d = (adj[u] & comp).bit_count()
        total += d
        if d > best:
            v, best = u, d
        rest ^= low
    return None if total == 2 * comp.bit_count() - 2 else v


def _tree_pair(comp: int, adj: tuple[int, ...]) -> Pair:
    """(sigma0, sigma1) of the tree on ``comp``: ``_graft`` folds a walk from
    its lowest vertex backwards, each vertex onto the one that reached it.

    The root's two parts are added here, not grafted onto ``TOP`` as in
    ``_label_fold``: with that graft, compute-stream ``wall_s`` went from
    0.896 to 0.920 s, slower in 4 of 5 pairs (2-vCPU VM, Python 3.11)."""
    root = comp & -comp
    walk, rest = [(root.bit_length() - 1, -1)], comp ^ root
    for v, _ in walk:  # the walk grows as it is read
        fresh = adj[v] & rest
        rest ^= fresh
        while fresh:
            low = fresh & -fresh
            walk.append((low.bit_length() - 1, v))
            fresh ^= low
    down = [LEAF] * len(adj)
    for u, p in walk[:0:-1]:  # children before their parents, the root left out
        down[p] = _graft(down[p], down[u])
    a0, a1, b0, b1 = down[walk[0][0]]  # root in plus root out
    return a0 + b0, a1 + b1


def _solve(mask: int, adj: tuple[int, ...], memo: dict[int, tuple[int, int]],
           memo0: dict[int, int], ring: int = 0) -> tuple[int, int]:
    """(sigma0, sigma1) of the subgraph F induced on ``mask``, sigma1 plus, for
    each u in ``ring`` (outside F), sigma0(F - N(u)), from F split once: a
    component C that N(u) misses is read from the pair memo, one it meets at x alone
    is sigma0(C) - sigma0(C - N[x]), any other is re-split less N(u), and the
    lone vertices outside N(u) are a shift.  A memo miss is folded or pivoted."""
    if not mask & (mask - 1) and not ring:  # no vertex or one: skip the split
        return (2, 0) if mask else (1, 0)
    comps, isolated = split_components(mask, adj) if mask & (mask - 1) else ((), mask.bit_count())
    s0, s1 = 1, 0
    for comp in comps:
        pair = memo.get(comp)
        if pair is None and (v := _pivot_vertex(comp, adj)) is None:
            pair = memo[comp] = _tree_pair(comp, adj)
        if pair is None:
            a0, a1 = _solve(comp & ~(1 << v), adj, memo, memo0)
            far = comp & ~adj[v] ^ 1 << v  # comp - N[v]: v is in comp, never in adj[v]
            b0, b1 = _solve(far, adj, memo, memo0, adj[v] & comp)  # with the neighbour terms
            pair = memo[comp] = a0 + b0, a1 + b1
        c0, c1 = pair
        s0, s1 = s0 * c0, s1 * c0 + c1 * s0
    s0, s1, lone = s0 << isolated, s1 << isolated, mask ^ sum(comps)
    for u in bits(ring):
        near = adj[u]
        t = 1 << (lone & ~near).bit_count()
        for comp in comps:
            c0, meet = memo[comp][0], comp & near
            if meet & (meet - 1):
                c0 = _solve0(comp & ~near, adj, memo, memo0)
            elif meet:  # at one vertex x: sigma0(C - x) = sigma0(C) - sigma0(C - N[x])
                c0 -= _solve0(comp & ~adj[meet.bit_length() - 1] ^ meet, adj, memo, memo0)
            t *= c0
        s1 += t
    return s0, s1


def _solve0(mask: int, adj: tuple[int, ...], memo: dict[int, tuple[int, int]],
            memo0: dict[int, int]) -> int:
    """sigma0 of the subgraph induced on ``mask``; a component missing from
    both memos is folded (a tree) or pivoted (the sigma0 rule alone)."""
    if not mask & (mask - 1):
        return 2 if mask else 1
    comps, isolated = split_components(mask, adj)
    s0 = 1 << isolated
    for comp in comps:
        c0 = memo0.get(comp)
        if c0 is None:
            pair = memo.get(comp)
            if pair is None and (v := _pivot_vertex(comp, adj)) is None:
                pair = memo[comp] = _tree_pair(comp, adj)
            if pair is None:
                c0 = memo0[comp] = (_solve0(comp & ~(1 << v), adj, memo, memo0)
                                    + _solve0(comp & ~adj[v] ^ 1 << v, adj, memo, memo0))
            else:
                c0 = pair[0]
        s0 *= c0
    return s0


def sigma01_recursive(g: Graph) -> SigmaPair:
    """Exact (sigma0, sigma1) by deletion recursion that decomposes.

    Each surviving-vertex mask loses its isolated vertices (a factor 2 on
    both counts each) and is split into connected components (by
    ``graphs.split_components``), folded with the union rule.  Each
    component is memoised by its mask: a tree is counted by one ``_graft``
    fold (``_tree_pair``), any other component by deletion on a pivot v of
    maximum degree, ties to the smallest index (``_pivot_vertex``):
    sigma0(G) = sigma0(G-v) + sigma0(G-N[v]) and
    sigma1(G) = sigma1(G-v) + sigma1(G-N[v])
                + sum over u in N(v) of sigma0(G-N[v]-N[u]).
    ``_solve`` memoises pairs and applies both rules, and splits the far
    side F = G-N[v] once for its pair and all deg(v) neighbour terms, each
    sigma0 of F less N(u): read from the pair memo on a component C that N(u)
    misses, as sigma0(C) - sigma0(C - N[x]) on one it meets at x alone (the
    first rule read backwards), else by ``_solve0`` on C less N(u): the same
    decomposition, fold and pivot, the first rule only, its own memo of counts.
    Paths and cycles cost polynomial time, and the work on other graphs
    grows with how slowly deletions break them into trees.

    Both recursions look up the module-level ``_pivot_vertex`` at every
    memo miss, so a test can swap in another rule there (any pivot gives
    the same counts); ``oracles.random_pivots`` never returns None, so it
    folds no tree and shares no code with the tree DP.  The memos live
    only for this call, and no reference cycle keeps them alive after it:
    the CLI runs its commands with the cyclic collector off (README, CLI).
    """
    s0, s1 = _solve(g.full_mask, g.adj, {}, {})
    return SigmaPair(s0, s1)


def _plus_vertex(g: Graph, pair: Pair) -> Callable[[int], Pair]:
    """Given pair, the (sigma0, sigma1) of g: the function from a vertex mask
    s of g to the pair of G = g plus a vertex v joined to s, by both pivot
    rules at v (G-v = g, G-N[v] = g-s), whose far side g-s ``_solve`` splits
    once for the terms of all u in s; no mask holds v, so one memo serves all s."""
    adj, full, memo, memo0 = g.adj, g.full_mask, {}, {}

    def plus(s: int) -> Pair:
        a0, a1 = _solve(full ^ s, adj, memo, memo0, s)
        return pair[0] + a0, pair[1] + a1

    return plus


Pair = tuple[int, int]  # (sigma0, sigma1) of one graph
State = tuple[int, int, int, int]  # a rooted branch: (a0, a1, b0, b1), see _graft
LEAF: State = (1, 0, 1, 0)  # a single vertex as a rooted branch
TOP: State = (0, 0, 1, 0)  # a vertex no subset holds: a tree grafted onto it joins by the union rule


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


def _label_parents(adj: tuple[int, ...]) -> list[int] | None:
    """Each vertex's one lower neighbour, or n at a root; None when some
    vertex has two lower neighbours, as a cycle's top has."""
    lows = [row & ((1 << z) - 1) for z, row in enumerate(adj)]
    if any(low & (low - 1) for low in lows):
        return None
    return [low.bit_length() - 1 if low else len(adj) for low in lows]


def _label_fold(par: bytes | list[int]) -> tuple[list[State], list[int]]:
    """The states ``down`` and child masks ``kids`` of a forest in label order
    from its parents: ``_graft`` folds z = n-1 ... 0 onto par[z], a root onto
    ``TOP`` at n, so down[n][2:] is the forest's (sigma0, sigma1), kids[n] its roots."""
    n = len(par)
    down, kids = [LEAF] * n + [TOP], [0] * (n + 1)
    for z in range(n - 1, -1, -1):
        p = par[z]
        down[p] = _graft(down[p], down[z])
        kids[p] |= 1 << z
    return down, kids


def sigma01_tree_dp(g: Graph) -> SigmaPair:
    """Exact (sigma0, sigma1) of a forest in label order by ``_label_fold``.

    A graph where no vertex has two lower neighbours is a forest, as every
    generated forest is.  Any other graph, cyclic or not, raises ValueError.
    """
    par = _label_parents(g.adj)
    if par is None:
        raise ValueError("sigma01_tree_dp requires acyclic input in label order")
    return SigmaPair(*_label_fold(par)[0][g.n][2:])


def leaf_deletion_counts(tree: Graph | bytes) -> tuple[Pair, list[tuple[int, Pair, Pair, Pair]]]:
    """(sigma of T, supports) for a tree T on n >= 1 vertices, each sigma a
    (sigma0, sigma1) pair: supports holds (leaves, sigma of T-v, sigma of
    T-N[v], sigma of T-N[u]) per support vertex u, in vertex order, leaves
    the mask of u's degree-1 neighbours v, which all give the same counts.

    T is its parent array as ``bytes``, as the tree walk yields it, or a
    ``Graph`` in label order, where each z > 0 has one lower neighbour, its
    parent; 0 is the one root ``_label_fold`` hangs from ``TOP``.  The fold
    gives sigma of T and ``down[z]``, the branch at z away from its parent.
    Top-down, at each z > 0 with children, the whole tree rooted at z
    follows, and ``up[z]``, the branch at the parent away from z, is that
    whole tree at the parent with down[z] cut away by ``_prune``.  No leaf
    is rerooted: at n = 2, where u is a leaf, the first states are right.

    At the support vertex u, the whole tree rooted there has parts
    A (u included) and B (u excluded), and the leaf v contributes the
    factors 1 + x to A and 2 to B.  So T-N[v] = T-u-v counts B / 2,
    T-v counts A / (1 + x) + B / 2, and T-N[u] counts the product of the
    excluded parts of the branches at u, 1 at a leaf.  O(n) per tree, in
    plain loops, no closures and no recursion.
    """
    par = tree if isinstance(tree, bytes) else _label_parents(tree.adj)
    down, kids = _label_fold(par or ())
    if kids[-1] != 1:  # kids[n]: the roots, vertex 0 alone (none if par is None)
        raise ValueError("leaf_deletion_counts requires a tree in label order")
    n = len(par)
    up, whole = [LEAF] * n, [down[0]] * n  # whole[0] is the root's down state
    ends = sum(1 << v for v in range(1, n) if not kids[v]) | (kids[0].bit_count() <= 1)  # degree <= 1: the leaves
    out = []
    for u in range(n):  # a parent is below its children
        row = kids[u] | (1 << par[u] if u else 0)  # u's neighbours
        if u and kids[u]:
            up[u] = _prune(whole[par[u]], down[u])
            whole[u] = _graft(down[u], up[u])
        if leaves := row & ends:
            nu0, nu1 = 1, 0
            for y in bits(row ^ leaves):
                _, _, yb0, yb1 = down[y] if y > u else up[u]
                nu0, nu1 = nu0 * yb0, nu1 * yb0 + nu0 * yb1
            a0, a1, b0, b1 = whole[u]
            nv0, nv1 = b0 >> 1, b1 >> 1
            out.append((leaves, (a0 + nv0, a1 - a0 + nv1), (nv0, nv1), (nu0, nu1)))
    return down[n][2:], out


def sigma01(g: Graph) -> SigmaPair:
    """Exact (sigma0, sigma1) by the deletion recursion, ``sigma01_recursive``.

    It has no cap of its own: ``Graph(n, adj)`` enforces
    ``Limits.graph_max_n``; generated graphs keep the lower caps
    ``Limits.trees_max_n``, ``Limits.forests_max_n`` and
    ``Limits.graphs_max_n``.
    """
    return sigma01_recursive(g)


def q_ratio(g: Graph) -> Fraction:
    """Q(G) = sigma1(G) / sigma0(G), exact and normalised."""
    return sigma01(g).q


def star_q(n: int) -> Fraction:
    """Q of the n-vertex star: (n-1) / (2^(n-1) + 1)."""
    if n < 1:
        raise ValueError(f"star order must be >= 1, got {n}")
    return Fraction(n - 1, (1 << (n - 1)) + 1)
