import random
from itertools import permutations

import pytest
from hypothesis import strategies as st

from nearindep.graphs import Graph, make_graph

from oracles import graph_from_pair_mask


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8) -> Graph:
    n = draw(st.integers(min_n, max_n))
    npairs = n * (n - 1) // 2
    mask = draw(st.integers(0, (1 << npairs) - 1)) if npairs else 0
    return graph_from_pair_mask(n, mask)


@st.composite
def forests(draw, min_n: int = 1, max_n: int = 10) -> Graph:
    """Random labelled forest: random parent links, some dropped.  Each
    parent is below its child, so the tree DP folds it in label order."""
    n = draw(st.integers(min_n, max_n))
    edges = []
    for v in range(1, n):
        if draw(st.booleans()):
            edges.append((draw(st.integers(0, v - 1)), v))
    return make_graph(n, edges)


def random_graph(n: int, rng: random.Random) -> Graph:
    npairs = n * (n - 1) // 2
    return graph_from_pair_mask(n, rng.getrandbits(npairs) if npairs else 0)


def subset_image(s: int, phi) -> int:
    """Image of the vertex subset s under the permutation phi."""
    out = 0
    for v, w in enumerate(phi):
        if s >> v & 1:
            out |= 1 << w
    return out


def brute_force_automorphisms(g: Graph) -> set[tuple[int, ...]]:
    """All n! relabellings phi that map every neighbourhood onto the
    neighbourhood of its image, found without any search."""
    return {
        phi for phi in permutations(range(g.n))
        if all(subset_image(g.adj[v], phi) == g.adj[phi[v]] for v in range(g.n))
    }


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
