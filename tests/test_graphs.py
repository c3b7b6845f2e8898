import itertools
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from nearindep.graphs import (
    CanonicalCode,
    Graph,
    canonical_code,
    canonical_form,
    connected_components,
    induced_subgraph,
    make_graph,
    make_named,
    max_degree,
)
from nearindep.generate import ClassSpec, gen_trees
from nearindep.graph6 import emit_graph6, parse_graph6
from nearindep.limits import CapabilityError
from nearindep.sigma import SigmaDistribution, SigmaPair
from nearindep.verify import STAR_LOWER, Check, Violation

from conftest import brute_force_automorphisms, graphs, no_cyclic_garbage, random_graph
from oracles import (
    closed_neighborhood,
    disjoint_union,
    forest_certificate,
    graph_from_code,
    graph_from_pair_mask,
    is_forest,
    min_column_code,
    packed_code,
    relabel,
    shuffled,
)


def test_make_graph_examples():
    k2 = make_graph(2, [(0, 1)])
    assert k2.adj == (0b10, 0b01)
    assert make_graph(3, []).adj == (0, 0, 0)
    p4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert p4.edges() == [(0, 1), (1, 2), (2, 3)]


def test_make_graph_dedups_and_validates():
    g = make_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1
    with pytest.raises(ValueError):
        make_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        make_graph(3, [(0, 3)])


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(2, (0b10,))            # wrong length
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))       # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (0b1,))             # loop
    with pytest.raises(ValueError):
        Graph(1, (0b10,))            # stray bit
    with pytest.raises(ValueError, match="tuple"):
        Graph(2, [0b10, 0b01])       # a list: unhashable, and its rows could change after the check
    with pytest.raises(ValueError, match="int rows"):
        Graph(2, (2.0, 0b01))        # float row
    with pytest.raises(ValueError, match="int rows"):
        Graph(2, (0b10, 1.0))        # float row, reached by the symmetry test of an earlier row
    with pytest.raises(ValueError, match="int rows"):
        Graph(1, ("0",))             # str row
    with pytest.raises(ValueError, match="non-negative int"):
        Graph(2.0, (0b10, 0b01))     # float order
    with pytest.raises(ValueError, match="non-negative int"):
        make_graph(2.0, [])          # float order, before the rows are built
    with pytest.raises(ValueError, match="int vertices"):
        make_graph(3, [(0, 1.0)])    # float endpoint
    with pytest.raises(ValueError, match="non-negative int"):
        make_named("path", 2.0)      # float order, before the edge list is built


def test_make_graph_and_parse_graph6_run_the_full_check(spy):
    """Graphs made from edge lists pass ``Graph._check``, which sees the
    fields before the graph is built.  ``parse_graph6`` builds through
    ``Graph._unchecked``, as the generators do: its rows come from
    ``_column_rows``, symmetric and loop-free as built, after the order's
    cap is checked; the full check, run on them here, accepts them."""
    calls = spy(Graph, "_check")
    g = make_graph(4, [(0, 1), (1, 2)])
    h = parse_graph6(emit_graph6(g))
    checked = [args for args, _ in calls]
    assert len(checked) == 1 and checked[0] == (g.n, g.adj) and checked[0][1] is g.adj and g == h
    assert Graph(h.n, h.adj) == h and len(calls) == 2


def _bound(spec):
    return Fraction(1, 3)


@pytest.mark.parametrize("make", [
    lambda: make_graph(3, [(0, 1), (1, 2)]),
    lambda: CanonicalCode(3, 0b011),
    lambda: SigmaPair(5, 4),
    lambda: SigmaDistribution(2, (3, 1)),
    lambda: ClassSpec("bounded_degree_graphs", 4, 2),
    lambda: Violation("Bw", Fraction(1, 2), Fraction(1, 3), "context"),
    lambda: Check("scan", "<=", _bound, note_attained=True),
], ids=lambda make: type(make()).__name__)
def test_records_are_immutable_and_hash_by_value(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    for name in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
    with pytest.raises(AttributeError):
        a.extra = 0  # no instance dict either


def test_replace_validates_like_the_constructor():
    with pytest.raises(ValueError, match="comparison"):
        STAR_LOWER._replace(op="==")
    with pytest.raises(ValueError, match="sigma0 >= 1"):
        SigmaPair(2, 1)._replace(sigma0=0)
    with pytest.raises(ValueError, match="negative order"):
        ClassSpec("trees", 4)._replace(n=-1)
    with pytest.raises(ValueError, match="asymmetric"):
        make_graph(2, [(0, 1)])._replace(adj=(0b10, 0))
    assert STAR_LOWER._replace(theorem_id="x")[1:] == STAR_LOWER[1:]


def test_graph_order_cap():
    with pytest.raises(CapabilityError):
        make_named("empty", 65)
    assert make_named("empty", 64).n == 64


def test_make_named():
    s4 = make_named("star", 4)
    assert s4.adj[0] == 0b1110 and all(s4.adj[v] == 1 for v in (1, 2, 3))
    m = make_named("matching_plus_isolated", 5, 2)
    assert m.edges() == [(0, 1), (2, 3)] and m.degree(4) == 0
    assert make_named("empty", 0).n == 0
    assert make_named("complete", 4).edge_count() == 6
    assert make_named("path", 1).n == 1
    with pytest.raises(ValueError):
        make_named("matching_plus_isolated", 5, 3)
    with pytest.raises(ValueError, match="invalid t"):
        make_named("matching_plus_isolated", 5, 2.0)
    with pytest.raises(ValueError):
        make_named("matching_plus_isolated", 5)
    with pytest.raises(ValueError):
        make_named("star", 4, t=1)
    with pytest.raises(ValueError):
        make_named("wheel", 4)


def test_induced_subgraph():
    p4 = make_named("path", 4)
    assert induced_subgraph(p4, 0b0111) == make_named("path", 3)
    s4 = make_named("star", 4)
    assert induced_subgraph(s4, 0b1110) == make_named("empty", 3)
    # dropping the closed neighbourhood of the second path vertex leaves one vertex
    keep = p4.full_mask & ~closed_neighborhood(p4, 1)
    assert induced_subgraph(p4, keep) == make_named("empty", 1)
    assert induced_subgraph(p4, p4.full_mask) == p4
    assert induced_subgraph(p4, 0).n == 0
    with pytest.raises(ValueError):
        induced_subgraph(p4, 1 << 4)


def test_closed_neighborhood():
    assert closed_neighborhood(make_graph(2, [(0, 1)]), 0) == 0b11
    assert closed_neighborhood(make_named("empty", 3), 1) == 0b010
    assert closed_neighborhood(make_named("star", 4), 0) == 0b1111
    with pytest.raises(ValueError):
        closed_neighborhood(make_named("empty", 3), 3)


def test_connected_components():
    assert connected_components(make_named("matching_plus_isolated", 4, 2)) == [0b0011, 0b1100]
    assert connected_components(make_named("path", 4)) == [0b1111]
    assert connected_components(make_graph(4, [(0, 1)])) == [0b0011, 0b0100, 0b1000]
    assert connected_components(make_named("empty", 0)) == []


def test_components_partition_random(rng):
    for _ in range(50):
        g = random_graph(rng.randint(0, 9), rng)
        comps = connected_components(g)
        total = 0
        for c in comps:
            assert total & c == 0
            total |= c
        assert total == g.full_mask


def test_max_degree():
    assert max_degree(make_named("star", 5)) == 4
    assert max_degree(make_named("empty", 3)) == 0
    assert max_degree(make_named("path", 4)) == 2
    assert max_degree(make_named("empty", 0)) == 0


def test_disjoint_union():
    g = disjoint_union(make_named("path", 2), make_named("path", 3))
    assert g.n == 5 and g.edges() == [(0, 1), (2, 3), (3, 4)]
    assert connected_components(g) == [0b00011, 0b11100]


def test_canonical_code_relabellings():
    a = make_graph(3, [(0, 1), (1, 2)])
    b = make_graph(3, [(1, 0), (0, 2)])
    assert canonical_code(a) == canonical_code(b)
    assert canonical_code(make_named("complete", 3)) != canonical_code(a)


@pytest.mark.parametrize("n,classes", [(3, 4), (4, 11), (5, 34)])
def test_canonical_code_class_counts(n, classes):
    # dedup oracle: every labelled graph on n vertices, one code per class
    npairs = n * (n - 1) // 2
    codes = {canonical_code(graph_from_pair_mask(n, m)).code for m in range(1 << npairs)}
    assert len(codes) == classes


def test_canonical_code_cap():
    with pytest.raises(CapabilityError, match="canonical_form supports order <= 10, got 11"):
        canonical_code(make_named("empty", 11))


def group_order(n: int, gens) -> int:
    """Order of the group that gens, permutations of range(n), generate."""
    return PermutationGroup([Permutation(list(phi), size=n) for phi in gens]).order()


def test_canonical_form_automorphisms(rng):
    """The second element is a set of generators, not the group: every
    one is an automorphism other than the identity."""
    _, gens, _ = canonical_form(make_named("star", 5))
    assert group_order(5, gens) == 24  # the four leaves permute freely
    for _ in range(40):
        g = random_graph(rng.randint(0, 8), rng)
        _, gens, _ = canonical_form(g)
        assert tuple(range(g.n)) not in gens
        for phi in gens:
            assert relabel(g, phi) == g


def test_canonical_form_generates_the_whole_group(rng):
    for _ in range(40):
        g = random_graph(rng.randint(0, 6), rng)
        gens, group = canonical_form(g)[1], brute_force_automorphisms(g)
        assert set(gens) <= group and group_order(g.n, gens) == len(group)


def test_canonical_form_groups_of_complete_and_empty_graphs():
    for n in range(7):
        for family in ("complete", "empty"):
            _, gens, _ = canonical_form(make_named(family, n))
            assert len(gens) == max(n - 1, 0)
            assert group_order(n, gens) == factorial(n)


@settings(max_examples=60)
@given(graphs(max_n=6))
def test_canonical_code_is_the_minimum_over_all_relabellings(g):
    """The oracle search finds the least code over all n! relabellings."""
    least = min(packed_code(g, order) for order in itertools.permutations(range(g.n)))
    assert min_column_code(g) == least


def assert_same_classes(graphs) -> None:
    """Equal canonical codes hold exactly when equal least codes over all
    relabellings hold: the two codes name the same partition into
    isomorphism classes."""
    pairs = {((g.n, canonical_code(g).code), (g.n, min_column_code(g))) for g in graphs}
    assert len({new for new, _ in pairs}) == len({old for _, old in pairs}) == len(pairs)


def test_canonical_code_separates_the_atlas():
    """All 1,253 graphs of the atlas (n <= 7), one per class, each also
    under a random relabelling."""
    nx = pytest.importorskip("networkx")
    rnd = random.Random(7)
    atlas = []
    for h in nx.graph_atlas_g():
        index = {v: i for i, v in enumerate(h.nodes)}
        g = make_graph(len(index), [(index[u], index[v]) for u, v in h.edges])
        atlas += [g, shuffled(g, rnd)]
    assert_same_classes(atlas)
    assert len({(g.n, canonical_code(g).code) for g in atlas}) == 1253


@settings(max_examples=80)
@given(graphs(max_n=9), st.randoms(use_true_random=False), st.booleans())
def test_canonical_code_agrees_with_the_oracle(g, rnd, toggle):
    """A graph against a relabelling of itself, or of itself with one pair
    toggled: the codes are equal exactly when the oracle's are."""
    h = shuffled(g, rnd)
    if toggle and g.n >= 2:
        u, v = rnd.sample(range(g.n), 2)
        adj = list(h.adj)
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        h = Graph(g.n, tuple(adj))
    assert_same_classes([g, h])


@settings(max_examples=80)
@given(graphs(max_n=8))
def test_canonical_labelling_spells_the_code(g):
    """Relabelling by the returned labelling (position i holds vertex
    order[i]) gives the graph spelled by the canonical code."""
    code, _, order = canonical_form(g)
    assert sorted(order) == list(range(g.n))
    inv = [0] * g.n
    for pos, v in enumerate(order):
        inv[v] = pos
    assert relabel(g, inv) == graph_from_code(g.n, code.code)


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return make_graph(10, outer + spokes + inner)


K55 = make_graph(10, [(u, v) for u in range(5) for v in range(5, 10)])
C10 = make_graph(10, [(i, (i + 1) % 10) for i in range(10)])
MATCHING5 = make_named("matching_plus_isolated", 10, 5)
TWO_C5 = make_graph(10, [(i + k, (i + 1) % 5 + k) for i in range(5) for k in (0, 5)])
PRISM5 = make_graph(10, TWO_C5.edges() + [(i, i + 5) for i in range(5)])
MOEBIUS10 = make_graph(10, C10.edges() + [(i, i + 5) for i in range(5)])
# the regular graphs at the cap, on which refinement splits no cell
REGULAR_AT_THE_CAP = {"C10": C10, "petersen": _petersen(), "5K2": MATCHING5, "2C5": TWO_C5,
                      "prism5": PRISM5, "moebius10": MOEBIUS10}


def test_canonical_code_separates_regular_graphs_at_the_cap(rng):
    """Each regular graph of order 10, under random relabellings, keeps
    one code, and distinct graphs keep distinct codes, as the oracle's."""
    relabelled = [shuffled(g, rng) for g in REGULAR_AT_THE_CAP.values() for _ in range(4)]
    assert_same_classes(relabelled)
    assert len({canonical_code(g) for g in relabelled}) == len(REGULAR_AT_THE_CAP)


@pytest.mark.parametrize("g, order, least", [
    (make_named("complete", 10), factorial(10), range(10)),
    (make_named("empty", 10), factorial(10), range(10)),
    (make_named("star", 10), factorial(9), [*range(1, 10), 0]),
    (K55, 2 * factorial(5) ** 2, range(10)),
    (C10, 20, None),
    (_petersen(), 120, None),
    (MATCHING5, 2 ** 5 * factorial(5), None),
    (TWO_C5, 2 * 10 ** 2, None),
    (PRISM5, 20, None),
    (MOEBIUS10, 20, None),
], ids=["K10", "empty10", "star10", "K5,5", "C10", "petersen", "5K2", "2C5", "prism5", "moebius10"])
def test_canonical_form_at_the_cap(g, order, least, rng):
    """Order 10 is the canonical cap; highly symmetric graphs there come
    back with their whole group.  ``least`` is a relabelling known to
    attain the least code over all relabellings, which the refinement
    search also reaches on these graphs: the independent set of the
    leaves or of one side first (K_n is all ones and the empty graph 0
    under any order)."""
    code, gens, _ = canonical_form(g)
    assert group_order(10, gens) == order
    if order == factorial(10):
        assert len(gens) <= 9
        assert code.code == (1 << g.edge_count()) - 1  # all ones, or 0
    if least is not None:
        assert code.code == packed_code(g, list(least))
    assert canonical_form(shuffled(g, rng))[0] == code


def test_canonical_form_leaves_no_cyclic_garbage(rng):
    """Graphs whose search has many leaves, and random G(8, p): each call
    frees its whole search by reference counting alone."""
    drawn = [make_graph(8, [(u, v) for v in range(8) for u in range(v) if rng.random() < p])
             for p in (0.2, 0.5, 0.8) for _ in range(10)]
    with no_cyclic_garbage():
        for g in [_petersen(), MATCHING5, TWO_C5, make_named("complete", 8), *drawn]:
            canonical_form(g)


def test_relabel_validates():
    with pytest.raises(ValueError):
        relabel(make_named("path", 3), [0, 0, 2])


def test_is_forest():
    assert is_forest(make_named("path", 5))
    assert is_forest(make_named("empty", 4))
    assert not is_forest(make_named("complete", 3))
    assert is_forest(disjoint_union(make_named("star", 4), make_named("path", 2)))


@given(graphs(min_n=1, max_n=12))  # networkx calls the empty graph pointless
def test_is_forest_matches_networkx(g):
    nx = pytest.importorskip("networkx")
    h = nx.empty_graph(g.n)
    h.add_edges_from(g.edges())
    assert is_forest(g) == nx.is_forest(h)


def test_forest_certificate_rejects_a_cycle_in_a_later_component():
    with pytest.raises(ValueError, match="acyclic"):
        forest_certificate(disjoint_union(make_named("path", 3), make_named("complete", 3)))


def test_forest_certificate_invariance(rng):
    t = make_graph(6, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)])
    for _ in range(20):
        assert forest_certificate(shuffled(t, rng)) == forest_certificate(t)
    assert forest_certificate(make_named("path", 5)) != forest_certificate(make_named("star", 5))
    with pytest.raises(ValueError):
        forest_certificate(make_named("complete", 3))
    # two isolated vertices: two components, neither of them the edge
    assert forest_certificate(make_named("empty", 2)) == ((), ())
    assert forest_certificate(make_named("empty", 2)) != forest_certificate(make_named("path", 2))


def test_forest_certificate_agrees_with_canonical_code(rng):
    # on all forests up to 6 vertices, and on every tree up to 10 vertices
    # under random relabellings, the two invariants induce the same classes
    by_cert: dict[tuple, tuple] = {}
    by_code: dict[tuple, tuple] = {}

    def agree(g):
        cert = forest_certificate(g)
        code = (g.n, canonical_code(g).code)
        assert by_cert.setdefault(cert, code) == code
        assert by_code.setdefault(code, cert) == cert

    for n in range(1, 7):
        npairs = n * (n - 1) // 2
        for m in range(1 << npairs):
            g = graph_from_pair_mask(n, m)
            if is_forest(g):
                agree(g)
    for n in range(1, 11):
        for t in gen_trees(n):
            agree(t)
            for _ in range(5):
                agree(shuffled(t, rng))


def test_certificates_respect_union_order():
    a = disjoint_union(make_named("path", 3), make_named("star", 4))
    b = disjoint_union(make_named("star", 4), make_named("path", 3))
    assert forest_certificate(a) == forest_certificate(b)
