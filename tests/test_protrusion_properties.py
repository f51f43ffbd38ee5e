"""Property tests of the protrusion search: against connected-subset
enumeration, its t <= 1 listing against one component scan per boundary
set, and its width filters against ones on built closure graphs."""

import random

import networkx as nx
import pytest
from graph_oracles import boundary_unions_by_scans, closure_fits_by_graph, connected_subsets
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twkern import protrusions
from twkern.enumeration import connected_graphs
from twkern.graphs import Graph, path_graph
from twkern.harness import gen_corpus
from twkern.protrusions import (
    _boundary_unions,
    _cut_pieces,
    iter_protrusions,
    validate_protrusion,
)
from twkern.treedec import decide_treewidth, exact_treewidth

from conftest import sparse_random_graph


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=2 * n)) if pairs else set()
    return Graph(n, edges)


@st.composite
def forests(draw, max_n=14):
    """A forest: each vertex after the first joins an earlier one or not."""
    n = draw(st.integers(1, max_n))
    parents = draw(st.lists(st.none() | st.integers(0, n), min_size=n - 1, max_size=n - 1))
    return Graph(n, [(p % i, i) for i, p in enumerate(parents, 1) if p is not None])


def reference_protrusions(g: Graph, t: int, min_size: int) -> list[frozenset[int]]:
    """Every connected X != V of at least min_size vertices with |∂X| <= t, an
    interior and tw(G[X]) <= t, largest first, then by sorted vertex list."""
    out = []
    for xs in connected_subsets(g, g.n - 1):
        bnd = g.boundary(xs)
        if not min_size <= len(xs) < g.n or len(bnd) > t or len(bnd) == len(xs):
            continue
        if exact_treewidth(g.induced_subgraph(xs)[0])[0] <= t:
            out.append(xs)
    return sorted(out, key=lambda xs: (-len(xs), sorted(xs)))


def _marked(g: Graph, xs: frozenset[int]) -> nx.Graph:
    h = nx.Graph(list(g.edges))
    h.add_nodes_from((v, {"in": v in xs}) for v in g.vertices)
    return h


def _automorphic(g: Graph, xs: frozenset[int], ys: frozenset[int]) -> bool:
    """Does an automorphism of g map xs onto ys?"""
    same = nx.algorithms.isomorphism.categorical_node_match("in", False)
    return nx.is_isomorphic(_marked(g, xs), _marked(g, ys), node_match=same)


# G - {2, 8} has a triangle component {0, 6, 7} and a tree component
# {1, 3, 4, 5} of the shape a search from 2 over the triangle meets: they
# are not copies
@example(
    g=Graph(9, [(0, 6), (0, 7), (0, 8), (1, 2), (1, 3), (1, 5), (2, 6), (4, 5), (5, 8), (6, 7)]),
    t=2,
    min_size=1,
)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(g=graphs(), t=st.integers(0, 2), min_size=st.integers(1, 8))
def test_search_is_complete_up_to_automorphism(g, t, min_size):
    found = list(iter_protrusions(g, t, min_size))
    reference = reference_protrusions(g, t, min_size)
    # the search yields reference sets in reference order ...
    positions = [reference.index(xs) for xs in found]
    assert positions == sorted(set(positions))
    # ... and skips only images of an earlier yielded set
    for pos, xs in enumerate(reference):
        if xs not in found:
            earlier = [ys for ys in found if reference.index(ys) < pos and len(ys) == len(xs)]
            assert any(_automorphic(g, xs, ys) for ys in earlier)
    for xs in found:
        assert validate_protrusion(g, xs, t).ok
    # every candidate has at most t boundary vertices, an interior and at
    # least min_size vertices, so the search need not test them
    for xs in _boundary_unions(g, t, min_size):
        bnd = g.boundary(xs)
        assert len(bnd) <= t and len(bnd) < len(xs) and len(xs) >= min_size


def _renumbered(g: Graph, seed: int) -> Graph:
    perm = list(g.vertices)
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _windmill(blades: int) -> Graph:
    """`blades` triangles sharing vertex 0."""
    edges = [e for i in range(1, 2 * blades, 2) for e in ((0, i), (0, i + 1), (i, i + 1))]
    return Graph(2 * blades + 1, edges)


def _double_star(centres: int, leaves: int) -> Graph:
    """Vertex 0 joined to `centres` centres, each with `leaves` leaves."""
    edges = [(0, c) for c in range(1, centres + 1)]
    edges += [(1 + i // leaves, 1 + centres + i) for i in range(centres * leaves)]
    return Graph(1 + centres + centres * leaves, edges)


def _pendant_paws(count: int) -> Graph:
    """`count` paws (a triangle with a tail) whose tails end at vertex 0."""
    edges = []
    for tail in range(1, 4 * count, 4):
        a, b, c = tail + 1, tail + 2, tail + 3
        edges += [(0, tail), (tail, a), (a, b), (b, c), (a, c)]
    return Graph(4 * count + 1, edges)


SEARCH_INPUTS = {
    "12 triangles sharing a vertex": _windmill(12),
    "double star, 5 centres x 8 leaves": _double_star(5, 8),
    "10 pendant paws": _pendant_paws(10),
    "10 pendant paws, renumbered": _renumbered(_pendant_paws(10), 1),
    **{
        f"grid+pendants {seed}.{i}": g
        for seed in (1, 2)
        for i, g in enumerate(gen_corpus("grid+pendants", {"count": 2}, seed))
    },
    **{
        f"random-planar {seed}.{i}": g
        for seed in (1, 2)
        for i, g in enumerate(gen_corpus("random-planar", {"count": 3}, seed))
    },
}


@pytest.mark.parametrize("name", SEARCH_INPUTS)
def test_search_lists_the_candidates_of_closure_graphs(name, monkeypatch):
    # at t = 2 the width filter read from the host's adjacency leaves the
    # candidates and their order as the filter on built closure graphs does
    g = SEARCH_INPUTS[name]
    found = list(_boundary_unions(g, 2, 1))
    monkeypatch.setattr(protrusions, "_closure_fits", closure_fits_by_graph)
    assert found == list(_boundary_unions(g, 2, 1))


def _assert_listing_matches_scans(g: Graph) -> None:
    for t in (0, 1):
        for min_size in (1, 3, 7):
            assert list(_boundary_unions(g, t, min_size)) == boundary_unions_by_scans(
                g, t, min_size
            )


@pytest.mark.parametrize("name", SEARCH_INPUTS)
def test_one_search_lists_the_candidates_of_component_scans(name):
    # the depth-first listing at t <= 1 gives the candidates of one
    # component scan per boundary set, in the same order, however numbered
    g = SEARCH_INPUTS[name]
    for h in (g, _renumbered(g, 2), _renumbered(g, 3)):
        _assert_listing_matches_scans(h)


@example(g=path_graph(9))  # a host that is one tree: the rest of c's component fits
@example(g=Graph(14, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (0, 7), (7, 8)]))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(g=graphs(max_n=14) | forests())
def test_one_search_matches_component_scans_on_small_graphs(g):
    _assert_listing_matches_scans(g)


def test_tree_count_agrees_with_decide_treewidth():
    # every component C of G - c that touches c, on all connected graphs of
    # up to 7 vertices and random graphs of up to 13: the depth-first search
    # counts it, and lists it exactly when tw(G[{c} ∪ C]) <= 1
    rng = random.Random(21)
    cases = [g for graphs in connected_graphs(7).values() for g, _ in graphs]
    cases += [sparse_random_graph(rng, rng.randint(1, 13)) for _ in range(400)]
    asked = 0
    for g in cases:
        ncomps, pieces = _cut_pieces(g)
        assert ncomps == len(g.connected_components())
        for c in g.vertices:
            touching = [comp for comp in g.connected_components(avoid={c}) if g.neighbors(c) & comp]
            closures = [g.induced_subgraph(comp | {c})[0] for comp in touching]
            fits = [comp for comp, h in zip(touching, closures) if decide_treewidth(h, 1)]
            assert pieces(c) == (len(touching), fits)
            asked += len(touching)
    assert asked > 5000
