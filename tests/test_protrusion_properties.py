"""Property test of the protrusion search against connected-subset enumeration."""

import networkx as nx
from graph_oracles import connected_subsets
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twkern.graphs import Graph
from twkern.protrusions import _boundary_unions, iter_protrusions, validate_protrusion
from twkern.treedec import exact_treewidth


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=2 * n)) if pairs else set()
    return Graph(n, edges)


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
