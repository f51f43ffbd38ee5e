"""Property tests of the tree-decomposition DP against subset enumeration."""

from hypothesis import given, settings
from hypothesis import strategies as st

from twkern.dp import run_dp, solve_via_dp
from twkern.graphs import BoundariedGraph, Graph
from twkern.problems import CATALOG, opt_brute
from twkern.replacement import _normalize, _raw_table_brute, _raw_table_dp
from twkern.treedec import decomposition_from_order, exact_treewidth, heuristic_decomposition

PROBLEMS = [
    CATALOG[name]
    for name in ("vertex-cover", "independent-set", "dominating-set", "feedback-vertex-set")
]
DERANDOMIZED = settings(max_examples=400, deadline=None, derandomize=True, database=None)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, edges)


@st.composite
def boundaried_graphs(draw):
    g = draw(graphs())
    b = draw(st.integers(0, min(3, g.n)))
    seats = draw(st.permutations(range(g.n)))[:b]
    return BoundariedGraph(g, {v: i + 1 for i, v in enumerate(seats)})


def _decompositions(g: Graph, data):
    """Min-fill, exact and drawn-elimination-order decompositions: three tree
    shapes for one graph."""
    order = data.draw(st.permutations(range(g.n)), label="elimination order")
    return heuristic_decomposition(g), exact_treewidth(g)[1], decomposition_from_order(g, order)


@DERANDOMIZED
@given(bg=boundaried_graphs(), p=st.sampled_from(PROBLEMS), data=st.data())
def test_pinned_table_matches_brute(bg, p, data):
    brute = _raw_table_brute(p, bg)
    b = len(bg.label_of)
    assert _normalize(p, _raw_table_dp(p, bg), b) == _normalize(p, brute, b)
    for td in _decompositions(bg.graph, data):
        root = run_dp(p, bg.graph, td, pinned=bg.boundary)
        assert {p.machine.label_state(s, bg.boundary): c for s, (c, _) in root.items()} == brute


@DERANDOMIZED
@given(g=graphs(), p=st.sampled_from(PROBLEMS), data=st.data())
def test_witness_is_optimal_and_feasible(g, p, data):
    opt = opt_brute(p, g)[0]
    for td in _decompositions(g, data):
        value, witness = solve_via_dp(p, g, td)
        assert value == opt == len(witness)
        assert p.feasibility(g, witness)
