"""Tree decompositions: validation, exact treewidth, heuristics, and the DP."""

import hashlib
import random
import zlib

import pytest

from twkern.dp import DOM, DP_WIDTH_BUDGET, IN, run_dp, solve_via_dp
from twkern.graphs import (
    BoundariedGraph,
    BudgetError,
    Graph,
    complete_graph,
    disjoint_union,
    make_grid,
    path_graph,
)
from twkern.problems import CATALOG, opt_brute
from twkern.replacement import _raw_table_brute, build_replacement_table, format_table
from twkern.treedec import (
    EXACT_TW_BUDGET,
    TreeDecomposition,
    decide_treewidth,
    exact_treewidth,
    heuristic_decomposition,
    minfill_order,
    mmw_lower_bound,
    treewidth_at_most,
    validate_decomposition,
)

from conftest import random_graph, sparse_random_graph


class TestValidation:
    def test_single_bag(self):
        g = complete_graph(4)
        td = TreeDecomposition([set(g.vertices)])
        res = validate_decomposition(g, td)
        assert res.ok and td.width == 3

    def test_path_decomposition(self):
        g = path_graph(3)
        td = TreeDecomposition([{0, 1}, {1, 2}], [(0, 1)])
        assert validate_decomposition(g, td).ok
        assert td.width == 1

    def test_missing_vertex_in_bag_reports_violation(self):
        g = path_graph(3)
        td = TreeDecomposition([{0, 1}, {2}], [(0, 1)])
        res = validate_decomposition(g, td)
        assert not res.ok
        assert "(T2)" in res.message

    def test_broken_connectivity_reports_t3(self):
        g = Graph(3, [(0, 1)])
        td = TreeDecomposition([{0, 1}, {2}, {0}], [(0, 1), (1, 2)])
        res = validate_decomposition(g, td)
        assert not res.ok and "(T3)" in res.message

    def test_disconnected_tree_rejected(self):
        g = path_graph(2)
        td = TreeDecomposition([{0, 1}, {0, 1}])
        assert not validate_decomposition(g, td).ok

    def test_empty_graph_empty_decomposition(self):
        assert validate_decomposition(Graph(0), TreeDecomposition([])).ok

    def test_foreign_vertex_rejected(self):
        g = path_graph(2)
        td = TreeDecomposition([{0, 1, 7}])
        assert not validate_decomposition(g, td).ok

    def test_first_violation_on_a_long_path_decomposition(self):
        n = 3000
        g = path_graph(n)
        bags = [{i, i + 1} for i in range(n - 1)]
        chain = [(i, i + 1) for i in range(n - 2)]
        assert validate_decomposition(g, TreeDecomposition(bags, chain)).ok
        cases = [
            ({1700: {1700, 1701, n}}, "bag 1700 contains foreign vertex 3000"),
            ({1499: {1499}, 1500: {1501}}, "(T1) vertex 1500 is in no bag"),
            ({1499: {1499}, 1500: {1500, 1501}}, "(T2) edge (1499,1500) is in no bag"),
            ({1000: {1000, 1001, 5}}, "(T3) bags containing vertex 5 are not connected"),
        ]
        for edits, message in cases:
            td = TreeDecomposition([edits.get(i, b) for i, b in enumerate(bags)], chain)
            assert validate_decomposition(g, td).message == message


class TestExactTreewidth:
    @pytest.mark.parametrize("t,expected", [(2, 2), (3, 3), (4, 4)])
    def test_grid_treewidth(self, t, expected):
        w, td = exact_treewidth(make_grid(t))
        assert w == expected
        assert validate_decomposition(make_grid(t), td).ok
        assert td.width == w

    def test_trees_have_width_one(self):
        rng = random.Random(0)
        for _ in range(20):
            n = rng.randint(2, 12)
            edges = [(rng.randrange(i), i) for i in range(1, n)]
            g = Graph(n, edges)
            w, td = exact_treewidth(g)
            assert w == 1 and validate_decomposition(g, td).ok

    @pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
    def test_complete_graphs(self, n):
        w, _ = exact_treewidth(complete_graph(n))
        assert w == n - 1

    def test_budget_error_mentions_heuristic(self):
        with pytest.raises(BudgetError, match="heuristic"):
            exact_treewidth(make_grid(5))

    def test_heuristic_never_below_exact(self):
        rng = random.Random(1)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 9))
            w, _ = exact_treewidth(g)
            assert heuristic_decomposition(g).width >= w

    def test_vertex_deletion_monotone(self):
        from graph_oracles import all_graphs, delete_vertex

        for g in all_graphs(6):
            w, _ = exact_treewidth(g)
            for v in g.vertices:
                w2, _ = exact_treewidth(delete_vertex(g, v))
                assert w2 <= w

    def test_disjoint_union_takes_max_over_components(self):
        rng = random.Random(2)
        for _ in range(25):
            g1 = random_graph(rng, rng.randint(1, 8))
            g2 = random_graph(rng, rng.randint(1, 8))
            u = disjoint_union(g1, g2)
            wu, td = exact_treewidth(u)
            assert wu == max(exact_treewidth(g1)[0], exact_treewidth(g2)[0])
            assert validate_decomposition(u, td).ok

    def test_lower_bound_sound(self):
        rng = random.Random(3)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 8))
            assert mmw_lower_bound(g) <= exact_treewidth(g)[0] or g.n == 0

    def test_matches_exhaustive_ordering_search(self):
        # independent oracle: the best width over all n! elimination orderings
        import itertools

        from twkern.treedec import _adj_copy, _eliminate

        rng = random.Random(6)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 6))
            best = g.n
            for order in itertools.permutations(g.vertices):
                adj = _adj_copy(g)
                width = -1 if g.n == 0 else 0
                for v in order:
                    width = max(width, len(adj[v]))
                    _eliminate(adj, v)
                best = min(best, width)
            if g.n == 0:
                best = -1
            assert exact_treewidth(g)[0] == best


class TestHeuristic:
    def test_tree_input_width_one(self):
        g = path_graph(9)
        td = heuristic_decomposition(g)
        assert td.width == 1 and validate_decomposition(g, td).ok

    def test_grid3_validates_with_width_at_least_three(self):
        g = make_grid(3)
        td = heuristic_decomposition(g)
        assert validate_decomposition(g, td).ok
        assert td.width >= 3

    def test_empty_graph(self):
        td = heuristic_decomposition(Graph(0))
        assert len(td.bags) == 0
        assert validate_decomposition(Graph(0), td).ok

    def test_minfill_order_covers_all_vertices(self):
        rng = random.Random(4)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 10))
            _, order = minfill_order(g)
            assert sorted(order) == list(g.vertices)

    def test_validates_on_random_graphs(self):
        rng = random.Random(5)
        for _ in range(60):
            g = random_graph(rng, rng.randint(0, 12))
            assert validate_decomposition(g, heuristic_decomposition(g)).ok


class TestWidthQuestions:
    def test_decision_agrees_with_decomposition(self):
        # a yes from decide_treewidth exactly when treewidth_at_most finds a
        # valid decomposition of width <= eta; certain within the exact budget
        rng = random.Random(8)
        # min-fill gives width 4 on `fooled`, whose treewidth is 3
        fooled = Graph(9, [(0, 3), (0, 5), (0, 8), (1, 2), (1, 6), (2, 3), (2, 5), (2, 6),
                           (2, 7), (3, 4), (4, 5), (4, 6), (4, 7), (6, 8), (7, 8)])
        assert minfill_order(fooled)[0] == 4 and exact_treewidth(fooled)[0] == 3
        cases = [fooled, make_grid(5), complete_graph(4)]
        for _ in range(150):
            n = rng.randint(0, 26)
            tree_edges = [(rng.randrange(i), i) for i in range(1, n) if rng.random() < 0.8]
            cases += [Graph(n, tree_edges), sparse_random_graph(rng, min(n, 14))]
        for g in cases:
            for eta in range(-1, 4):
                fits, td = decide_treewidth(g, eta), treewidth_at_most(g, eta)
                assert (fits is True) == (td is not None)
                if td is not None:
                    assert validate_decomposition(g, td).ok and td.width <= eta
                if g.n <= EXACT_TW_BUDGET:
                    assert fits == (exact_treewidth(g)[0] <= eta)


class TestSolveViaDp:
    def test_vertex_cover_grid2(self):
        g = make_grid(2)
        value, witness = solve_via_dp(CATALOG["vertex-cover"], g, heuristic_decomposition(g))
        # oracle: all 16 subsets enumerated by the reference oracle
        assert value == opt_brute(CATALOG["vertex-cover"], g)[0] == 2
        assert CATALOG["vertex-cover"].feasibility(g, witness)

    def test_independent_set_single_vertex(self):
        g = Graph(1)
        value, witness = solve_via_dp(CATALOG["independent-set"], g, heuristic_decomposition(g))
        assert value == 1 and witness == {0}

    def test_dominating_set_grid3(self):
        g = make_grid(3)
        value, witness = solve_via_dp(CATALOG["dominating-set"], g, heuristic_decomposition(g))
        assert value == opt_brute(CATALOG["dominating-set"], g)[0] == 3
        assert CATALOG["dominating-set"].feasibility(g, witness)

    @pytest.mark.parametrize(
        "problem", ["vertex-cover", "independent-set", "dominating-set", "feedback-vertex-set"]
    )
    def test_agrees_with_brute_force(self, problem):
        p = CATALOG[problem]
        rng = random.Random(zlib.crc32(problem.encode()))
        for _ in range(60):
            g = sparse_random_graph(rng, rng.randint(1, 10))
            td = heuristic_decomposition(g)
            value, witness = solve_via_dp(p, g, td)
            assert value == opt_brute(p, g)[0]
            assert p.feasibility(g, witness)
            assert len(witness) == value

    def test_width_budget_enforced(self):
        g = complete_graph(DP_WIDTH_BUDGET + 3)
        td = TreeDecomposition([set(g.vertices)])
        with pytest.raises(BudgetError):
            solve_via_dp(CATALOG["vertex-cover"], g, td)

    def test_deep_decomposition(self):
        # a path decomposition with one tree level per bag, far deeper than
        # Python's recursion limit
        n = 3000
        g = path_graph(n)
        td = TreeDecomposition([{i, i + 1} for i in range(n - 1)], [(i, i + 1) for i in range(n - 2)])
        value, witness = solve_via_dp(CATALOG["vertex-cover"], g, td)
        assert value == len(witness) == n // 2
        assert CATALOG["vertex-cover"].feasibility(g, witness)

    def test_joins_on_a_four_cycle(self):
        # each child bag holds one of the two paths between 0 and 2, so only
        # the join at the root sees the cycle and the two-sided domination
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        td = TreeDecomposition([{0, 2}, {0, 1, 2}, {0, 2, 3}], [(0, 1), (0, 2)])
        assert solve_via_dp(CATALOG["feedback-vertex-set"], g, td)[0] == 1
        assert solve_via_dp(CATALOG["dominating-set"], g, td)[0] == 2
        bg = BoundariedGraph(g, {0: 1, 2: 2})
        for name in ("feedback-vertex-set", "dominating-set"):
            p = CATALOG[name]
            root = run_dp(p, g, td, pinned=bg.boundary)
            table = {p.machine.label_state(s, bg.boundary): c for s, (c, _) in root.items()}
            assert table == _raw_table_brute(p, bg)
        # 0 in the set and 2 dominated by 1 or by 3: one child alone dominates 2
        assert table[(IN, DOM)] == 2

    def test_dp_outputs_are_pinned(self):
        # values and sorted witnesses of the DP on fixed random graphs, and
        # the unprobed replacement tables built from its boundary tables; a
        # changed transition order or tie-break changes the digest
        rng = random.Random(20261019)
        graphs = [sparse_random_graph(rng, rng.randint(1, 12)) for _ in range(100)]
        graphs += [random_graph(rng, rng.randint(1, 9)) for _ in range(40)]
        digest = hashlib.sha256()
        for name in ("vertex-cover", "independent-set", "dominating-set", "feedback-vertex-set"):
            p = CATALOG[name]
            for g in graphs:
                value, witness = solve_via_dp(p, g, heuristic_decomposition(g))
                digest.update(repr((name, value, sorted(witness))).encode())
            for t, size in ((1, 6), (2, 5)):
                table = build_replacement_table(p, t, size, certify="off")
                digest.update(format_table(table).encode())
        assert digest.hexdigest() == (
            "326d0144416f5ce70b8f543a896dbdc080b14da82dfcf6af0f5e423ea22ea77a"
        )

    def test_decomposition_missing_an_edge_rejected(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        td = TreeDecomposition([{0, 1}, {1, 2}], [(0, 1)])
        with pytest.raises(ValueError, match=r"misses edge \(0, 2\)"):
            solve_via_dp(CATALOG["vertex-cover"], g, td)


class TestFormats:
    def test_decomposition_round_trip(self):
        from twkern.io import format_decomposition, parse_decomposition

        g = make_grid(3)
        td = heuristic_decomposition(g)
        text = format_decomposition(td, g.n)
        td2, n = parse_decomposition(text)
        assert n == g.n
        assert format_decomposition(td2, n) == text
        assert validate_decomposition(g, td2).ok

    def test_parse_rejects_wrong_width(self):
        from twkern.io import ParseError, parse_decomposition

        with pytest.raises(ParseError):
            parse_decomposition("s 1 5 2\nb 1 1 2\n")
