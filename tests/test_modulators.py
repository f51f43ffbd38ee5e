"""Balanced separations and treewidth modulators."""

import random

import pytest

from twkern.graphs import BudgetError, Graph, complete_graph, disjoint_union, make_grid, path_graph
from twkern.modulators import (
    balanced_separation,
    exact_modulator,
    recursive_modulator,
)
from twkern.treedec import exact_treewidth, heuristic_decomposition, validate_decomposition

from conftest import random_graph
from graph_oracles import delete_vertex


class TestBalancedSeparation:
    def test_path7_contract(self):
        g = path_graph(7)
        _, td = exact_treewidth(g)
        sep = balanced_separation(g, frozenset(g.vertices), td)
        assert sep.is_separation_of(g)
        assert sep.order <= td.width + 1
        assert sep.is_balanced_for(g.vertices)

    def test_empty_q_vacuously_balanced(self):
        g = make_grid(3)
        td = heuristic_decomposition(g)
        sep = balanced_separation(g, frozenset(), td)
        assert sep.is_separation_of(g)
        assert sep.order <= td.width + 1
        assert sep.is_balanced_for(frozenset())

    def test_grid3_full_q(self):
        g = make_grid(3)
        td = heuristic_decomposition(g)
        sep = balanced_separation(g, frozenset(g.vertices), td)
        assert sep.order <= td.width + 1
        cap = -(-2 * g.n // 3)
        assert len(sep.a1 - sep.a2) <= cap and len(sep.a2 - sep.a1) <= cap

    def test_random_graphs_contract(self):
        rng = random.Random(7)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 14))
            td = heuristic_decomposition(g)
            q = frozenset(rng.sample(range(g.n), rng.randint(0, g.n))) if g.n else frozenset()
            sep = balanced_separation(g, q, td)
            assert sep.is_separation_of(g)
            assert sep.order <= td.width + 1
            assert sep.is_balanced_for(q)

    def test_empty_graph(self):
        from twkern.treedec import TreeDecomposition

        sep = balanced_separation(Graph(0), frozenset(), TreeDecomposition([]))
        assert sep.a1 == sep.a2 == frozenset()


class TestExactModulator:
    def test_already_narrow_graph_gives_empty(self):
        m = exact_modulator(path_graph(6), 1)
        assert m.vertices == frozenset()
        assert m.validate(path_graph(6))

    def test_grid3_eta1_size_two(self):
        m = exact_modulator(make_grid(3), 1)
        assert len(m.vertices) == 2
        assert m.validate(make_grid(3))

    def test_grid_eta1_lower_bound(self):
        # disjoint 2x2 subgrids force one deletion each: size >= floor(t/2)^2
        for t in (2, 3, 4):
            m = exact_modulator(make_grid(t), 1)
            assert len(m.vertices) >= (t // 2) ** 2

    def test_matches_cover_at_eta0(self):
        from twkern.problems import CATALOG, opt_brute

        rng = random.Random(8)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 8))
            assert len(exact_modulator(g, 0).vertices) == opt_brute(CATALOG["vertex-cover"], g)[0]

    def test_monotone_under_vertex_deletion(self):
        from graph_oracles import all_graphs

        for eta in (0, 1):
            for g in all_graphs(6):
                base = len(exact_modulator(g, eta).vertices)
                for v in g.vertices:
                    smaller = len(exact_modulator(delete_vertex(g, v), eta).vertices)
                    assert smaller <= base

    def test_budget(self):
        with pytest.raises(BudgetError):
            exact_modulator(Graph(17), 0)

    def test_eta2_uses_treewidth(self):
        m = exact_modulator(make_grid(3), 2)
        sub, _ = make_grid(3).delete_vertices(m.vertices)
        assert exact_treewidth(sub)[0] <= 2
        assert len(m.vertices) == 1  # one grid vertex drops treewidth 3 -> 2


class TestRecursiveModulator:
    def test_narrow_graph_empty(self):
        m = recursive_modulator(path_graph(10), 1)
        assert m.vertices == frozenset()

    def test_grid4_certified_and_at_least_exact(self):
        g = make_grid(4)
        rm = recursive_modulator(g, 1)
        em = exact_modulator(g, 1)
        assert rm.validate(g)
        assert len(rm.vertices) >= len(em.vertices)

    def test_disjoint_union_componentwise(self):
        g = disjoint_union(make_grid(3), make_grid(3))
        m = recursive_modulator(g, 1)
        assert m.validate(g)
        # certificate decomposes per component: width stays within eta
        rest, _ = g.delete_vertices(m.vertices)
        assert validate_decomposition(rest, m.certificate).ok
        assert m.certificate.width <= 1

    def test_larger_planar_instances(self):
        from twkern.harness import gen_corpus

        corpus = gen_corpus("random-planar", {"count": 10, "n_min": 25, "n_max": 45}, seed=13)
        for g in corpus:
            for eta in (0, 1):
                m = recursive_modulator(g, eta)
                assert m.validate(g)

    def test_clique_returns_everything_but_a_small_core(self):
        g = complete_graph(8)
        m = recursive_modulator(g, 1)
        assert m.validate(g)

