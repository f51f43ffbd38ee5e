"""Problem catalog: oracles, closure properties, separability, bidimensionality."""

import dataclasses
import hashlib
import math
import random
import zlib

import pytest

from twkern.dp import solve_via_dp
from twkern.graphs import (
    Graph,
    complete_graph,
    contract_edge,
    delete_edge,
    delete_vertex,
    disjoint_union,
    make_gamma,
    make_grid,
    path_graph,
)
from twkern.problems import (
    CATALOG,
    check_bidimensionality,
    check_parameter_treewidth,
    check_separability,
    get_problem,
    opt_brute,
    opt_fast,
    phi_feedback_vertex_set,
)
from twkern.harness import gen_corpus
from twkern.solvers import adjacency_masks, enumerate_cycles
from twkern.treedec import heuristic_decomposition

from conftest import random_graph, sparse_random_graph

MINOR_CLOSED = [
    "vertex-cover",
    "feedback-vertex-set",
    "cycle-packing",
    "treewidth-0-modulator",
    "treewidth-1-modulator",
]


class TestOracles:
    def test_vertex_cover_grid2(self):
        assert opt_brute(CATALOG["vertex-cover"], make_grid(2))[0] == 2

    def test_independent_set_gamma3_parity_witness(self):
        # the odd-coordinate vertices form an independent set of size (k-1)^2/4
        p = CATALOG["independent-set"]
        opt, witness = opt_brute(p, make_gamma(3))
        assert opt >= 1
        assert p.feasibility(make_gamma(3), witness)

    def test_cycle_packing_on_forest_is_zero(self):
        p = CATALOG["cycle-packing"]
        opt, witness = opt_brute(p, path_graph(6))
        assert opt == 0 and witness == frozenset()

    def test_cycle_packing_two_triangles(self):
        g = disjoint_union(complete_graph(3), complete_graph(3))
        assert opt_brute(CATALOG["cycle-packing"], g)[0] == 2
        assert opt_fast(CATALOG["cycle-packing"], g)[0] == 2

    def test_modulator_problems_match_cover_and_fvs(self):
        rng = random.Random(9)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 8))
            assert opt_brute(CATALOG["treewidth-0-modulator"], g)[0] == opt_brute(
                CATALOG["vertex-cover"], g
            )[0]
            assert opt_brute(CATALOG["treewidth-1-modulator"], g)[0] == opt_brute(
                CATALOG["feedback-vertex-set"], g
            )[0]

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_fast_solver_matches_brute(self, name):
        p = CATALOG[name]
        rng = random.Random(zlib.crc32(name.encode()))
        for _ in range(40):
            n = rng.randint(1, 8)
            g = random_graph(rng, n)
            vb, wb = opt_brute(p, g)
            vf, wf = opt_fast(p, g)
            assert vb == vf
            assert p.feasibility(g, wf)
            assert len(wf) == vf or name == "cycle-packing"

    @staticmethod
    def _solver_outputs():
        """(problem, value, sorted witness) of every problem's solver on fixed
        random graphs."""
        rng = random.Random(20261019)
        graphs = []
        for _ in range(120):
            n = rng.randint(1, 14)
            graphs.append(random_graph(rng, n, rng.randint(0, 2 * n)))
        for _ in range(40):
            graphs.append(random_graph(rng, rng.randint(1, 14)))
        for name in sorted(CATALOG):
            for g in graphs:
                if name == "cycle-packing" and (g.n > 12 or g.m > 2 * g.n):
                    continue
                value, witness = opt_fast(CATALOG[name], g)
                yield name, value, sorted(witness)

    def test_solver_values_are_pinned(self):
        # optima only: any exact solver gives these, whatever it branches on
        digest = hashlib.sha256()
        for name, value, _ in self._solver_outputs():
            digest.update(repr((name, value)).encode())
        assert digest.hexdigest() == (
            "b356aec00a206bc185315b0c72d067fd1ea8cf9875dcc536ce7f30827be528a8"
        )

    def test_solver_outputs_are_pinned(self):
        # a changed branching order or tie-break changes the digest
        digest = hashlib.sha256()
        for output in self._solver_outputs():
            digest.update(repr(output).encode())
        assert digest.hexdigest() == (
            "6d523533537aad9c8c628e739843f6174a3ebc81f293bfe94a6c6087e3f13b25"
        )

    def test_brute_outputs_are_pinned(self):
        # values and sorted witnesses of subset enumeration for every problem
        # on fixed small graphs, the empty and edgeless ones included; a
        # changed enumeration order or stopping rule changes the digest
        rng = random.Random(20261019)
        graphs = [Graph(0), Graph(1), Graph(4)]
        graphs += [sparse_random_graph(rng, rng.randint(1, 9)) for _ in range(60)]
        graphs += [random_graph(rng, rng.randint(1, 8)) for _ in range(30)]
        digest = hashlib.sha256()
        for name in sorted(CATALOG):
            for g in graphs:
                value, witness = opt_brute(CATALOG[name], g)
                digest.update(repr((name, value, sorted(witness))).encode())
        assert digest.hexdigest() == (
            "409d08ae937eba659bcd4f826147e97debb4d25b93c540c308d566d27b2f54cd"
        )

    def test_witnesses_satisfy_phi_exactly(self):
        rng = random.Random(10)
        for name, p in CATALOG.items():
            for _ in range(10):
                g = sparse_random_graph(rng, rng.randint(1, 7))
                v, w = opt_brute(p, g)
                assert p.feasibility(g, w)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_trivial_set_is_feasible(self, name):
        # the oracle contract: V is feasible for a minimization and the empty
        # set for a maximization, so every graph has an integer optimum
        p = CATALOG[name]
        rng = random.Random(zlib.crc32(name.encode()))
        graphs = [Graph(0)] + [random_graph(rng, rng.randint(1, 10)) for _ in range(30)]
        for g in graphs:
            trivial = frozenset() if p.maximize else frozenset(g.vertices)
            assert p.feasibility(g, trivial), (name, sorted(g.edges))

    @pytest.mark.parametrize("name", ["vertex-cover", "independent-set"])
    def test_brute_rejects_a_broken_contract(self, name):
        p = dataclasses.replace(CATALOG[name], feasibility=lambda g, s: False)
        for g in (Graph(0), path_graph(3)):
            with pytest.raises(AssertionError, match="breaks the feasibility contract"):
                opt_brute(p, g)

    def test_budget_error(self):
        from twkern.graphs import BudgetError

        with pytest.raises(BudgetError):
            opt_brute(CATALOG["vertex-cover"], Graph(23))

    def test_unknown_problem(self):
        with pytest.raises(ValueError):
            get_problem("min-fun")


class TestClosureSpotChecks:
    def _ops(self, g):
        for u, v in sorted(g.edges):
            yield contract_edge(g, u, v)
            yield delete_edge(g, u, v)
        for v in g.vertices:
            yield delete_vertex(g, v)

    @pytest.mark.parametrize("name", MINOR_CLOSED)
    def test_minor_closed_never_increases_opt(self, name):
        from graph_oracles import all_graphs

        p = CATALOG[name]
        assert p.minor_closed
        for g in all_graphs(6):
            base = opt_brute(p, g)[0]
            for h in self._ops(g):
                assert opt_brute(p, h)[0] <= base, (name, sorted(g.edges))

    def test_independent_set_contraction_closed(self):
        from graph_oracles import all_graphs

        p = CATALOG["independent-set"]
        for g in all_graphs(6):
            base = opt_brute(p, g)[0]
            for u, v in sorted(g.edges):
                assert opt_brute(p, contract_edge(g, u, v))[0] <= base

    def test_independent_set_edge_deletion_can_increase(self):
        # a single edge: deleting it doubles the independent set
        p = CATALOG["independent-set"]
        g = path_graph(2)
        assert opt_brute(p, delete_edge(g, 0, 1))[0] > opt_brute(p, g)[0]


class TestSeparability:
    def test_whole_graph_zero_slack(self):
        p = CATALOG["vertex-cover"]
        g = make_grid(3)
        rep = check_separability(p, g, frozenset(g.vertices))
        assert rep.ok and rep.boundary_size == 0 and rep.deviation == 0

    def test_path_prefix(self):
        p = CATALOG["vertex-cover"]
        g = path_graph(6)
        rep = check_separability(p, g, frozenset([0, 1, 2]))
        assert rep.ok and rep.boundary_size == 1

    def test_modulator_problem_on_random_planar_parts(self):
        from twkern.harness import gen_corpus

        p = CATALOG["treewidth-0-modulator"]
        rng = random.Random(11)
        corpus = gen_corpus("random-planar", {"count": 20, "n_min": 6, "n_max": 14}, seed=11)
        checked = 0
        for g in corpus:
            if g.n < 4:
                continue
            start = rng.randrange(g.n)
            part = set([start])
            frontier = list(g.neighbors(start))
            while frontier and len(part) < g.n // 2:
                v = frontier.pop(0)
                if v not in part:
                    part.add(v)
                    frontier.extend(sorted(g.neighbors(v)))
            rep = check_separability(p, g, frozenset(part))
            assert rep.ok, (sorted(g.edges), sorted(part), rep)
            checked += 1
        assert checked >= 15

    @pytest.mark.parametrize("name", ["vertex-cover", "dominating-set", "feedback-vertex-set"])
    def test_random_parts_within_declared_f(self, name):
        p = CATALOG[name]
        rng = random.Random(zlib.crc32(name.encode()))
        for _ in range(30):
            g = sparse_random_graph(rng, rng.randint(2, 10))
            k = rng.randint(1, g.n - 1)
            part = frozenset(rng.sample(range(g.n), k))
            rep = check_separability(p, g, part)
            assert rep.ok, (name, sorted(g.edges), sorted(part), rep)


class TestBidimensionality:
    def test_vertex_cover_grid_ratio(self):
        rows = check_bidimensionality(CATALOG["vertex-cover"], 4)
        assert all(r.ratio >= 1 / 3 for r in rows)
        assert [r.k for r in rows] == [2, 3, 4]

    def test_modulator_grid_bound_eta1(self):
        # disjoint 2x2 subgrids each force a deletion: OPT >= floor(t/2)^2
        p = CATALOG["treewidth-1-modulator"]
        for t in range(2, 5):
            opt = opt_fast(p, make_grid(t))[0]
            assert opt >= (t // 2) ** 2

    def test_contraction_family_used_for_independent_set(self):
        rows = check_bidimensionality(CATALOG["independent-set"], 3)
        assert all(r.opt >= (r.k - 1) ** 2 / 4 for r in rows)


class TestParameterTreewidth:
    def test_grid_family_report(self):
        p = CATALOG["vertex-cover"]
        corpus = [make_grid(t) for t in (2, 3, 4)]
        rep = check_parameter_treewidth(p, corpus)
        assert len(rep.pairs) == 3
        for (w, opt), t in zip(rep.pairs, (2, 3, 4)):
            assert w == t
            assert w <= 2 * math.sqrt(opt)
        assert 0 < rep.fitted_exponent < 1

    def test_single_vertex(self):
        rep = check_parameter_treewidth(CATALOG["vertex-cover"], [Graph(1)])
        assert rep.pairs == [(0, 0)]

    def test_disconnected_union_of_grids(self):
        # the component maximum governs treewidth while optima add up
        g = disjoint_union(make_grid(3), make_grid(2))
        rep = check_parameter_treewidth(CATALOG["vertex-cover"], [g])
        tw, opt = rep.pairs[0]
        assert tw == 3
        assert opt == 4 + 2
        assert tw <= 2 * math.sqrt(opt)


@pytest.mark.parametrize("name", ["feedback-vertex-set", "treewidth-1-modulator"])
class TestFeedbackVertexSetSolver:
    """The mask solver that feedback vertex set and the treewidth-1 modulator
    share, on seeded random planar and sparse graphs."""

    @staticmethod
    def _graphs(n_min, n_max, seed):
        rng = random.Random(seed)
        planar = gen_corpus("random-planar", {"count": 30, "n_min": n_min, "n_max": n_max}, seed)
        sparse = [sparse_random_graph(rng, rng.randint(n_min, n_max)) for _ in range(30)]
        return planar + sparse

    def _check_witness(self, g, value, witness):
        assert phi_feedback_vertex_set(g, witness) and len(witness) == value

    def test_matches_brute(self, name):
        p = CATALOG[name]
        for g in self._graphs(1, 12, seed=31):
            value, witness = opt_fast(p, g)
            assert value == opt_brute(p, g)[0], sorted(g.edges)
            self._check_witness(g, value, witness)

    def test_matches_dp(self, name):
        p = CATALOG[name]
        for g in self._graphs(13, 22, seed=32):
            value, witness = opt_fast(p, g)
            assert value == solve_via_dp(p, g, heuristic_decomposition(g))[0], sorted(g.edges)
            self._check_witness(g, value, witness)


class TestCycleEnumeration:
    def test_triangle_and_square(self):
        assert len(enumerate_cycles(adjacency_masks(complete_graph(3)))) == 1
        assert len(enumerate_cycles(adjacency_masks(make_grid(2)))) == 1

    def test_k4_cycle_vertex_sets(self):
        # cycles collapse to vertex sets: 4 triangles plus the full 4-set
        assert len(enumerate_cycles(adjacency_masks(complete_graph(4)))) == 5
