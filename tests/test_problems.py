"""Problem catalog: oracles, closure properties, separability, bidimensionality."""

import dataclasses
import gc
import hashlib
import math
import random
import re
import zlib

import pytest

from twkern.dp import solve_via_dp
from twkern.graphs import (
    Graph,
    adjacency_masks,
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
from twkern.harness import gen_corpus, reference_oracle
from twkern.replacement import build_replacement_table, kernelize
from twkern.treedec import heuristic_decomposition

from conftest import random_graph, sparse_random_graph
from graph_oracles import contract_edge, delete_edge, delete_vertex

MINOR_CLOSED = ["vertex-cover", "feedback-vertex-set"]


class TestCatalog:
    """A problem is in the catalog only if a replacement table serves it:
    every entry builds a table and kernelizes, and each verb offers exactly
    the catalog."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_entry_reaches_a_table_and_kernelize(self, name):
        p = CATALOG[name]
        table = build_replacement_table(p, 1, 4, certify="off")
        assert len(table) > 0
        (g,) = gen_corpus(
            "grid+pendants", {"count": 1, "t": 3, "tree_size": 6, "pendants": 2}, seed=1
        )
        k = reference_oracle(p, g)
        kern = kernelize(p, g, k, table)
        assert kern.graph.n < g.n and kern.trace
        assert reference_oracle(p, kern.graph) == kern.k

    @pytest.mark.parametrize("verb", ["table-build", "kernelize", "verify", "experiment"])
    def test_problem_choices_are_the_catalog(self, verb, capsys):
        from twkern import cli

        with pytest.raises(SystemExit):
            cli.main([verb, "--help"])
        choices = re.search(r"--problem \{([^}]*)\}", capsys.readouterr().out).group(1)
        assert choices.split(",") == sorted(CATALOG)


class TestOracles:
    def test_vertex_cover_grid2(self):
        assert opt_brute(CATALOG["vertex-cover"], make_grid(2))[0] == 2

    def test_independent_set_gamma3_parity_witness(self):
        # the odd-coordinate vertices form an independent set of size (k-1)^2/4
        p = CATALOG["independent-set"]
        opt, witness = opt_brute(p, make_gamma(3))
        assert opt >= 1
        assert p.feasibility(make_gamma(3), witness)

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
            assert len(wf) == vf

    @staticmethod
    def _pinned_graphs():
        """160 fixed random graphs of 1 to 14 vertices."""
        rng = random.Random(20261019)
        graphs = []
        for _ in range(120):
            n = rng.randint(1, 14)
            graphs.append(random_graph(rng, n, rng.randint(0, 2 * n)))
        for _ in range(40):
            graphs.append(random_graph(rng, rng.randint(1, 14)))
        return graphs

    @classmethod
    def _solver_outputs(cls):
        """(problem, value, sorted witness) of every problem's solver on the
        pinned graphs."""
        graphs = cls._pinned_graphs()
        for name in sorted(CATALOG):
            for g in graphs:
                value, witness = opt_fast(CATALOG[name], g)
                yield name, value, sorted(witness)

    def test_solver_values_are_pinned(self):
        # optima only: any exact solver gives these, whatever it branches on
        digest = hashlib.sha256()
        for name, value, _ in self._solver_outputs():
            digest.update(repr((name, value)).encode())
        assert digest.hexdigest() == (
            "ada57d53d54cabeb447e3a5141b3e9d62a4ed3684022ea16dd5ad9e5e3d779ca"
        )

    def test_solver_outputs_are_pinned(self):
        # a changed branching order or tie-break changes the digest
        digest = hashlib.sha256()
        for output in self._solver_outputs():
            digest.update(repr(output).encode())
        assert digest.hexdigest() == (
            "08e2eb17ef57d6aa58f2f54f1fd0ddc104a2bf871e5e42a82707de67f4c07e0b"
        )

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_solver_witnesses_are_feasible(self, name):
        # on the pinned graphs, larger than the brute-force comparison's: a
        # witness is feasible and as large as the optimum
        p = CATALOG[name]
        for g in self._pinned_graphs():
            value, witness = opt_fast(p, g)
            assert p.feasibility(g, witness), (sorted(g.edges), sorted(witness))
            assert len(witness) == value, (sorted(g.edges), sorted(witness))

    def test_solvers_leave_no_reference_cycles(self):
        # a search that calls itself through its closure frees that cycle
        # before it returns; otherwise each call leaves garbage for the collector
        rng = random.Random(5)
        graphs = [adjacency_masks(sparse_random_graph(rng, 10)) for _ in range(40)]
        runs = {name: p.solver for name, p in CATALOG.items()}
        left = {}
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for name, run in sorted(runs.items()):
                for adj in graphs:
                    run(adj)
                left[name] = gc.collect()
        finally:
            if enabled:
                gc.enable()
        assert left == dict.fromkeys(runs, 0)

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
            "5fbdc0081b54156eb995b2ae06931624d41665eb43368e527eabe0d043425eab"
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

        p = CATALOG["vertex-cover"]
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
        p = CATALOG["feedback-vertex-set"]
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


@pytest.mark.parametrize("name", ["feedback-vertex-set"])
class TestFeedbackVertexSetSolver:
    """The feedback vertex set mask solver on seeded random planar and sparse
    graphs."""

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

