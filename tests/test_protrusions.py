"""Protrusion validation, decomposition building, and protrusion search."""

import hashlib
import random

import pytest

from twkern import protrusions
from twkern.graphs import Graph, complete_graph, disjoint_union, make_grid, path_graph
from twkern.modulators import Modulator, exact_modulator, recursive_modulator
from twkern.problems import CATALOG, opt_fast
from twkern.protrusions import (
    ProtrusionDecomposition,
    _boundary_unions,
    build_pd,
    iter_protrusions,
    validate_pd,
    validate_protrusion,
)
from twkern.treedec import TreeDecomposition


def pendant_path_graph() -> Graph:
    # a triangle with a 5-vertex path hanging off vertex 0
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
    return Graph(8, edges)


class TestValidateProtrusion:
    def test_pendant_path_is_1_protrusion(self):
        g = pendant_path_graph()
        assert validate_protrusion(g, {0, 3, 4, 5, 6, 7}, 1).ok

    def test_whole_grid_fails_as_3_protrusion(self):
        g = make_grid(4)
        res = validate_protrusion(g, frozenset(g.vertices), 3)
        assert not res.ok and "treewidth" in res.message

    def test_empty_set_is_always_fine(self):
        assert validate_protrusion(make_grid(3), frozenset(), 1).ok

    def test_boundary_too_large(self):
        g = make_grid(3)
        res = validate_protrusion(g, {0, 1, 2}, 1)
        assert not res.ok and "boundary" in res.message

    def test_large_cycle_certainly_exceeds_width_1(self):
        # 24 vertices is past the exact budget, but the forest test is exact
        cycle = Graph(24, [(i, (i + 1) % 24) for i in range(24)])
        res = validate_protrusion(cycle, frozenset(cycle.vertices), 1)
        assert not res.ok and res.message == "induced treewidth exceeds 1"

    def test_large_grid_exceeds_width_2(self):
        # width 2 is decided at every size, also beyond the exact budget
        g = make_grid(5)
        res = validate_protrusion(g, frozenset(g.vertices), 2)
        assert not res.ok and res.message == "induced treewidth exceeds 2"

    def test_large_grid_not_certifiable_at_width_4(self):
        # n = 25 is above the exact budget and min-fill gives 5 > 4
        g = make_grid(5)
        res = validate_protrusion(g, frozenset(g.vertices), 4)
        assert not res.ok and res.message == "treewidth bound not certifiable at this size"


class TestValidatePd:
    def test_core_everything(self):
        g = make_grid(3)
        pd = ProtrusionDecomposition(frozenset(g.vertices), (), alpha=g.n, r=0)
        assert validate_pd(g, pd).ok

    def test_empty_core_on_disconnected_graph(self):
        g = disjoint_union(path_graph(3), path_graph(3))
        pd = ProtrusionDecomposition(
            frozenset(), (frozenset({0, 1, 2}), frozenset({3, 4, 5})), alpha=2, r=1
        )
        assert validate_pd(g, pd).ok

    def test_part_with_outside_neighbors_rejected(self):
        g = path_graph(4)
        pd = ProtrusionDecomposition(frozenset({0}), (frozenset({1}), frozenset({2, 3})), 2, 1)
        res = validate_pd(g, pd)
        assert not res.ok and "core" in res.message

    def test_non_partition_rejected(self):
        g = path_graph(3)
        pd = ProtrusionDecomposition(frozenset({0, 1}), (frozenset({1, 2}),), 2, 1)
        assert not validate_pd(g, pd).ok

    def test_alpha_bound_enforced(self):
        g = path_graph(4)
        pd = ProtrusionDecomposition(frozenset({0, 1, 2, 3}), (), alpha=2, r=1)
        assert not validate_pd(g, pd).ok

    def test_large_cyclic_part_certainly_exceeds_r_1(self):
        # a 24-cycle hanging off core vertex 24: the closed part has 25 vertices
        g = Graph(25, [(i, (i + 1) % 24) for i in range(24)] + [(0, 24)])
        pd = ProtrusionDecomposition(frozenset({24}), (frozenset(range(24)),), alpha=1, r=1)
        res = validate_pd(g, pd)
        assert not res.ok and res.message == "closed part 0: induced treewidth exceeds 1"


class TestBuildPd:
    def test_single_vertex_modulator_base_case(self):
        g = path_graph(6)
        mod = _modulator_with(g, {0}, 1)
        pd = build_pd(g, mod)
        assert pd.core == {0}
        assert pd.parts == (frozenset(range(1, 6)),)
        assert validate_pd(g, pd).ok

    def test_grid4_with_exact_modulator(self):
        g = make_grid(4)
        mod = exact_modulator(g, 1)
        pd = build_pd(g, mod)
        assert mod.vertices <= pd.core
        assert validate_pd(g, pd).ok

    def test_disjoint_union_gets_per_component_parts(self):
        g = disjoint_union(make_grid(2), make_grid(2))
        mod = _modulator_with(g, {0, 4}, 1)
        pd = build_pd(g, mod)
        assert validate_pd(g, pd).ok
        for part in pd.parts:
            assert g.open_neighborhood(part) <= pd.core

    def test_empty_modulator_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            build_pd(g, _modulator_with(g, set(), 1))

    def test_bad_certificate_rejected(self):
        g = make_grid(3)
        fake = Modulator(frozenset({0}), 0, TreeDecomposition([set(range(8))]))
        with pytest.raises(ValueError):
            build_pd(g, fake)

    def test_planar_corpus_validates_and_measures(self):
        from twkern.harness import gen_corpus

        corpus = gen_corpus("random-planar", {"count": 15, "n_min": 15, "n_max": 40}, seed=21)
        max_sep_bound_violations = 0
        alpha_ratios = []
        for g in corpus:
            mod = recursive_modulator(g, 1)
            if not mod.vertices:
                continue
            pd = build_pd(g, mod)
            assert validate_pd(g, pd).ok
            if pd.r > 2 * max(pd.max_sep_order, 3) + 1:
                max_sep_bound_violations += 1
            alpha_ratios.append(pd.alpha / len(mod.vertices))
        assert max_sep_bound_violations == 0
        assert alpha_ratios and max(alpha_ratios) < float("inf")

    def test_alpha_linear_in_opt_on_grid_corpus(self):
        # cover-parameter form: alpha stays within a corpus-wide multiple of OPT
        p = CATALOG["vertex-cover"]
        ratios = []
        for t in (2, 3, 4):
            g = make_grid(t)
            mod = exact_modulator(g, 1)
            pd = build_pd(g, mod)
            assert validate_pd(g, pd).ok
            opt = opt_fast(p, g)[0]
            ratios.append(pd.alpha / opt)
        assert max(ratios) < float("inf")

    def test_alpha_linear_in_opt_on_planar_corpus(self):
        # a single corpus-wide constant C with max(ell, |core|) <= C * OPT
        from twkern.harness import gen_corpus

        p = CATALOG["vertex-cover"]
        corpus = gen_corpus("random-planar", {"count": 12, "n_min": 12, "n_max": 22}, seed=33)
        ratios = []
        for g in corpus:
            mod = recursive_modulator(g, 1)
            if not mod.vertices:
                continue
            pd = build_pd(g, mod)
            assert validate_pd(g, pd).ok
            opt = opt_fast(p, g)[0]
            if opt > 0:
                ratios.append(pd.alpha / opt)
        assert ratios
        corpus_constant = max(ratios)
        assert 0 < corpus_constant < float("inf")

    def test_modulator_and_decomposition_chain_is_pinned(self):
        # the modulators at eta = 1 and 2 and the decomposition built from the
        # eta = 1 one, on fixed corpora; a changed recursion order, tie-break
        # or id mapping changes the digest
        from twkern.harness import gen_corpus

        corpora = [
            ("random-planar", {"count": 40, "n_min": 8, "n_max": 40}),
            ("grid+pendants", {"count": 8, "t": 5, "tree_size": 6, "pendants": 4}),
            ("union", {"count": 8}),
        ]
        digest = hashlib.sha256()
        for family, params in corpora:
            for g in gen_corpus(family, params, seed=0):
                row = [sorted(recursive_modulator(g, eta).vertices) for eta in (1, 2)]
                pd = build_pd(g, recursive_modulator(g, 1))
                parts = [sorted(part) for part in pd.parts]
                row.append((sorted(pd.core), parts, pd.alpha, pd.r, pd.max_sep_order))
                digest.update(repr(row).encode())
        assert digest.hexdigest() == (
            "45c80d7030da7b108cde80b7cc743fbdb259fceb297c98fa1b72f34ca2fbc270"
        )


def _modulator_with(g: Graph, vertices, eta: int) -> Modulator:
    from twkern.treedec import treewidth_at_most

    rest, _ = g.delete_vertices(vertices)
    td = treewidth_at_most(rest, eta)
    assert td is not None
    return Modulator(frozenset(vertices), eta, td)


class TestProtrusionSearch:
    def test_long_path_returns_subpath(self):
        xs = next(iter_protrusions(path_graph(12), 1, 3), None)
        assert xs is not None and len(xs) >= 3

    def test_k6_has_no_interior_2_protrusion(self):
        assert next(iter_protrusions(complete_graph(6), 2, 2), None) is None

    def test_min_size_respected(self):
        g = pendant_path_graph()
        xs = next(iter_protrusions(g, 1, 4), None)
        assert xs is not None and len(xs) >= 4

    def test_found_protrusions_always_validate(self):
        rng = random.Random(31)
        from conftest import sparse_random_graph

        for _ in range(40):
            g = sparse_random_graph(rng, rng.randint(2, 12))
            for xs in iter_protrusions(g, 2, 2):
                assert validate_protrusion(g, xs, 2).ok

    def test_union_of_two_small_components(self):
        # a 5x5 grid with a K4 hanging off vertex 0 by one edge and two
        # 3-vertex paths at vertex 0: vertex 0 with one component of G - {0}
        # is too small or too wide, so the answer joins the two paths
        g0 = make_grid(5)
        k4 = [(a, b) for a in range(25, 29) for b in range(a + 1, 29)]
        paths = [(0, 29), (29, 30), (30, 31), (0, 32), (32, 33), (33, 34)]
        g = Graph(35, [*g0.edges, *k4, (0, 25), *paths])
        xs = next(iter_protrusions(g, 1, 6), None)
        assert xs == frozenset({0, *range(29, 35)})

    def test_renumbered_pendant_forks_are_copies(self):
        # a centre with 6 leaves and 12 pendant forks (a vertex with a leaf
        # and a 2-vertex path): the forks are copies whatever their numbering,
        # so renumbering lists as many sets
        edges, n = [(0, i) for i in range(1, 7)], 7
        for _ in range(12):
            edges += [(0, n), (n, n + 1), (n, n + 2), (n + 2, n + 3)]
            n += 4
        perm = list(range(n))
        random.Random(1).shuffle(perm)
        renumbered = Graph(n, [(perm[u], perm[v]) for u, v in edges])
        counts = [sum(1 for _ in iter_protrusions(h, 1, 7)) for h in (Graph(n, edges), renumbered)]
        assert counts[0] == counts[1]


def _counted(monkeypatch, owner, name: str) -> list:
    """Replace owner.name by a wrapper that records each call."""
    calls, real = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def grid_with_pendant_path(length: int) -> Graph:
    # a 4x4 grid with a path of `length` vertices hanging off vertex 0
    path = [(0, 16), *((v, v + 1) for v in range(16, 15 + length))]
    return Graph(16 + length, [*make_grid(4).edges, *path])


class TestSearchWork:
    # counts of calls, not times: how much work one search pass does

    def test_one_pass_at_t_le_1_scans_no_components(self, monkeypatch):
        graphs = [grid_with_pendant_path(40), pendant_path_graph()]
        graphs.append(disjoint_union(path_graph(5), Graph(3, [(0, 1)])))
        scans = _counted(monkeypatch, Graph, "connected_components")
        listed = [list(_boundary_unions(g, t, 1)) for g in graphs for t in (0, 1)]
        assert scans == [] and all(listed[1::2])

    def test_lone_components_get_no_tree_code(self, monkeypatch):
        # at every vertex of the path one component of G - v fits, so none
        # can have a copy and none is coded
        g = grid_with_pendant_path(800)
        codes = _counted(monkeypatch, protrusions, "_tree_code")
        assert next(iter_protrusions(g, 1, 1)) == frozenset({0, *range(16, 816)})
        assert len(codes) <= 2
