"""Graph substrate: generators, gluing, minor operations, minor containment."""

import hashlib
import itertools
import random

import pytest

from twkern.graphs import (
    BoundariedGraph,
    BudgetError,
    Graph,
    Separation,
    disjoint_union,
    glue,
    grid_vertex,
    make_gamma,
    make_grid,
    path_graph,
    complete_graph,
)

from conftest import random_graph
from graph_oracles import (
    AnnotatedBoundariedGraph,
    boundaried_universe_by_placements,
    canonical_form,
    canonical_key,
    connected_graphs_by_extensions,
    contains_grid_minor,
    induced_subgraph_by_edges,
    contract_edge,
    delete_edge,
    delete_vertex,
    glue_annotated,
    has_edge,
    is_balanced_for,
    is_separation_of,
    vertex_of_label,
)


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_parallel_edges_collapse(self):
        g = Graph(2, [(0, 1), (1, 0)])
        assert g.m == 1

    def test_neighborhoods_and_boundary(self):
        g = path_graph(4)
        assert g.open_neighborhood([1, 2]) == {0, 3}
        assert g.closed_neighborhood([0]) == {0, 1}
        assert g.boundary([0, 1]) == {1}
        assert g.boundary(g.vertices) == frozenset()

    def test_induced_subgraph_relabels_canonically(self):
        g = path_graph(5)
        sub, old = g.induced_subgraph([4, 2, 3])
        assert old == (2, 3, 4)
        assert sub == path_graph(3)

    def test_induced_subgraph_matches_the_edge_filter(self):
        # reading the kept adjacency gives the graph and ids of filtering
        # every edge, for the empty, a random and the full keep set
        rng = random.Random(5)
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 16))
            for keep in ((), [v for v in g.vertices if rng.random() < 0.5], g.vertices):
                assert g.induced_subgraph(keep) == induced_subgraph_by_edges(g, keep)

    def test_components_and_acyclicity(self):
        g = disjoint_union(path_graph(3), complete_graph(3))
        comps = g.connected_components()
        assert [sorted(c) for c in comps] == [[0, 1, 2], [3, 4, 5]]
        assert not g.is_acyclic()
        assert path_graph(6).is_acyclic()


class TestGenerators:
    @pytest.mark.parametrize("t,n,m", [(1, 1, 0), (2, 4, 4), (3, 9, 12)])
    def test_grid_counts(self, t, n, m):
        g = make_grid(t)
        assert (g.n, g.m) == (n, m)

    @pytest.mark.parametrize("t", range(1, 7))
    def test_grid_edge_count_formula(self, t):
        assert make_grid(t).m == 2 * t * (t - 1)

    def test_grid_rejects_zero(self):
        with pytest.raises(ValueError):
            make_grid(0)

    def test_gamma_two_is_complete_graph(self):
        assert canonical_form(make_gamma(2)) == canonical_form(complete_graph(4))

    def test_gamma_three_matches_independent_enumeration(self):
        # oracle: adjacency rules applied pairwise, written independently of
        # the constructor (grid metric, anti-diagonal, corner-to-border)
        t = 3

        def adjacent(a, b):
            (x1, y1), (x2, y2) = a, b
            if abs(x1 - x2) + abs(y1 - y2) == 1:
                return True
            if (x1 - x2, y1 - y2) in ((1, -1), (-1, 1)):
                return True
            corner = (t, t)
            for p, q in ((a, b), (b, a)):
                if p == corner and (q[0] in (1, t) or q[1] in (1, t)):
                    return True
            return False

        coords = [(x, y) for x in range(1, t + 1) for y in range(1, t + 1)]
        expected = {
            frozenset((a, b))
            for a, b in itertools.combinations(coords, 2)
            if adjacent(a, b)
        }
        g = make_gamma(t)
        got = {
            frozenset(
                (
                    (u // t + 1, u % t + 1),
                    (v // t + 1, v % t + 1),
                )
            )
            for u, v in g.edges
        }
        assert got == expected
        assert g.m == 21

    def test_gamma_nine_structure(self):
        t = 9
        g = make_gamma(t)
        assert g.n == 81
        corner = grid_vertex(t, t, t)
        border = {
            grid_vertex(t, x, y)
            for x in range(1, t + 1)
            for y in range(1, t + 1)
            if x in (1, t) or y in (1, t)
        }
        assert border - {corner} <= g.neighbors(corner)
        # anti-diagonals present, main diagonals absent
        assert has_edge(g, grid_vertex(t, 2, 1), grid_vertex(t, 1, 2))
        assert not has_edge(g, grid_vertex(t, 1, 1), grid_vertex(t, 2, 2))
        assert frozenset(g.vertices) == frozenset(make_grid(t).vertices)

    def test_gamma_rejects_one(self):
        with pytest.raises(ValueError):
            make_gamma(1)


class TestMinorOps:
    def test_contract_triangle_gives_edge(self):
        g = complete_graph(3)
        assert contract_edge(g, 0, 1) == path_graph(2)

    def test_delete_vertex_single(self):
        assert delete_vertex(Graph(1), 0) == Graph(0)

    def test_contract_grid2_gives_triangle(self):
        g = make_grid(2)
        u, v = sorted(g.edges)[0]
        assert canonical_form(contract_edge(g, u, v)) == canonical_form(complete_graph(3))

    def test_missing_edge_raises(self):
        with pytest.raises(ValueError):
            contract_edge(path_graph(3), 0, 2)
        with pytest.raises(ValueError):
            delete_edge(path_graph(3), 0, 2)
        with pytest.raises(ValueError):
            delete_vertex(path_graph(3), 7)

    def test_vertex_counts_never_increase(self):
        rng = random.Random(1)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 8))
            if g.edges:
                u, v = sorted(g.edges)[0]
                assert contract_edge(g, u, v).n == g.n - 1
                assert delete_edge(g, u, v).n == g.n
            assert delete_vertex(g, 0).n == g.n - 1


class TestBoundariedGraphs:
    def test_labels_must_be_injective(self):
        with pytest.raises(ValueError):
            BoundariedGraph(path_graph(3), {0: 1, 1: 1})

    def test_label_set_and_t_boundaried(self):
        bg = BoundariedGraph(path_graph(3), {0: 2, 2: 5})
        assert bg.label_set == {2, 5}

    def test_glue_disjoint_labels_is_disjoint_union(self):
        g1 = BoundariedGraph(path_graph(2), {0: 1})
        g2 = BoundariedGraph(path_graph(2), {0: 2})
        glued, h1, h2 = glue(g1, g2)
        assert glued.n == 4 and glued.m == 2
        assert len(set(h1.values()) & set(h2.values())) == 0

    def test_glue_identical_edges_collapse(self):
        e = BoundariedGraph(path_graph(2), {0: 1, 1: 2})
        glued, _, _ = glue(e, e)
        assert glued.n == 2 and glued.m == 1

    def test_glue_triangle_plus_edge(self):
        tri = BoundariedGraph(complete_graph(3), {0: 1})
        edge = BoundariedGraph(path_graph(2), {0: 1})
        glued, _, _ = glue(tri, edge)
        assert glued.n == 4 and glued.m == 4

    def test_glue_vertex_count_identity(self):
        rng = random.Random(2)
        for _ in range(40):
            g1 = random_graph(rng, rng.randint(1, 5))
            g2 = random_graph(rng, rng.randint(1, 5))
            l1 = {v: i + 1 for i, v in enumerate(rng.sample(range(g1.n), rng.randint(0, g1.n)))}
            l2 = {v: i + 1 for i, v in enumerate(rng.sample(range(g2.n), rng.randint(0, g2.n)))}
            b1, b2 = BoundariedGraph(g1, l1), BoundariedGraph(g2, l2)
            glued, h1, h2 = glue(b1, b2)
            shared = b1.label_set & b2.label_set
            assert glued.n == g1.n + g2.n - len(shared)
            # heirs are total and agree on the common boundary
            assert set(h1) == set(g1.vertices) and set(h2) == set(g2.vertices)
            for lab in shared:
                assert h1[vertex_of_label(b1, lab)] == h2[vertex_of_label(b2, lab)]

    def test_glue_commutes_up_to_isomorphism(self):
        # all pairs over every boundaried graph on <= 3 vertices with labels
        # from {1, 2}, then random pairs up to 6 vertices each
        pool = []
        for n in (1, 2, 3):
            for m in range(n * (n - 1) // 2 + 1):
                for edges in itertools.combinations(itertools.combinations(range(n), 2), m):
                    g = Graph(n, edges)
                    for b in range(min(2, n) + 1):
                        for verts in itertools.permutations(range(n), b):
                            pool.append(BoundariedGraph(g, {v: i + 1 for i, v in enumerate(verts)}))
        for b1 in pool:
            for b2 in pool:
                g12, _, _ = glue(b1, b2)
                g21, _, _ = glue(b2, b1)
                assert canonical_key(g12) == canonical_key(g21)

        from twkern.enumeration import boundaried_universe

        rng = random.Random(3)
        big_pool = boundaried_universe(6, 1) + boundaried_universe(6, 2)
        for _ in range(150):
            b1, b2 = rng.choice(big_pool), rng.choice(big_pool)
            g12, _, _ = glue(b1, b2)
            g21, _, _ = glue(b2, b1)
            assert canonical_key(g12) == canonical_key(g21)

    def test_annotated_gluing_maps_annotations_through_heirs(self):
        tri = AnnotatedBoundariedGraph(BoundariedGraph(complete_graph(3), {0: 1}), {0, 2})
        edge = AnnotatedBoundariedGraph(BoundariedGraph(path_graph(2), {0: 1}), {1})
        glued, ann = glue_annotated(tri, edge)
        assert glued.n == 4
        assert len(ann) == 3  # 0 identified across sides, 2 and the pendant kept

    def test_annotation_must_live_in_graph(self):
        with pytest.raises(ValueError):
            AnnotatedBoundariedGraph(BoundariedGraph(path_graph(2), {}), {5})


class TestSeparationType:
    def test_order_and_validity(self):
        g = path_graph(3)
        s = Separation([0, 1], [1, 2])
        assert s.order == 1
        assert is_separation_of(s, g)
        assert not is_separation_of(Separation([0], [2]), g)  # union misses vertex 1

    def test_balance_predicate(self):
        s = Separation([0, 1, 2, 3], [3, 4, 5, 6])
        assert is_balanced_for(s, range(7))


class TestCanonicalForms:
    def test_iso_invariance(self):
        g = path_graph(4)
        relabeled = Graph(4, [(3, 2), (2, 0), (0, 1)])
        assert canonical_form(g) == canonical_form(relabeled)

    def test_budget(self):
        with pytest.raises(BudgetError):
            canonical_form(make_grid(3), max_vertices=8)

    def test_fast_key_agrees_with_exhaustive(self):
        rng = random.Random(4)
        for _ in range(80):
            g1 = random_graph(rng, rng.randint(1, 6))
            g2 = random_graph(rng, rng.randint(1, 6))
            exhaustive = canonical_form(g1) == canonical_form(g2)
            fast = canonical_key(g1) == canonical_key(g2)
            assert exhaustive == fast


    def test_key_remembers_the_boundary_seat(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert canonical_key(star, (0,)) != canonical_key(star, (1,))
        assert canonical_key(star, (1,)) == canonical_key(star, (3,))

    def test_rooted_context_counts_match_oeis(self):
        # connected graphs (OEIS A001349) and connected rooted graphs (OEIS
        # A126100) by vertex count
        from twkern.replacement import certificate_contexts

        published = {0: (1, 1, 2, 6, 21, 112, 853), 1: (1, 1, 3, 11, 58, 407, 4306)}
        for b, want in published.items():
            counts = [0] * 7
            for bg in certificate_contexts(b, 7):
                counts[bg.graph.n - 1] += 1
            assert tuple(counts) == want
        assert sum(published[0]) == 996 and sum(published[1]) == 4787

    def test_generation_is_pinned(self):
        # sha256 of the generated graphs in order: edges, and labels placed
        from twkern.enumeration import boundaried_universe, connected_graphs

        digest = hashlib.sha256()
        for graphs in connected_graphs(7).values():
            for g, _ in graphs:
                digest.update(repr((g.n, sorted(g.edges))).encode())
        got = [digest.hexdigest()]
        for max_n, b in ((7, 1), (6, 2)):
            digest = hashlib.sha256()
            for bg in boundaried_universe(max_n, b):
                g = bg.graph
                digest.update(repr((g.n, sorted(g.edges), sorted(bg.label_of))).encode())
            got.append(digest.hexdigest())
        assert got == [
            "ee6dbf8c31415dc411e9a07965183d3eab0dcbee5c271bb965a595e9febb9507",
            "207663de2942f3d2bf6c439b18a4a9a64c747c98d2f1e49f9851ee2f0f44831e",
            "98358bf9a446b1134fbe13cba825eabb8d4d2dc43a50444b7b822ddb394e6ef0",
        ]

    def test_generators_give_every_orbit(self):
        # nonempty vertex subsets up to automorphism: a missing generator of
        # the automorphism group splits an orbit and raises a count
        from twkern.enumeration import _orbit_least_subsets, _seated_search
        from twkern.graphs import adjacency_masks

        def orbits(g: Graph) -> int:
            gens = _seated_search(g.n, adjacency_masks(g), ())[1]
            return sum(1 for _ in _orbit_least_subsets(g.n, gens))

        assert [orbits(complete_graph(n)) for n in range(1, 9)] == list(range(1, 9))
        stars = [Graph(n, [(0, i) for i in range(1, n)]) for n in range(3, 9)]
        assert [orbits(g) for g in stars] == [2 * n - 1 for n in range(3, 9)]
        # binary bracelets of length n, less the empty one
        cycles = [Graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 9)]
        assert [orbits(g) for g in cycles] == [3, 5, 7, 12, 17, 29]

    def test_orbit_placements_match_every_ordered_placement(self):
        from twkern.enumeration import boundaried_universe, connected_graphs

        # the whole pool, and the treewidth pools of the (6, 1) and (5, 2) tables
        for max_n, b, width in ((7, 1, None), (6, 2, None), (5, 3, None)) + tuple(
            (size, b, t) for size, t in ((6, 1), (5, 2)) for b in range(t + 1)
        ):
            levels = connected_graphs(max_n, width)
            pool = [g for n in range(1, max_n + 1) for g, _ in levels[n]]
            got = boundaried_universe(max_n, b, width)
            assert got == boundaried_universe_by_placements(pool, b)

    def test_orbit_pruned_generation_matches_every_extension(self):
        from twkern.enumeration import connected_graphs

        # no filter, and the treewidth filters of the (6, 1) and (5, 2) tables
        for max_n, width in ((7, None), (6, 1), (5, 2)):
            got = connected_graphs(max_n, width)
            want = connected_graphs_by_extensions(max_n, width)
            assert list(got) == list(want)
            for n, graphs in want.items():
                assert [(h.n, h.edges) for h, _ in got[n]] == [(h.n, h.edges) for h in graphs]

    def test_one_cache_entry_per_level(self):
        # the one- and two-argument call forms share each level's entry, so
        # boundaried_universe(n, b), which asks for (n, None), rebuilds no
        # level that connected_graphs(n) built
        from twkern import enumeration

        enumeration.connected_graphs(5)
        misses = enumeration._levels.cache_info().misses
        enumeration.boundaried_universe(5, 0)
        enumeration.connected_graphs(5, None)
        enumeration.connected_graphs(max_n=5, width=None)
        enumeration.connected_graphs(4)
        assert enumeration._levels.cache_info().misses == misses

    def test_carried_generators_give_the_automorphism_orbits(self):
        # every class carries generators of its whole automorphism group, the
        # last level's too: their vertex orbits are those of a fresh search
        from twkern.enumeration import _join_orbits, _seated_search, connected_graphs
        from twkern.graphs import adjacency_masks

        def orbits(n: int, gens: list[list[int]]) -> list[int]:
            orbit = list(range(n))
            for aut in gens:
                _join_orbits(orbit, aut)
            return orbit

        for max_n, width in ((7, None), (6, 1)):
            for graphs in connected_graphs(max_n, width).values():
                for g, gens in graphs:
                    fresh = _seated_search(g.n, adjacency_masks(g), ())[1]
                    assert orbits(g.n, gens) == orbits(g.n, fresh), g.edges


class TestGridMinorOracle:
    def test_grid3_contains_grid2(self):
        assert contains_grid_minor(make_grid(3), 2)

    def test_tree_has_no_grid2(self):
        assert not contains_grid_minor(path_graph(8), 2)

    def test_gamma2_contains_grid2(self):
        assert contains_grid_minor(make_gamma(2), 2)

    def test_grid3_contains_itself(self):
        assert contains_grid_minor(make_grid(3), 3)

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            contains_grid_minor(make_grid(4), 2)

    def test_single_vertex(self):
        assert contains_grid_minor(Graph(1), 1)

    def test_grid_minor_bounds_treewidth_on_planar_corpus(self):
        # a t x t grid minor forces treewidth >= t; conversely, graphs whose
        # blocks miss even the 4-cycle minor have treewidth at most 2, and
        # the measured tw / largest-grid-minor ratio stays small on planar
        # instances (the subquadratic-excluded-grid picture at desk scale)
        from twkern.harness import gen_corpus
        from twkern.treedec import exact_treewidth

        corpus = gen_corpus(
            "random-planar", {"count": 20, "n_min": 6, "n_max": 13, "keep_prob": 0.65}, seed=12
        )
        worst_ratio = 0.0
        for g in corpus:
            tw = exact_treewidth(g)[0]
            largest = 1
            for t in (2, 3):
                if contains_grid_minor(g, t):
                    largest = t
            assert tw >= largest or g.n == 0
            if not contains_grid_minor(g, 2):
                assert tw <= 2
            worst_ratio = max(worst_ratio, tw / largest)
        assert worst_ratio <= 4
