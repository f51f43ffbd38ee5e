"""Signatures, gadget equivalence, replacement tables, and the kernelizer."""

import dataclasses
import hashlib
import random
import re
import zlib

import pytest

from twkern.enumeration import boundaried_universe
from twkern.graphs import (
    BoundariedGraph,
    Graph,
    gadget_plan,
    glue,
    glue_gadget,
    glue_plan,
    make_grid,
    path_graph,
)
from twkern.problems import CATALOG, opt_brute, opt_fast
from twkern.protrusions import iter_protrusions
import twkern.replacement as replacement_mod
from twkern.replacement import (
    CERTIFY_LEVELS,
    KernelInstance,
    ReplacementTable,
    TableConstructionError,
    _normalize,
    _random_context,
    _raw_table_brute,
    _raw_table_dp,
    build_replacement_table,
    certificate_contexts,
    certify_pair,
    compute_signature,
    equivalence_constant,
    format_table,
    kernelize,
    parse_table,
    replace_protrusion,
)

from conftest import sparse_random_graph
from graph_oracles import canonical_key, has_edge, vertex_of_label

VC = CATALOG["vertex-cover"]


def pendant(path_len: int) -> BoundariedGraph:
    """A path of `path_len` edges whose first vertex carries label 1."""
    return BoundariedGraph(path_graph(path_len + 1), {0: 1})


class TestSignatures:
    def test_isolated_boundary_vertex(self):
        sig = compute_signature(VC, BoundariedGraph(Graph(1), {0: 1}))
        # state order: vertex out, vertex in
        assert sig.entries == (0, 1) and sig.offset == 0

    def test_pendant_leaf(self):
        sig = compute_signature(VC, pendant(1))
        assert sig.entries == (0, 0) and sig.offset == 1

    def test_pendant_two_path_distinct_from_leaf(self):
        sig = compute_signature(VC, pendant(2))
        assert sig.entries == (0, 1) and sig.offset == 1
        assert sig.entries != compute_signature(VC, pendant(1)).entries or sig.offset != 1

    def test_one_decomposition_per_signature(self, monkeypatch):
        import twkern.dp
        import twkern.replacement
        import twkern.treedec

        calls = []

        def counting(g):
            calls.append(g.n)
            return twkern.treedec.heuristic_decomposition(g)

        for module in (twkern.replacement, twkern.dp):
            monkeypatch.setattr(module, "heuristic_decomposition", counting, raising=False)
        compute_signature(VC, pendant(5))
        assert calls == [6]

    def test_deterministic(self):
        bg = pendant(3)
        assert compute_signature(VC, bg) == compute_signature(VC, bg)

    @pytest.mark.parametrize(
        "problem", ["vertex-cover", "independent-set", "dominating-set", "feedback-vertex-set"]
    )
    def test_dp_route_matches_brute_route(self, problem):
        p = CATALOG[problem]
        rng = random.Random(zlib.crc32(problem.encode()))
        for _ in range(80):
            n = rng.randint(1, 7)
            b = rng.randint(0, min(3, n))
            g = sparse_random_graph(rng, n)
            labels = {v: i + 1 for i, v in enumerate(rng.sample(range(n), b))}
            bg = BoundariedGraph(g, labels)
            dp, brute = _raw_table_dp(p, bg), _raw_table_brute(p, bg)
            assert _normalize(p, dp, b) == _normalize(p, brute, b)

    def test_oversized_gadget_rejected(self):
        from twkern.graphs import BudgetError, complete_graph

        big = BoundariedGraph(complete_graph(17), {0: 1})
        with pytest.raises(BudgetError):
            compute_signature(VC, big)

    def test_pinned_width_counts_against_dp_budget(self):
        from twkern.dp import run_dp
        from twkern.graphs import BudgetError, complete_graph, disjoint_union
        from twkern.treedec import heuristic_decomposition

        # bags of width 11, but each bag plus the three pinned vertices has 15
        g = disjoint_union(complete_graph(12), Graph(3))
        with pytest.raises(BudgetError, match="width 14"):
            run_dp(VC, g, heuristic_decomposition(g), pinned=(12, 13, 14))
        bg = BoundariedGraph(g, {12: 1, 13: 2, 14: 3})
        with pytest.raises(BudgetError):
            _raw_table_dp(VC, bg)
        assert compute_signature(VC, bg) == _normalize(VC, _raw_table_brute(VC, bg), 3)

    def test_entries_in_window(self):
        rng = random.Random(41)
        for _ in range(60):
            g = sparse_random_graph(rng, rng.randint(1, 8))
            b = rng.randint(0, min(2, g.n))
            bg = BoundariedGraph(g, {v: i + 1 for i, v in enumerate(range(b))})
            sig = compute_signature(VC, bg)
            defined = [e for e in sig.entries if e is not None]
            assert defined and min(defined) == 0
            assert max(defined) <= 2 * VC.separability_f(b)


class TestEquivalence:
    def test_reflexive(self):
        assert equivalence_constant(VC, pendant(2), pendant(2)) == 0

    def test_pendant_paths_differ_by_one(self):
        assert equivalence_constant(VC, pendant(2), pendant(4)) == 1
        # certified against every small context
        from twkern.replacement import certificate_contexts

        plans = [glue_plan(ctx) for ctx in certificate_contexts(1, 6)]
        certify_pair(VC, pendant(2), pendant(4), 1, plans, {}, [{} for _ in plans])

    def test_leaf_vs_two_path_not_equivalent(self):
        assert equivalence_constant(VC, pendant(1), pendant(2)) is None

    def test_label_mismatch_raises(self):
        other = BoundariedGraph(Graph(1), {0: 2})
        with pytest.raises(ValueError):
            equivalence_constant(VC, pendant(1), other)

    def test_transposition_constant_matches_glued_optima(self):
        rng = random.Random(17)
        gadgets = [pendant(k) for k in range(1, 6)]
        for g1 in gadgets:
            for g2 in gadgets:
                c = equivalence_constant(VC, g1, g2)
                if c is None:
                    continue
                for _ in range(10):
                    n = rng.randint(1, 6)
                    ctx_g = sparse_random_graph(rng, n)
                    ctx = BoundariedGraph(ctx_g, {rng.randrange(n): 1})
                    o1 = opt_fast(VC, glue(g1, ctx)[0])[0]
                    o2 = opt_fast(VC, glue(g2, ctx)[0])[0]
                    assert o2 == o1 + c

    def test_bad_constant_fails_certification(self):
        message = "OPT(rep+F)=2, OPT(member+F)=1, c=0 on context 0 with 1 vertices"
        plans = [glue_plan(ctx) for ctx in certificate_contexts(1, 5)]
        with pytest.raises(TableConstructionError, match=re.escape(message)):
            certify_pair(VC, pendant(2), pendant(4), 0, plans, {}, [{} for _ in plans])


class TestCertificateProbes:
    @staticmethod
    def _mask_glue(member: BoundariedGraph, ctx: BoundariedGraph) -> list[int]:
        plan = glue_plan(ctx)
        return glue_gadget(gadget_plan(member, len(plan[1])), plan)

    def test_mask_glue_is_glue(self):
        # glue's graph renumbered context first: the context's unlabeled
        # vertices in order, the shared labels 1..b, the member's others
        rng = random.Random(11)
        for b in range(3):
            contexts = certificate_contexts(b, 5)
            contexts += tuple(_random_context(rng, b, 8) for _ in range(300))
            for member in boundaried_universe(5, b):
                shared = [vertex_of_label(member, lab) for lab in range(1, b + 1)]
                others = [v for v in member.graph.vertices if v not in shared]
                for ctx in contexts:
                    glued, _, heir2 = glue(member, ctx)
                    labels = ctx.labels
                    order = [heir2[v] for v in ctx.graph.vertices if v not in labels]
                    order += shared + others
                    assert sorted(order) == list(glued.vertices)
                    bit = {v: 1 << i for i, v in enumerate(order)}
                    want = [sum(bit[w] for w in glued.neighbors(v)) for v in order]
                    assert self._mask_glue(member, ctx) == want, (member, ctx)

    def test_mask_glue_refuses_a_label_the_member_lacks(self):
        member = BoundariedGraph(path_graph(3), {1: 1})
        ctx = BoundariedGraph(path_graph(3), {2: 1, 0: 2})
        # glue keeps the context's label-2 vertex apart; the mask glue numbers
        # every labeled vertex as shared, so it refuses, once per certify_pair
        assert glue(member, ctx)[0].n == 5
        with pytest.raises(ValueError, match="label 2"):
            self._mask_glue(member, ctx)
        with pytest.raises(ValueError, match="label 2"):
            certify_pair(VC, member, member, 0, [glue_plan(ctx)], {}, [{}])

    @staticmethod
    def _probe_every_pair(p, size_bound, width, context_size):
        """(member, context index, glued masks, probe value) for every member
        of up to size_bound vertices and treewidth `width` against every
        context up to context_size, b <= 2, with one memo per context that
        the members share in build order, as in build_replacement_table: a
        memo entry that is not the optimum of what it keys shows up in a
        later member's probe."""
        for b in range(3):
            plans = [glue_plan(ctx) for ctx in certificate_contexts(b, context_size)]
            memos = [{} for _ in plans]
            for member in boundaried_universe(size_bound, b, width):
                gadget = gadget_plan(member, b)
                on_context = p.probe(gadget, b)
                for idx, (plan, memo) in enumerate(zip(plans, memos)):
                    yield member, idx, glue_gadget(gadget, plan), on_context(plan, memo)

    @staticmethod
    def _brute(p, adj: list[int]) -> int:
        n = len(adj)
        edges = [(v, w) for v in range(n) for w in range(v) if adj[v] >> w & 1]
        return opt_brute(p, Graph(n, edges))[0]

    @pytest.mark.parametrize("problem", sorted(CATALOG))
    def test_probes_match_branch_and_bound_and_brute(self, problem):
        p = CATALOG[problem]
        brute: dict[tuple, int] = {}
        label_edges = 0
        for member, idx, adj, got in self._probe_every_pair(p, 5, None, 5):
            label_edges += len(member.label_of) == 2 and has_edge(member.graph, *member.boundary)
            key = tuple(adj)
            if key not in brute:
                brute[key] = self._brute(p, adj)
            assert got == p.solver(adj).bit_count() == brute[key], (member, idx)
        assert label_edges > 0

    @pytest.mark.parametrize("problem", ["dominating-set", "independent-set", "vertex-cover"])
    def test_probes_match_branch_and_bound_at_t2(self, problem):
        # every probe against the solver, which shares its search with the
        # probe; every 64th distinct glued graph, in the order first met, also
        # against subset enumeration, which shares nothing with either
        p = CATALOG[problem]
        seen = set()
        checked = 0
        for member, idx, adj, got in self._probe_every_pair(p, 5, 2, 6):
            assert got == p.solver(adj).bit_count(), (member, idx)
            key = tuple(adj)
            if key not in seen:
                if len(seen) % 64 == 0:
                    assert got == self._brute(p, adj), (member, idx)
                    checked += 1
                seen.add(key)
        assert checked > 1000

    def test_dominating_set_probe_reads_context_label_edges(self):
        # the member's end labels dominate each other only through the
        # context's edge: label 2 alone dominates the glued graph
        member = BoundariedGraph(path_graph(3), {0: 1, 2: 2})
        ctx = BoundariedGraph(path_graph(3), {0: 1, 1: 2})
        glued = glue(member, ctx)[0]
        assert opt_brute(CATALOG["dominating-set"], glued)[0] == 1
        plan = glue_plan(ctx)
        on_context = CATALOG["dominating-set"].probe(gadget_plan(member, 2), 2)
        assert on_context(plan, {}) == 1

    def test_probes_run_no_signature_code(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("signature code on the probe path")

        import twkern.dp

        for name in ("compute_signature", "run_dp", "heuristic_decomposition"):
            monkeypatch.setattr(replacement_mod, name, refuse)
        monkeypatch.setattr(twkern.dp, "run_dp", refuse)
        plans = [glue_plan(ctx) for ctx in certificate_contexts(1, 5)]
        for problem in sorted(CATALOG):
            p = CATALOG[problem]
            halves = [0, 0]

            def counting_probe(gadget, b, probe=p.probe):
                halves[0] += 1
                on_context = probe(gadget, b)

                def counting_context(plan, memo):
                    halves[1] += 1
                    return on_context(plan, memo)

                return counting_context

            memos = [{} for _ in plans]
            counted = dataclasses.replace(p, probe=counting_probe)
            certify_pair(counted, pendant(2), pendant(2), 0, plans, {}, memos)
            assert halves == [2, 2 * len(plans)], problem

    def test_probe_count_is_the_closed_form(self, vc_table):
        # per certify_pair call, one gadget half for the member and one for
        # the representative, whatever the representative's cached optima;
        # context halves count probes, not the memoized searches below them
        counts = {"pairs": 0, "gadgets": 0, "contexts": 0}

        def counting_probe(gadget, b):
            counts["gadgets"] += 1
            on_context = VC.probe(gadget, b)

            def counting_context(plan, memo):
                counts["contexts"] += 1
                return on_context(plan, memo)

            return counting_context

        def counting_pair(*args):
            counts["pairs"] += 1
            return certify_pair(*args)

        counted = dataclasses.replace(VC, probe=counting_probe)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(replacement_mod, "certify_pair", counting_pair)
            table = build_replacement_table(counted, 1, 6, certify="light")
        assert format_table(table) == format_table(vc_table)
        max_n, n_random = CERTIFY_LEVELS["light"]
        rng = random.Random(0)
        pairs = want = 0
        for b in range(2):
            # the draws are replayed in build order; those of at most max_n
            # vertices repeat an exhaustive context and are not probed
            draws = [_random_context(rng, b, 8) for _ in range(n_random)]
            kept = sum(1 for ctx in draws if ctx.graph.n > max_n)
            classes: dict[tuple, int] = {}
            for member in boundaried_universe(6, b, 1):
                key = compute_signature(VC, member).key
                classes[key] = classes.get(key, 0) + 1
            others = sum(size - 1 for size in classes.values())
            probed_classes = sum(1 for size in classes.values() if size > 1)
            pairs += others
            want += (others + probed_classes) * (len(certificate_contexts(b, max_n)) + kept)
        # b=0: 13 members certified, b=1: 32
        assert counts["pairs"] == pairs == 45
        assert counts["gadgets"] == 2 * pairs
        # b=0: (13 + 1) * (31 + 82); b=1: (32 + 5) * (74 + 65)
        assert counts["contexts"] == want == 6725

    @pytest.mark.parametrize(
        "certify, rng_seed, t, skipped",
        [("light", 0, 2, [118, 135, 113]), ("thorough", 1, 1, [872, 884])],
    )
    def test_skipped_draws_repeat_an_exhaustive_context(
        self, monkeypatch, certify, rng_seed, t, skipped
    ):
        # the build plans each context it probes; a random draw it does not
        # plan must be isomorphic, labels fixed, to an exhaustive context
        planned = []

        def recording_plan(ctx):
            planned.append(ctx)
            return glue_plan(ctx)

        monkeypatch.setattr(replacement_mod, "glue_plan", recording_plan)
        build_replacement_table(VC, t, 1, certify=certify, rng_seed=rng_seed)
        max_n, n_random = CERTIFY_LEVELS[certify]
        rng = random.Random(rng_seed)
        unprobed = []
        for b in range(t + 1):
            contexts = certificate_contexts(b, max_n)
            draws = [_random_context(rng, b, 8) for _ in range(n_random)]
            probed = [ctx for ctx in planned if len(ctx.label_of) == b]
            assert probed[: len(contexts)] == list(contexts)
            probed_draws = probed[len(contexts) :]
            left = [ctx for ctx in draws if ctx not in probed_draws]
            assert len(probed_draws) + len(left) == n_random
            keys = {canonical_key(ctx.graph, ctx.boundary) for ctx in contexts}
            assert all(canonical_key(ctx.graph, ctx.boundary) in keys for ctx in left)
            unprobed.append(len(left))
        assert unprobed == skipped


class TestRowGroups:
    """Rows whose optima on every exhaustive context up to a size differ by
    one constant behave alike there: the signature splits them, so a table
    holds more rows, and larger ones, than needed."""

    @staticmethod
    def _groups(t, size_bound, context_size):
        """(rows, groups of rows by optimum vector) of the `off` tables."""
        plans = {
            b: [glue_plan(ctx) for ctx in certificate_contexts(b, context_size)]
            for b in range(t + 1)
        }
        groups = {}
        for name in ("vertex-cover", "dominating-set", "feedback-vertex-set"):
            p = CATALOG[name]
            table = build_replacement_table(p, t, size_bound, certify="off")
            vectors = set()
            for (b, _), row in table.rows.items():
                rep = row.representative
                gadget = gadget_plan(rep, b)
                opts = [p.solver(glue_gadget(gadget, plan)).bit_count() for plan in plans[b]]
                vectors.add((b, tuple(opt - opts[0] for opt in opts)))
            groups[name] = (len(table), len(vectors))
        return groups

    def test_rows_group_by_optimum_vectors(self):
        assert self._groups(1, 6, 7) == {
            "vertex-cover": (6, 3),
            "dominating-set": (13, 4),
            "feedback-vertex-set": (2, 2),
        }

    def test_rows_group_by_optimum_vectors_at_t2(self):
        # 143, 481 and 1,739 contexts of at most 6 vertices for b = 0, 1, 2
        assert self._groups(2, 5, 6) == {
            "vertex-cover": (41, 9),
            "dominating-set": (123, 28),
            "feedback-vertex-set": (25, 12),
        }


class TestTableConstruction:
    def test_thorough_tables_are_pinned(self):
        # sha256 of format_table for the t=1 'thorough' tables at rng_seed=1
        got = {}
        for name in ("vertex-cover", "dominating-set", "independent-set"):
            table = build_replacement_table(CATALOG[name], 1, 6, certify="thorough", rng_seed=1)
            got[name] = hashlib.sha256(format_table(table).encode()).hexdigest()
        assert got == {
            "vertex-cover": "f8d3a5a11a9d301b04135369954806824499490d60509d202474f78ef89ec2dd",
            "dominating-set": "9197abb07a87ce9ed22d1ab0f8b648b1bf5cfab4d28c626dc67816c939aaadfe",
            "independent-set": "c04cc49b52fa8fd8759d90495a5a35783dd7eb617ef853fc02a7c88d23b0f449",
        }

    def test_vc_t1_contains_expected_classes(self, vc_table):
        keys = set(vc_table.rows)
        assert (1, (0, 1)) in keys  # isolated boundary vertex
        assert (1, (0, 0)) in keys  # pendant edge
        reps = {k: r.representative.graph.n for k, r in vc_table.rows.items()}
        assert reps[(1, (0, 1))] == 1
        assert reps[(1, (0, 0))] == 2

    def test_t0_rows_collapse_to_single_class(self, vc_table):
        b0 = [k for k in vc_table.rows if k[0] == 0]
        assert len(b0) == 1

    def test_representatives_resignature_to_their_row(self, vc_table):
        for key, row in vc_table.rows.items():
            sig = compute_signature(VC, row.representative)
            assert sig.key == key
            assert sig == row.signature

    def test_budgets(self):
        from twkern.graphs import BudgetError

        with pytest.raises(BudgetError):
            build_replacement_table(VC, 4, 5)
        with pytest.raises(BudgetError):
            build_replacement_table(VC, 1, 10)
        # parse_table reads t in 0..MAX_TABLE_T only, so no table is built
        # outside it either
        with pytest.raises(ValueError, match="t=-1"):
            build_replacement_table(VC, -1, 5, certify="off")
        # a bound that admits no gadget would give a table that replaces nothing
        for size_bound in (0, -2):
            message = rf"size bound must be at least 1 \(got {size_bound}\)"
            with pytest.raises(ValueError, match=message):
                build_replacement_table(VC, 1, size_bound, certify="off")

    def test_round_trip_bit_exact(self, vc_table):
        text = format_table(vc_table)
        again = parse_table(text)
        assert format_table(again) == text
        assert len(again) == len(vc_table)
        assert again.max_rep_size == vc_table.max_rep_size

    def test_parse_skips_indented_comment_lines(self, vc_table):
        text = format_table(vc_table)
        assert format_table(parse_table("  # t=1 vertex cover\n" + text)) == text

    def test_parse_rejects_edited_offset(self, vc_table):
        from twkern.io import ParseError

        text = format_table(vc_table)
        assert "row 1 1\n" in text
        with pytest.raises(ParseError, match="offset"):
            parse_table(text.replace("row 1 1\n", "row 1 -5\n", 1))

    def test_parse_rejects_truncated_files(self, vc_table):
        from twkern.io import ParseError

        text = format_table(vc_table)
        cuts = [len(text) // 3, len(text) // 2, len(text) - 10, text.rindex("row ")]
        for cut in cuts:
            with pytest.raises(ParseError):
                parse_table(text[:cut])

    def test_parse_rejects_header_and_label_mismatches(self, vc_table):
        from twkern.io import ParseError

        text = format_table(vc_table)
        header, rest = text.split("\n", 1)
        _, problem, t, max_rep, nrows = header.split()
        bad = [
            f"table {problem} {t} {max_rep} {int(nrows) + 1}\n{rest}",
            f"table {problem} {t} {int(max_rep) + 1} {nrows}\n{rest}",
            f"table {problem} 0 {max_rep} {nrows}\n{rest}",  # rows with b = 1 > t
            text.replace("b 1 1\n", "b 1 2\n", 1),
        ]
        for variant in bad:
            with pytest.raises(ParseError):
                parse_table(variant)

    def test_parse_rejects_a_representative_no_gadget_has(self):
        # one row with its true signature and offset, over a representative of
        # treewidth 3 (K4), or one that is disconnected (an edge beside a
        # triangle): gluing either would put a non-gadget into a kernel
        from twkern.graphs import complete_graph, disjoint_union
        from twkern.io import ParseError

        for graph, message in (
            (complete_graph(4), "treewidth is not certified at most t=1"),
            (disjoint_union(path_graph(2), complete_graph(3)), "representative is disconnected"),
        ):
            rep = BoundariedGraph(graph, {0: 1})
            sig = compute_signature(VC, rep)
            rows = {sig.key: replacement_mod.TableRow(sig, rep)}
            with pytest.raises(ParseError, match=f"line 2: .*{message}"):
                parse_table(format_table(ReplacementTable("vertex-cover", 1, rows)))

    def test_parse_rejects_header_t_above_build_limit(self, vc_table):
        from twkern.io import ParseError

        text = format_table(vc_table)
        assert text.startswith("table vertex-cover 1 ")
        for t in (4, 6, -1):
            with pytest.raises(ParseError, match="line 1"):
                parse_table(text.replace("table vertex-cover 1 ", f"table vertex-cover {t} ", 1))

    def test_boundary_three_table_builds(self):
        # the largest supported boundary; light certificates stay affordable
        # at a small size bound
        table = build_replacement_table(VC, 3, 4, certify="light", rng_seed=1)
        assert len(table) > len(build_replacement_table(VC, 2, 4, certify="off"))
        for key, row in table.rows.items():
            assert compute_signature(VC, row.representative).key == key
        text = format_table(table)
        assert format_table(parse_table(text)) == text

    def test_fvs_and_ds_round_trips(self, fvs_table, ds_table):
        for table in (fvs_table, ds_table):
            text = format_table(table)
            assert format_table(parse_table(text)) == text


class TestReplaceProtrusion:
    def _instance(self):
        # triangle with a long pendant path: one obvious 1-protrusion
        edges = [(0, 1), (0, 2), (1, 2), (0, 3)] + [(i, i + 1) for i in range(3, 9)]
        return Graph(10, edges)

    def test_replaces_pendant_path(self, vc_table):
        g = self._instance()
        inst = KernelInstance(g, 5, "vertex-cover")
        xs = next(iter_protrusions(g, 1, vc_table.max_rep_size + 1), None)
        assert xs is not None
        out = replace_protrusion(inst, xs, vc_table)
        assert out.graph.n < g.n
        assert out.k <= inst.k
        assert len(out.trace) == 1
        # optimum shifts by exactly the transposition constant
        c = out.k - inst.k
        assert opt_fast(VC, out.graph)[0] == opt_fast(VC, g)[0] + c

    def test_unknown_signature_skips(self, vc_table):
        # {0, 1} of a 3-vertex path, bounded by vertex 1, is the pendant leaf;
        # a table without the leaf's row has no row for its signature
        g = path_graph(3)
        inst = KernelInstance(g, 2, "vertex-cover")
        leaf_key = compute_signature(VC, pendant(1)).key
        rows = {key: row for key, row in vc_table.rows.items() if key != leaf_key}
        assert len(rows) == len(vc_table) - 1
        table = ReplacementTable(vc_table.problem, vc_table.t, rows)
        assert replace_protrusion(inst, frozenset({0, 1}), table) is inst

    def test_representative_not_smaller_skips(self, vc_table):
        # the pendant leaf's row holds a 2-vertex representative: swapping it
        # for the 2-vertex protrusion {0, 1} would not shrink the graph
        g = path_graph(3)
        inst = KernelInstance(g, 2, "vertex-cover")
        assert vc_table.lookup(compute_signature(VC, pendant(1))).representative.graph.n == 2
        assert replace_protrusion(inst, frozenset({0, 1}), vc_table) is inst

    def test_invalid_protrusion_rejected(self, vc_table):
        g = make_grid(3)
        inst = KernelInstance(g, 3, "vertex-cover")
        with pytest.raises(ValueError):
            replace_protrusion(inst, frozenset(g.vertices), vc_table)


class TestKernelize:
    def test_path20_shrinks_to_constant(self, vc_table, step_checks):
        inst = kernelize(VC, path_graph(20), 10, vc_table)
        assert step_checks
        assert inst.graph.n <= vc_table.max_rep_size + 2
        assert inst.k <= 10
        ok_before = opt_fast(VC, path_graph(20))[0] <= 10
        ok_after = opt_fast(VC, inst.graph)[0] <= inst.k
        assert ok_before == ok_after

    def test_protrusion_free_graph_identity(self, vc_table):
        g = make_grid(3)
        inst = kernelize(VC, g, 4, vc_table)
        assert inst.graph == g and inst.k == 4 and inst.trace == ()

    def test_star_with_many_leaves(self, vc_table, ds_table, kernelize_shuffled):
        # 2^40 unions of leaves hang off the centre: the search must stay lazy
        # when the first is replaced (vertex cover) and list the leaves as
        # copies when every union is rejected (no dominating-set row forces
        # the centre)
        star = Graph(41, [(0, i) for i in range(1, 41)])
        for seed in (None, 1):
            inst = kernelize_shuffled(VC, star, 1, vc_table, seed)
            assert inst.graph.n == 6 and inst.k == 1
        inst = kernelize(CATALOG["dominating-set"], star, 1, ds_table)
        assert inst.graph == star and inst.k == 1

    def test_shuffled_order_on_renumbered_pendant_paths(self, ds_table, kernelize_shuffled):
        # a shuffled search lists every candidate of a round, as a search whose
        # candidates are all rejected does: randomly numbered pendant paths
        # must still be listed as copies, not as 2^16 unions
        ds = CATALOG["dominating-set"]
        edges, n = [(0, i) for i in range(1, 7)], 7
        for _ in range(16):
            edges += [(0, n), (n, n + 1), (n + 1, n + 2)]
            n += 3
        perm = list(range(n))
        random.Random(1).shuffle(perm)
        g = Graph(n, [(perm[u], perm[v]) for u, v in edges])
        opt = opt_fast(ds, g)[0]
        for seed in (1, 2):
            inst = kernelize_shuffled(ds, g, opt, ds_table, seed)
            assert inst.graph.n < g.n and opt_fast(ds, inst.graph)[0] <= inst.k

    def test_trace_length_counts_replacements(self, vc_table):
        from twkern.harness import gen_corpus

        g = gen_corpus("grid+pendants", {"count": 1, "t": 3, "tree_size": 9, "pendants": 2}, 5)[0]
        inst = kernelize(VC, g, 6, vc_table)
        assert len(inst.trace) >= 1
        assert inst.graph.n == g.n - sum(s.protrusion_size - s.rep_size for s in inst.trace)

    def test_confluent_membership_under_shuffled_order(self, vc_table, kernelize_shuffled):
        from twkern.harness import gen_corpus

        corpus = gen_corpus("grid+pendants", {"count": 3, "t": 3, "tree_size": 8, "pendants": 2}, 9)
        for g in corpus:
            opt = opt_fast(VC, g)[0]
            k = opt
            outcomes = set()
            for seed in (None, 1, 2):
                inst = kernelize_shuffled(VC, g, k, vc_table, seed)
                member = opt_fast(VC, inst.graph)[0] <= inst.k
                outcomes.add(member)
            assert len(outcomes) == 1

    def test_opt_preserved_per_step_on_corpus(self, fvs_table, ds_table, vc_table, step_checks):
        from twkern.harness import gen_corpus

        corpus = gen_corpus("random-planar", {"count": 10, "n_min": 10, "n_max": 18}, seed=23)
        tables = {
            "vertex-cover": vc_table,
            "feedback-vertex-set": fvs_table,
            "dominating-set": ds_table,
        }
        for name, table in tables.items():
            p = CATALOG[name]
            for g in corpus:
                kernelize(p, g, 5, table)
        # only feedback vertex set replaces anything on this corpus
        assert step_checks

    def test_cross_problem_table_rejected(self, vc_table):
        with pytest.raises(ValueError, match="built for"):
            kernelize(CATALOG["feedback-vertex-set"], path_graph(8), 2, vc_table)

    def test_empty_graph_is_a_fixed_point(self, vc_table):
        inst = kernelize(VC, Graph(0), 0, vc_table)
        assert inst.graph == Graph(0) and inst.trace == ()

    def test_whole_component_replacement_via_boundary_zero_row(self, vc_table, step_checks):
        from twkern.graphs import disjoint_union

        g = disjoint_union(make_grid(3), path_graph(7))
        opt_before = opt_fast(VC, g)[0]
        inst = kernelize(VC, g, opt_before, vc_table)
        assert step_checks
        # the path component collapses through the empty-boundary class
        assert inst.graph.n < g.n
        assert opt_fast(VC, inst.graph)[0] <= inst.k

    def test_independent_set_kernelization_sound(self, step_checks):
        # maximization: replacements still shift membership by the stored
        # constant, and the refusal path keeps k from growing
        from twkern.harness import gen_corpus

        p = CATALOG["independent-set"]
        table = build_replacement_table(p, 1, 6, certify="light")
        corpus = gen_corpus("grid+pendants", {"count": 3, "t": 3, "tree_size": 9, "pendants": 2}, 15)
        corpus += gen_corpus("random-planar", {"count": 8, "n_min": 8, "n_max": 16}, seed=15)
        for g in corpus:
            opt = opt_fast(p, g)[0]
            for k in (opt - 1, opt, opt + 1):
                inst = kernelize(p, g, k, table)
                assert inst.k <= k
                before = opt >= k
                after = opt_fast(p, inst.graph)[0] >= inst.k
                assert before == after
        assert step_checks

    def test_union_corpus_soundness(self, vc_table):
        from twkern.harness import gen_corpus, verify_kernel_soundness

        corpus = [g for g in gen_corpus("union", {"count": 4, "t_values": [2, 3]}, seed=19)
                  if g.n <= 22]
        rep = verify_kernel_soundness(VC, corpus, vc_table, k_window=1)
        assert rep.ok

    def test_negative_k_consistency(self, vc_table):
        g = path_graph(12)
        inst = kernelize(VC, g, -1, vc_table)
        assert inst.k <= -1
        assert (opt_fast(VC, g)[0] <= -1) == (opt_fast(VC, inst.graph)[0] <= inst.k) == False

    def test_pendant_grid_kernel_pinned(self, monkeypatch):
        """Protrusion search decides width without a decomposition, for the
        yielded candidates too: at most 1 min-fill run per applied replacement
        (the signature's), and the kernel is the one the search has always
        produced."""
        import twkern.treedec
        from twkern.harness import gen_corpus

        g = gen_corpus("grid+pendants", {"count": 1, "t": 6, "tree_size": 15, "pendants": 8}, 1)[0]
        table = build_replacement_table(VC, 1, 6, certify="off")
        calls = []
        minfill = twkern.treedec.minfill_order

        def counting(*args, **kwargs):
            calls.append(args[0].n)
            return minfill(*args, **kwargs)

        monkeypatch.setattr(twkern.treedec, "minfill_order", counting)
        inst = kernelize(VC, g, 67, table)
        assert g.n == 156 and len(inst.trace) >= 1
        assert len(calls) <= len(inst.trace)
        # the 6x6 grid keeps one pendant vertex, on grid vertex 31
        expected_edges = sorted(make_grid(6).edges | {(31, 36)})
        assert (inst.graph.n, inst.k, sorted(inst.graph.edges)) == (37, 18, expected_edges)
