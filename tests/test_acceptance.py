"""Acceptance gate: one test (or parametrized row group) per criterion.

Each row registers a PASS/FAIL line printed in the terminal summary.  Two row
groups are strict expected failures: they assert bounds that presume a single
vertex has width 1, while the width of a one-vertex graph is max bag size - 1
= 0.  They are implemented exactly as stated and marked xfail(strict=True) so
any change in their status is loud; see the failure reasons on the markers.
"""

import dataclasses
import math
import random
import time
import zlib
from collections import Counter

import pytest

from twkern.dp import solve_via_dp
from twkern.graphs import make_gamma, make_grid
from twkern.harness import gen_corpus, verify_kernel_soundness
from twkern.modulators import balanced_separation, exact_modulator, recursive_modulator
from twkern.problems import CATALOG, opt_brute, opt_fast
from twkern.protrusions import build_pd, iter_protrusions, validate_pd
from twkern.replacement import (
    ReplacementTable,
    build_replacement_table,
    certificate_contexts,
    kernelize,
)
from twkern.treedec import exact_treewidth, heuristic_decomposition, validate_decomposition

from conftest import random_graph, sparse_random_graph
from graph_oracles import is_separation_of

VC = CATALOG["vertex-cover"]

_DEGENERATE_GRID = pytest.mark.xfail(
    strict=True,
    reason="a one-vertex graph has treewidth 0 (width = max bag size - 1); "
    "the asserted value presumes width 1 at the degenerate point",
)
_DEGENERATE_MODULATOR = pytest.mark.xfail(
    strict=True,
    reason="the 1x1-subgrid counting bound presumes a single vertex has "
    "treewidth 1; with width 0 the eta=0 bound t^2 overshoots the true "
    "cover number floor(t^2/2)",
)


@pytest.fixture(scope="session")
def planar_corpus_200():
    return gen_corpus("random-planar", {"count": 200, "n_min": 8, "n_max": 22}, seed=7)


class TestC1GridTreewidth:
    @pytest.mark.parametrize(
        "t",
        [pytest.param(1, marks=_DEGENERATE_GRID), 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)],
    )
    def test_exact_treewidth_of_grids(self, t, acceptance):
        t0 = time.perf_counter()
        w, td = exact_treewidth(make_grid(t), max_vertices=25)
        elapsed = time.perf_counter() - t0
        ok = w == t and validate_decomposition(make_grid(t), td).ok
        acceptance("C1 grid treewidth", f"t={t}", ok, f"tw={w} in {elapsed:.1f}s")
        assert elapsed < 60
        assert ok


class TestC2BalancedSeparation:
    def test_hundred_random_graphs(self, acceptance):
        t0 = time.perf_counter()
        rng = random.Random(2025)
        violations = 0
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 18))
            td = heuristic_decomposition(g)
            q = frozenset(g.vertices)
            sep = balanced_separation(g, q, td)
            cap = -(-2 * len(q) // 3)
            if not (
                is_separation_of(sep, g)
                and sep.order <= td.width + 1
                and len(q & (sep.a1 - sep.a2)) <= cap
                and len(q & (sep.a2 - sep.a1)) <= cap
            ):
                violations += 1
        elapsed = time.perf_counter() - t0
        acceptance(
            "C2 balanced separation", "100 graphs n<=18", violations == 0,
            f"{violations} violations in {elapsed:.1f}s",
        )
        assert elapsed < 60
        assert violations == 0


class TestC3ModulatorGridBound:
    @pytest.mark.parametrize(
        "t,eta",
        [
            *[pytest.param(t, 0, marks=_DEGENERATE_MODULATOR) for t in (1, 2, 3, 4)],
            *[(t, 1) for t in (1, 2, 3, 4)],
        ],
    )
    def test_lower_bound(self, t, eta, acceptance):
        t0 = time.perf_counter()
        size = len(exact_modulator(make_grid(t), eta).vertices)
        bound = (t // (eta + 1)) ** 2
        elapsed = time.perf_counter() - t0
        ok = size >= bound
        acceptance(
            "C3 modulator grid bound", f"t={t} eta={eta}", ok,
            f"size={size} bound={bound} in {elapsed:.1f}s",
        )
        assert elapsed < 300
        assert ok


class TestC4ProtrusionDecompositionValidity:
    def test_fifty_planar_instances(self, acceptance):
        t0 = time.perf_counter()
        corpus = gen_corpus("random-planar", {"count": 50, "n_min": 20, "n_max": 60}, seed=42)
        failures = 0
        built = 0
        for g in corpus:
            mod = recursive_modulator(g, 1)
            if not mod.vertices:
                continue
            pd = build_pd(g, mod)
            built += 1
            if not validate_pd(g, pd).ok:
                failures += 1
        elapsed = time.perf_counter() - t0
        ok = failures == 0 and built >= 45
        acceptance(
            "C4 protrusion decomposition", "50 planar n<=60", ok,
            f"{built} built, {failures} invalid in {elapsed:.1f}s",
        )
        assert elapsed < 300
        assert ok


class TestC5EquivalenceCertificates:
    @pytest.mark.slow
    def test_vc_t1_certificates_exhaustive_contexts(self, acceptance):
        t0 = time.perf_counter()
        table = build_replacement_table(VC, 1, 6, certify="exhaustive")
        elapsed = time.perf_counter() - t0
        acceptance(
            "C5 equivalence certificates", "t=1 all contexts <=8", True,
            f"{len(table)} rows certified in {elapsed:.0f}s",
        )
        assert elapsed < 1800
        # the contexts it probed, read back from the cache the build filled:
        # connected graphs (OEIS A001349) and rooted ones (OEIS A126100)
        published = {
            0: (1, 1, 2, 6, 21, 112, 853, 11117),
            1: (1, 1, 3, 11, 58, 407, 4306, 72489),
        }
        misses = certificate_contexts.cache_info().misses
        for b, want in published.items():
            counts = [0] * 8
            for bg in certificate_contexts(b, 8):
                counts[bg.graph.n - 1] += 1
            assert tuple(counts) == want
        assert certificate_contexts.cache_info().misses == misses
        assert (sum(published[0]), sum(published[1])) == (12113, 77276)

    @pytest.mark.slow
    def test_vc_t2_certificates_thorough_contexts(self, acceptance):
        # all contexts up to 7 vertices plus 1000 random 8-vertex contexts;
        # the full 8-vertex context set at boundary two is out of desk-scale
        # reach (hundreds of thousands of contexts per declared pair)
        t0 = time.perf_counter()
        table = build_replacement_table(VC, 2, 5, certify="thorough")
        elapsed = time.perf_counter() - t0
        acceptance(
            "C5 equivalence certificates", "t=2 contexts <=7 + 1000 random <=8", True,
            f"{len(table)} rows certified in {elapsed:.0f}s",
        )
        assert elapsed < 1800

    def test_class_count_stabilizes_between_8_and_9(self, acceptance):
        t0 = time.perf_counter()
        counts = []
        for size_bound in (8, 9):  # realized classes per boundary size
            rows = build_replacement_table(VC, 1, size_bound, certify="off").rows
            counts.append(dict(sorted(Counter(b for b, _ in rows).items())))
        c8, c9 = counts
        elapsed = time.perf_counter() - t0
        ok = c8 == c9
        acceptance(
            "C5 equivalence certificates", "class count 8 vs 9", ok,
            f"{c8} == {c9} in {elapsed:.0f}s",
        )
        assert ok


class TestC6KernelSoundness:
    @pytest.mark.parametrize("problem", ["vertex-cover", "feedback-vertex-set", "dominating-set"])
    def test_soundness_on_planar_corpus(self, problem, planar_corpus_200, acceptance, request):
        table = request.getfixturevalue(
            {"vertex-cover": "vc_table", "feedback-vertex-set": "fvs_table",
             "dominating-set": "ds_table"}[problem]
        )
        t0 = time.perf_counter()
        p = CATALOG[problem]
        rep = verify_kernel_soundness(p, planar_corpus_200, table, k_window=1)
        elapsed = time.perf_counter() - t0
        ok = rep.ok and len(rep.rows) == 600
        acceptance(
            "C6 kernel soundness", problem, ok,
            f"{len(rep.rows)} checks, {len(rep.violations)} violations in {elapsed:.0f}s",
        )
        assert elapsed < 1800
        assert ok


class TestC6SoundnessCanFail:
    """C6's corpus shrinks under no VC or DS replacement, so its rows cannot
    fail for those problems whatever their tables say.  Beside it, a corpus
    where every pair replaces something: the table must pass there, and the
    same table with every row's offset lowered by one, which shifts k' by -1
    per replacement, must be caught."""

    @pytest.mark.parametrize("problem", ["vertex-cover", "feedback-vertex-set", "dominating-set"])
    def test_damaged_table_is_caught(self, problem, acceptance, request):
        table = request.getfixturevalue(
            {"vertex-cover": "vc_table", "feedback-vertex-set": "fvs_table",
             "dominating-set": "ds_table"}[problem]
        )
        damaged = ReplacementTable(table.problem, table.t, {
            key: dataclasses.replace(
                row, signature=dataclasses.replace(row.signature, offset=row.signature.offset - 1)
            )
            for key, row in table.rows.items()
        })
        corpus = gen_corpus(
            "grid+pendants", {"count": 6, "t": 3, "tree_size": 6, "pendants": 2}, seed=7
        )
        p = CATALOG[problem]
        t0 = time.perf_counter()
        sound = verify_kernel_soundness(p, corpus, table, k_window=1)
        caught = verify_kernel_soundness(p, corpus, damaged, k_window=1)
        elapsed = time.perf_counter() - t0
        shrank = sum(r.kernel_n < r.n for r in sound.rows)
        ok = sound.ok and shrank == len(sound.rows) == 18 and bool(caught.violations)
        acceptance(
            "C6 soundness check can fail", problem, ok,
            f"{shrank} of {len(sound.rows)} kernels shrank; violations {len(sound.violations)} "
            f"undamaged, {len(caught.violations)} damaged in {elapsed:.1f}s",
        )
        assert ok


class TestC7KernelShrinkage:
    def test_pendant_tree_family(self, vc_table, acceptance):
        t0 = time.perf_counter()
        corpus = gen_corpus(
            "grid+pendants", {"count": 8, "t": 4, "tree_size": 15, "pendants": 3}, seed=77
        )
        threshold = vc_table.max_rep_size
        failures = 0
        for g in corpus:
            inst = kernelize(VC, g, 10, vc_table)
            shrank = inst.graph.n < g.n
            leftovers = next(iter_protrusions(inst.graph, vc_table.t, threshold + 1), None)
            if not shrank or leftovers is not None:
                failures += 1
        elapsed = time.perf_counter() - t0
        ok = failures == 0
        acceptance(
            "C7 kernel shrinkage", "grid + 15-vertex pendant trees", ok,
            f"{len(corpus)} instances, {failures} failures in {elapsed:.0f}s",
        )
        assert elapsed < 300
        assert ok


class TestC8Bidimensionality:
    def test_independent_set_on_gamma3(self, acceptance):
        t0 = time.perf_counter()
        opt, witness = opt_brute(CATALOG["independent-set"], make_gamma(3))
        elapsed = time.perf_counter() - t0
        bound = (3 - 1) ** 2 / 4
        ok = opt >= bound == 1
        acceptance("C8 bidimensionality", "independent set Gamma_3", ok, f"opt={opt} >= {bound}")
        assert elapsed < 60
        assert ok

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_vertex_cover_grid_ratio(self, k, acceptance):
        g = make_grid(k)
        opt = solve_via_dp(VC, g, heuristic_decomposition(g))[0]
        ratio = opt / (k * k)
        ok = ratio >= 1 / 3
        acceptance("C8 bidimensionality", f"vertex cover grid k={k}", ok, f"ratio={ratio:.3f}")
        assert ok


class TestC9ParameterTreewidth:
    @pytest.mark.parametrize("t", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
    def test_grid_treewidth_versus_cover(self, t, acceptance):
        t0 = time.perf_counter()
        w, _ = exact_treewidth(make_grid(t), max_vertices=25)
        opt = opt_fast(VC, make_grid(t))[0]
        elapsed = time.perf_counter() - t0
        ok = w <= 2 * math.sqrt(opt)
        acceptance(
            "C9 parameter-treewidth bound", f"t={t}", ok,
            f"tw={w} <= 2*sqrt({opt})={2 * math.sqrt(opt):.2f} in {elapsed:.1f}s",
        )
        assert elapsed < 60
        assert ok


class TestC10OracleAgreement:
    @pytest.mark.parametrize(
        "problem", ["vertex-cover", "independent-set", "dominating-set", "feedback-vertex-set"]
    )
    def test_brute_matches_dp_on_200_graphs(self, problem, acceptance):
        t0 = time.perf_counter()
        p = CATALOG[problem]
        rng = random.Random(zlib.crc32(problem.encode()))
        mismatches = 0
        for _ in range(200):
            g = sparse_random_graph(rng, rng.randint(1, 12))
            td = heuristic_decomposition(g)
            if opt_brute(p, g)[0] != solve_via_dp(p, g, td)[0]:
                mismatches += 1
        elapsed = time.perf_counter() - t0
        ok = mismatches == 0
        acceptance(
            "C10 oracle agreement", problem, ok, f"{mismatches} mismatches in {elapsed:.0f}s"
        )
        assert elapsed < 300
        assert ok
