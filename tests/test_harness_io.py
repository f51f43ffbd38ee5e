"""Corpus generation, soundness verification, reports, text formats, CLI."""

import hashlib
import random
import re
import subprocess
import sys

import pytest

from twkern.dp import solve_via_dp
from twkern.graphs import BoundariedGraph, Graph, complete_graph, make_grid, path_graph
from twkern.harness import (
    _random_maximal_planar,
    _triangulates_sphere,
    experiment_k,
    gen_corpus,
    is_member,
    run_experiment,
    reference_oracle,
    verify_kernel_soundness,
)
from twkern.io import (
    ParseError,
    format_graph,
    parse_decomposition,
    parse_graph,
)
from twkern.problems import CATALOG
from twkern.treedec import exact_treewidth, heuristic_decomposition

VC = CATALOG["vertex-cover"]


class TestGraphFormat:
    def test_single_edge(self):
        g = parse_graph("2 1\n1 2\n")
        assert g == path_graph(2)

    def test_comments_ignored(self):
        g = parse_graph("# corpus instance\n3 2\n1 2\n# middle comment\n2 3\n")
        assert g == path_graph(3)

    def test_round_trip_is_canonical(self):
        g = make_grid(3)
        assert parse_graph(format_graph(g)) == g
        text = "3 2\n# hello\n2 3\n1 2\n"
        assert format_graph(parse_graph(text)) == "3 2\n1 2\n2 3\n"

    def test_boundaried_round_trip(self):
        bg = BoundariedGraph(path_graph(3), {0: 2, 2: 1})
        text = format_graph(bg)
        assert parse_graph(text) == bg
        assert format_graph(parse_graph(text)) == text

    def test_endpoint_out_of_range_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_graph("2 2\n1 2\n1 3\n")

    def test_u_ge_v_rejected(self):
        with pytest.raises(ParseError, match="u < v"):
            parse_graph("2 1\n2 1\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_graph("two one\n")

    def test_bad_boundary_labels_name_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("1 0\nb 1 0\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_graph("2 0\nb 1 1\nb 2 1\n")

    def test_decomposition_non_integer_header_names_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_decomposition("s 1 x 2\nb 1 1 2\n")

    def test_decomposition_non_integer_bag_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_decomposition("s 1 1 2\nb 1 1 q\n")

    def test_decomposition_bag_vertex_out_of_range_names_line(self):
        for bag_line in ("b 1 0", "b 1 5"):
            with pytest.raises(ParseError, match="line 2"):
                parse_decomposition(f"s 1 0 2\n{bag_line}\n")

    def test_decomposition_lone_bag_keyword_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_decomposition("s 2 1 2\nb 1 1 2\nb\n")

    def test_decomposition_tree_edge_out_of_range_names_line(self):
        with pytest.raises(ParseError, match="line 4"):
            parse_decomposition("s 2 1 2\nb 1 1 2\nb 2 2\ne 1 3\n")

    def test_decomposition_repeated_tree_edge_names_line(self):
        for repeat in ("e 2 1", "e 1 2"):
            with pytest.raises(ParseError, match="line 5"):
                parse_decomposition(f"s 2 1 2\nb 1 1 2\nb 2 2\ne 1 2\n{repeat}\n")

class TestCorpus:
    def test_grid_family(self):
        corpus = gen_corpus("grid", {"t": 3}, seed=0)
        assert corpus == [make_grid(3)]

    def test_same_seed_identical(self):
        a = gen_corpus("random-planar", {"count": 6, "n_min": 5, "n_max": 15}, seed=4)
        b = gen_corpus("random-planar", {"count": 6, "n_min": 5, "n_max": 15}, seed=4)
        assert a == b
        c = gen_corpus("random-planar", {"count": 6, "n_min": 5, "n_max": 15}, seed=5)
        assert a != c

    def test_random_planar_verified(self):
        import networkx as nx

        corpus = gen_corpus("random-planar", {"count": 15, "n_min": 10, "n_max": 20}, seed=1)
        for g in corpus:
            gx = nx.Graph(list(g.edges))
            gx.add_nodes_from(range(g.n))
            assert nx.check_planarity(gx)[0]

    def test_random_planar_treewidth_at_most_3(self):
        # a stacked triangulation is a planar 3-tree, and deleting edges
        # cannot raise treewidth
        widths = [
            exact_treewidth(g)[0]
            for seed in range(1, 11)
            for g in gen_corpus("random-planar", {"count": 20, "n_min": 8, "n_max": 20}, seed)
        ]
        assert len(widths) == 200 and max(widths) == 3

    def test_corpus_fingerprint(self):
        # random-planar corpora of the tests and the benchmark, pinned byte for byte
        h = hashlib.sha256()
        runs = [({"count": 20, "n_min": 1, "n_max": 60}, seed) for seed in range(40)]
        runs += [({"count": 14, "n_min": n, "n_max": n}, 1000 + n) for n in range(8, 23)]
        runs += [({"count": 50, "n_min": 20, "n_max": 60}, 42)]
        for params, seed in runs:
            for g in gen_corpus("random-planar", params, seed):
                h.update(format_graph(g).encode())
        assert h.hexdigest() == "e4466f9a0edac0c755da1cd8de036603338304e6a1a64067c3f616a1cd050d1f"

    def test_no_third_party_module_is_loaded(self, tmp_path):
        code = """
import sys
import twkern
from twkern import cli
from twkern.harness import gen_corpus
from twkern.problems import CATALOG
from twkern.replacement import build_replacement_table, format_table
for family, params in (
    ("grid", {"t": 2}),
    ("grid+pendants", {"count": 2}),
    ("random-planar", {"count": 2}),
    ("union", {"count": 2}),
):
    gen_corpus(family, params, seed=0)
path = sys.argv[1]
with open(path, "w") as f:
    f.write(format_table(build_replacement_table(CATALOG["vertex-cover"], 1, 4, certify="off")))
assert cli.main(["verify", "--problem", "vertex-cover", "--table", path, "--count", "3"]) == 0
assert "networkx" not in sys.modules
"""
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "vc.table")], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert "violations: 0" in proc.stdout

    def test_pendant_family_sizes(self):
        corpus = gen_corpus(
            "grid+pendants", {"count": 2, "t": 3, "tree_size": 5, "pendants": 2}, seed=2
        )
        for g in corpus:
            assert g.n == 9 + 2 * 5

    def test_union_family_disconnected(self):
        corpus = gen_corpus("union", {"count": 3, "t_values": [2, 3]}, seed=3)
        assert all(len(g.connected_components()) >= 2 for g in corpus)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            gen_corpus("smallworld", {}, seed=0)

    def test_parameter_the_family_does_not_read(self):
        with pytest.raises(ValueError, match="corpus family 'grid' does not read count"):
            gen_corpus("grid", {"count": 2}, 0)
        with pytest.raises(ValueError, match="corpus family 'grid' does not read t_values"):
            gen_corpus("grid", {"t_values": [3]}, 0)

    def test_parameter_out_of_range_is_named(self):
        for family in ("grid+pendants", "random-planar", "union"):
            with pytest.raises(ValueError, match=re.escape("count must be at least 1 (got 0)")):
                gen_corpus(family, {"count": 0}, 0)
        for family, name, value, least in (
            ("grid", "t", 0, 1),
            ("grid+pendants", "tree_size", 0, 1),
            ("grid+pendants", "pendants", -1, 0),
            ("random-planar", "n_min", -2, 0),
        ):
            message = f"{name} must be at least {least} (got {value})"
            with pytest.raises(ValueError, match=re.escape(message)):
                gen_corpus(family, {name: value}, 0)
        with pytest.raises(ValueError, match=re.escape("n_min (10) exceeds n_max (5)")):
            gen_corpus("random-planar", {"n_min": 10, "n_max": 5}, 0)
        with pytest.raises(ValueError, match=re.escape("n_min (8) exceeds n_max (7)")):
            gen_corpus("random-planar", {"n_max": 7}, 0)
        # one pendant tree per requested pendant, each on its own grid vertex
        for params, message in (
            ({"t": 2, "pendants": 5}, "pendants (5) exceeds t squared (4)"),
            ({"t": 1}, "pendants (3) exceeds t squared (1)"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                gen_corpus("grid+pendants", params, 0)
        assert len(gen_corpus("grid+pendants", {"count": 1, "t": 2, "pendants": 4}, 0)) == 1
        assert len(gen_corpus("random-planar", {"count": 1, "n_min": 6, "n_max": 6}, 0)) == 1


def _with_faces(n: int, faces: list[tuple[int, int, int]]) -> tuple[Graph, list]:
    edges = {tuple(sorted(pair)) for a, b, c in faces for pair in ((a, b), (b, c), (a, c))}
    return Graph(n, edges), faces


def _octahedron(north: int, south: int, equator: list[int]) -> list[tuple[int, int, int]]:
    ring = list(zip(equator, equator[1:] + equator[:1]))
    return [(pole, x, y) for pole in (north, south) for x, y in ring]


TETRAHEDRON = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


class TestSphereCertificate:
    def test_accepts_spheres(self):
        assert _triangulates_sphere(*_with_faces(4, TETRAHEDRON))
        assert _triangulates_sphere(*_with_faces(3, [(0, 1, 2), (0, 1, 2)]))
        assert _triangulates_sphere(*_with_faces(6, _octahedron(0, 1, [2, 3, 4, 5])))
        for n in range(3, 40):
            assert _triangulates_sphere(*_random_maximal_planar(random.Random(n), n))

    def test_rejects_k7_torus(self):
        faces = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
        faces += [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
        g, _ = _with_faces(7, faces)
        assert g.m == 21 and len(faces) == 14
        assert not _triangulates_sphere(g, faces)

    def test_rejects_octahedra_sharing_antipodes(self):
        # connected, every edge in two faces and n - m + f = 2, yet non-planar:
        # the link of each shared pole is two cycles
        faces = _octahedron(0, 1, [2, 3, 4, 5]) + _octahedron(0, 1, [6, 7, 8, 9])
        g, _ = _with_faces(10, faces)
        assert (g.n, g.m, len(faces)) == (10, 24, 16) and g.is_connected()
        assert not _triangulates_sphere(g, faces)

    def test_rejects_a_dropped_face(self):
        g, faces = _random_maximal_planar(random.Random(7), 12)
        for i in range(len(faces)):
            assert not _triangulates_sphere(g, faces[:i] + faces[i + 1:])

    def test_rejects_disjoint_tetrahedra(self):
        faces = TETRAHEDRON + [(a + 4, b + 4, c + 4) for a, b, c in TETRAHEDRON]
        assert not _triangulates_sphere(*_with_faces(8, faces))


class TestSoundness:
    def test_membership_convention(self):
        assert is_member(VC, 3, 3) and not is_member(VC, 3, 2)
        assert not is_member(VC, 0, -1)  # negative k on minimization: no-instance
        p_max = CATALOG["independent-set"]
        assert is_member(p_max, 0, -1)  # negative k on maximization: yes-instance

    def test_empty_corpus_empty_report(self, vc_table):
        rep = verify_kernel_soundness(VC, [], vc_table)
        assert rep.rows == [] and rep.ok

    def test_small_corpus_no_violations(self, vc_table):
        corpus = gen_corpus("random-planar", {"count": 15, "n_min": 8, "n_max": 16}, seed=6)
        rep = verify_kernel_soundness(VC, corpus, vc_table, k_window=1)
        assert rep.ok
        assert len(rep.rows) == 3 * len(corpus)
        for row in rep.rows:
            assert row.kernel_n <= row.n and row.k_prime <= row.k

    def test_oracle_budget_guard(self, vc_table):
        # K23: min-fill width 22 is over the DP cap, 23 vertices over opt_brute's
        with pytest.raises(ValueError, match=r"^instance 0: opt_brute budget is 22 vertices"):
            verify_kernel_soundness(VC, [complete_graph(23)], vc_table)

    def test_dp_answers_beyond_the_enumeration_budget(self, vc_table):
        # the 5x5 grid has 25 vertices and min-fill width 5, within VC's DP cap
        rep = verify_kernel_soundness(VC, [make_grid(5)], vc_table)
        assert len(rep.rows) == 3 and not rep.violations

    def test_negative_k_window_rejected(self, vc_table):
        # range(opt + 3, opt - 2) is empty: the check would pass on nothing
        corpus = gen_corpus("random-planar", {"count": 2, "n_min": 8, "n_max": 10}, seed=6)
        with pytest.raises(ValueError, match=r"^k_window must be at least 0 \(got -3\)$"):
            verify_kernel_soundness(VC, corpus, vc_table, k_window=-3)
        assert len(verify_kernel_soundness(VC, corpus, vc_table, k_window=0).rows) == 2

    @pytest.mark.parametrize("name", ["vertex-cover", "feedback-vertex-set"])
    def test_oracle_is_independent_of_the_dp_within_the_budget(
        self, name, monkeypatch, vc_table, fvs_table
    ):
        # within 22 vertices membership must not come from the DP whose
        # signatures built the table under test
        import twkern.harness

        p = CATALOG[name]
        table = vc_table if name == "vertex-cover" else fvs_table
        corpus = gen_corpus("random-planar", {"count": 12, "n_min": 8, "n_max": 22}, seed=15)
        expected = verify_kernel_soundness(
            p, corpus, table, oracle=lambda p, g: solve_via_dp(p, g, heuristic_decomposition(g))[0]
        )

        def no_dp(*args):
            raise AssertionError("reference_oracle asked the DP")

        monkeypatch.setattr(twkern.harness, "solve_via_dp", no_dp)
        rep = verify_kernel_soundness(p, corpus, table)
        assert rep.ok and len(rep.rows) == 3 * len(corpus)
        assert rep.rows == expected.rows
        with pytest.raises(AssertionError, match="asked the DP"):
            verify_kernel_soundness(p, [make_grid(5)], table)

    def test_eta_is_accepted_and_changes_no_row(self, vc_table):
        corpus = gen_corpus("random-planar", {"count": 8, "n_min": 10, "n_max": 18}, seed=14)
        rep = verify_kernel_soundness(VC, corpus, vc_table, k_window=1, eta=1)
        assert rep.ok
        assert rep.rows == verify_kernel_soundness(VC, corpus, vc_table, k_window=1).rows


class TestExperiment:
    def test_rows_and_invariants(self, vc_table):
        corpus = gen_corpus(
            "grid+pendants", {"count": 3, "t": 3, "tree_size": 8, "pendants": 2}, seed=8
        )
        rep = run_experiment(VC, corpus, vc_table, family="grid+pendants", seed=8)
        assert len(rep.rows) == 3
        for row in rep.rows:
            assert row.kernel_n <= row.n and row.k_prime <= row.k
            assert row.replacements >= 1

    def test_csv_deterministic(self, vc_table):
        corpus = gen_corpus("random-planar", {"count": 5, "n_min": 8, "n_max": 14}, seed=9)
        a = run_experiment(VC, corpus, vc_table, seed=9, deterministic_timing=True).to_csv()
        b = run_experiment(VC, corpus, vc_table, seed=9, deterministic_timing=True).to_csv()
        assert a == b
        assert a.splitlines()[1].startswith("instance_id,n,m,k,")

    def test_protrusion_free_corpus_keeps_sizes(self, vc_table):
        corpus = [make_grid(3)]
        rep = run_experiment(VC, corpus, vc_table)
        assert rep.rows[0].kernel_n == 9 and rep.rows[0].replacements == 0

    def test_parameter_of_a_long_path(self):
        # the DP reference oracle walks a decomposition about 1500 levels deep
        assert experiment_k(VC, path_graph(1500)) == 750

class TestSpecOracle:
    def test_matches_fast_solver(self):
        from twkern.problems import opt_fast

        corpus = gen_corpus("random-planar", {"count": 20, "n_min": 6, "n_max": 16}, seed=10)
        for g in corpus:
            for name in ("vertex-cover", "dominating-set", "feedback-vertex-set"):
                p = CATALOG[name]
                assert reference_oracle(p, g) == opt_fast(p, g)[0]


class TestCli:
    def _run(self, *args, expect_ok=True):
        proc = subprocess.run(
            [sys.executable, "-m", "twkern.cli", *args], capture_output=True, text=True
        )
        if expect_ok:
            assert proc.returncode == 0, proc.stderr
        return proc

    def test_pipeline(self, tmp_path, vc_table):
        from twkern.replacement import format_table

        gpath = tmp_path / "g.gr"
        gpath.write_text(format_graph(path_graph(20)))
        tpath = tmp_path / "t.txt"
        tpath.write_text(format_table(vc_table))

        out = self._run("decompose", "--input", str(gpath))
        assert out.stdout.startswith("s ")

        kpath = tmp_path / "kernel.gr"
        out = self._run(
            "kernelize", "--problem", "vertex-cover", "--input", str(gpath),
            "--k", "10", "--table", str(tpath), "--out", str(kpath),
        )
        kernel = parse_graph(kpath.read_text())
        kernel_n = kernel.graph.n if isinstance(kernel, BoundariedGraph) else kernel.n
        assert kernel_n < 20

        out = self._run(
            "verify", "--problem", "vertex-cover", "--table", str(tpath),
            "--family", "random-planar", "--count", "4", "--n-max", "14", "--seed", "3",
        )
        assert "violations: 0" in out.stdout

        out = self._run(
            "verify", "--problem", "vertex-cover", "--table", str(tpath),
            "--input", str(gpath),
        )
        assert "violations: 0" in out.stdout

        csv_path = tmp_path / "report.csv"
        self._run(
            "experiment", "--problem", "vertex-cover", "--table", str(tpath),
            "--family", "grid+pendants", "--count", "2", "--grid-t", "3",
            "--tree-size", "8", "--seed", "1", "--no-timing", "--out", str(csv_path),
        )
        lines = csv_path.read_text().splitlines()
        assert lines[1] == "instance_id,n,m,k,kernel_n,kernel_m,k_prime,replacements,wall_time"
        assert len(lines) == 4

    def test_experiment_counts_instances_without_an_oracle(self, tmp_path, fvs_table):
        # FVS's DP stops at width 5: a 6x6 grid with pendants (n = 44) is
        # too wide for it and too large to enumerate, a 4x4 one (n = 24) is not
        from twkern.replacement import format_table

        tpath = tmp_path / "t.txt"
        tpath.write_text(format_table(fvs_table))
        for grid_t, hit, ratio in (("6", 2, "n/a"), ("4", 0, "4.000")):
            out = self._run(
                "experiment", "--problem", "feedback-vertex-set", "--table", str(tpath),
                "--family", "grid+pendants", "--count", "2", "--grid-t", grid_t,
                "--tree-size", "4", "--pendants", "2", "--seed", "1", "--no-timing",
            )
            assert out.stderr == (
                f"max kernel_n/k over corpus: {ratio}\n"
                f"k planted as 0, no oracle within budget: {hit} of 2 instances\n"
            )

    def test_default_corpora_are_pinned(self, tmp_path, vc_table):
        # sha256 of (stdout, stderr) of `experiment --no-timing` for each
        # family with no corpus flag given: the families' defaults, pinned
        from twkern.replacement import format_table

        tpath = tmp_path / "t.txt"
        tpath.write_text(format_table(vc_table))
        pins = {
            "grid": (
                "0deb3a2136dc23924338e2c1744cffd6386fc7820e8e84a1de6956522d856355",
                "0c1772491dbf6b5f8b85790506159d31b297ff4a413d53641f2935ec9645a4dd",
            ),
            "grid+pendants": (
                "d865ef7278360ebbec22297ed298244f9e166455182a322df8f0e28e61dc6fab",
                "6ca3e0837b213b7c7eb18613e087f5a3eb68d304d8c5fb9f50c62de804ab1efb",
            ),
            "random-planar": (
                "47b4c104ae9385cf567907695c5707e0c599893d0e2e12e2c08312646e6052ba",
                "facc5710a1cc7a7e05449f135352f60956f5ed1a5425d0e2f145717283c9dbdf",
            ),
            "union": (
                "6c38cfe80921f959d8010c09ef398a50ce2c7dae8016ab52a3eda7a876ca5120",
                "4866bf7e37b9a98eeca20d533b217ab514a3d41fc7621d9caab346e5e4adb02a",
            ),
        }
        for family, pin in pins.items():
            proc = self._run(
                "experiment", "--problem", "vertex-cover", "--table", str(tpath),
                "--family", family, "--no-timing",
            )
            digests = tuple(
                hashlib.sha256(s.encode()).hexdigest() for s in (proc.stdout, proc.stderr)
            )
            assert digests == pin, family

    def _assert_input_error(self, proc, line):
        assert proc.returncode == 2
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert proc.stderr == f"twkern: error: {line}\n"

    def test_damaged_graph_names_file_and_line(self, tmp_path, vc_table):
        from twkern.replacement import format_table

        gpath = tmp_path / "g.gr"
        gpath.write_text("3 2\n1 2\n2 x\n")
        tpath = tmp_path / "t.txt"
        tpath.write_text(format_table(vc_table))
        proc = self._run(
            "kernelize", "--problem", "vertex-cover", "--input", str(gpath),
            "--k", "1", "--table", str(tpath), expect_ok=False,
        )
        self._assert_input_error(proc, f"{gpath}: line 3: expected integers, got '2 x'")

    def test_damaged_table_names_file_and_line(self, tmp_path):
        tpath = tmp_path / "t.txt"
        tpath.write_text("# a table\ntable vertex-cover 9 1 0\n")
        proc = self._run(
            "experiment", "--problem", "vertex-cover", "--table", str(tpath), expect_ok=False
        )
        self._assert_input_error(proc, f"{tpath}: line 2: table boundary size t=9 outside 0..3")

    def test_missing_table_names_file(self, tmp_path):
        tpath = tmp_path / "missing.txt"
        proc = self._run(
            "verify", "--problem", "vertex-cover", "--table", str(tpath), expect_ok=False
        )
        self._assert_input_error(proc, f"{tpath}: No such file or directory")

    def test_verify_only_flags_rejected_by_experiment(self, tmp_path, vc_table):
        from twkern.replacement import format_table

        gpath = tmp_path / "g.gr"
        gpath.write_text(format_graph(path_graph(5)))
        tpath = tmp_path / "t.txt"
        tpath.write_text(format_table(vc_table))
        for flag, value in (("--input", str(gpath)), ("--k-window", "5")):
            proc = self._run(
                "experiment", "--problem", "vertex-cover", "--table", str(tpath), flag, value,
                expect_ok=False,
            )
            assert proc.returncode == 2 and proc.stdout == ""
            assert f"twkern: error: unrecognized arguments: {flag} {value}\n" in proc.stderr

    def test_unknown_problem_rejected(self):
        proc = self._run("table-build", "--problem", "foo", expect_ok=False)
        assert proc.returncode == 2
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert "argument --problem: invalid choice: 'foo'" in proc.stderr

    def test_arguments_out_of_range_exit_2(self, tmp_path, vc_table):
        from twkern.replacement import format_table

        gpath = tmp_path / "grid.gr"
        gpath.write_text(format_graph(make_grid(5)))  # 25 vertices, over the budgets below
        kpath = tmp_path / "k23.gr"
        kpath.write_text(format_graph(complete_graph(23)))  # over both oracle budgets
        tpath = tmp_path / "t.txt"
        tpath.write_text(format_table(vc_table))
        build = ("table-build", "--problem", "vertex-cover", "--certify", "off")
        cases = [
            ((*build, "--t", "5"), "replacement tables support boundary size at most 3"),
            ((*build, "--t", "-1"), "table boundary size t=-1 is negative"),
            ((*build, "--size-bound", "12"), "replacement table size bound is at most 9"),
            # a bound that admits no gadget would write a table that replaces nothing
            (
                (*build, "--size-bound", "0"),
                "replacement table size bound must be at least 1 (got 0)",
            ),
            (
                (*build, "--size-bound", "-2"),
                "replacement table size bound must be at least 1 (got -2)",
            ),
            (
                ("decompose", "--input", str(gpath), "--exact", "--exact-budget", "10"),
                "exact treewidth limited to 10 vertices (got 25); use heuristic_decomposition",
            ),
            (
                ("kernelize", "--problem", "dominating-set", "--input", str(gpath),
                 "--k", "3", "--table", str(tpath)),
                "table was built for 'vertex-cover', not 'dominating-set'",
            ),
            (
                ("verify", "--problem", "vertex-cover", "--table", str(tpath),
                 "--input", str(kpath)),
                "instance 0: opt_brute budget is 22 vertices (got 23)",
            ),
        ]
        for args, line in cases:
            self._assert_input_error(self._run(*args, expect_ok=False), line)

    def test_verify_negative_k_window_exits_2(self, tmp_path, vc_table):
        from twkern.replacement import format_table

        tpath = tmp_path / "t.txt"
        tpath.write_text(format_table(vc_table))
        proc = self._run(
            "verify", "--problem", "vertex-cover", "--table", str(tpath),
            "--k-window", "-3", "--count", "3", expect_ok=False,
        )
        self._assert_input_error(proc, "k_window must be at least 0 (got -3)")

    def test_verify_input_beyond_the_enumeration_budget(self, tmp_path, vc_table):
        from twkern.replacement import format_table

        gpath = tmp_path / "grid.gr"
        gpath.write_text(format_graph(make_grid(5)))
        tpath = tmp_path / "t.txt"
        tpath.write_text(format_table(vc_table))
        out = self._run(
            "verify", "--problem", "vertex-cover", "--table", str(tpath), "--input", str(gpath)
        )
        assert out.stdout == "checked 3 (instance, k) pairs on 1 instances\nviolations: 0\n"

    def test_verify_input_rejects_corpus_flags(self, tmp_path, vc_table):
        from twkern.replacement import format_table

        gpath = tmp_path / "g.gr"
        gpath.write_text(format_graph(path_graph(5)))
        tpath = tmp_path / "t.txt"
        tpath.write_text(format_table(vc_table))
        verify = (
            "verify", "--problem", "vertex-cover", "--table", str(tpath), "--input", str(gpath),
        )
        for extra, named in (
            (("--count", "10"), "--count"),  # the default value, given explicitly
            (("--family", "grid", "--seed=3"), "--family, --seed"),
            (("--n-min", "4", "--n-max", "9", "--grid-t", "3"), "--n-min, --n-max, --grid-t"),
            (("--tree-size", "2", "--pendants", "1"), "--tree-size, --pendants"),
        ):
            proc = self._run(*verify, *extra, expect_ok=False)
            self._assert_input_error(proc, f"corpus flags do not apply with --input: {named}")

    def test_flag_the_family_does_not_read_exits_2(self, tmp_path, vc_table):
        from twkern.replacement import format_table

        tpath = tmp_path / "t.txt"
        tpath.write_text(format_table(vc_table))
        for verb, family, flag, value in (
            ("experiment", "grid", "--count", "5"),
            ("verify", "random-planar", "--tree-size", "3"),
            ("experiment", "union", "--grid-t", "3"),
            ("verify", "grid+pendants", "--n-min", "4"),
        ):
            proc = self._run(
                verb, "--problem", "vertex-cover", "--table", str(tpath),
                "--family", family, flag, value, expect_ok=False,
            )
            self._assert_input_error(proc, f"corpus family '{family}' does not read {flag}")

    def test_corpus_parameter_out_of_range_exits_2(self, tmp_path, vc_table):
        from twkern.replacement import format_table

        tpath = tmp_path / "t.txt"
        tpath.write_text(format_table(vc_table))
        for verb, extra, line in (
            ("verify", ("--count", "0"), "--count must be at least 1 (got 0)"),
            ("experiment", ("--family", "union", "--count", "-3"),
             "--count must be at least 1 (got -3)"),
            ("verify", ("--n-min", "10", "--n-max", "5"), "--n-min (10) exceeds --n-max (5)"),
            ("experiment", ("--n-max", "5"), "--n-min (8) exceeds --n-max (5)"),
            ("verify", ("--family", "grid+pendants", "--tree-size", "0"),
             "--tree-size must be at least 1 (got 0)"),
            ("experiment", ("--family", "grid+pendants", "--pendants", "-1"),
             "--pendants must be at least 0 (got -1)"),
            ("verify", ("--family", "grid", "--grid-t", "0"), "--grid-t must be at least 1 (got 0)"),
            ("verify", ("--family", "grid+pendants", "--grid-t", "2", "--pendants", "5"),
             "--pendants (5) exceeds --grid-t squared (4)"),
            ("experiment", ("--family", "grid+pendants", "--grid-t", "1"),
             "--pendants (3) exceeds --grid-t squared (1)"),
        ):
            proc = self._run(
                verb, "--problem", "vertex-cover", "--table", str(tpath), *extra,
                expect_ok=False,
            )
            self._assert_input_error(proc, line)

    def test_verify_of_nothing_exits_2(self, tmp_path, vc_table, monkeypatch, capsys):
        from twkern import cli, harness
        from twkern.replacement import format_table

        tpath = tmp_path / "t.txt"
        tpath.write_text(format_table(vc_table))
        monkeypatch.setattr(harness, "gen_corpus", lambda family, params, seed: [])
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["verify", "--problem", "vertex-cover", "--table", str(tpath)])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "twkern: error: verify checked 0 (instance, k) pairs: "
            "no soundness claim rests on an empty run\n"
        )

    def test_no_timing_belongs_to_experiment(self, tmp_path, vc_table):
        from twkern.replacement import format_table

        tpath = tmp_path / "t.txt"
        tpath.write_text(format_table(vc_table))
        proc = self._run(
            "verify", "--problem", "vertex-cover", "--table", str(tpath), "--no-timing",
            expect_ok=False,
        )
        assert proc.returncode == 2
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert "twkern: error: unrecognized arguments: --no-timing\n" in proc.stderr

    def test_table_build_cli(self, tmp_path):
        tpath = tmp_path / "vc.txt"
        self._run(
            "table-build", "--problem", "vertex-cover", "--t", "1",
            "--size-bound", "5", "--certify", "off", "--out", str(tpath),
        )
        from twkern.replacement import parse_table

        table = parse_table(tpath.read_text())
        assert len(table) >= 4
