"""The three workloads: set-up, the fixed list of operations, and the checks.

Each workload imports the program in `setup` (so that import time is part of
set-up), builds its inputs from the seed, and exposes `ops()`: a fixed list of
calls into the program.  `observe` turns an output into plain data and
`check` compares that data with reference.py, returning one list of problems
per counted operation (empty when it passed).  Only the public functions of
the program and its documented text formats are used, so the benchmark keeps
running while the internals change.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import reference


@dataclass
class Op:
    """One call into the program; it decides one counted operation, or one
    per entry of `sub_labels`."""

    label: str
    run: Callable[[], object]
    key: object = None  # what the workload needs to check the output
    sub_labels: list[str] = field(default_factory=list)

    def labels(self) -> list[str]:
        return self.sub_labels or [self.label]


def _parse_table_text(text: str) -> dict:
    """Read the replacement-table text format (see the top-level README)
    without the program's parser."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    _, problem, t, max_rep, nrows = lines[0].split()
    rows = []
    i = 1
    while i < len(lines):
        _, b, offset = lines[i].split()
        entries = tuple(None if tok == "inf" else int(tok) for tok in lines[i + 1].split()[1:])
        n, m = map(int, lines[i + 2].split())
        edges = tuple(
            sorted(tuple(int(x) - 1 for x in lines[i + 3 + j].split())) for j in range(m)
        )
        i += 3 + m
        labels = {}
        while lines[i] != "endrow":
            _, v, lab = lines[i].split()
            labels[int(lab)] = int(v) - 1
            i += 1
        i += 1
        rows.append(
            {
                "b": int(b),
                "offset": int(offset),
                "entries": entries,
                "n": n,
                "edges": edges,
                "labels": labels,
            }
        )
    return {"problem": problem, "t": int(t), "max_rep": int(max_rep), "nrows": int(nrows), "rows": rows}


def _is_tree(n: int, edges) -> bool:
    if len(edges) != n - 1:
        return False
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


class TableCertify:
    """Certified table construction, the costliest stage for a user."""

    name = "table-certify"
    PROBLEMS = ("vertex-cover", "dominating-set")
    T = 1
    SIZE_BOUND = 6
    CERTIFY = "thorough"
    # what the 'thorough' level probes: every context up to 7 vertices plus
    # 1000 random ones
    CONTEXT_MAX_N = 7
    RANDOM_CONTEXTS = 1000
    SPOT_CHECKS = 24

    def __init__(self, damage: bool = False):
        self.damage = damage
        self._classes: dict[str, dict] = {}

    def setup(self, seed: int) -> None:
        import twkern.problems
        import twkern.replacement

        self.seed = seed
        self.problems = twkern.problems
        self.replacement = twkern.replacement

    def ops(self) -> list[Op]:
        return [Op(name, lambda name=name: self._build(name)) for name in self.PROBLEMS]

    def _build(self, name: str):
        p = self.problems.get_problem(name)
        return self.replacement.build_replacement_table(
            p, self.T, self.SIZE_BOUND, certify=self.CERTIFY, rng_seed=self.seed
        )

    def classes(self, problem: str) -> dict:
        if problem not in self._classes:
            self._classes[problem] = reference.signature_classes(problem, self.SIZE_BOUND, self.T)
        return self._classes[problem]

    def observe(self, op: Op, table) -> dict:
        text = self.replacement.format_table(table)
        round_trip = self.replacement.format_table(self.replacement.parse_table(text)) == text
        if self.damage:
            # hand-edit the offset of the first boundaried row
            lines = text.split("\n")
            i = next(i for i, ln in enumerate(lines) if ln.startswith("row 1 "))
            lines[i] = "row 1 -5"
            text = "\n".join(lines)
        contexts = {
            b: Counter(bg.graph.n for bg in self.replacement.certificate_contexts(b, self.CONTEXT_MAX_N))
            for b in range(self.T + 1)
        }
        return {"text": text, "round_trip": round_trip, "contexts": contexts}

    def check(self, op: Op, seen: dict) -> list[list[str]]:
        problem = op.label
        out: list[str] = []
        if not seen["round_trip"]:
            out.append("format_table(parse_table(text)) differs from text")
        table = _parse_table_text(seen["text"])
        if (table["problem"], table["t"]) != (problem, self.T):
            out.append(f"header names {table['problem']} t={table['t']}")
        if table["nrows"] != len(table["rows"]):
            out.append(f"header counts {table['nrows']} rows, file has {len(table['rows'])}")
        classes = self.classes(problem)
        reps = {}
        for row in table["rows"]:
            key = (row["b"], row["entries"])
            tag = f"row b={row['b']} sig={row['entries']}"
            if key in reps:
                out.append(f"{tag}: duplicate signature")
            if sorted(row["labels"]) != list(range(1, row["b"] + 1)):
                out.append(f"{tag}: labels {sorted(row['labels'])} are not 1..b")
                continue
            gadget = (row["n"], row["edges"], tuple(row["labels"][i + 1] for i in range(row["b"])))
            if row["n"] > self.SIZE_BOUND or not _is_tree(row["n"], row["edges"]):
                out.append(f"{tag}: representative is not a tree of at most {self.SIZE_BOUND} vertices")
                continue
            entries, offset = reference.signature(problem, gadget)
            if (entries, offset) != (row["entries"], row["offset"]):
                out.append(
                    f"{tag} offset {row['offset']}: representative has signature "
                    f"{entries} offset {offset}"
                )
            if key not in classes:
                out.append(f"{tag}: no tree gadget realizes this signature")
            elif row["n"] != classes[key]["min_n"]:
                out.append(
                    f"{tag}: representative has {row['n']} vertices, "
                    f"the smallest member has {classes[key]['min_n']}"
                )
            reps[key] = (gadget, row["offset"])
        for key, cls in classes.items():
            if key not in reps:
                out.append(
                    f"class b={key[0]} sig={key[1]} (smallest member {cls['min_n']} vertices) "
                    "is missing from the table"
                )
        if table["max_rep"] != max((r["n"] for r in table["rows"]), default=0):
            out.append(f"header max_rep_size {table['max_rep']} is not the largest representative")
        published = {0: reference.CONNECTED_GRAPHS, 1: reference.ROOTED_CONNECTED_GRAPHS}
        for b, counts in seen["contexts"].items():
            want = published[b][: self.CONTEXT_MAX_N]
            got = tuple(counts.get(n, 0) for n in range(1, self.CONTEXT_MAX_N + 1))
            if got != want:
                out.append(
                    f"certificate contexts with b={b} by vertex count are {got} "
                    f"({sum(got)}), published counts are {want} ({sum(want)})"
                )
        out.extend(self._spot_checks(problem, classes, reps))
        return [out]

    def _spot_checks(self, problem: str, classes: dict, reps: dict) -> list[str]:
        """OPT(rep + F) - OPT(member + F) must be the transposition constant."""
        rng = random.Random(f"{self.seed}-{problem}")
        keys = sorted((k for k in classes if k in reps), key=repr)
        out = []
        for _ in range(self.SPOT_CHECKS):
            key = rng.choice(keys)
            member, member_offset = rng.choice(classes[key]["members"])
            rep, rep_offset = reps[key]
            ctx = reference.random_context(rng, key[0], self.SIZE_BOUND)
            opt_member = reference.brute_opt(problem, *reference.glue(member, ctx))
            opt_rep = reference.brute_opt(problem, *reference.glue(rep, ctx))
            if opt_rep - opt_member != rep_offset - member_offset:
                out.append(
                    f"spot check b={key[0]} sig={key[1]}: OPT(rep+F)={opt_rep}, "
                    f"OPT(member+F)={opt_member}, constant {rep_offset - member_offset}"
                )
        return out

    def work_units(self) -> int:
        """Glued-context probes a complete certification makes: every member
        that is not its class representative is probed against every context."""
        contexts = {0: sum(reference.CONNECTED_GRAPHS), 1: sum(reference.ROOTED_CONNECTED_GRAPHS)}
        total = 0
        for problem in self.PROBLEMS:
            per_b = Counter(key[0] for key in self.classes(problem))
            for b in range(self.T + 1):
                members = len(reference.tree_gadgets(self.SIZE_BOUND, b))
                total += (members - per_b[b]) * (contexts[b] + self.RANDOM_CONTEXTS)
        return total

    def output_vertices(self, seen: list[dict]) -> int:
        return sum(row["n"] for s in seen for row in _parse_table_text(s["text"])["rows"])


class KernelizePendants:
    """Kernelization where protrusion search by boundary growth dominates."""

    name = "kernelize-pendants"
    PROBLEM = "vertex-cover"
    PARAMS = {"count": 4, "t": 6, "tree_size": 15, "pendants": 8}

    def __init__(self, damage: bool = False):
        self.damage = damage

    def setup(self, seed: int) -> None:
        import twkern.harness
        import twkern.problems
        import twkern.replacement

        self.replacement = twkern.replacement
        self.p = twkern.problems.get_problem(self.PROBLEM)
        self.corpus = twkern.harness.gen_corpus("grid+pendants", self.PARAMS, seed)
        # every instance is bipartite, so the optimum is a maximum matching
        self.ks = [reference.certified_vertex_cover_opt(g.n, g.edges) for g in self.corpus]
        text = self.replacement.format_table(
            self.replacement.build_replacement_table(self.p, 1, 6, certify="off")
        )
        self.table = self.replacement.parse_table(text)

    def ops(self) -> list[Op]:
        return [
            Op(f"instance {i} n={g.n} k={k}", lambda g=g, k=k: self._kernelize(g, k), key=i)
            for i, (g, k) in enumerate(zip(self.corpus, self.ks))
        ]

    def _kernelize(self, g, k):
        return self.replacement.kernelize(self.p, g, k, self.table)

    def observe(self, op: Op, inst) -> dict:
        k_prime = inst.k + 1 if self.damage else inst.k
        return {"n": inst.graph.n, "edges": sorted(inst.graph.edges), "k_prime": k_prime}

    def check(self, op: Op, seen: dict) -> list[list[str]]:
        g, k = self.corpus[op.key], self.ks[op.key]
        out = []
        if reference.certified_vertex_cover_opt(g.n, g.edges) != k:
            out.append("input optimum differs from k")
        if seen["n"] > g.n:
            out.append(f"kernel has {seen['n']} > {g.n} vertices")
        if seen["k_prime"] > k:
            out.append(f"k' = {seen['k_prime']} > k = {k}")
        try:
            opt = reference.certified_vertex_cover_opt(seen["n"], seen["edges"])
        except ValueError:
            out.append("kernel is not bipartite; its optimum was not certified")
        else:
            if opt != seen["k_prime"]:
                out.append(f"OPT(kernel) = {opt} but k' = {seen['k_prime']}")
        return [out]

    def work_units(self) -> int:
        return sum(g.n for g in self.corpus)

    def output_vertices(self, seen: list[dict]) -> int:
        return sum(s["n"] for s in seen)


class VerifyPlanar:
    """Soundness verification: exhaustive protrusion search, modulator seeding
    and the DP reference oracle on small planar graphs."""

    name = "verify-planar"
    PROBLEM = "feedback-vertex-set"
    # the same number of instances at every size up to the oracle budget, so
    # the seed changes the graphs but not the size mix
    SIZES = range(8, 23)
    PER_SIZE = 14
    K_WINDOW = 1
    ETA = 1

    def __init__(self, damage: bool = False):
        self.damage = damage
        self._opt_memo: dict = {}

    def setup(self, seed: int) -> None:
        import twkern.harness
        import twkern.problems
        import twkern.replacement

        self.harness = twkern.harness
        self.p = twkern.problems.get_problem(self.PROBLEM)
        self.corpus = [
            g
            for n in self.SIZES
            for g in self.harness.gen_corpus(
                "random-planar", {"count": self.PER_SIZE, "n_min": n, "n_max": n}, seed * 1000 + n
            )
        ]
        replacement = twkern.replacement
        text = replacement.format_table(
            replacement.build_replacement_table(self.p, 1, 6, certify="off")
        )
        self.table = replacement.parse_table(text)

    def ops(self) -> list[Op]:
        pairs = 2 * self.K_WINDOW + 1
        return [
            Op(
                f"instance {i} n={g.n}",
                lambda g=g, first=(i == 0): self._verify(g, first),
                sub_labels=[f"instance {i} n={g.n} k=OPT{j - self.K_WINDOW:+d}" for j in range(pairs)],
            )
            for i, g in enumerate(self.corpus)
        ]

    def _verify(self, g, first: bool):
        graphs = []

        def oracle(p, h):
            value = self.harness.reference_oracle(p, h)
            graphs.append(h)
            # the third call decides the kernel at k = OPT
            if self.damage and first and len(graphs) == 2 + self.K_WINDOW:
                value += 1
            return value

        report = self.harness.verify_kernel_soundness(
            self.p, [g], self.table, k_window=self.K_WINDOW, eta=self.ETA, oracle=oracle
        )
        return report.rows, graphs

    def observe(self, op: Op, output) -> dict:
        rows, graphs = output
        return {
            "rows": [
                (r.n, r.k, r.member_before, r.member_after, r.kernel_n, r.k_prime) for r in rows
            ],
            "graphs": [(h.n, tuple(sorted(h.edges))) for h in graphs],
        }

    def _fvs_opt(self, graph) -> int:
        if graph not in self._opt_memo:
            self._opt_memo[graph] = reference.fvs_opt(*graph)
        return self._opt_memo[graph]

    def check(self, op: Op, seen: dict) -> list[list[str]]:
        results = []
        pairs = len(op.labels())
        if len(seen["rows"]) != pairs or len(seen["graphs"]) != pairs + 1:
            return [[f"expected {pairs} pairs and {pairs + 1} oracle calls"]] * pairs
        opt = self._fvs_opt(seen["graphs"][0])
        for (n, k, before, after, kernel_n, k_prime), kernel in zip(seen["rows"], seen["graphs"][1:]):
            out = []
            mine_before = opt <= k
            mine_after = self._fvs_opt(kernel) <= k_prime
            if before != mine_before:
                out.append(f"k={k}: program says member={before}, OPT(G)={opt}")
            if after != mine_after:
                out.append(f"k={k}: program says kernel member={after}, independent solver {mine_after}")
            if mine_before != mine_after:
                out.append(f"k={k}: kernelization changed membership")
            if kernel[0] != kernel_n or kernel_n > n or k_prime > k:
                out.append(f"k={k}: kernel n={kernel_n} (graph {kernel[0]}), k'={k_prime}, input n={n}")
            results.append(out)
        return results

    def work_units(self) -> int:
        return len(self.corpus) * (2 * self.K_WINDOW + 1)

    def output_vertices(self, seen: list[dict]) -> int:
        return sum(row[4] for s in seen for row in s["rows"])


WORKLOADS = {w.name: w for w in (TableCertify, KernelizePendants, VerifyPlanar)}
