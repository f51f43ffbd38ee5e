"""Batch harness: corpus generation, kernel soundness checks, CSV reports.

Corpora are deterministic per seed.  Soundness verification decides membership
on both sides of a kernelization with `reference_oracle` (tree-decomposition DP
where supported and narrow enough, subset enumeration otherwise) and reports
any disagreement verbatim.  Optima are integers; each oracle enforces its own
budget and raises BudgetError past it, which `verify_kernel_soundness` passes
on with the instance index.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field

from .dp import solve_via_dp
from .graphs import BudgetError, Graph, disjoint_union, make_grid
from .problems import BRUTE_BUDGET, ProblemDefinition, opt_brute, opt_fast
from .replacement import KernelInstance, ReplacementTable, kernelize
from .treedec import heuristic_decomposition


# ---------------------------------------------------------------------------
# corpus generation


def _random_tree_edges(rng: random.Random, n: int, offset: int = 0) -> list[tuple[int, int]]:
    return [(offset + rng.randrange(i), offset + i) for i in range(1, n)]


def _random_maximal_planar(rng: random.Random, n: int) -> tuple[Graph, list[tuple]]:
    """Random planar triangulation and its faces: insert each new vertex into a
    random face.  Below 3 vertices it is a path with no faces."""
    if n < 3:
        return Graph(n, [(i, i + 1) for i in range(n - 1)]), []
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2), (0, 1, 2)]  # both sides of the starting triangle
    for v in range(3, n):
        idx = rng.randrange(len(faces))
        a, b, c = faces.pop(idx)
        for x, y in ((a, v), (b, v), (c, v)):
            edges.add((x, y) if x < y else (y, x))
        faces.extend([(a, b, v), (a, c, v), (b, c, v)])
    return Graph(n, edges), faces


def _triangulates_sphere(g: Graph, faces: list[tuple[int, int, int]]) -> bool:
    """Whether the triangles `faces` are the faces of a sphere embedding of g:
    every edge of g is a side of two faces and no other side occurs, the faces
    at each vertex close into one cycle (its link), g is connected and
    n - m + f = 2.  Linear in the number of faces."""
    sides: Counter[tuple[int, int]] = Counter()
    links: list[dict[int, list[int]]] = [{} for _ in range(g.n)]
    for a, b, c in faces:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            sides[(x, y) if x < y else (y, x)] += 1
            links[x].setdefault(y, []).append(z)
            links[x].setdefault(z, []).append(y)
    if sides.keys() != g.edges or any(count != 2 for count in sides.values()):
        return False
    for link in links:
        if not link or any(len(nbrs) != 2 for nbrs in link.values()):
            return False
        # walk the link's cycle from one vertex; it must pass every vertex
        seen, prev, cur = set(), None, next(iter(link))
        while cur not in seen:
            seen.add(cur)
            u, w = link[cur]
            prev, cur = cur, w if u == prev else u
        if len(seen) != len(link):
            return False
    return g.is_connected() and g.n - g.m + len(faces) == 2


def _random_planar(rng: random.Random, n: int, keep_prob: float = 0.75) -> Graph:
    """Random maximal planar construction, then random edge deletion.  The
    triangulation is certified planar from its faces (a certifying check, not
    an assumption); deleting edges keeps it planar."""
    g, faces = _random_maximal_planar(rng, n)
    if n >= 3 and not _triangulates_sphere(g, faces):
        raise AssertionError("planarity certificate failed on a generated triangulation")
    edges = [e for e in sorted(g.edges) if rng.random() < keep_prob]
    return Graph(n, edges)


def _grid_with_pendants(
    rng: random.Random, t: int, tree_size: int, n_trees: int
) -> Graph:
    g = make_grid(t)
    edges = set(g.edges)
    n = g.n
    anchors = rng.sample(range(g.n), min(n_trees, g.n))
    for anchor in anchors:
        edges.add((anchor, n) if anchor < n else (n, anchor))
        edges.update(_random_tree_edges(rng, tree_size, offset=n))
        n += tree_size
    return Graph(n, edges)


def gen_corpus(family: str, params: dict, seed: int) -> list[Graph]:
    """Deterministic instance corpus.

    Families: 'grid' (params: t or t_values), 'grid+pendants' (t, tree_size,
    pendants, count), 'random-planar' (n_min, n_max, count, keep_prob),
    'union' (piece grids: t_values, count).
    """
    rng = random.Random(seed)
    if family == "grid":
        ts = params.get("t_values", [params.get("t", 3)])
        return [make_grid(t) for t in ts]
    if family == "grid+pendants":
        count = params.get("count", 1)
        t = params.get("t", 4)
        tree_size = params.get("tree_size", 15)
        pendants = params.get("pendants", 3)
        return [_grid_with_pendants(rng, t, tree_size, pendants) for _ in range(count)]
    if family == "random-planar":
        count = params.get("count", 10)
        n_min = params.get("n_min", 8)
        n_max = params.get("n_max", 22)
        keep = params.get("keep_prob", 0.75)
        return [_random_planar(rng, rng.randint(n_min, n_max), keep) for _ in range(count)]
    if family == "union":
        count = params.get("count", 5)
        ts = params.get("t_values", [2, 3])
        out = []
        for _ in range(count):
            g = make_grid(rng.choice(ts))
            for _ in range(rng.randint(1, 2)):
                g = disjoint_union(g, make_grid(rng.choice(ts)))
            out.append(g)
        return out
    raise ValueError(f"unknown corpus family {family!r}")


# ---------------------------------------------------------------------------
# membership oracle


def reference_oracle(p: ProblemDefinition, g: Graph) -> int:
    """Reference optimum: tree-decomposition DP when the problem is supported
    and the decomposition is narrow enough, plain subset enumeration otherwise.
    Raises BudgetError when neither is within budget.
    """
    if p.dp_width_cap is not None:
        td = heuristic_decomposition(g)
        if td.width <= p.dp_width_cap:
            return solve_via_dp(p, g, td)[0]
    return opt_brute(p, g)[0]


def is_member(p: ProblemDefinition, opt: int, k: int) -> bool:
    """(G, k) membership from the optimum, honoring the negative-k convention
    (minimization: no-instance for k < 0; maximization: yes-instance)."""
    return opt >= k if p.maximize else opt <= k


# ---------------------------------------------------------------------------
# soundness verification


@dataclass(frozen=True)
class SoundnessRow:
    instance_id: int
    n: int
    k: int
    member_before: bool
    member_after: bool
    kernel_n: int
    k_prime: int

    @property
    def ok(self) -> bool:
        return (
            self.member_before == self.member_after
            and self.kernel_n <= self.n
            and self.k_prime <= self.k
        )


@dataclass
class SoundnessReport:
    rows: list[SoundnessRow] = field(default_factory=list)

    @property
    def violations(self) -> list[SoundnessRow]:
        return [r for r in self.rows if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_kernel_soundness(
    p: ProblemDefinition,
    corpus: list[Graph],
    table: ReplacementTable,
    k_window: int = 1,
    eta: int | None = None,
    oracle=reference_oracle,
) -> SoundnessReport:
    """Is (G, k) in the problem iff the kernelized instance is, for k around
    the optimum?  Membership on both sides comes from `oracle`.  A BudgetError
    from it is raised again with the instance index in front.

    `eta` does nothing.  It selected modulator seeding, which is gone; it is
    still accepted because the `verify-planar` benchmark workload passes
    `eta=1`, and goes when that workload stops passing it.
    """
    report = SoundnessReport()
    for idx, g in enumerate(corpus):
        try:
            opt = oracle(p, g)
            for k in range(opt - k_window, opt + k_window + 1):
                kern = kernelize(p, g, k, table)
                opt_after = oracle(p, kern.graph)
                row = SoundnessRow(
                    idx,
                    g.n,
                    k,
                    is_member(p, opt, k),
                    is_member(p, opt_after, kern.k),
                    kern.graph.n,
                    kern.k,
                )
                report.rows.append(row)
        except BudgetError as e:
            raise BudgetError(f"instance {idx}: {e}") from e
    return report


# ---------------------------------------------------------------------------
# experiments


@dataclass(frozen=True)
class ExperimentRow:
    instance_id: int
    n: int
    m: int
    k: int
    kernel_n: int
    kernel_m: int
    k_prime: int
    replacements: int
    wall_time: float


@dataclass
class ExperimentReport:
    family: str
    seed: int
    rows: list[ExperimentRow] = field(default_factory=list)
    # instances planted k = 0 because no oracle was within budget
    unplanted: int = 0

    @property
    def max_ratio(self) -> float:
        ratios = [r.kernel_n / r.k for r in self.rows if r.k > 0]
        return max(ratios, default=float("nan"))

    def to_csv(self) -> str:
        lines = [
            f"# family={self.family} seed={self.seed}",
            "instance_id,n,m,k,kernel_n,kernel_m,k_prime,replacements,wall_time",
        ]
        for r in self.rows:
            lines.append(
                f"{r.instance_id},{r.n},{r.m},{r.k},{r.kernel_n},{r.kernel_m},"
                f"{r.k_prime},{r.replacements},{r.wall_time:.3f}"
            )
        return "\n".join(lines) + "\n"


def experiment_k(p: ProblemDefinition, g: Graph) -> int | None:
    """The parameter an experiment plants: the optimum via the cheapest oracle
    able to handle the instance (branch and bound within the oracle budget,
    the width-capped DP beyond it), or None when no oracle is within budget.
    """
    if g.n <= BRUTE_BUDGET:
        return opt_fast(p, g)[0]
    try:
        return reference_oracle(p, g)
    except BudgetError:  # too wide for the DP, too large to enumerate
        return None


def run_experiment(
    p: ProblemDefinition,
    corpus: list[Graph],
    table: ReplacementTable,
    family: str = "custom",
    seed: int = 0,
    deterministic_timing: bool = False,
) -> ExperimentReport:
    """Kernelize every instance at k = OPT and record the shrinkage.  Where no
    oracle is within budget, k = 0 is planted and counted in `unplanted`.

    deterministic_timing zeroes the wall_time column so reports are
    byte-identical across runs (timings are inherently noisy).
    """
    report = ExperimentReport(family, seed)
    for idx, g in enumerate(corpus):
        k = experiment_k(p, g)
        if k is None:
            report.unplanted += 1
            k = 0
        t0 = time.perf_counter()
        kern: KernelInstance = kernelize(p, g, k, table)
        dt = 0.0 if deterministic_timing else time.perf_counter() - t0
        row = ExperimentRow(
            idx, g.n, g.m, k, kern.graph.n, kern.graph.m, kern.k, len(kern.trace), dt
        )
        if row.kernel_n > row.n or row.k_prime > row.k:
            raise AssertionError(f"report invariant violated on instance {idx}")
        report.rows.append(row)
    return report

