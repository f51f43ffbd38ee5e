"""Batch harness: corpus generation, kernel soundness checks, CSV reports.

Corpora are deterministic per seed.  Soundness verification decides membership
on both sides of a kernelization with `reference_oracle` and reports any
disagreement verbatim.  That oracle is one ladder: the exact solver within
BRUTE_BUDGET vertices, the width-capped tree-decomposition DP beyond it;
experiments plant k from the same ladder.  Optima are integers.  Past the
DP's cap no oracle answers: subset enumeration raises its BudgetError, which
`verify_kernel_soundness` passes on with the instance index.
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
# corpus families: a family reads exactly its keyword-only parameters, whose
# defaults are the family's defaults (for gen_corpus and the command line)


def _random_maximal_planar(rng: random.Random, n: int) -> tuple[Graph, list[tuple]]:
    """Random stacked triangulation (a planar 3-tree) and its faces: insert
    each new vertex into a random face.  Below 3 vertices it is a path with
    no faces."""
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


def _grid(rng: random.Random, *, t: int = 4) -> list[Graph]:
    """The t×t grid."""
    return [make_grid(t)]


def _grid_with_pendants(
    rng: random.Random, *, count: int = 10, t: int = 4, tree_size: int = 15, pendants: int = 3
) -> list[Graph]:
    """`count` t×t grids, each with `pendants` random trees of `tree_size`
    vertices hung off distinct random grid vertices."""
    corpus = []
    for _ in range(count):
        g = make_grid(t)
        edges = set(g.edges)
        n = g.n
        for anchor in rng.sample(range(g.n), pendants):
            edges.add((anchor, n))
            edges.update((n + rng.randrange(i), n + i) for i in range(1, tree_size))
            n += tree_size
        corpus.append(Graph(n, edges))
    return corpus


def _random_planar(
    rng: random.Random, *, count: int = 10, n_min: int = 8, n_max: int = 22,
    keep_prob: float = 0.75,
) -> list[Graph]:
    """`count` random planar graphs of n_min..n_max vertices: a stacked
    triangulation (a planar 3-tree) with edges deleted, each kept with
    probability `keep_prob`, so treewidth <= 3.  The triangulation is
    certified planar from its faces (a certifying check, not an assumption);
    deleting edges keeps it planar."""
    corpus = []
    for _ in range(count):
        n = rng.randint(n_min, n_max)
        g, faces = _random_maximal_planar(rng, n)
        if n >= 3 and not _triangulates_sphere(g, faces):
            raise AssertionError("planarity certificate failed on a generated triangulation")
        corpus.append(Graph(n, [e for e in sorted(g.edges) if rng.random() < keep_prob]))
    return corpus


def _grid_union(
    rng: random.Random, *, count: int = 10, t_values: tuple[int, ...] = (2, 3)
) -> list[Graph]:
    """`count` disjoint unions of two or three grids, each of a side drawn
    from `t_values`."""
    corpus = []
    for _ in range(count):
        g = make_grid(rng.choice(t_values))
        for _ in range(rng.randint(1, 2)):
            g = disjoint_union(g, make_grid(rng.choice(t_values)))
        corpus.append(g)
    return corpus


FAMILIES = {
    "grid": _grid,
    "grid+pendants": _grid_with_pendants,
    "random-planar": _random_planar,
    "union": _grid_union,
}
DEFAULT_FAMILY = "random-planar"


def family_parameters(family: str) -> dict[str, object]:
    """The parameters corpus family `family` reads, with their defaults."""
    import inspect

    params = inspect.signature(FAMILIES[family]).parameters.values()
    return {p.name: p.default for p in params if p.kind is p.KEYWORD_ONLY}


# the least value of each bounded corpus parameter: a corpus has an instance,
# a grid a vertex, a pendant tree a vertex
LEAST_VALUES = {"count": 1, "t": 1, "tree_size": 1, "pendants": 0, "n_min": 0}


class CorpusParameterError(ValueError):
    """A corpus parameter out of its range.  The message is `template` with
    the names of `parameters` filled in; `message(name)` renames them."""

    def __init__(self, template: str, *parameters: str):
        self.template = template
        self.parameters = parameters
        super().__init__(self.message(str))

    def message(self, name) -> str:
        return self.template.format(*map(name, self.parameters))


def gen_corpus(family: str, params: dict, seed: int) -> list[Graph]:
    """Deterministic instance corpus of a family in FAMILIES.  `params` sets
    some of the family's parameters; the others keep their defaults.  An
    unknown family, or a parameter the family does not read, is a ValueError;
    a parameter below its LEAST_VALUES entry, `n_min` above `n_max`, or more
    `pendants` than the t×t grid has vertices, is a CorpusParameterError
    naming the parameters.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown corpus family {family!r}")
    reads = family_parameters(family)
    unread = [name for name in params if name not in reads]
    if unread:
        raise ValueError(f"corpus family {family!r} does not read {', '.join(unread)}")
    values = {**reads, **params}
    for name, least in LEAST_VALUES.items():
        if name in values and values[name] < least:
            raise CorpusParameterError(f"{{}} must be at least {least} (got {values[name]})", name)
    if "n_min" in values and values["n_min"] > values["n_max"]:
        raise CorpusParameterError(
            f"{{}} ({values['n_min']}) exceeds {{}} ({values['n_max']})", "n_min", "n_max"
        )
    if "pendants" in values and values["pendants"] > values["t"] ** 2:
        raise CorpusParameterError(
            f"{{}} ({values['pendants']}) exceeds {{}} squared ({values['t'] ** 2})",
            "pendants",
            "t",
        )
    return FAMILIES[family](random.Random(seed), **params)


# ---------------------------------------------------------------------------
# membership oracle


def reference_oracle(p: ProblemDefinition, g: Graph) -> int:
    """Reference optimum from the first oracle on the ladder that answers:
    the problem's exact solver within BRUTE_BUDGET vertices, the
    tree-decomposition DP beyond it when its decomposition is within
    `dp_width_cap`.  Past the DP's cap no oracle answers: the call reaches
    `opt_brute` only over its budget, and its BudgetError names that budget.
    """
    if g.n <= BRUTE_BUDGET:
        return opt_fast(p, g)[0]
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
    from it is raised again with the instance index in front.  A negative
    `k_window` would check nothing and raises ValueError.

    `eta` does nothing.  It selected modulator seeding, which is gone; it is
    still accepted because the `verify-planar` benchmark workload passes
    `eta=1`, and goes when that workload stops passing it.
    """
    if k_window < 0:
        raise ValueError(f"k_window must be at least 0 (got {k_window})")
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
    """The parameter an experiment plants: the optimum from `reference_oracle`,
    or None when no oracle is within budget."""
    try:
        return reference_oracle(p, g)
    except BudgetError:
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

