"""Catalog of vertex subset problems with feasibility predicates and oracles.

Every oracle returns an integer optimum and a witness set: every graph has a
feasible set (see ProblemDefinition), so there is no "infeasible" optimum.
`opt_brute` is the reference oracle: plain subset enumeration ordered by size,
driven only by the feasibility predicate; it checks that contract and enforces
its own size budget.  `opt_fast` runs the problem's exact solver (one
search per problem, see `solvers`) and is validated against `opt_brute` in
the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from . import solvers
from .dp import (
    DominatingSetMachine,
    FeedbackVertexSetMachine,
    IndependentSetMachine,
    Machine,
    VertexCoverMachine,
)
from .graphs import BudgetError, Graph, adjacency_masks
from .treedec import exact_treewidth

BRUTE_BUDGET = 22  # largest graph subset enumeration is run on


@dataclass(frozen=True)
class ProblemDefinition:
    """A vertex subset problem: optimize |S| subject to feasibility(G, S).

    This is the one record per problem: a new problem is one CATALOG entry.
    `solver` is the exact oracle on adjacency masks; it returns an optimal
    solution as a vertex mask, whose size is the optimum.  It and `probe`
    run the problem's one search in `solvers`: branch and bound for vertex
    cover and feedback vertex set, vertex cover's for independent set, and a
    memoized recursion for dominating set.
    `probe(gadget_masks, b)` takes a gadget's `graphs.gadget_plan` and runs
    the part of the certificate search that no context changes; it returns
    a function `(plan, memo) -> int` that answers the optimum of the gadget
    glued onto the context of one `graphs.glue_plan`, with a memo that the
    context shares between gadgets (see `solvers`).  Only exact optima go
    into the memo, and no decision of the gadget half may read the context.
    `solvers.solver_probe(solver)` glues and solves each glued graph afresh;
    it is the starting probe of a new problem.
    `machine` is the tree-decomposition DP that computes optima and boundary
    signatures, hence the replacement tables; a problem enters the catalog
    only with one.
    `dp_width_cap` is the decomposition width up to which the reference
    oracle trusts the DP over subset enumeration, on instances too large
    for `solver`'s rung.

    Contract: every graph has a feasible set.  V is feasible for a
    minimization and the empty set for a maximization, so every optimum is
    an integer in 0..n.
    """

    name: str
    feasibility: Callable[[Graph, frozenset[int]], bool]
    separability_f: Callable[[int], int]
    solver: Callable[[list[int]], int]
    probe: Callable[[tuple[int, ...], int], Callable[[tuple, dict], int]]
    maximize: bool
    minor_closed: bool
    machine: Machine
    dp_width_cap: int


def phi_vertex_cover(g: Graph, s: frozenset[int]) -> bool:
    return all(u in s or v in s for u, v in g.edges)


def phi_independent_set(g: Graph, s: frozenset[int]) -> bool:
    return not any(u in s and v in s for u, v in g.edges)


def phi_dominating_set(g: Graph, s: frozenset[int]) -> bool:
    return g.closed_neighborhood(s) == frozenset(g.vertices)


def phi_feedback_vertex_set(g: Graph, s: frozenset[int]) -> bool:
    return g.delete_vertices(s)[0].is_acyclic()


def _linear(t: int) -> int:
    return t


CATALOG: dict[str, ProblemDefinition] = {
    p.name: p
    for p in (
        ProblemDefinition(
            "vertex-cover", phi_vertex_cover, _linear, solvers.vertex_cover_opt,
            solvers.vertex_cover_probe,
            maximize=False, minor_closed=True, machine=VertexCoverMachine(), dp_width_cap=10,
        ),
        ProblemDefinition(
            "independent-set", phi_independent_set, _linear, solvers.independent_set_opt,
            solvers.independent_set_probe,
            maximize=True, minor_closed=False, machine=IndependentSetMachine(), dp_width_cap=10,
        ),
        ProblemDefinition(
            "dominating-set", phi_dominating_set, lambda t: 2 * t, solvers.dominating_set_opt,
            solvers.dominating_set_probe,
            maximize=False, minor_closed=False, machine=DominatingSetMachine(), dp_width_cap=7,
        ),
        ProblemDefinition(
            "feedback-vertex-set", phi_feedback_vertex_set, _linear,
            solvers.feedback_vertex_set_opt,
            solvers.solver_probe(solvers.feedback_vertex_set_opt),
            maximize=False, minor_closed=True, machine=FeedbackVertexSetMachine(), dp_width_cap=5,
        ),
    )
}


def get_problem(name: str) -> ProblemDefinition:
    if name not in CATALOG:
        raise ValueError(f"unknown problem {name!r}; choose from {sorted(CATALOG)}")
    return CATALOG[name]


# ---------------------------------------------------------------------------
# oracles


def opt_brute(p: ProblemDefinition, g: Graph) -> tuple[int, frozenset[int]]:
    """Reference oracle: subset enumeration ordered by size.

    Minimization stops at the first feasible size; maximization walks sizes
    upward and stops at the first size with no feasible set (all cataloged
    maximization problems are closed under taking subsets).  Raises
    AssertionError when p breaks the contract on g: V (minimization) or the
    empty set (maximization) infeasible.
    """
    if g.n > BRUTE_BUDGET:
        raise BudgetError(f"opt_brute budget is {BRUTE_BUDGET} vertices (got {g.n})")
    verts = list(g.vertices)
    trivial = frozenset() if p.maximize else frozenset(verts)
    if not p.feasibility(g, trivial):
        side = "the empty set" if p.maximize else "V"
        raise AssertionError(f"{p.name} breaks the feasibility contract: {side} fails on {g!r}")
    if p.maximize:
        best = trivial
        for k in range(1, g.n + 1):
            found = next(
                (s for s in map(frozenset, combinations(verts, k)) if p.feasibility(g, s)), None
            )
            if found is None:
                break
            best = found
        return len(best), best
    for k in range(g.n):
        for s in map(frozenset, combinations(verts, k)):
            if p.feasibility(g, s):
                return k, s
    return g.n, trivial


def opt_fast(p: ProblemDefinition, g: Graph) -> tuple[int, frozenset[int]]:
    """Optimum value and witness set from the problem's exact solver, whose
    witness mask's size is the value; validated against opt_brute in tests."""
    witness = p.solver(adjacency_masks(g))
    return witness.bit_count(), frozenset(v for v in range(g.n) if witness >> v & 1)


# ---------------------------------------------------------------------------
# empirical checkers


@dataclass(frozen=True)
class SeparabilityReport:
    ok: bool
    boundary_size: int
    sol_in_part: int
    opt_induced: int
    allowed: int
    deviation: int


def check_separability(p: ProblemDefinition, g: Graph, part: frozenset[int]) -> SeparabilityReport:
    """Does OPT on G[part] stay within f(|∂(part)|) of the global optimum's
    restriction to the part?  Both optima come from subset enumeration.
    """
    t = len(g.boundary(part))
    allowed = p.separability_f(t)
    _, witness = opt_brute(p, g)
    opt_l, _ = opt_brute(p, g.induced_subgraph(part)[0])
    sol_in = len(witness & part)
    deviation = abs(sol_in - opt_l)
    return SeparabilityReport(deviation <= allowed, t, sol_in, opt_l, allowed, deviation)


@dataclass(frozen=True)
class BidimensionalityRow:
    k: int
    opt: int
    ratio: float


def check_bidimensionality(p: ProblemDefinition, kmax: int) -> list[BidimensionalityRow]:
    """OPT on the grid family (triangulated grids for contraction-closed-only
    problems) by the exact solver, with the OPT / k^2 ratio per row.

    The optimum must grow with the grid: a non-positive ratio anywhere in the
    table is a contract violation and raises.
    """
    from .graphs import make_gamma, make_grid

    family = make_grid if p.minor_closed else make_gamma
    rows = []
    for k in range(2, kmax + 1):
        opt, _ = opt_fast(p, family(k))
        rows.append(BidimensionalityRow(k, opt, opt / (k * k)))
    if rows and min(r.ratio for r in rows) <= 0:
        raise AssertionError(f"optimum fails to grow quadratically for {p.name}")
    return rows


@dataclass(frozen=True)
class ParameterTreewidthReport:
    pairs: list[tuple[int, int]]  # (treewidth, opt) per instance
    fitted_exponent: float


def check_parameter_treewidth(
    p: ProblemDefinition, corpus: list[Graph]
) -> ParameterTreewidthReport:
    """Collect (treewidth, OPT) pairs over a corpus, OPT by the exact solver,
    and fit tw ~ OPT^eps."""
    import statistics  # only here: it loads decimal and fractions

    pairs = []
    for g in corpus:
        w, _ = exact_treewidth(g)
        opt, _ = opt_fast(p, g)
        pairs.append((w, opt))
    usable = [(w, o) for w, o in pairs if w >= 1 and o >= 2]
    if len({o for _, o in usable}) >= 2:  # a slope needs two distinct OPT values
        xs = [math.log(o) for _, o in usable]
        ys = [math.log(w) for w, _ in usable]
        exponent = statistics.linear_regression(xs, ys).slope
    else:
        exponent = 0.0
    return ParameterTreewidthReport(pairs, exponent)
