"""Balanced separations from tree decompositions and treewidth modulators.

A treewidth-eta-modulator is a vertex set whose deletion leaves treewidth at
most eta; every modulator returned here carries a validating decomposition of
the remainder as its certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import BudgetError, Graph, Separation
from .treedec import (
    TreeDecomposition,
    decide_treewidth,
    heuristic_decomposition,
    treewidth_at_most,
    validate_decomposition,
)

EXACT_MODULATOR_BUDGET = 16


def balanced_separation(g: Graph, q, td: TreeDecomposition) -> Separation:
    """A separation of order <= width(td)+1 that 2/3-balances q.

    Walks the decomposition nodes in id order; for each bag, the components of
    G - bag are packed onto two sides by an exact subset-sum check so that each
    strict side holds at most ceil(2|q|/3) vertices of q.  The first bag that
    admits such a packing wins (deterministic tie-break by bag id).
    """
    qs = frozenset(q)
    if g.n == 0:
        return Separation((), ())
    cap = -(-2 * len(qs) // 3)
    for bag in td.bags:
        comps = g.connected_components(avoid=bag)
        weights = [len(c & qs) for c in comps]
        total = sum(weights)
        lo = max(0, total - cap)
        if lo > cap:
            continue
        # 0/1 subset-sum over component q-weights, reconstructible
        reach: dict[int, tuple[int, int] | None] = {0: None}
        for idx, wt in enumerate(weights):
            for ssum in sorted(reach, reverse=True):
                ns = ssum + wt
                if ns <= cap and ns not in reach:
                    reach[ns] = (ssum, idx)
        feasible = sorted((s for s in reach if s >= lo), key=lambda s: (abs(total - 2 * s), s))
        if not feasible:
            continue
        chosen = set()
        cur = feasible[0]
        while reach[cur] is not None:
            prev, idx = reach[cur]
            chosen.add(idx)
            cur = prev
        side1: set[int] = set()
        side2: set[int] = set()
        for idx, comp in enumerate(comps):
            (side1 if idx in chosen else side2).update(comp)
        return Separation(side1 | set(bag), side2 | set(bag))
    raise RuntimeError("no bag of the decomposition admits a balanced packing")


@dataclass(frozen=True)
class Modulator:
    """A certified treewidth-eta-modulator.

    The certificate is a decomposition of G - vertices over the canonical
    (sorted-order) relabeling used by Graph.induced_subgraph.
    """

    vertices: frozenset[int]
    eta: int
    certificate: TreeDecomposition

    def validate(self, g: Graph) -> bool:
        rest, _ = g.delete_vertices(self.vertices)
        res = validate_decomposition(rest, self.certificate)
        return bool(res) and self.certificate.width <= self.eta


def _certify(g: Graph, drop: frozenset[int], eta: int) -> TreeDecomposition:
    sub, _ = g.delete_vertices(drop)
    td = treewidth_at_most(sub, eta)
    if td is None:
        raise AssertionError("modulator certificate construction failed")
    return td


def exact_modulator(g: Graph, eta: int) -> Modulator:
    """Minimum-cardinality treewidth-eta-modulator by subset enumeration."""
    if eta < 0:
        raise ValueError("eta must be non-negative")
    if g.n > EXACT_MODULATOR_BUDGET:
        raise BudgetError(
            f"exact modulator budget is {EXACT_MODULATOR_BUDGET} vertices (got {g.n})"
        )
    verts = list(g.vertices)
    for k in range(g.n + 1):
        for combo in combinations(verts, k):
            drop = frozenset(combo)
            if decide_treewidth(g.delete_vertices(drop)[0], eta):
                return Modulator(drop, eta, _certify(g, drop, eta))
    raise AssertionError("unreachable: deleting everything leaves treewidth -1")


def recursive_modulator(g: Graph, eta: int) -> Modulator:
    """A certified modulator via recursive balanced separation.

    No size optimality promise: if the treewidth already fits, the modulator is
    empty; otherwise a separator balanced for all of G joins the modulator and
    the two strict sides recurse.  Small sides are closed exactly.
    """
    if eta < 0:
        raise ValueError("eta must be non-negative")
    chosen = _recursive_pick(g, eta, frozenset(g.vertices))
    return Modulator(chosen, eta, _certify(g, chosen, eta))


def _recursive_pick(g: Graph, eta: int, region: frozenset[int]) -> frozenset[int]:
    """Modulator of G[region] as vertices of g."""
    sub, old = g.induced_subgraph(region)

    def lift(vs) -> frozenset[int]:
        return frozenset(old[v] for v in vs)

    if decide_treewidth(sub, eta):
        return frozenset()
    comps = sub.connected_components()
    if len(comps) > 1:
        return frozenset().union(*(_recursive_pick(g, eta, lift(c)) for c in comps))
    if sub.n <= max(eta + 2, 4):
        return lift(exact_modulator(sub, eta).vertices)
    sep = balanced_separation(sub, sub.vertices, heuristic_decomposition(sub))
    out = lift(sep.separator)
    for side in (sep.a1 - sep.a2, sep.a2 - sep.a1):
        if len(side) >= sub.n:
            raise RuntimeError("balanced separation failed to shrink a side")
        if side:
            out |= _recursive_pick(g, eta, lift(side))
    return out
