"""Tree decompositions: validation, a min-fill heuristic, and exact treewidth.

Exact treewidth runs iterative deepening over elimination orderings with
memoization on eliminated vertex sets, a minor-min-width lower bound, and safe
forced eliminations (degree <= 2 and simplicial vertices).  Within its budget
of a couple dozen vertices it is exact; everything larger goes through
`heuristic_decomposition`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .graphs import BudgetError, Graph, forest_roots

EXACT_TW_BUDGET = 20  # largest graph exact treewidth is run on by default


class TreeDecomposition:
    """A tree of bags.  Node ids are dense 0..k-1; bags are vertex sets."""

    __slots__ = ("bags", "tree_edges")

    def __init__(self, bags: Iterable[Iterable[int]], tree_edges: Iterable[tuple[int, int]] = ()):
        bag_tuple = tuple(frozenset(b) for b in bags)
        edges = set()
        for a, b in tree_edges:
            if a == b or not (0 <= a < len(bag_tuple) and 0 <= b < len(bag_tuple)):
                raise ValueError(f"bad tree edge ({a},{b})")
            edges.add((a, b) if a < b else (b, a))
        object.__setattr__(self, "bags", bag_tuple)
        object.__setattr__(self, "tree_edges", frozenset(edges))

    def __setattr__(self, name, value):
        raise AttributeError("TreeDecomposition is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, TreeDecomposition)
            and self.bags == other.bags
            and self.tree_edges == other.tree_edges
        )

    def __hash__(self):
        return hash((self.bags, self.tree_edges))

    def __repr__(self):
        return f"TreeDecomposition(nodes={len(self.bags)}, width={self.width})"

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def validate_decomposition(g: Graph, td: TreeDecomposition) -> ValidationResult:
    """Check the three tree-decomposition conditions plus tree shape.

    Returns the first violation found, naming a witness.
    """
    k = len(td.bags)
    if k == 0:
        if g.n == 0:
            return ValidationResult(True)
        return ValidationResult(False, "empty decomposition for nonempty graph")
    # tree shape: k - 1 edges and no cycle on k nodes, hence also connected
    if len(td.tree_edges) != k - 1:
        return ValidationResult(False, f"tree must have {k - 1} edges, has {len(td.tree_edges)}")
    if forest_roots(range(k), td.tree_edges) is None:
        return ValidationResult(False, "decomposition tree has a cycle")
    nodes_of: list[set[int]] = [set() for _ in range(g.n)]
    for i, bag in enumerate(td.bags):
        for v in bag:
            if not (0 <= v < g.n):
                return ValidationResult(False, f"bag {i} contains foreign vertex {v}")
            nodes_of[v].add(i)
    for v in g.vertices:
        if not nodes_of[v]:
            return ValidationResult(False, f"(T1) vertex {v} is in no bag")
    for u, v in sorted(g.edges):
        if nodes_of[u].isdisjoint(nodes_of[v]):
            return ValidationResult(False, f"(T2) edge ({u},{v}) is in no bag")
    # the nodes holding v induce a subforest, connected iff it has one edge
    # fewer than nodes
    shared = [0] * g.n
    for a, b in td.tree_edges:
        for v in td.bags[a] & td.bags[b]:
            shared[v] += 1
    for v in g.vertices:
        if shared[v] != len(nodes_of[v]) - 1:
            return ValidationResult(False, f"(T3) bags containing vertex {v} are not connected")
    return ValidationResult(True)


# ---------------------------------------------------------------------------
# elimination orderings


def _adj_copy(g: Graph) -> dict[int, set[int]]:
    return {v: set(g.neighbors(v)) for v in g.vertices}


def _eliminate(adj: dict[int, set[int]], v: int) -> None:
    nb = adj[v]
    for a in nb:
        adj[a].discard(v)
    for a in nb:
        for b in nb:
            if a < b:
                adj[a].add(b)
                adj[b].add(a)
    del adj[v]


def _fill_count(adj: dict[int, set[int]], v: int) -> int:
    nb = list(adj[v])
    missing = 0
    for i, a in enumerate(nb):
        for b in nb[i + 1 :]:
            if b not in adj[a]:
                missing += 1
    return missing


def _is_simplicial(adj: dict[int, set[int]], v: int) -> bool:
    nb = list(adj[v])
    return all(b in adj[a] for i, a in enumerate(nb) for b in nb[i + 1 :])


def minfill_order(g: Graph) -> tuple[int, list[int]]:
    """Min-fill elimination ordering; returns (width, order)."""
    adj = _adj_copy(g)
    order = []
    width = -1 if g.n == 0 else 0
    while adj:
        v = min(adj, key=lambda v: (_fill_count(adj, v), len(adj[v]), v))
        width = max(width, len(adj[v]))
        order.append(v)
        _eliminate(adj, v)
    return width, order


def mmw_lower_bound(g: Graph) -> int:
    """Minor-min-width (contraction degeneracy) lower bound on treewidth."""
    adj = _adj_copy(g)
    lb = 0
    while len(adj) > 1:
        v = min(adj, key=lambda v: (len(adj[v]), v))
        lb = max(lb, len(adj[v]))
        nb = adj[v]
        if not nb:
            del adj[v]
            continue
        # contract with the neighbor sharing fewest common neighbors
        u = min(nb, key=lambda u: (len(adj[u] & nb), u))
        merged = (adj[v] | adj[u]) - {u, v}
        for w in adj[v]:
            adj[w].discard(v)
        for w in adj[u]:
            adj[w].discard(u)
        del adj[v]
        adj[u] = merged
        for w in merged:
            adj[w].add(u)
    return lb


def decomposition_from_order(g: Graph, order: list[int]) -> TreeDecomposition:
    """Build a tree decomposition from an elimination ordering."""
    if g.n == 0:
        return TreeDecomposition([])
    adj = _adj_copy(g)
    bags = []
    cliques = []
    for v in order:
        cliques.append((v, set(adj[v])))
        _eliminate(adj, v)
    pos = {v: i for i, (v, _) in enumerate(cliques)}
    tree_edges = []
    for i, (v, nb) in enumerate(cliques):
        bags.append(nb | {v})
        if nb:
            j = min(pos[w] for w in nb)
            tree_edges.append((i, j))
        elif i + 1 < len(cliques):
            # isolated at elimination time; link to the next bag to keep the tree connected
            tree_edges.append((i, i + 1))
    return TreeDecomposition(bags, tree_edges)


def heuristic_decomposition(g: Graph) -> TreeDecomposition:
    """Valid decomposition via min-fill; width is an upper bound on tw(g)."""
    _, order = minfill_order(g)
    return decomposition_from_order(g, order)


def _decide_width(g: Graph, w: int) -> list[int] | None:
    """Is there an elimination ordering of width <= w?  Returns one if so."""
    if w >= g.n - 1:
        return sorted(g.vertices)
    adj0 = _adj_copy(g)
    visited: set[int] = set()
    n = g.n

    def search(adj: dict[int, set[int]], mask: int, order: list[int]) -> bool:
        base_len = len(order)
        while True:
            if len(adj) <= w + 1:
                order.extend(sorted(adj))
                return True
            forced = None
            for v in sorted(adj):
                d = len(adj[v])
                if d <= 2 or (d <= w and _is_simplicial(adj, v)):
                    forced = v
                    break
            if forced is None:
                break
            if len(adj[forced]) > w:
                del order[base_len:]
                return False
            order.append(forced)
            mask |= 1 << forced
            _eliminate(adj, forced)
        if mask in visited:
            del order[base_len:]
            return False
        visited.add(mask)
        cands = [v for v in adj if len(adj[v]) <= w]
        cands.sort(key=lambda v: (_fill_count(adj, v), len(adj[v]), v))
        for v in cands:
            adj2 = {x: set(s) for x, s in adj.items()}
            _eliminate(adj2, v)
            order.append(v)
            if search(adj2, mask | (1 << v), order):
                return True
            order.pop()
        del order[base_len:]
        return False

    order: list[int] = []
    if search(adj0, 0, order):
        return order
    return None


def exact_treewidth(g: Graph, max_vertices: int = EXACT_TW_BUDGET) -> tuple[int, TreeDecomposition]:
    """Exact treewidth with a certifying decomposition.

    Iterative deepening over elimination orderings from a minor-min-width
    lower bound up to the min-fill upper bound.  Treewidth of a disconnected
    graph is the maximum over its components, so components are solved
    independently.
    """
    if g.n > max_vertices:
        raise BudgetError(
            f"exact treewidth limited to {max_vertices} vertices (got {g.n}); "
            "use heuristic_decomposition"
        )
    return _exact_treewidth_cached(g)


@lru_cache(maxsize=200_000)
def _exact_treewidth_cached(g: Graph) -> tuple[int, TreeDecomposition]:
    if g.n == 0:
        return -1, TreeDecomposition([])
    comps = g.connected_components()
    if len(comps) > 1:
        width = -1
        all_bags: list[frozenset[int]] = []
        all_edges: list[tuple[int, int]] = []
        for comp in comps:
            sub, old_ids = g.induced_subgraph(comp)
            w, td = _exact_treewidth_cached(sub)
            width = max(width, w)
            off = len(all_bags)
            for bag in td.bags:
                all_bags.append(frozenset(old_ids[v] for v in bag))
            all_edges.extend((a + off, b + off) for a, b in td.tree_edges)
            if off > 0:
                all_edges.append((off - 1, off))
        return width, TreeDecomposition(all_bags, all_edges)
    if g.m == 0:
        return 0, TreeDecomposition([{v} for v in g.vertices], [(i, i + 1) for i in range(g.n - 1)])
    if g.is_acyclic():
        return 1, heuristic_decomposition(g)  # min-fill is exact on forests
    ub, ub_order = minfill_order(g)
    lb = max(2, mmw_lower_bound(g))
    for w in range(lb, ub):
        order = _decide_width(g, w)
        if order is not None:
            return w, decomposition_from_order(g, order)
    return ub, decomposition_from_order(g, ub_order)


def decide_treewidth(g: Graph, eta: int) -> bool | None:
    """Is tw(g) <= eta?  True or False when certain, None when not.

    Width 0 is an edge test and width 1 a forest test; both are exact.  From
    2 on, a min-fill width <= eta is a yes, and within the exact budget exact
    treewidth decides; a larger graph on which min-fill exceeds eta gets None.
    No decomposition is built.
    """
    if eta < 0:
        return g.n == 0
    if eta == 0:
        return g.m == 0
    if eta == 1:
        return g.is_acyclic()
    if minfill_order(g)[0] <= eta:
        return True
    return _exact_treewidth_cached(g)[0] <= eta if g.n <= EXACT_TW_BUDGET else None


def treewidth_at_most(g: Graph, eta: int) -> TreeDecomposition | None:
    """A width <= eta decomposition if one is found, else None.

    Min-fill first (exact on forests, so on every eta <= 1 question), then
    exact treewidth within the budget; a None for a larger graph means the
    min-fill bound exceeded eta, not a proof that tw(g) > eta.  The min-fill
    decomposition is built only when its width fits.
    """
    width, order = minfill_order(g)
    if width <= eta:
        return decomposition_from_order(g, order)
    if g.n <= EXACT_TW_BUDGET:
        w, td = _exact_treewidth_cached(g)
        if w <= eta:
            return td
    return None
