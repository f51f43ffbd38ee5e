"""Simple immutable graphs, boundaried graphs, and gluing.

Vertices are always the dense range 0..n-1.  Every operation that changes the
vertex set returns a new graph whose vertices have been reassigned canonically
(order-preserving), so equal inputs always produce equal outputs.  All values
are immutable and safe to share across threads.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping

Edge = tuple[int, int]


class BudgetError(ValueError):
    """Raised when an operation is asked to exceed its instance-size budget."""


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph on vertices 0..n-1 (no loops, no parallels)."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) leaves vertex range 0..{n - 1}")
            norm.add(_norm_edge(u, v))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(norm))
        adj = [set() for _ in range(n)]
        for u, v in norm:
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "_adj", tuple(frozenset(s) for s in adj))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"

    @property
    def vertices(self) -> range:
        return range(self.n)

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def open_neighborhood(self, s: Iterable[int]) -> frozenset[int]:
        """N_G(S): vertices outside S adjacent to S."""
        sset = set(s)
        out = set()
        for v in sset:
            out |= self._adj[v]
        return frozenset(out - sset)

    def closed_neighborhood(self, s: Iterable[int]) -> frozenset[int]:
        sset = set(s)
        return frozenset(sset | self.open_neighborhood(sset))

    def boundary(self, s: Iterable[int]) -> frozenset[int]:
        """∂_G(S): vertices of S with at least one neighbor outside S."""
        sset = set(s)
        return frozenset(v for v in sset if self._adj[v] - sset)

    def induced_subgraph(self, keep: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Subgraph induced by `keep`, relabeled densely in sorted order.

        Returns (graph, old_ids) where old_ids[new] = old vertex id.  Only
        the kept vertices' adjacency is read, so the cost is linear in it.
        """
        old_ids = tuple(sorted(set(keep)))
        if old_ids and not (0 <= old_ids[0] and old_ids[-1] < self.n):
            raise ValueError("induced set leaves vertex range")
        new_of = {old: new for new, old in enumerate(old_ids)}
        edges = [
            (a, new_of[w])
            for a, u in enumerate(old_ids)
            for w in self._adj[u]
            if w > u and w in new_of
        ]
        return Graph(len(old_ids), edges), old_ids

    def delete_vertices(self, drop: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        keep = set(self.vertices) - set(drop)
        return self.induced_subgraph(keep)

    def connected_components(self, avoid: Iterable[int] = ()) -> list[frozenset[int]]:
        """Components of G - avoid as vertex sets, ordered by smallest
        contained vertex."""
        seen = [False] * self.n
        for v in avoid:
            seen[v] = True
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in self._adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(frozenset(comp))
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.connected_components()) == 1

    def is_acyclic(self) -> bool:
        """True iff the graph is a forest."""
        return forest_roots(range(self.n), self.edges) is not None


def forest_roots(vertices: Iterable[int], edges: Iterable[Edge]) -> dict[int, int] | None:
    """Union-find over `edges`: the component root of every vertex, or None as
    soon as an edge closes a cycle (the graph is not a forest).

    Edge endpoints must be among `vertices`.
    """
    parent = {v: v for v in vertices}
    for u, v in edges:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u == v:
            return None
        parent[u] = v
    roots = {}
    for v in parent:
        r = v
        while parent[r] != r:
            r = parent[r]
        roots[v] = r
    return roots


# ---------------------------------------------------------------------------
# generators


def make_grid(t: int) -> Graph:
    """The t x t grid: vertices (x,y), 1 <= x,y <= t, edges at L1-distance 1.

    Vertex (x,y) gets id (x-1)*t + (y-1).
    """
    if t < 1:
        raise ValueError("grid dimension must be at least 1")
    edges = []
    for x in range(t):
        for y in range(t):
            v = x * t + y
            if x + 1 < t:
                edges.append((v, (x + 1) * t + y))
            if y + 1 < t:
                edges.append((v, x * t + y + 1))
    return Graph(t * t, edges)


def grid_vertex(t: int, x: int, y: int) -> int:
    """Id of grid vertex (x,y) with 1-based coordinates."""
    if not (1 <= x <= t and 1 <= y <= t):
        raise ValueError(f"({x},{y}) outside {t}x{t} grid")
    return (x - 1) * t + (y - 1)


def make_gamma(t: int) -> Graph:
    """Triangulated grid: the t x t grid plus, for 1 <= x,y <= t-1, the
    diagonal (x+1,y)-(x,y+1), plus edges from (t,t) to every border vertex.
    """
    if t < 2:
        raise ValueError("triangulated grid needs dimension at least 2")
    base = make_grid(t)
    edges = set(base.edges)
    for x in range(1, t):
        for y in range(1, t):
            edges.add(_norm_edge(grid_vertex(t, x + 1, y), grid_vertex(t, x, y + 1)))
    corner = grid_vertex(t, t, t)
    for x in range(1, t + 1):
        for y in range(1, t + 1):
            if x in (1, t) or y in (1, t):
                v = grid_vertex(t, x, y)
                if v != corner:
                    edges.add(_norm_edge(corner, v))
    return Graph(t * t, edges)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    edges = list(g1.edges) + [(u + g1.n, v + g1.n) for u, v in g2.edges]
    return Graph(g1.n + g2.n, edges)


# ---------------------------------------------------------------------------
# boundaried graphs and gluing


class BoundariedGraph:
    """A graph with an injectively labeled boundary.

    Labels are positive integers; a t-boundaried graph has all labels in 1..t.
    """

    __slots__ = ("graph", "label_of")

    def __init__(self, graph: Graph, labels: Mapping[int, int]):
        label_of = dict(labels)
        for v, lab in label_of.items():
            if not (0 <= v < graph.n):
                raise ValueError(f"boundary vertex {v} not in graph")
            if lab < 1:
                raise ValueError(f"label {lab} must be a positive integer")
        if len(set(label_of.values())) != len(label_of):
            raise ValueError("boundary labeling must be injective")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(
            self, "label_of", tuple(sorted(label_of.items()))
        )

    def __setattr__(self, name, value):
        raise AttributeError("BoundariedGraph is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, BoundariedGraph)
            and self.graph == other.graph
            and self.label_of == other.label_of
        )

    def __hash__(self):
        return hash((self.graph, self.label_of))

    def __repr__(self):
        return f"BoundariedGraph(n={self.graph.n}, labels={dict(self.label_of)})"

    @property
    def boundary(self) -> tuple[int, ...]:
        """Boundary vertices in label order."""
        return tuple(v for v, _ in sorted(self.label_of, key=lambda vl: vl[1]))

    @property
    def labels(self) -> dict[int, int]:
        return dict(self.label_of)

    @property
    def label_set(self) -> frozenset[int]:
        """Λ(G), the set of labels in use."""
        return frozenset(lab for _, lab in self.label_of)


def glue(
    g1: BoundariedGraph, g2: BoundariedGraph
) -> tuple[Graph, dict[int, int], dict[int, int]]:
    """Glue two boundaried graphs by identifying equally-labeled vertices.

    Returns (graph, heir1, heir2) where heir_i maps each vertex of input i to
    its vertex in the result.  Parallel edges arising from both sides collapse
    to a single edge (simple-graph semantics).
    """
    lab1 = g1.labels
    lab2 = g2.labels
    vert_of_label1 = {lab: v for v, lab in lab1.items()}
    shared = set(vert_of_label1) & set(lab2.values())

    heir1 = {v: v for v in g1.graph.vertices}
    heir2: dict[int, int] = {}
    nxt = g1.graph.n
    for v in g2.graph.vertices:
        lab = lab2.get(v)
        if lab is not None and lab in shared:
            heir2[v] = vert_of_label1[lab]
        else:
            heir2[v] = nxt
            nxt += 1
    edges = set(g1.graph.edges)
    for u, v in g2.graph.edges:
        edges.add(_norm_edge(heir2[u], heir2[v]))
    return Graph(nxt, edges), heir1, heir2


def adjacency_masks(g: Graph) -> list[int]:
    """g's adjacency masks, vertex v as bit v."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _ordered_masks(g: Graph, order: list[int]) -> tuple[int, ...]:
    """g's adjacency masks in `order`, vertex order[i] as bit i."""
    bit = {v: 1 << i for i, v in enumerate(order)}
    nbs = dict.fromkeys(order, 0)
    for u, v in g.edges:
        nbs[u] |= bit[v]
        nbs[v] |= bit[u]
    return tuple(nbs[v] for v in order)


def glue_plan(g2: BoundariedGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The second operand of a glue, labeled 1..b, as (unlabeled, labeled)
    adjacency masks numbered context first: g2's unlabeled vertices in order,
    then the vertices of labels 1..b.  Every gadget glued onto it keeps these
    bits (`glue_gadget`), so the context part of each glued graph is the
    same."""
    labels = g2.labels
    by_label = sorted(labels, key=labels.__getitem__)
    if [labels[v] for v in by_label] != list(range(1, len(labels) + 1)):
        raise ValueError(f"context labels must be 1..b, got {sorted(labels.values())}")
    unlabeled = [v for v in g2.graph.vertices if v not in labels]
    masks = _ordered_masks(g2.graph, unlabeled + by_label)
    return masks[: len(unlabeled)], masks[len(unlabeled) :]


def gadget_plan(g1: BoundariedGraph, b: int) -> tuple[int, ...]:
    """g1's adjacency masks with the vertices of labels 1..b first, then its
    other vertices in order, as `glue_gadget` reads them.  Raises ValueError
    when g1 lacks one of the labels: the glue numbers the context's labeled
    vertices as if each label were shared."""
    vertex_of = {lab: v for v, lab in g1.label_of}
    for lab in range(1, b + 1):
        if lab not in vertex_of:
            raise ValueError(f"no vertex carries context label {lab}")
    shared = [vertex_of[lab] for lab in range(1, b + 1)]
    rest = [v for v in g1.graph.vertices if v not in shared]
    return _ordered_masks(g1.graph, shared + rest)


def glue_gadget(gadget: tuple[int, ...], plan: tuple[tuple[int, ...], ...]) -> list[int]:
    """Adjacency masks of `glue(g1, g2)[0]` from `gadget_plan(g1, b)` and
    `glue_plan(g2)`, renumbered context first: g2's unlabeled vertices, the
    shared labels 1..b, then g1's other vertices.  No Graph is built."""
    unlabeled, labeled = plan
    u = len(unlabeled)
    out = list(unlabeled)
    out += [m << u for m in gadget]
    for v, nb in enumerate(labeled, u):
        out[v] |= nb
    return out


# ---------------------------------------------------------------------------
# separations


class Separation:
    """A separation (A1, A2): A1 ∪ A2 = V, no edge between the strict sides."""

    __slots__ = ("a1", "a2")

    def __init__(self, a1: Iterable[int], a2: Iterable[int]):
        object.__setattr__(self, "a1", frozenset(a1))
        object.__setattr__(self, "a2", frozenset(a2))

    def __setattr__(self, name, value):
        raise AttributeError("Separation is immutable")

    def __repr__(self):
        return f"Separation(|A1|={len(self.a1)}, |A2|={len(self.a2)}, order={self.order})"

    @property
    def separator(self) -> frozenset[int]:
        return self.a1 & self.a2

    @property
    def order(self) -> int:
        return len(self.a1 & self.a2)
