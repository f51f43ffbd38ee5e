"""Test-only oracles: canonical keys, exhaustive canonical forms, graph
generation by canonicalizing every one-vertex extension, all graphs up to
isomorphism, boundary placement by canonicalizing every ordered placement,
the minor operations, grid-minor containment, connected-subset enumeration,
annotated boundaried graphs, induced subgraphs by an all-edges filter, the
protrusion search's width filter on built closure graphs, its t <= 1 listing
by one component scan per boundary set, and the edge, label and separation
queries that only tests ask.

They are slow, exhaustive references that the package code is checked
against; nothing in the package uses them.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from twkern.enumeration import _seated_search, connected_graphs
from twkern.graphs import (
    BoundariedGraph,
    BudgetError,
    Graph,
    Separation,
    _norm_edge,
    adjacency_masks,
    disjoint_union,
    glue,
    make_grid,
)
from twkern.treedec import (
    EXACT_TW_BUDGET,
    decide_treewidth,
    exact_treewidth,
    minfill_order,
    mmw_lower_bound,
)


def canonical_key(g: Graph, boundary: tuple[int, ...] = ()) -> tuple:
    """Canonical key of a graph, optionally with an ordered boundary.

    Keys are equal exactly for isomorphic graphs; with a boundary, the
    isomorphism must map the i-th boundary vertex to the i-th boundary vertex
    (label-preserving).
    """
    if g.n == 0:
        return (0, (), ())
    return (g.n,) + _seated_search(g.n, adjacency_masks(g), tuple(boundary))[0]


class AnnotatedBoundariedGraph:
    """A boundaried graph together with an annotated vertex subset."""

    __slots__ = ("base", "annotated")

    def __init__(self, base: BoundariedGraph, annotated: Iterable[int]):
        ann = frozenset(annotated)
        for v in ann:
            if not (0 <= v < base.graph.n):
                raise ValueError(f"annotated vertex {v} not in graph")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "annotated", ann)

    def __setattr__(self, name, value):
        raise AttributeError("AnnotatedBoundariedGraph is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, AnnotatedBoundariedGraph)
            and self.base == other.base
            and self.annotated == other.annotated
        )

    def __hash__(self):
        return hash((self.base, self.annotated))


def glue_annotated(
    a1: AnnotatedBoundariedGraph, a2: AnnotatedBoundariedGraph
) -> tuple[Graph, frozenset[int]]:
    """Glue annotated boundaried graphs; annotations map through the heirs."""
    glued, heir1, heir2 = glue(a1.base, a2.base)
    ann = {heir1[v] for v in a1.annotated} | {heir2[v] for v in a2.annotated}
    return glued, frozenset(ann)


def canonical_form(g: Graph, max_vertices: int = 8) -> Graph:
    """Canonical relabeling by exhaustive permutation search; small graphs only.

    Two graphs on at most `max_vertices` vertices are isomorphic iff their
    canonical forms compare equal.
    """
    if g.n > max_vertices:
        raise BudgetError(f"canonical_form limited to {max_vertices} vertices, got {g.n}")
    if g.n <= 1:
        return g
    best = None
    for perm in itertools.permutations(range(g.n)):
        key = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))
        if best is None or key < best:
            best = key
    return Graph(g.n, best)


def connected_graphs_by_extensions(
    max_n: int, width: int | None = None
) -> dict[int, list[Graph]]:
    """The graphs of `connected_graphs(max_n, width)` by extending every graph
    of a level by every nonempty neighborhood of a new vertex and
    canonicalizing each extension."""
    if max_n < 1:
        return {}
    keep = lambda g: width is None or bool(decide_treewidth(g, width))
    out: dict[int, list[Graph]] = {1: [g for g in [Graph(1)] if keep(g)]}
    for n in range(1, max_n):
        seen: dict[tuple, Graph] = {}
        for g in out[n]:
            base_edges = list(g.edges)
            for nb in range(1, 1 << n):
                h = Graph(n + 1, base_edges + [(v, n) for v in range(n) if nb >> v & 1])
                if not keep(h):
                    continue
                key = canonical_key(h)
                if key not in seen:
                    seen[key] = h
        out[n + 1] = [seen[k] for k in sorted(seen)]
    return out


def all_graphs(max_n: int) -> Iterator[Graph]:
    """All graphs (connected or not) with 1..max_n vertices up to isomorphism.

    A graph is the disjoint union of its components, and components are drawn
    from the canonical connected pool, so multisets of pieces enumerated in
    non-decreasing (size, index) order cover every class exactly once.
    """
    conn = connected_graphs(max_n)

    def unions(budget: int, min_size: int, min_index: int) -> Iterator[Graph]:
        for size in range(min_size, budget + 1):
            start = min_index if size == min_size else 0
            for i in range(start, len(conn[size])):
                piece = conn[size][i][0]
                yield piece
                for rest in unions(budget - size, size, i):
                    yield disjoint_union(piece, rest)

    yield from unions(max_n, 1, 0)


def boundaried_universe_by_placements(
    pool: Iterable[Graph], b: int
) -> list[BoundariedGraph]:
    """Every graph of the pool with labels 1..b seated in every ordered way,
    keeping the first placement of each class of boundaried graphs: every
    ordered placement is canonicalized."""
    out: list[BoundariedGraph] = []
    seen = set()
    for g in sorted(pool, key=lambda g: (g.n, g.m)):
        if g.n < b:
            continue
        if b == 0:
            out.append(BoundariedGraph(g, {}))
            continue
        for combo in itertools.permutations(range(g.n), b):
            key = canonical_key(g, combo)
            if key not in seen:
                seen.add(key)
                out.append(BoundariedGraph(g, {v: i + 1 for i, v in enumerate(combo)}))
    return out


def has_edge(g: Graph, u: int, v: int) -> bool:
    return _norm_edge(u, v) in g.edges


def vertex_of_label(bg: BoundariedGraph, lab: int) -> int:
    for v, l in bg.label_of:
        if l == lab:
            return v
    raise KeyError(lab)


def is_separation_of(sep: Separation, g: Graph) -> bool:
    """A1 ∪ A2 = V and no edge of g joins the strict sides."""
    if sep.a1 | sep.a2 != frozenset(g.vertices):
        return False
    left = sep.a1 - sep.a2
    right = sep.a2 - sep.a1
    return not any((u in left and v in right) or (u in right and v in left) for u, v in g.edges)


def is_balanced_for(sep: Separation, q: Iterable[int]) -> bool:
    """2/3-balance: each strict side holds at most ceil(2|Q|/3) of Q."""
    qs = set(q)
    cap = -(-2 * len(qs) // 3)
    return len(qs & (sep.a1 - sep.a2)) <= cap and len(qs & (sep.a2 - sep.a1)) <= cap


def contract_edge(g: Graph, u: int, v: int) -> Graph:
    """Contract edge uv; the merged vertex takes min(u,v)'s slot and ids are
    reassigned densely.  Loops and parallels arising are dropped.
    """
    if not has_edge(g, u, v):
        raise ValueError(f"edge ({u},{v}) not in graph")
    lo, hi = _norm_edge(u, v)
    relabel = {}
    for w in range(g.n):
        if w == hi:
            relabel[w] = lo
        else:
            relabel[w] = w if w < hi else w - 1
    edges = set()
    for a, b in g.edges:
        na, nb = relabel[a], relabel[b]
        if na != nb:
            edges.add(_norm_edge(na, nb))
    return Graph(g.n - 1, edges)


def induced_subgraph_by_edges(g: Graph, keep: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """`Graph.induced_subgraph` by filtering every edge of g."""
    old_ids = tuple(sorted(set(keep)))
    new_of = {old: new for new, old in enumerate(old_ids)}
    edges = [(new_of[u], new_of[v]) for u, v in g.edges if u in new_of and v in new_of]
    return Graph(len(old_ids), edges), old_ids


def closure_fits_by_graph(g: Graph, bset: frozenset[int], c: frozenset[int], t: int) -> bool:
    """Can tw(G[B ∪ C]) <= t hold, asked of a built closure Graph G[B ∪ C]:
    an edge test at t = 0 and a forest test at t = 1; from t = 2, as
    `protrusions._closure_fits` asks it, the MMW bound refutes, a min-fill
    width <= t confirms, exact treewidth decides within its budget, and a
    larger closure stays undecided and is kept."""
    closure = induced_subgraph_by_edges(g, bset | c)[0]
    if t <= 1:
        return closure.m == 0 if t == 0 else closure.is_acyclic()
    if mmw_lower_bound(closure) > t:
        return False
    if minfill_order(closure)[0] <= t:
        return True
    return closure.n > EXACT_TW_BUDGET or exact_treewidth(closure)[0] <= t


def boundary_unions_by_scans(g: Graph, t: int, min_size: int) -> list[frozenset[int]]:
    """`protrusions._boundary_unions` for t <= 1, by one component scan per
    boundary set: every B with |B| <= t, the components of G - B that touch
    B (with B empty, the one-vertex ones) and pass `closure_fits_by_graph`,
    copies told by `canonical_key` of the closure with B seated, and every
    union of the first copies of each kind, sorted by (-size, sorted
    vertices)."""
    if t > 1:
        raise ValueError("copies are told exactly only when every closure is a tree")
    out = []
    for b in range(t + 1):
        for combo in itertools.combinations(g.vertices, b):
            bset = frozenset(combo)
            comps = g.connected_components(avoid=bset)
            if len(comps) < 2 or any(g.neighbors(v) <= bset for v in bset):
                continue
            kinds: dict[tuple, list[frozenset[int]]] = {}
            for c in comps:
                touches = g.open_neighborhood(c) & bset if bset else len(c) == 1
                if touches and closure_fits_by_graph(g, bset, c, t):
                    closure, old = g.induced_subgraph(bset | c)
                    key = canonical_key(closure, tuple(old.index(v) for v in combo))
                    kinds.setdefault(key, []).append(c)
            ranges = [range(len(copies) + 1) for copies in kinds.values()]
            for counts in itertools.product(*ranges):
                keep = (c for copies, k in zip(kinds.values(), counts) for c in copies[:k])
                xs = bset.union(*keep)
                if any(counts) and len(xs) >= min_size:
                    out.append(xs)
    return sorted(out, key=lambda xs: (-len(xs), sorted(xs)))


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    if not has_edge(g, u, v):
        raise ValueError(f"edge ({u},{v}) not in graph")
    return Graph(g.n, g.edges - {_norm_edge(u, v)})


def delete_vertex(g: Graph, v: int) -> Graph:
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} not in graph")
    return g.delete_vertices([v])[0]


def _subgraph_embeds(pattern: Graph, host: Graph) -> bool:
    """Backtracking test: does `host` contain `pattern` as a subgraph?"""
    if pattern.n > host.n or pattern.m > host.m:
        return False
    # order pattern vertices to keep partial assignments connected when possible
    order = sorted(pattern.vertices, key=lambda v: -pattern.degree(v))
    assigned: dict[int, int] = {}
    used = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        p = order[i]
        need = [assigned[q] for q in pattern.neighbors(p) if q in assigned]
        if need:
            candidates = set(host.neighbors(need[0]))
            for h in need[1:]:
                candidates &= host.neighbors(h)
            candidates -= used
        else:
            candidates = set(host.vertices) - used
        for h in sorted(candidates):
            if host.degree(h) < pattern.degree(p):
                continue
            assigned[p] = h
            used.add(h)
            if extend(i + 1):
                return True
            del assigned[p]
            used.discard(h)
        return False

    return extend(0)


def contains_grid_minor(g: Graph, t: int, max_vertices: int = 14) -> bool:
    """Does g contain the t x t grid as a minor?

    Exhaustive search over edge-contraction sequences with a subgraph-embedding
    base case at every level.  Hard budget on instance size.
    """
    if t < 1 or t > 3:
        raise ValueError("grid minor oracle supports 1 <= t <= 3")
    if g.n > max_vertices:
        raise BudgetError(f"instance too large for grid-minor oracle (n={g.n} > {max_vertices})")
    if t == 1:
        return g.n >= 1
    target = make_grid(t)
    level = {g}
    seen = set()
    while level:
        nxt = set()
        for h in level:
            if h.n < target.n or h.m < target.m:
                continue
            if _subgraph_embeds(target, h):
                return True
            for u, v in h.edges:
                c = contract_edge(h, u, v)
                key = (c.n, c.edges)
                if key not in seen:
                    seen.add(key)
                    nxt.add(c)
        level = nxt
    return False


def connected_subsets(g: Graph, max_size: int) -> Iterator[frozenset[int]]:
    """All connected vertex subsets of at most max_size vertices, each once.

    Subsets are rooted at their minimum vertex and grown over candidate
    neighborhoods; once a branch skips a candidate, it stays forbidden in all
    later branches of the same level, which rules out duplicates.
    """

    def rec(current: set[int], candidates: set[int], forbidden: set[int], lower: set[int]):
        yield frozenset(current)
        if len(current) >= max_size:
            return
        forb = set(forbidden)
        for v in sorted(candidates):
            if v in forb:
                continue
            current.add(v)
            new_cands = (candidates | (set(g.neighbors(v)) - lower)) - current - forb
            yield from rec(current, new_cands, forb, lower)
            current.remove(v)
            forb.add(v)

    for start in range(g.n):
        lower = set(range(start + 1))
        yield from rec({start}, set(g.neighbors(start)) - lower, set(), lower)
