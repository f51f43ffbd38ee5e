"""Exhaustive enumeration of small graphs up to isomorphism.

Canonical keys are computed by color refinement plus individualization, which
is fast enough to enumerate every connected graph on up to 8 vertices and
every boundaried gadget universe used by the replacement tables.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator

from .graphs import BoundariedGraph, Graph
from .solvers import adjacency_masks


def _refine(n: int, masks: list[int], colors: list[int]) -> list[int]:
    """Stable color refinement: split classes by neighbor color multisets."""
    while True:
        sigs = []
        for v in range(n):
            nb = masks[v]
            counts = []
            w = nb
            while w:
                b = w & -w
                counts.append(colors[b.bit_length() - 1])
                w ^= b
            counts.sort()
            sigs.append((colors[v], tuple(counts)))
        order = sorted(set(sigs))
        remap = {s: i for i, s in enumerate(order)}
        new = [remap[s] for s in sigs]
        if new == colors:
            return new
        colors = new


def _leaf_key(n: int, masks: list[int], colors: list[int], seats: list[int]) -> tuple:
    """The graph relabeled by a discrete coloring, with each rank's initial
    color so that keys remember where the seats went; and the rank order."""
    order = sorted(range(n), key=lambda v: (colors[v], v))
    perm = [0] * n
    for rank, v in enumerate(order):
        perm[v] = rank
    bits = 0
    for v in range(n):
        w = masks[v]
        while w:
            b = w & -w
            u = b.bit_length() - 1
            w ^= b
            if u > v:
                p, q = sorted((perm[v], perm[u]))
                bits |= 1 << (p * n + q)
    return (bits, tuple(seats[v] for v in order)), order


def _canon_search(
    n: int, masks: list[int], colors: list[int], seats: list[int], best: list
) -> None:
    """Walk the whole individualization tree; `best` ends as [the least leaf
    key, per rank the smallest vertex that a least leaf puts there].  Least
    leaves differ by the automorphisms that fix every seat, all of them, so
    the vertices at one rank form an orbit and best[1] holds its minimum."""
    colors = _refine(n, masks, colors)
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    target = None
    for c in sorted(cells):
        if len(cells[c]) > 1:
            target = cells[c]
            break
    if target is None:
        key, order = _leaf_key(n, masks, colors, seats)
        if best[0] is None or key < best[0]:
            best[0], best[1] = key, order
        elif key == best[0]:
            best[1] = [min(a, b) for a, b in zip(best[1], order)]
        return
    for v in target:
        child = list(colors)
        child[v] = -1  # individualize; refinement renumbers compactly
        _canon_search(n, masks, child, seats, best)


def _seated_search(n: int, masks: list[int], seats: tuple[int, ...]) -> list:
    """`_canon_search` of a graph whose i-th seat vertex carries label i+1."""
    colors = [0] * n
    for i, v in enumerate(seats):
        colors[v] = -(i + 1)  # negative: fixed seats, refined into stable ids
    best: list = [None, None]
    _canon_search(n, masks, colors, colors, best)
    return best


def canonical_key(g: Graph, boundary: tuple[int, ...] = ()) -> tuple:
    """Canonical key of a graph, optionally with an ordered boundary.

    Keys are equal exactly for isomorphic graphs; with a boundary, the
    isomorphism must map the i-th boundary vertex to the i-th boundary vertex
    (label-preserving).
    """
    if g.n == 0:
        return (0, (), ())
    return (g.n,) + _seated_search(g.n, adjacency_masks(g), tuple(boundary))[0]


def connected_graphs_where(
    max_n: int, keep: Callable[[Graph], bool] | None = None
) -> dict[int, list[Graph]]:
    """All connected graphs with 1..max_n vertices satisfying `keep`, one per
    isomorphism class.

    Built by vertex augmentation: every connected graph on n+1 vertices arises
    from a connected graph on n vertices (delete a non-cut vertex, which always
    exists) by attaching a new vertex to a nonempty neighborhood.  `keep` must
    be closed under vertex deletion (e.g. a treewidth bound), which makes
    filtering at every level complete.
    """
    if max_n < 1:
        return {}
    base = [Graph(1)]
    if keep is not None:
        base = [g for g in base if keep(g)]
    out: dict[int, list[Graph]] = {1: base}
    for n in range(1, max_n):
        seen: dict[tuple, Graph] = {}
        for g in out[n]:
            base_edges = list(g.edges)
            for nb in range(1, 1 << n):
                edges = base_edges + [
                    (v, n) for v in range(n) if nb >> v & 1
                ]
                h = Graph(n + 1, edges)
                if keep is not None and not keep(h):
                    continue
                key = canonical_key(h)
                if key not in seen:
                    seen[key] = h
        out[n + 1] = [seen[k] for k in sorted(seen)]
    return out


@lru_cache(maxsize=8)
def connected_graphs(max_n: int) -> dict[int, list[Graph]]:
    """All connected graphs with 1..max_n vertices, one per isomorphism class."""
    return connected_graphs_where(max_n)


def all_graphs(max_n: int) -> Iterator[Graph]:
    """All graphs (connected or not) with 1..max_n vertices up to isomorphism.

    A graph is the disjoint union of its components, and components are drawn
    from the canonical connected pool, so multisets of pieces enumerated in
    non-decreasing (size, index) order cover every class exactly once.
    """
    from .graphs import disjoint_union

    conn = connected_graphs(max_n)

    def unions(budget: int, min_size: int, min_index: int) -> Iterator[Graph]:
        for size in range(min_size, budget + 1):
            start = min_index if size == min_size else 0
            for i in range(start, len(conn[size])):
                piece = conn[size][i]
                yield piece
                for rest in unions(budget - size, size, i):
                    yield disjoint_union(piece, rest)

    yield from unions(max_n, 1, 0)


def boundaried_universe(
    max_n: int,
    b: int,
    graphs: Iterable[Graph] | None = None,
) -> list[BoundariedGraph]:
    """Connected boundaried graphs with labels exactly 1..b, up to b vertices
    designated in every non-equivalent way, ordered by size then canonically.

    Label i+1 goes on the smallest vertex of each orbit of the automorphisms
    fixing labels 1..i: each placement is the least of its orbit, in order.
    `graphs` replaces the pool of every connected graph up to max_n vertices.
    """
    if graphs is None:
        pool: list[Graph] = []
        for n in range(1, max_n + 1):
            pool.extend(connected_graphs(max_n)[n])
    else:
        pool = [g for g in graphs if g.n <= max_n]
    out: list[BoundariedGraph] = []
    seen = set()
    for g in sorted(pool, key=lambda g: (g.n, g.m)):
        if g.n < b:
            continue
        if b == 0:
            out.append(BoundariedGraph(g, {}))
            continue
        masks = adjacency_masks(g)
        key, orbit_min = _seated_search(g.n, masks, ())
        if key in seen:  # isomorphic to an earlier graph of the pool
            continue
        seen.add(key)
        for seats in _placements(g.n, masks, b, (), orbit_min):
            out.append(BoundariedGraph(g, {v: i + 1 for i, v in enumerate(seats)}))
    return out


def _placements(
    n: int, masks: list[int], b: int, seats: tuple[int, ...], orbit_min: list[int]
) -> Iterator[tuple[int, ...]]:
    """The lexicographically least b-seat extension of `seats` in every orbit,
    in lexicographic order; `orbit_min` is `_seated_search(n, masks, seats)[1]`."""
    for v in sorted(set(orbit_min) - set(seats)):
        more = seats + (v,)
        if len(more) == b:
            yield more
        else:
            yield from _placements(n, masks, b, more, _seated_search(n, masks, more)[1])
