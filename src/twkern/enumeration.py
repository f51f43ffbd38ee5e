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
    key, the vertex order of every least leaf].  Least leaves differ by the
    automorphisms that fix every seat, all of them: the vertices that least
    leaves put at one rank form an orbit, and mapping the first least leaf's
    order onto each one's gives every automorphism."""
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
            best[0], best[1] = key, [order]
        elif key == best[0]:
            best[1].append(order)
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


def _orbit_least_subsets(n: int, orders: list[list[int]]) -> Iterator[int]:
    """Ascending, every nonempty vertex mask that no automorphism maps to a
    smaller integer.  `orders` holds the vertex order of every least leaf
    (`_canon_search`): mapping the first onto each gives every automorphism,
    so an orbit is the images of any one member."""
    auts = []
    for order in orders:
        aut = [0] * n
        for a, b in zip(orders[0], order):
            aut[a] = b
        auts.append(aut)
    done = bytearray(1 << n)
    for nb in range(1, 1 << n):
        if done[nb]:
            continue
        yield nb
        for aut in auts:
            image = 0
            m = nb
            while m:
                low = m & -m
                m ^= low
                image |= 1 << aut[low.bit_length() - 1]
            done[image] = 1


def connected_graphs_where(
    max_n: int, keep: Callable[[Graph], bool] | None = None
) -> dict[int, list[Graph]]:
    """All connected graphs with 1..max_n vertices satisfying `keep`, one per
    isomorphism class.

    Built by vertex augmentation: every connected graph on n+1 vertices arises
    from a connected graph on n vertices (delete a non-cut vertex, which always
    exists) by attaching a new vertex to a nonempty neighborhood.  `keep` must
    be invariant under isomorphism and closed under vertex deletion (e.g. a
    treewidth bound), which makes filtering at every level complete.
    Neighborhoods in one orbit of Aut(parent) give isomorphic graphs, so each
    parent is extended only by the least neighborhood of every orbit (canonical
    augmentation, McKay 1998).  Within a parent the first neighborhood to give
    a class is the least of its orbit, so the graph kept per class is the one
    that extending by every neighborhood keeps.
    """
    if max_n < 1:
        return {}
    base = [Graph(1)]
    if keep is not None:
        base = [g for g in base if keep(g)]
    out: dict[int, list[Graph]] = {1: base}
    level = [(g, [[0]]) for g in base]
    for n in range(1, max_n):
        last = n + 1 == max_n
        seen: dict[tuple, tuple[Graph, list[list[int]] | None]] = {}
        for g, orders in level:
            masks = adjacency_masks(g)
            base_edges = list(g.edges)
            for nb in _orbit_least_subsets(n, orders):
                h = Graph(n + 1, base_edges + [(v, n) for v in range(n) if nb >> v & 1])
                if keep is not None and not keep(h):
                    continue
                h_masks = [m | (nb >> v & 1) << n for v, m in enumerate(masks)] + [nb]
                key, h_orders = _seated_search(n + 1, h_masks, ())
                if key not in seen:
                    # the last level is never extended: drop its automorphisms
                    seen[key] = (h, None if last else h_orders)
        level = [seen[k] for k in sorted(seen)]
        out[n + 1] = [h for h, _ in level]
    return out


@lru_cache(maxsize=8)
def connected_graphs(max_n: int) -> dict[int, list[Graph]]:
    """All connected graphs with 1..max_n vertices, one per isomorphism class."""
    return connected_graphs_where(max_n)


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
        key, orders = _seated_search(g.n, masks, ())
        if key in seen:  # isomorphic to an earlier graph of the pool
            continue
        seen.add(key)
        for seats in _placements(g.n, masks, b, (), orders):
            out.append(BoundariedGraph(g, {v: i + 1 for i, v in enumerate(seats)}))
    return out


def _placements(
    n: int, masks: list[int], b: int, seats: tuple[int, ...], orders: list[list[int]]
) -> Iterator[tuple[int, ...]]:
    """The lexicographically least b-seat extension of `seats` in every orbit,
    in lexicographic order; `orders` is `_seated_search(n, masks, seats)[1]`,
    and the least vertex it puts at a rank is the least of an orbit."""
    orbit_min = {min(at_rank) for at_rank in zip(*orders)}
    for v in sorted(orbit_min - set(seats)):
        more = seats + (v,)
        if len(more) == b:
            yield more
        else:
            yield from _placements(n, masks, b, more, _seated_search(n, masks, more)[1])
