"""Exhaustive enumeration of small graphs up to isomorphism.

Canonical keys are computed by color refinement plus individualization, with
the search tree pruned by the automorphisms it finds, which is fast enough to
enumerate every connected graph on up to 8 vertices and every boundaried
gadget universe used by the replacement tables.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .graphs import BoundariedGraph, Graph, adjacency_masks
from .treedec import decide_treewidth


def _refine(nbrs: list[list[int]], colors: list[int]) -> list[int]:
    """Stable color refinement: split classes by neighbor color multisets,
    renumbering them compactly in order of (color, sorted neighbor colors).
    A vertex alone in its class keeps its place whatever its neighbors are,
    so only shared classes read them."""
    while True:
        seen: set[int] = set()
        shared: set[int] = set()
        for c in colors:
            (shared if c in seen else seen).add(c)
        sigs = [
            (c, tuple(sorted([colors[u] for u in nbrs[v]]))) if c in shared else (c,)
            for v, c in enumerate(colors)
        ]
        order = sorted(set(sigs))
        remap = {s: i for i, s in enumerate(order)}
        colors = [remap[s] for s in sigs]
        if len(order) == len(seen):  # no class split: stable
            return colors


def _leaf_key(edges: list[tuple[int, int]], colors: list[int], seats: list[int]) -> tuple:
    """The graph relabeled by a discrete coloring (vertex v to rank
    colors[v]), with each rank's initial color so that keys remember where the
    seats went; and the rank order."""
    n = len(colors)
    order = [0] * n
    for v, rank in enumerate(colors):
        order[rank] = v
    bits = 0
    for v, u in edges:
        p, q = colors[v], colors[u]
        bits |= 1 << (p * n + q if p < q else q * n + p)
    return (bits, tuple(seats[v] for v in order)), order


def _canon_search(
    n: int, masks: list[int], colors: list[int], seats: list[int]
) -> tuple[tuple, list[list[int]]]:
    """The least leaf key of the individualization tree, and generators of
    the automorphisms that fix every seat (McKay 1998; McKay & Piperno 2014).

    A node refines its coloring and individualizes each vertex of its first
    cell of two or more in turn; a leaf's coloring is discrete and its key is
    the graph relabeled by it (`_leaf_key`).  A leaf whose key equals the
    first leaf's, or else the least so far, gives an automorphism: the map
    from that leaf's order to its own.  Two kinds of subtree are skipped,
    each the image of an explored one under a found automorphism, so no leaf
    key is missed: a child in the orbit of an explored child under the found
    automorphisms that fix the node's path, and the rest of the branch at
    the depth where the earlier leaf's path leaves this one's, when the new
    automorphism fixes the common part and maps the earlier branch onto this.

    The found automorphisms generate the group.  Individualized vertices lead
    a leaf's order, the last first, so two leaves of one key and one depth
    differ by an automorphism that maps path onto path.  At a node of the
    first path, a child in the first child's orbit is either skipped through
    found automorphisms or explored; its subtree holds the image of the first
    leaf, so the search meets a leaf of the first leaf's key and depth there,
    whose automorphism fixes the node's path and moves the first child onto
    this one.  Downward from the leaf, the automorphisms fixing each node of
    the first path are then generated, the root's being the whole group.
    """
    nbrs = [[u for u in range(n) if m >> u & 1] for m in masks]
    edges = [(v, u) for v in range(n) for u in nbrs[v] if u > v]
    gens: list[list[int]] = []
    first = best = None  # key, order and path of the first leaf, and of the least

    def leaf(colors: list[int], path: tuple[int, ...]) -> int | None:
        nonlocal first, best
        key, order = _leaf_key(edges, colors, seats)
        if first is None:
            first = best = key, order, path
            return None
        if key == first[0]:
            _, ref_order, ref_path = first
        elif key == best[0]:
            _, ref_order, ref_path = best
        else:
            if key < best[0]:
                best = key, order, path
            return None
        aut = [0] * n
        for a, b in zip(ref_order, order):
            aut[a] = b
        if aut not in gens and aut != list(range(n)):
            gens.append(aut)
        c = 0  # no leaf's path extends another's, so the paths part
        while ref_path[c] == path[c]:
            c += 1
        if aut[ref_path[c]] == path[c] and all(aut[v] == v for v in path[:c]):
            return c  # the branch at depth c is the image of the reference's
        return None

    def visit(colors: list[int], path: tuple[int, ...]) -> int | None:
        """Search below the node `path`; a depth d < len(path) returned means
        that everything below depth d is done."""
        colors = _refine(nbrs, colors)
        if len(set(colors)) == n:
            return leaf(colors, path)
        sizes = [0] * n
        for c in colors:
            sizes[c] += 1
        first_cell = next(c for c, size in enumerate(sizes) if size > 1)
        target = [v for v, c in enumerate(colors) if c == first_cell]
        depth = len(path)
        orbit = list(range(n))  # each vertex's orbit minimum
        used = 0
        explored: list[int] = []
        for v in target:
            for aut in gens[used:]:
                if all(aut[u] == u for u in path):
                    _join_orbits(orbit, aut)
            used = len(gens)
            if any(orbit[x] == orbit[v] for x in explored):
                continue
            explored.append(v)
            child = list(colors)
            child[v] = -1  # individualize; refinement renumbers compactly
            back = visit(child, path + (v,))
            if back is not None and back < depth:
                return back
        return None

    visit(colors, ())
    del visit  # it calls itself through its closure: free that cycle now
    return best[0], gens


def _join_orbits(orbit: list[int], aut: list[int]) -> None:
    """Merge the orbits in `orbit`, each vertex's orbit minimum, under `aut`."""
    for v, w in enumerate(aut):
        a, b = orbit[v], orbit[w]
        if a != b:
            lo, hi = (a, b) if a < b else (b, a)
            for u, r in enumerate(orbit):
                if r == hi:
                    orbit[u] = lo


def _seated_search(
    n: int, masks: list[int], seats: tuple[int, ...]
) -> tuple[tuple, list[list[int]]]:
    """`_canon_search` of a graph whose i-th seat vertex carries label i+1."""
    colors = [0] * n
    for i, v in enumerate(seats):
        colors[v] = -(i + 1)  # negative: fixed seats, refined into stable ids
    return _canon_search(n, masks, colors, colors)


def _orbit_least_subsets(n: int, gens: list[list[int]]) -> Iterator[int]:
    """Ascending, every nonempty vertex mask that no automorphism maps to a
    smaller integer.  `gens` generate the automorphisms (`_canon_search`), so
    an orbit is the closure of any one member under them."""
    images = []
    for aut in gens:
        image = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            image[m] = image[m ^ low] | 1 << aut[low.bit_length() - 1]
        images.append(image)
    done = bytearray(1 << n)
    for nb in range(1, 1 << n):
        if done[nb]:
            continue
        yield nb
        done[nb] = 1
        stack = [nb]
        while stack:
            m = stack.pop()
            for image in images:
                m2 = image[m]
                if not done[m2]:
                    done[m2] = 1
                    stack.append(m2)


def connected_graphs(
    max_n: int, width: int | None = None
) -> dict[int, list[tuple[Graph, list[list[int]]]]]:
    """All connected graphs with 1..max_n vertices, of treewidth at most
    `width` when it is given, one per isomorphism class in canonical order,
    each with generators of its automorphism group (`_canon_search`).

    Built by vertex augmentation: every connected graph on n+1 vertices arises
    from a connected graph on n vertices (delete a non-cut vertex, which always
    exists) by attaching a new vertex to a nonempty neighborhood.  A treewidth
    bound is closed under vertex deletion, so filtering every level is
    complete.  Neighborhoods in one orbit of Aut(parent) give isomorphic
    graphs, so each parent is extended only by the least neighborhood of every
    orbit (canonical augmentation, McKay 1998).  Within a parent the first
    neighborhood to give a class is the least of its orbit, so the graph kept
    per class is the one that extending by every neighborhood keeps.  Each
    level extends the cached one below it, so the levels are shared.
    """
    return _levels(max_n, width)


@lru_cache(maxsize=64)
def _levels(max_n: int, width: int | None) -> dict[int, list[tuple[Graph, list[list[int]]]]]:
    """`connected_graphs`, cached by positional arguments only, so that each
    level is one cache entry whatever the call form."""
    if max_n < 1:
        return {}
    if max_n == 1:
        g = Graph(1)
        return {1: [(g, [])] if width is None or decide_treewidth(g, width) else []}
    out = dict(_levels(max_n - 1, width))
    n = max_n - 1
    seen: dict[tuple, tuple[Graph, list[list[int]]]] = {}
    for g, gens in out[n]:
        masks = adjacency_masks(g)
        base_edges = list(g.edges)
        for nb in _orbit_least_subsets(n, gens):
            edges = base_edges + [(v, n) for v in range(n) if nb >> v & 1]
            h = None
            if width is not None:
                h = Graph(max_n, edges)
                if not decide_treewidth(h, width):
                    continue
            h_masks = [m | (nb >> v & 1) << n for v, m in enumerate(masks)] + [nb]
            key, h_gens = _seated_search(max_n, h_masks, ())
            if key not in seen:
                seen[key] = (Graph(max_n, edges) if h is None else h, h_gens)
    out[max_n] = [seen[k] for k in sorted(seen)]
    return out


def boundaried_universe(max_n: int, b: int, width: int | None = None) -> list[BoundariedGraph]:
    """The graphs of `connected_graphs(max_n, width)` with labels exactly
    1..b designated in every non-equivalent way, ordered by size then
    canonically.

    Label i+1 goes on the smallest vertex of each orbit of the automorphisms
    fixing labels 1..i: each placement is the least of its orbit, in order.
    """
    levels = connected_graphs(max_n, width)
    pool = [c for n in range(max(b, 1), max_n + 1) for c in levels[n]]
    out: list[BoundariedGraph] = []
    for g, gens in sorted(pool, key=lambda c: (c[0].n, c[0].m)):
        if b == 0:
            out.append(BoundariedGraph(g, {}))
            continue
        for seats in _placements(g.n, adjacency_masks(g), b, (), gens):
            out.append(BoundariedGraph(g, {v: i + 1 for i, v in enumerate(seats)}))
    return out


def _placements(
    n: int, masks: list[int], b: int, seats: tuple[int, ...], gens: list[list[int]]
) -> Iterator[tuple[int, ...]]:
    """The lexicographically least b-seat extension of `seats` in every orbit,
    in lexicographic order; `gens` generate the automorphisms fixing `seats`
    (`_seated_search(n, masks, seats)[1]`), and the next seat goes on the
    least vertex of each of their orbits."""
    orbit = list(range(n))
    for aut in gens:
        _join_orbits(orbit, aut)
    for v in sorted(set(orbit) - set(seats)):
        more = seats + (v,)
        if len(more) == b:
            yield more
        else:
            yield from _placements(n, masks, b, more, _seated_search(n, masks, more)[1])
