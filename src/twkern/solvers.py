"""Exact branch-and-bound solvers on bitmask adjacency.

Solvers take `adjacency_masks`, so the certificate probes never build a
`Graph`.  They are the workhorse oracles for instances up to a couple dozen
vertices; `problems.opt_brute` stays the reference they are validated against.
"""

from __future__ import annotations

from .graphs import BudgetError, Graph

CYCLE_PACKING_BUDGET = 12


def adjacency_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def vertex_cover_opt(adj: list[int]) -> tuple[int, frozenset[int]]:
    n = len(adj)
    best = [n, (1 << n) - 1]

    def matching_lb(active: int) -> int:
        used = 0
        count = 0
        for v in _bits(active):
            if used >> v & 1:
                continue
            free = adj[v] & active & ~used
            if free:
                used |= (1 << v) | (free & -free)
                count += 1
        return count

    def rec(active: int, cover: int, size: int) -> None:
        # peel degree-1 vertices: always take the other endpoint
        while True:
            leaf = -1
            for v in _bits(active):
                d = adj[v] & active
                if d and d & (d - 1) == 0:
                    leaf = v
                    break
            if leaf < 0:
                break
            w = (adj[leaf] & active).bit_length() - 1
            cover |= 1 << w
            size += 1
            active &= ~(1 << w)
            if size >= best[0]:
                return
        pick = -1
        deg = 0
        for v in _bits(active):
            d = (adj[v] & active).bit_count()
            if d > deg:
                deg, pick = d, v
        if pick < 0:
            if size < best[0]:
                best[0], best[1] = size, cover
            return
        if size + matching_lb(active) >= best[0]:
            return
        rec(active & ~(1 << pick), cover | (1 << pick), size + 1)
        nb = adj[pick] & active
        rec(active & ~nb & ~(1 << pick), cover | nb, size + deg)

    rec((1 << n) - 1, 0, 0)
    return best[0], frozenset(_bits(best[1]))


def independent_set_opt(adj: list[int]) -> tuple[int, frozenset[int]]:
    n = len(adj)
    best = [0, 0]

    def rec(active: int, chosen: int, size: int) -> None:
        while True:
            low = -1
            for v in _bits(active):
                d = adj[v] & active
                if d.bit_count() <= 1:
                    low = v
                    break
            if low < 0:
                break
            chosen |= 1 << low
            size += 1
            active &= ~(adj[low] | (1 << low))
        if not active:
            if size > best[0]:
                best[0], best[1] = size, chosen
            return
        if size + active.bit_count() <= best[0]:
            return
        pick = max(_bits(active), key=lambda v: (adj[v] & active).bit_count())
        rec(active & ~(adj[pick] | (1 << pick)), chosen | (1 << pick), size + 1)
        rec(active & ~(1 << pick), chosen, size)

    rec((1 << n) - 1, 0, 0)
    return best[0], frozenset(_bits(best[1]))


def dominating_set_opt(adj: list[int]) -> tuple[int, frozenset[int]]:
    n = len(adj)
    if n == 0:
        return 0, frozenset()
    closed = [adj[v] | (1 << v) for v in range(n)]
    closed_size = [c.bit_count() for c in closed]
    full = (1 << n) - 1

    # greedy upper bound seeds the search
    dominated, chosen = 0, 0
    while dominated != full:
        v = max(range(n), key=lambda v: (closed[v] & ~dominated).bit_count())
        chosen |= 1 << v
        dominated |= closed[v]
    best = [chosen.bit_count(), chosen]
    max_cover = max(closed_size)

    def rec(dominated: int, chosen: int, size: int) -> None:
        if dominated == full:
            if size < best[0]:
                best[0], best[1] = size, chosen
            return
        rest = (full & ~dominated).bit_count()
        if size + -(-rest // max_cover) >= best[0]:
            return
        # branch on the undominated vertex with fewest potential dominators
        v = min(_bits(full & ~dominated), key=closed_size.__getitem__)
        cands = sorted(_bits(closed[v]), key=lambda u: -(closed[u] & ~dominated).bit_count())
        for u in cands:
            rec(dominated | closed[u], chosen | (1 << u), size + 1)

    rec(0, 0, 0)
    return best[0], frozenset(_bits(best[1]))


def _find_cycle(adj: list[int], active: int) -> list[int] | None:
    """A shortest cycle within the active vertex set, or None when the active
    vertices induce a forest."""
    best: list[int] | None = None
    for root in _bits(active):
        # BFS from root; first non-tree edge closing back gives a short cycle
        parent = {root: -1}
        dist = {root: 0}
        queue = [root]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for u in _bits(adj[v] & active):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    parent[u] = v
                    queue.append(u)
                elif parent[v] != u and parent[u] != v:
                    pa, pb = v, u
                    path_a, path_b = [pa], [pb]
                    while dist[pa] > dist[pb]:
                        pa = parent[pa]
                        path_a.append(pa)
                    while dist[pb] > dist[pa]:
                        pb = parent[pb]
                        path_b.append(pb)
                    while pa != pb:
                        pa, pb = parent[pa], parent[pb]
                        path_a.append(pa)
                        path_b.append(pb)
                    cycle = path_a + path_b[-2::-1]
                    if len(set(cycle)) == len(cycle):
                        if best is None or len(cycle) < len(best):
                            best = cycle
        if best is not None and len(best) == 3:
            return best
    return best


def feedback_vertex_set_opt(adj: list[int]) -> tuple[int, frozenset[int]]:
    n = len(adj)
    best: list = [n, 0]

    def rec(active: int, removed: int, size: int) -> None:
        if size >= best[0]:
            return
        cyc = _find_cycle(adj, active)
        if cyc is None:
            best[0], best[1] = size, removed
            return
        for v in cyc:
            rec(active & ~(1 << v), removed | (1 << v), size + 1)

    rec((1 << n) - 1, 0, 0)
    return best[0], frozenset(_bits(best[1]))


def enumerate_cycles(adj: list[int]) -> list[frozenset[int]]:
    """All simple cycles as vertex sets (each once: rooted at their minimum)."""
    cycles = set()

    def extend(root: int, path: list[int], on_path: int) -> None:
        v = path[-1]
        for u in _bits(adj[v]):
            if u == root and len(path) >= 3 and path[1] < path[-1]:
                cycles.add(frozenset(path))
            elif u > root and not on_path >> u & 1:
                path.append(u)
                extend(root, path, on_path | (1 << u))
                path.pop()

    for root in range(len(adj)):
        extend(root, [root], 1 << root)
    return sorted(cycles, key=lambda c: (len(c), sorted(c)))


def cycle_packing_opt(adj: list[int]) -> tuple[int, frozenset[int]]:
    """Maximum number of vertex-disjoint cycles, with one witness vertex per cycle."""
    n = len(adj)
    if n > CYCLE_PACKING_BUDGET:
        raise BudgetError(f"cycle packing oracle limited to {CYCLE_PACKING_BUDGET} vertices")
    cycles = enumerate_cycles(adj)
    masks = [sum(1 << v for v in c) for c in cycles]
    by_vertex: dict[int, list[int]] = {v: [] for v in range(n)}
    for i, m in enumerate(masks):
        for v in _bits(m):
            by_vertex[v].append(i)
    best = [0, []]

    def rec(available: int, count: int, picked: list[int]) -> None:
        if count > best[0]:
            best[0], best[1] = count, list(picked)
        if not available:
            return
        if count + available.bit_count() // 3 <= best[0]:
            return
        v = (available & -available).bit_length() - 1
        for i in by_vertex[v]:
            if masks[i] & ~available == 0:
                picked.append(i)
                rec(available & ~masks[i], count + 1, picked)
                picked.pop()
        rec(available & ~(1 << v), count, picked)

    rec((1 << n) - 1, 0, [])
    witness = frozenset(min(cycles[i]) for i in best[1])
    return best[0], witness
