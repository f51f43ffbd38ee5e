"""Exact branch-and-bound solvers on bitmask adjacency.

Solvers take `adjacency_masks`, so the certificate probes never build a
`Graph`, and return the optimum with a witness as a vertex mask, which the
probes never read.  Their loops walk set bits inline (`low = m & -m`): a
generator there was the largest self time of table certification.  They are
the first rung of `harness.reference_oracle` within `problems.BRUTE_BUDGET`
vertices, where they are faster than the tree-decomposition DP;
`problems.opt_brute` stays the reference they are validated against, and the
DP a second one up to that budget.
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


def vertex_cover_opt(adj: list[int]) -> tuple[int, int]:
    """Minimum vertex cover: its size and a cover as a vertex mask."""
    n = len(adj)
    best = [n, (1 << n) - 1]

    def matching_lb(active: int) -> int:
        used = 0
        count = 0
        m = active
        while m:
            low = m & -m
            m ^= low
            if used & low:
                continue
            free = adj[low.bit_length() - 1] & active & ~used
            if free:
                used |= low | (free & -free)
                count += 1
        return count

    def rec(active: int, cover: int, size: int) -> None:
        # peel degree-1 vertices, lowest first: always take the other endpoint
        m = active
        while m:
            low = m & -m
            m ^= low
            d = adj[low.bit_length() - 1] & active
            if d and d & (d - 1) == 0:
                cover |= d
                size += 1
                if size >= best[0]:
                    return
                active ^= d
                # only the taken vertex's neighbours changed degree
                m = (m | adj[d.bit_length() - 1]) & active
        pick = -1
        deg = 0
        m = active
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
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
    return best[0], best[1]


def independent_set_opt(adj: list[int]) -> tuple[int, int]:
    """Maximum independent set: its size and a set as a vertex mask."""
    n = len(adj)
    best = [0, 0]

    def rec(active: int, chosen: int, size: int) -> None:
        while True:
            m = active
            while m:
                low = m & -m
                m ^= low
                if (adj[low.bit_length() - 1] & active).bit_count() <= 1:
                    break
            else:
                break
            chosen |= low
            size += 1
            active &= ~(adj[low.bit_length() - 1] | low)
        if not active:
            if size > best[0]:
                best[0], best[1] = size, chosen
            return
        if size + active.bit_count() <= best[0]:
            return
        # the first vertex of largest degree, as max() picks it
        pick = -1
        deg = -1
        m = active
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            d = (adj[v] & active).bit_count()
            if d > deg:
                deg, pick = d, v
        rec(active & ~(adj[pick] | (1 << pick)), chosen | (1 << pick), size + 1)
        rec(active & ~(1 << pick), chosen, size)

    rec((1 << n) - 1, 0, 0)
    return best[0], best[1]


def dominating_set_opt(adj: list[int]) -> tuple[int, int]:
    """Minimum dominating set: its size and a set as a vertex mask."""
    n = len(adj)
    if n == 0:
        return 0, 0
    closed = [adj[v] | (1 << v) for v in range(n)]
    closed_size = [c.bit_count() for c in closed]
    full = (1 << n) - 1

    # greedy upper bound starts the search: the first vertex of largest gain
    dominated, chosen = 0, 0
    while dominated != full:
        pick, gain = 0, -1
        for v in range(n):
            g = (closed[v] & ~dominated).bit_count()
            if g > gain:
                pick, gain = v, g
        chosen |= 1 << pick
        dominated |= closed[pick]
    best = [chosen.bit_count(), chosen]
    max_cover = max(closed_size)

    def rec(dominated: int, chosen: int, size: int) -> None:
        if dominated == full:
            if size < best[0]:
                best[0], best[1] = size, chosen
            return
        rest = full & ~dominated
        if size + -(-rest.bit_count() // max_cover) >= best[0]:
            return
        # branch on the first undominated vertex with fewest potential dominators
        v, fewest = -1, n + 1
        m = rest
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            if closed_size[u] < fewest:
                v, fewest = u, closed_size[u]
        # dominators by decreasing gain, ties by ascending vertex
        cands = []
        m = closed[v]
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            cands.append((-(closed[u] & rest).bit_count(), u))
        cands.sort()
        for _, u in cands:
            rec(dominated | closed[u], chosen | (1 << u), size + 1)

    rec(0, 0, 0)
    return best[0], best[1]


def _component(adj: list[int], start: int, within: int) -> int:
    """The vertex mask of the component of `start` (a mask of one vertex) in
    the subgraph induced by `within`."""
    comp = frontier = start
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reach |= adj[low.bit_length() - 1]
        frontier = reach & within & ~comp
        comp |= frontier
    return comp


def feedback_vertex_set_opt(adj: list[int]) -> tuple[int, int]:
    """Minimum feedback vertex set: its size and a set as a vertex mask.

    Vertices of degree at most 1 lie on no cycle and are peeled.  Deleting a
    vertex of degree d lowers the cycle rank m - n + c by at most d - 1, so
    ceil(rank / (max degree - 1)) more deletions are needed.  The search
    branches on the first undecided vertex of largest degree: delete it, or
    keep it for good, which is pruned when the kept vertices close a cycle.
    """
    n = len(adj)
    best = [n, (1 << n) - 1]

    def rec(active: int, kept: int, removed: int, size: int) -> None:
        # peel degree <= 1 vertices; a peeled vertex's neighbour is rechecked
        m = active
        while m:
            low = m & -m
            m ^= low
            d = adj[low.bit_length() - 1] & active
            if d & (d - 1) == 0:
                active ^= low
                m |= d
        if not active:
            if size < best[0]:
                best[0], best[1] = size, removed
            return
        # every vertex now has degree >= 2 and the kept ones induce a forest,
        # so some vertex is undecided
        kept &= active
        twice_m = 0
        pick, deg = -1, 0
        m = active
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            d = (adj[v] & active).bit_count()
            twice_m += d
            if d > deg and not kept & low:
                pick, deg = v, d
        rank = twice_m // 2 - active.bit_count()
        rest = active
        while rest:
            rest &= ~_component(adj, rest & -rest, active)
            rank += 1
        bound = size - (-rank // (deg - 1))
        if bound >= best[0]:
            return
        bit = 1 << pick
        rec(active ^ bit, kept, removed | bit, size + 1)
        if bound >= best[0]:
            return
        kept |= bit
        tree = _component(adj, bit, kept)
        edges = 0
        m = tree
        while m:
            low = m & -m
            m ^= low
            edges += (adj[low.bit_length() - 1] & tree).bit_count()
        if edges == 2 * (tree.bit_count() - 1):
            rec(active, kept, removed, size)

    rec((1 << n) - 1, 0, 0, 0)
    return best[0], best[1]


def enumerate_cycles(adj: list[int]) -> list[frozenset[int]]:
    """All simple cycles as vertex sets (each once: rooted at their minimum)."""
    cycles = set()

    def extend(root: int, path: list[int], on_path: int) -> None:
        m = adj[path[-1]]
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            if u == root and len(path) >= 3 and path[1] < path[-1]:
                cycles.add(frozenset(path))
            elif u > root and not on_path >> u & 1:
                path.append(u)
                extend(root, path, on_path | (1 << u))
                path.pop()

    for root in range(len(adj)):
        extend(root, [root], 1 << root)
    return sorted(cycles, key=lambda c: (len(c), sorted(c)))


def cycle_packing_opt(adj: list[int]) -> tuple[int, int]:
    """Maximum number of vertex-disjoint cycles, with one witness vertex per
    cycle, as a vertex mask."""
    n = len(adj)
    if n > CYCLE_PACKING_BUDGET:
        raise BudgetError(f"cycle packing oracle limited to {CYCLE_PACKING_BUDGET} vertices")
    cycles = enumerate_cycles(adj)
    masks = [sum(1 << v for v in c) for c in cycles]
    by_vertex: dict[int, list[int]] = {v: [] for v in range(n)}
    for i, c in enumerate(cycles):
        for v in c:
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
    witness = 0
    for i in best[1]:
        witness |= 1 << min(cycles[i])
    return best[0], witness
