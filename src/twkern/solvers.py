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

from .graphs import Graph


def adjacency_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def vertex_cover_opt(adj: list[int]) -> tuple[int, int]:
    """Minimum vertex cover: its size and a cover as a vertex mask.

    Depth first on an explicit stack: take the first vertex of largest degree,
    or all its neighbours, after peeling degree-1 vertices; prune by a greedy
    matching.  A node whose size already reaches the best cover is skipped."""
    n = len(adj)
    best, best_cover = n, (1 << n) - 1
    stack = [((1 << n) - 1, 0, 0)]
    while stack:
        active, cover, size = stack.pop()
        if size >= best:
            continue
        # peel degree-1 vertices, lowest first: always take the other endpoint
        m = active
        while m:
            low = m & -m
            m ^= low
            d = adj[low.bit_length() - 1] & active
            if d and d & (d - 1) == 0:
                cover |= d
                size += 1
                if size >= best:
                    break
                active ^= d
                # only the taken vertex's neighbours changed degree
                m = (m | adj[d.bit_length() - 1]) & active
        if size >= best:
            continue
        # the first vertex of largest degree, and a greedy maximal matching,
        # which is a lower bound
        pick = -1
        deg = 0
        used = 0
        bound = size
        m = active
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            nb = adj[v] & active
            d = nb.bit_count()
            if d > deg:
                deg, pick = d, v
            if not used & low:
                free = nb & ~used
                if free:
                    used |= low | (free & -free)
                    bound += 1
        if pick < 0:
            best, best_cover = size, cover
            continue
        if bound >= best:
            continue
        bit = 1 << pick
        nb = adj[pick] & active
        if size + deg < best:
            stack.append((active & ~nb & ~bit, cover | nb, size + deg))
        stack.append((active & ~bit, cover | bit, size + 1))
    return best, best_cover


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
    del rec  # it calls itself through its closure: free that cycle now
    return best[0], best[1]


def dominating_set_opt(adj: list[int]) -> tuple[int, int]:
    """Minimum dominating set: its size and a set as a vertex mask.

    Depth first on an explicit stack from a greedy upper bound: branch on the
    dominators of the first undominated vertex with fewest, by decreasing
    gain; prune when the undominated vertices need more picks than the best
    set leaves.  A child that bound prunes is not pushed."""
    n = len(adj)
    if n == 0:
        return 0, 0
    closed = [m | 1 << v for v, m in enumerate(adj)]
    closed_size = [c.bit_count() for c in closed]
    max_cover = max(closed_size)
    full = (1 << n) - 1

    # greedy upper bound starts the search: the first vertex of largest gain,
    # which is the first of largest closed size while nothing is dominated
    pick = closed_size.index(max_cover)
    chosen = 1 << pick
    rest = full & ~closed[pick]
    while rest:
        pick, gain = 0, -1
        for v, c in enumerate(closed):
            g = (c & rest).bit_count()
            if g > gain:
                pick, gain = v, g
        chosen |= 1 << pick
        rest &= ~closed[pick]
    best, best_set = chosen.bit_count(), chosen
    # branching takes the first undominated vertex in this order
    fewest_first = sorted(range(n), key=closed_size.__getitem__)

    stack = [(0, 0, 0)]
    while stack:
        dominated, chosen, size = stack.pop()
        if dominated == full:
            if size < best:
                best, best_set = size, chosen
            continue
        rest = full & ~dominated
        left = rest.bit_count()
        if size + -(-left // max_cover) >= best:
            continue
        # branch on the first undominated vertex with fewest potential dominators
        for v in fewest_first:
            if rest >> v & 1:
                break
        # dominators by decreasing gain, ties by ascending vertex
        cands = []
        m = closed[v]
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            cands.append((-(closed[u] & rest).bit_count(), u))
        cands.sort(reverse=True)
        # push in reverse, the first candidate last; skip a child the bound
        # prunes: size + 1 + ceil((left - gain) / max_cover) >= best
        limit = (best - size - 2) * max_cover - left
        for neg_gain, u in cands:
            if neg_gain <= limit:
                stack.append((dominated | closed[u], chosen | (1 << u), size + 1))
    return best, best_set


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
    del rec  # it calls itself through its closure: free that cycle now
    return best[0], best[1]
