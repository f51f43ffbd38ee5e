"""Exact solvers and certificate probes on bitmask adjacency.

Each problem has one exact search, which its solver and its probe share:
vertex cover branches and bounds in `_cover`, independent set is the
complement of a minimum vertex cover (Gallai: IS(G) = n - VC(G)), dominating
set recurses with a memo in `_dominate`, and feedback vertex set branches and
bounds in `feedback_vertex_set_opt`.

Solvers take `graphs.adjacency_masks` and return an optimal solution as a
vertex mask, whose size is the optimum.  Their loops walk set bits inline
(`low = m & -m`): a generator there was the largest self time of table
certification.  They are the first rung of `harness.reference_oracle`
within `problems.BRUTE_BUDGET` vertices, where they are faster than the
tree-decomposition DP; `problems.opt_brute` stays the reference they are
validated against, and the DP a second one up to that budget.

Probes answer OPT of one gadget glued onto each certificate context with no
`Graph` built, in two halves.  The gadget half runs once per gadget the
part of the search that reads no context bit: the vertex cover and
dominating set probes branch there on the gadget's vertices that are not
labels, and keep the best cost of each state the labels are left in.  The
context half runs per context: it completes each of those states exactly
and takes the optimum of what is left inside the context from a memo that
the context shares between gadgets.  The independent set probe runs the
vertex cover probe.  Feedback vertex set glues and solves each glued graph
afresh (`solver_probe`).
"""

from __future__ import annotations

from typing import Callable

from .graphs import glue_gadget


def vertex_cover_opt(adj: list[int]) -> int:
    """A minimum vertex cover as a vertex mask."""
    return _cover(adj, (1 << len(adj)) - 1)


def _cover(adj: list[int], active: int) -> int:
    """A minimum vertex cover of the subgraph induced by `active`, as a mask.

    Depth first on an explicit stack: take the first vertex of largest degree,
    or all its neighbours, after peeling degree-1 vertices; prune by a greedy
    matching.  A node whose size already reaches the best cover is skipped."""
    best, best_cover = active.bit_count(), active
    stack = [(active, 0, 0)]
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
    return best_cover


def independent_set_opt(adj: list[int]) -> int:
    """A maximum independent set as a vertex mask.

    By Gallai's identity the complement of a minimum vertex cover is a
    maximum independent set, so this runs `_cover`."""
    full = (1 << len(adj)) - 1
    return full & ~_cover(adj, full)


def dominating_set_opt(adj: list[int]) -> int:
    """A minimum dominating set as a vertex mask.

    `_dominate` with the whole graph as the context memoizes the optimum of
    every undominated set it searches.  The witness is read back from that
    memo: one dominator of the highest undominated vertex at a time, the
    first whose remaining undominated set needs one fewer."""
    full = (1 << len(adj)) - 1
    memo = {0: 0}  # `_dominate` stores no empty set; the last pick reads it
    opt = _dominate(adj, full, memo, full)
    chosen = 0
    undominated = full
    while undominated:
        x = undominated.bit_length() - 1
        m = adj[x] | 1 << x
        while m:
            low = m & -m
            m ^= low
            rest = undominated & ~(adj[low.bit_length() - 1] | low)
            if memo.get(rest) == opt - 1:
                break
        chosen |= low
        undominated = rest
        opt -= 1
    return chosen


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


def feedback_vertex_set_opt(adj: list[int]) -> int:
    """A minimum feedback vertex set as a vertex mask.

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
    return best[1]


# ---------------------------------------------------------------------------
# certificate probes
#
# A probe comes in two halves.  `probe(gadget, b)` takes a gadget's
# `graphs.gadget_plan` (labels 1..b as bits 0..b-1, then its other vertices)
# and runs once the part of the search that does not depend on the context.
# It returns the context half, a function `(plan, memo) -> int` that finishes
# the search on one `graphs.glue_plan` and answers OPT of the gadget glued
# onto that context.  The glued numbering is that of `graphs.glue_gadget`:
# the context's u unlabeled vertices, then the b shared labels, then the
# gadget's other vertices.  `memo` belongs to the context; the table build
# shares it between every gadget probed against that context.  It holds only
# exact optima of residual graphs that lie inside the context, each from an
# unbounded search.
#
# No decision of a gadget half reads the context.  A gadget vertex that is
# not a label has all its neighbours in the gadget, so its degree, its
# dominators and their gains are the same in every glued graph.  A label's
# are not, so a label is never peeled or dropped.  A leaf is a state in
# which only labels are left of the gadget, kept with the least size that
# reaches it; the context half takes the best leaf completed exactly, which
# is the optimum of the glued graph.


def solver_probe(
    solver: Callable[[list[int]], int]
) -> Callable[[tuple[int, ...], int], Callable[[tuple, dict], int]]:
    """A probe whose context half glues the gadget onto the context and
    solves the glued graph afresh with `solver`; it keeps nothing in the
    memo."""

    def probe(gadget: tuple[int, ...], b: int) -> Callable[[tuple, dict], int]:
        def on_context(plan: tuple, memo: dict) -> int:
            return solver(glue_gadget(gadget, plan)).bit_count()

        return on_context

    return probe


def vertex_cover_probe(gadget: tuple[int, ...], b: int) -> Callable[[tuple, dict], int]:
    """Minimum vertex cover of the gadget glued onto each context.

    The gadget half peels and branches on the gadget's vertices that are not
    labels, as `_cover` does but with no bound, until only labels are left
    of the gadget.  Its leaves give the least size for each set of taken
    labels.  Per context, a leaf leaves the context's vertices but the taken
    labels, whose optimum depends on the label–label edges of both sides:
    the memo key is that active set with those edges.  Leaves are tried by
    increasing size, up to the best total found."""
    n = len(gadget)
    labels = (1 << b) - 1
    least: dict[int, int] = {}
    stack = [((1 << n) - 1, 0)]
    while stack:
        active, size = stack.pop()
        m = active & ~labels
        while m:
            low = m & -m
            m ^= low
            d = gadget[low.bit_length() - 1] & active
            if d & (d - 1) == 0:
                # isolated: drop it; one neighbour: take that neighbour
                active ^= low | d
                if d:
                    size += 1
                    m = (m | gadget[d.bit_length() - 1]) & active & ~labels
        rest = active & ~labels
        if not rest:
            taken = labels & ~active
            if size < least.get(taken, n + 1):
                least[taken] = size
            continue
        # branch on the first vertex of largest degree: it, or its neighbours
        pick, deg = 0, 0
        while rest:
            low = rest & -rest
            rest ^= low
            d = (gadget[low.bit_length() - 1] & active).bit_count()
            if d > deg:
                pick, deg = low, d
        nb = gadget[pick.bit_length() - 1] & active
        stack.append((active & ~nb ^ pick, size + deg))
        stack.append((active ^ pick, size + 1))
    leaves = sorted((size, taken) for taken, size in least.items())
    gadget_edges = 0
    for nb in gadget[:b]:
        gadget_edges = gadget_edges << b | nb & labels

    def on_context(plan: tuple, memo: dict) -> int:
        unlabeled, labeled = plan
        u = len(unlabeled)
        edges = 0
        for nb in labeled:
            edges = edges << b | nb >> u
        edges = (edges | gadget_edges) << u + b
        ctx = (1 << u + b) - 1
        best = u + n + 1
        adj = None
        for size, taken in leaves:
            if size >= best:
                break
            active = ctx ^ taken << u
            key = active | edges
            opt = memo.get(key)
            if opt is None:
                if adj is None:
                    adj = [*unlabeled, *(nb | (g & labels) << u for nb, g in zip(labeled, gadget))]
                opt = memo[key] = _cover(adj, active).bit_count()
            if size + opt < best:
                best = size + opt
        return best

    return on_context


def independent_set_probe(gadget: tuple[int, ...], b: int) -> Callable[[tuple, dict], int]:
    """Maximum independent set of the gadget glued onto each context: the
    glued graph's order less its minimum vertex cover (`vertex_cover_probe`,
    whose optima fill the memo)."""
    cover = vertex_cover_probe(gadget, b)
    n = len(gadget)

    def on_context(plan: tuple, memo: dict) -> int:
        return len(plan[0]) + n - cover(plan, memo)

    return on_context


def dominating_set_probe(gadget: tuple[int, ...], b: int) -> Callable[[tuple, dict], int]:
    """Minimum dominating set of the gadget glued onto each context.

    The gadget half branches on the highest undominated vertex that is not a
    label, over its dominators, until only labels may be left undominated.
    A dominator that is not a label is dropped when another dominator's gain
    on the gadget side contains its own (the first of equal ones is kept);
    that gain is its whole gain.  A label also dominates context vertices,
    so it is never dropped.  The leaves give the least cost for each pair
    (labels in the set, labels left undominated).  Per context, the labels
    in the set dominate their context neighbours, labels among them.  If no
    label is then left undominated, the context's undominated unlabeled
    vertices need context vertices alone, so their optimum depends on the
    context only and the memo key is that set.  Otherwise `_dominate` goes
    on in the glued graph from that state.  Leaves are tried by increasing
    cost, up to the best total found."""
    n = len(gadget)
    labels = (1 << b) - 1
    closed = [nb | 1 << v for v, nb in enumerate(gadget)]
    least: dict[tuple[int, int], int] = {}
    stack = [((1 << n) - 1, 0, 0)]
    while stack:
        undominated, chosen, size = stack.pop()
        if not undominated & ~labels:
            key = (chosen, undominated)
            if size < least.get(key, n + 1):
                least[key] = size
            continue
        x = undominated.bit_length() - 1
        gains = []
        m = closed[x]
        while m:
            low = m & -m
            m ^= low
            gains.append((low, undominated & closed[low.bit_length() - 1]))
        for i, (w, gain) in enumerate(gains):
            if w > labels and any(
                other | gain == other and (other != gain or j < i)
                for j, (_, other) in enumerate(gains)
            ):
                continue
            stack.append((undominated & ~gain, chosen | w & labels, size + 1))
    leaves = sorted((size, chosen, left) for (chosen, left), size in least.items())

    def on_context(plan: tuple, memo: dict) -> int:
        unlabeled, labeled = plan
        u = len(unlabeled)
        ctx = (1 << u) - 1
        best = u + n + 1
        adj = None
        for size, chosen, left in leaves:
            if size >= best:
                break
            dominated = 0
            m = chosen
            while m:
                low = m & -m
                m ^= low
                dominated |= labeled[low.bit_length() - 1]
            undominated = (ctx | left << u) & ~dominated
            if undominated & ~ctx:
                if adj is None:
                    adj = glue_gadget(gadget, plan)
                opt = _dominate(adj, ctx, memo, undominated)
            elif undominated:
                opt = memo.get(undominated)
                if opt is None:
                    # inside the context the glued masks read as the context's
                    opt = _dominate([*unlabeled, *labeled], ctx, memo, undominated)
            else:
                opt = 0
            if size + opt < best:
                best = size + opt
        return best

    return on_context


def _dominate(adj: list[int], ctx: int, memo: dict, undominated: int) -> int:
    inside = not undominated & ~ctx
    if inside:
        if not undominated:
            return 0
        opt = memo.get(undominated)
        if opt is not None:
            return opt
    x = undominated.bit_length() - 1
    gains = []
    m = adj[x] | 1 << x
    while m:
        low = m & -m
        m ^= low
        gains.append(undominated & (adj[low.bit_length() - 1] | low))
    opt = len(adj)
    for i, gain in enumerate(gains):
        for j, other in enumerate(gains):
            if other | gain == other and (other != gain or j < i):
                break
        else:
            sub = _dominate(adj, ctx, memo, undominated & ~gain)
            if sub < opt:
                opt = sub
    opt += 1
    if inside:
        memo[undominated] = opt
    return opt
