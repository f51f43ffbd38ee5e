"""Reference computations made apart from the program under test.

Nothing here imports twkern.  Graphs are plain ``(n, edges)`` pairs with
vertices ``0..n-1``; a gadget is ``(n, edges, boundary)`` where
``boundary[i]`` carries label ``i + 1``.  Every routine is a direct reading of
the definition (subset enumeration, Prüfer sequences, König's theorem) so that
agreement with the program is evidence, not an echo of the same code.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from functools import lru_cache
from itertools import combinations, product

# Published counts, indexed by vertex count n = 1, 2, ...
CONNECTED_GRAPHS = (1, 1, 2, 6, 21, 112, 853)  # OEIS A001349
ROOTED_CONNECTED_GRAPHS = (1, 1, 3, 11, 58, 407, 4306)  # OEIS A126100
TREES = (1, 1, 1, 2, 3, 6, 11)  # OEIS A000055
ROOTED_TREES = (1, 1, 2, 4, 9, 20, 48)  # OEIS A000081

# separability allowance f(b) of each problem; signatures keep costs within
# 2 f(b) of the cheapest state
SEPARABILITY = {"vertex-cover": lambda b: b, "dominating-set": lambda b: 2 * b}

IN, DOM, NEED = 0, 1, 2


def masks_of(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# trees up to isomorphism


def _labeled_trees(n: int):
    """Every labeled tree on n vertices, from its Prüfer sequence."""
    if n == 1:
        yield ()
        return
    if n == 2:
        yield ((0, 1),)
        return
    for seq in product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        for v in seq:
            leaf = min(u for u in range(n) if degree[u] == 1)
            edges.append((leaf, v))
            degree[leaf] -= 1
            degree[v] -= 1
        u, w = (x for x in range(n) if degree[x] == 1)
        edges.append((u, w))
        yield tuple(edges)


def _rooted_code(adj: list[list[int]], root: int, parent: int = -1) -> str:
    """AHU code: equal exactly for isomorphic rooted trees."""
    return "(" + "".join(sorted(_rooted_code(adj, c, root) for c in adj[root] if c != parent)) + ")"


@lru_cache(maxsize=None)
def tree_gadgets(max_n: int, b: int) -> tuple[tuple[int, tuple, tuple], ...]:
    """One gadget per isomorphism class of trees (b = 0) or rooted trees
    (b = 1, the root is the boundary) with 1..max_n vertices."""
    if b not in (0, 1):
        raise ValueError("trees are enumerated with boundary size 0 or 1")
    out = []
    for n in range(1, max_n + 1):
        seen = set()
        for edges in _labeled_trees(n):
            adj = [[] for _ in range(n)]
            for u, v in edges:
                adj[u].append(v)
                adj[v].append(u)
            codes = [_rooted_code(adj, r) for r in range(n)]
            for r in range(n):
                key = min(codes) if b == 0 else codes[r]
                if key not in seen:
                    seen.add(key)
                    out.append((n, tuple(sorted(edges)), () if b == 0 else (r,)))
                if b == 0:
                    break
    return tuple(out)


def self_check(max_n: int = 6) -> list[str]:
    """Problems found comparing the tree enumeration with published counts."""
    out = []
    for b, published in ((0, TREES), (1, ROOTED_TREES)):
        by_n = Counter(gadget[0] for gadget in tree_gadgets(max_n, b))
        got = tuple(by_n.get(n, 0) for n in range(1, max_n + 1))
        if got != published[:max_n]:
            out.append(f"trees with b={b} by vertex count are {got}, published {published[:max_n]}")
    return out


# ---------------------------------------------------------------------------
# exact optima by subset enumeration


def _is_vertex_cover(edges, s: int) -> bool:
    return all(s >> u & 1 or s >> v & 1 for u, v in edges)


def brute_opt(problem: str, n: int, edges) -> int:
    """Minimum vertex cover or dominating set size, smallest subsets first."""
    adj = masks_of(n, edges)
    everyone = (1 << n) - 1
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            s = sum(1 << v for v in combo)
            if problem == "vertex-cover":
                if _is_vertex_cover(edges, s):
                    return size
            elif problem == "dominating-set":
                dominated = s
                for v in combo:
                    dominated |= adj[v]
                if dominated == everyone:
                    return size
            else:
                raise ValueError(problem)
    raise AssertionError("the full vertex set is always feasible")


def signature(problem: str, gadget) -> tuple[tuple, int]:
    """(entries, offset) of a gadget: the cheapest interior completion per
    boundary state, in the canonical state order, minus the cheapest state;
    states more than 2 f(b) above it read None."""
    n, edges, boundary = gadget
    b = len(boundary)
    adj = masks_of(n, edges)
    bset = sum(1 << v for v in boundary)
    raw: dict = {}
    for s in range(1 << n):
        if problem == "vertex-cover":
            if not _is_vertex_cover(edges, s):
                continue
            state = sum(1 << i for i, v in enumerate(boundary) if s >> v & 1)
        elif problem == "dominating-set":
            dominated = s
            for v in _bits(s):
                dominated |= adj[v]
            interior = ((1 << n) - 1) & ~bset
            if interior & ~dominated:
                continue
            state = tuple(
                IN if s >> v & 1 else DOM if dominated >> v & 1 else NEED for v in boundary
            )
        else:
            raise ValueError(problem)
        cost = bin(s).count("1")
        if state not in raw or cost < raw[state]:
            raw[state] = cost
    if problem == "vertex-cover":
        states = list(range(1 << b))
    else:
        states = list(product((IN, DOM, NEED), repeat=b))
    anchor = min(raw.values())
    window = 2 * SEPARABILITY[problem](b)
    entries = tuple(
        raw[s] - anchor if s in raw and raw[s] - anchor <= window else None for s in states
    )
    return entries, anchor


def signature_classes(problem: str, max_n: int, t: int) -> dict[tuple, dict]:
    """Every signature class realized by tree gadgets with boundary size 0..t:
    key (b, entries) -> min representative size and the members with their
    offsets."""
    classes: dict[tuple, dict] = {}
    for b in range(t + 1):
        for gadget in tree_gadgets(max_n, b):
            entries, offset = signature(problem, gadget)
            cls = classes.setdefault((b, entries), {"min_n": gadget[0], "members": []})
            cls["min_n"] = min(cls["min_n"], gadget[0])
            cls["members"].append((gadget, offset))
    return classes


def glue(g1, g2) -> tuple[int, list[tuple[int, int]]]:
    """Identify equally labeled boundary vertices of two gadgets."""
    n1, edges1, bnd1 = g1
    n2, edges2, bnd2 = g2
    heir = {}
    nxt = n1
    for v in range(n2):
        if v in bnd2 and bnd2.index(v) < len(bnd1):
            heir[v] = bnd1[bnd2.index(v)]
        else:
            heir[v] = nxt
            nxt += 1
    edges = {tuple(sorted(e)) for e in edges1}
    edges |= {tuple(sorted((heir[u], heir[v]))) for u, v in edges2}
    return nxt, sorted(edges)


def random_context(rng: random.Random, b: int, max_n: int):
    """A random connected gadget with boundary labels 1..b."""
    n = rng.randint(max(b, 1), max_n)
    edges = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)}
    for u, v in combinations(range(n), 2):
        if rng.random() < 0.3:
            edges.add((u, v))
    return n, tuple(sorted(edges)), tuple(rng.sample(range(n), b))


# ---------------------------------------------------------------------------
# vertex cover on bipartite graphs (König)


def bipartition(n: int, edges) -> list[int] | None:
    """A proper 2-colouring, or None when the graph has an odd cycle."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    side = [-1] * n
    for s in range(n):
        if side[s] >= 0:
            continue
        side[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if side[w] < 0:
                    side[w] = 1 - side[u]
                    queue.append(w)
                elif side[w] == side[u]:
                    return None
    return side


def konig_vertex_cover(n: int, edges) -> tuple[int, frozenset[int]]:
    """Maximum matching size and a vertex cover of that size (König).

    Raises ValueError on a non-bipartite graph.  The cover is built from the
    matching, so a caller that checks it covers every edge has a certificate
    that the size is the optimum.
    """
    side = bipartition(n, edges)
    if side is None:
        raise ValueError("graph is not bipartite")
    adj = [[] for _ in range(n)]
    for u, v in edges:
        left, right = (u, v) if side[u] == 0 else (v, u)
        adj[left].append(right)
    mate = [-1] * n

    def augment(u: int, seen: set[int]) -> bool:
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                if mate[w] < 0 or augment(mate[w], seen):
                    mate[w] = u
                    mate[u] = w
                    return True
        return False

    size = 0
    for u in range(n):
        if side[u] == 0 and mate[u] < 0 and augment(u, set()):
            size += 1
    # Z: reachable from free left vertices along alternating paths
    reach = {u for u in range(n) if side[u] == 0 and mate[u] < 0}
    stack = list(reach)
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in reach:
                reach.add(w)
                if mate[w] >= 0 and mate[w] not in reach:
                    reach.add(mate[w])
                    stack.append(mate[w])
    cover = frozenset(
        v for v in range(n) if (side[v] == 0 and v not in reach) or (side[v] == 1 and v in reach)
    )
    return size, cover


def certified_vertex_cover_opt(n: int, edges) -> int:
    """Minimum vertex cover size of a bipartite graph, with its certificate
    checked: a matching and a cover of equal size."""
    size, cover = konig_vertex_cover(n, edges)
    if len(cover) != size or not all(u in cover or v in cover for u, v in edges):
        raise AssertionError("König certificate failed")
    return size


# ---------------------------------------------------------------------------
# feedback vertex set by branching on short cycles


def _strip_forest_vertices(adj: list[int], active: int) -> int:
    """Drop vertices of degree <= 1 until none is left; they lie on no cycle."""
    changed = True
    while changed:
        changed = False
        for v in _bits(active):
            d = adj[v] & active
            if d & (d - 1) == 0:
                active &= ~(1 << v)
                changed = True
    return active


def _short_cycle(adj: list[int], active: int) -> int:
    """Vertex mask of a short closed walk, which contains a cycle."""
    for u in _bits(active):
        for w in _bits(adj[u] & active & ~((1 << (u + 1)) - 1)):
            common = adj[u] & adj[w] & active
            if common:
                return (1 << u) | (1 << w) | (common & -common)
    best = 0
    for s in _bits(active):
        parent = {s: -1}
        depth = {s: 0}
        queue = deque([s])
        found = 0
        while queue and not found:
            u = queue.popleft()
            for w in _bits(adj[u] & active):
                if w == parent[u]:
                    continue
                if w in depth:
                    walk = 0
                    for x in (u, w):
                        while x >= 0:
                            walk |= 1 << x
                            x = parent[x]
                    found = walk
                    break
                parent[w] = u
                depth[w] = depth[u] + 1
                queue.append(w)
        if found and (not best or bin(found).count("1") < bin(best).count("1")):
            best = found
    return best


def _fvs_at_most(adj: list[int], active: int, k: int) -> bool:
    active = _strip_forest_vertices(adj, active)
    if not active:
        return True
    if k <= 0:
        return False
    # every feedback vertex set meets the cycle, so branch on its vertices
    return any(
        _fvs_at_most(adj, active & ~(1 << v), k - 1) for v in _bits(_short_cycle(adj, active))
    )


def fvs_opt(n: int, edges) -> int:
    """Minimum feedback vertex set size."""
    adj = masks_of(n, edges)
    k = 0
    while not _fvs_at_most(adj, (1 << n) - 1, k):
        k += 1
    return k
