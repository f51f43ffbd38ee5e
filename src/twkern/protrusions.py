"""t-protrusions, (alpha, r)-protrusion decompositions, and their builders.

A t-protrusion is a vertex set with boundary at most t inducing treewidth at
most t.  A protrusion decomposition partitions the graph into a core and parts
whose closed neighborhoods are r-protrusions attached only to the core.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .graphs import Graph
from .modulators import Modulator, balanced_separation
from .treedec import (
    EXACT_TW_BUDGET,
    ValidationResult,
    decide_treewidth,
    exact_treewidth,
    heuristic_decomposition,
    mmw_lower_bound,
    width_at_most_2,
)


def _width_upper_bound(g: Graph) -> int:
    """Best available treewidth upper bound (exact on small graphs)."""
    if g.n <= EXACT_TW_BUDGET:
        return exact_treewidth(g)[0]
    return heuristic_decomposition(g).width


def validate_protrusion(g: Graph, x, t: int) -> ValidationResult:
    """|∂(X)| <= t and tw(G[X]) <= t.  The width answer is `decide_treewidth`'s:
    certain for t <= 2 and, from t = 3, within the exact budget; beyond it a
    min-fill bound that can only certify a yes.
    """
    xs = frozenset(x)
    if not xs:
        return ValidationResult(True)
    if not xs <= frozenset(g.vertices):
        return ValidationResult(False, "protrusion leaves the vertex set")
    bnd = g.boundary(xs)
    if len(bnd) > t:
        return ValidationResult(False, f"boundary has {len(bnd)} > {t} vertices")
    fits = decide_treewidth(g.induced_subgraph(xs)[0], t)
    if fits is None:
        return ValidationResult(False, "treewidth bound not certifiable at this size")
    if not fits:
        return ValidationResult(False, f"induced treewidth exceeds {t}")
    return ValidationResult(True)


@dataclass(frozen=True)
class ProtrusionDecomposition:
    """Partition {core, parts...} with measured bounds alpha and r.

    max_sep_order records the largest separator used while building, for
    empirical bound reporting.
    """

    core: frozenset[int]
    parts: tuple[frozenset[int], ...]
    alpha: int
    r: int
    max_sep_order: int = 0


def validate_pd(g: Graph, pd: ProtrusionDecomposition) -> ValidationResult:
    """Check the partition, the size bound, that parts see only the core, and
    that every closed part is an r-protrusion (`validate_protrusion`)."""
    pieces = [pd.core, *pd.parts]
    if set().union(*pieces) != set(g.vertices) or sum(map(len, pieces)) != g.n:
        return ValidationResult(False, "core and parts do not partition the vertex set")
    if not all(pd.parts):
        return ValidationResult(False, "empty part")
    if max(len(pd.parts), len(pd.core)) > pd.alpha:
        return ValidationResult(
            False, f"max(ell={len(pd.parts)}, |core|={len(pd.core)}) exceeds alpha={pd.alpha}"
        )
    for i, part in enumerate(pd.parts):
        nb = g.open_neighborhood(part)
        if not nb <= pd.core:
            return ValidationResult(False, f"part {i} has neighbors outside the core")
        res = validate_protrusion(g, part | nb, pd.r)
        if not res:
            return ValidationResult(False, f"closed part {i}: {res.message}")
    return ValidationResult(True)


def build_pd(g: Graph, s: Modulator) -> ProtrusionDecomposition:
    """Protrusion decomposition with s inside the core.

    Recursion on vertex sets of g, from the modulator: each component of the
    region that the modulator misses is one part; a small modulator makes
    the rest of its component one part; otherwise a separation balanced for
    the modulator splits the component, each side recurses together with the
    separator, which joins its modulator, and cores and part lists merge.
    Achieved alpha and r are measured, not promised.
    """
    if not s.vertices:
        raise ValueError("modulator must be nonempty")
    if not s.validate(g):
        raise ValueError("modulator fails certification")
    core: set[int] = set()
    parts: list[frozenset[int]] = []
    max_sep = 0

    def rec(region: frozenset[int], mod: frozenset[int]) -> None:
        nonlocal max_sep
        sub, old = g.induced_subgraph(region)

        def lift(vs) -> frozenset[int]:
            return frozenset(old[v] for v in vs)

        comps = sub.connected_components()
        if len(comps) > 1:
            for comp in map(lift, comps):
                if comp & mod:
                    rec(comp, mod & comp)
                else:
                    parts.append(comp)  # untouched by the modulator: one part
            return
        core.update(mod)
        if len(mod) <= 3 or sub.n <= s.eta + 4:
            rest = region - mod
            if rest:
                parts.append(rest)
            return
        local = {v: i for i, v in enumerate(old)}
        sub_mod = [local[v] for v in mod]
        sep = balanced_separation(sub, sub_mod, heuristic_decomposition(sub))
        x, left, right = lift(sep.separator), lift(sep.a1 - sep.a2), lift(sep.a2 - sep.a1)
        max_sep = max(max_sep, len(x))
        if not left or not right:
            # separation cannot shrink both sides; close with per-component parts
            parts.extend(lift(c) for c in sub.connected_components(avoid=sub_mod))
            return
        for side in (left, right):
            rec(side | x, (mod & side) | x)

    rec(frozenset(g.vertices), s.vertices)
    parts_t = tuple(parts)
    r = 0
    for part in parts_t:
        closed = part | g.open_neighborhood(part)
        r = max(r, len(g.boundary(closed)), _width_upper_bound(g.induced_subgraph(closed)[0]))
    return ProtrusionDecomposition(
        frozenset(core), parts_t, max(len(parts_t), len(core)), r, max_sep
    )


# ---------------------------------------------------------------------------
# protrusion search


def _tree_code(g: Graph, bset: frozenset[int], c: frozenset[int], codes: dict) -> int | None:
    """AHU code of C with its edges to B as a tree rooted in B, B's vertices
    named, or None if not a tree: codes are equal iff isomorphic fixing B."""
    nbrs = {v: g.neighbors(v) & c for v in g.open_neighborhood(c) & bset}
    nbrs.update((u, g.neighbors(u) & (c | bset)) for u in c)
    if sum(map(len, nbrs.values())) != 2 * len(nbrs) - 2:
        return None
    order, seen = [min(nbrs.keys() & bset or c)], set()
    for v in order:
        seen.add(v)
        order += nbrs[v] - seen
    code: dict[int, int] = {}
    for v in reversed(order):  # a vertex's coded neighbors are its children
        kids = tuple(sorted(code[w] for w in nbrs[v] if w in code))
        code[v] = codes.setdefault((v if v in bset else -1, kids), len(codes))
    return code[order[0]]


def _closure_fits(g: Graph, bset: frozenset[int], c: frozenset[int], t: int) -> bool:
    """Can tw(G[B ∪ C]) <= t hold, for C a component of G - B that touches
    B?  Certain for t <= 2, where no closure Graph is built."""
    if t <= 1:
        # B ∪ C is connected and |B| <= 1 spans no edge: a tree exactly when
        # it has |B| + |C| - 1 edges, each counted from both ends
        ends = sum(map(g.degree, c)) + sum(len(g.neighbors(v) & c) for v in bset)
        return ends == 2 * (len(bset) + len(c) - 1)
    if t == 2:
        return width_at_most_2(g, bset | c)
    # the MMW bound refutes most wide closures before any min-fill
    closure = g.induced_subgraph(bset | c)[0]
    return mmw_lower_bound(closure) <= t and decide_treewidth(closure, t) is not False


def _boundary_unions(g: Graph, t: int, min_size: int) -> Iterator[frozenset[int]]:
    """Candidate sets B ∪ U with |B| <= t and U a nonempty union of
    components of G - B, of size min_size..n, in order (-size, sorted
    vertices).

    Every connected X with an interior and |∂X| <= t is one of them with
    B = ∂X, since an interior vertex has all its neighbors in X.  Skipped, as
    they give no such X or give it from another B: a B holding a vertex with
    no neighbor outside B, components that miss a nonempty B or, with B
    empty, have more than one vertex, and components C with
    tw(G[B ∪ C]) > t (width only grows).  That width is read from g's
    adjacency for t <= 2 (`_closure_fits`); the MMW bound and
    `decide_treewidth` are asked only from t = 3.

    Components are copies when their closures are isomorphic fixing B: told
    by `_tree_code` when G[C] with its edges to B is a tree (always at
    t <= 1), else only when the map in sorted vertex order is such an
    isomorphism.  Swapping copies is an automorphism of G fixing B, so of
    unions that differ only in which copies they keep, only the first in the
    order is listed: the one keeping the copies with the smallest vertices.
    The search is best-first over how many copies of each kind a union
    keeps; a successor keeps one fewer of one kind, kinds in nondecreasing
    order, so each count vector is reached once.
    """
    bases: list[tuple[frozenset[int], list[list[frozenset[int]]]]] = []
    codes: dict[tuple[int, tuple[int, ...]], int] = {}
    heap: list[tuple[int, tuple[int, ...], int, tuple[int, ...], int]] = []

    def push(i: int, counts: tuple[int, ...], last: int) -> None:
        bset, kinds = bases[i]
        xs = bset.union(*(c for copies, k in zip(kinds, counts) for c in copies[:k]))
        if any(counts) and len(xs) >= min_size:
            heapq.heappush(heap, (-len(xs), tuple(sorted(xs)), i, counts, last))

    for b in range(t + 1):
        for combo in combinations(g.vertices, b):
            bset = frozenset(combo)
            comps = g.connected_components(avoid=bset)
            if len(comps) < 2 or any(g.neighbors(v) <= bset for v in bset):
                continue  # the only union is V, or a vertex of B is interior
            kinds: dict[object, list[frozenset[int]]] = {}
            for c in comps:
                # with B empty, a larger component has width > t = 0 or comes
                # from B = {v}, v in it
                touches = g.open_neighborhood(c) & bset if bset else len(c) == 1
                if not touches or not _closure_fits(g, bset, c, t):
                    continue
                key = _tree_code(g, bset, c, codes)
                if key is None:
                    index = {v: i for i, v in enumerate([*sorted(bset), *sorted(c)])}
                    key = frozenset((index[u], index[w]) for u in c for w in g.neighbors(u))
                kinds.setdefault(key, []).append(c)
            bases.append((bset, list(kinds.values())))
            push(len(bases) - 1, tuple(len(copies) for copies in kinds.values()), 0)
    while heap:
        _, xs, i, counts, last = heapq.heappop(heap)
        yield frozenset(xs)
        for j in range(last, len(counts)):
            if counts[j]:
                push(i, counts[:j] + (counts[j] - 1,) + counts[j + 1 :], j)


def iter_protrusions(g: Graph, t: int, min_size: int) -> Iterator[frozenset[int]]:
    """Yield the vertex sets of valid t-protrusions of at least min_size
    vertices, largest first.

    Every connected X != V with |∂X| <= t, an interior and min_size <= |X| is
    tried, in order (-|X|, sorted X), except that of sets mapped onto each
    other by swapping copies of components (see `_boundary_unions`) only the
    first is tried: they are t-protrusions alike and replace alike.  Each
    candidate B ∪ U has ∂X ⊆ B, so its boundary, interior and size hold by
    construction.  A set is yielded when it is connected and
    `decide_treewidth` certifies tw(G[X]) <= t, which is certain for t <= 2
    and, from t = 3, within the exact budget.
    """
    seen: set[frozenset[int]] = set()
    for xs in _boundary_unions(g, t, min_size):
        # one X can come from two boundary sets; X = V replaces nothing
        if xs in seen or len(xs) == g.n:
            continue
        seen.add(xs)
        sub, _ = g.induced_subgraph(xs)
        if sub.is_connected() and decide_treewidth(sub, t):
            yield xs
