"""t-protrusions, (alpha, r)-protrusion decompositions, and their builders.

A t-protrusion is a vertex set with boundary at most t inducing treewidth at
most t.  A protrusion decomposition partitions the graph into a core and parts
whose closed neighborhoods are r-protrusions attached only to the core.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .graphs import Graph
from .modulators import Modulator, balanced_separation
from .treedec import (
    TreeDecomposition,
    ValidationResult,
    decide_treewidth,
    exact_treewidth,
    heuristic_decomposition,
    treewidth_at_most,
)

EXACT_TW_BUDGET = 20


def _width_upper_bound(g: Graph, exact_budget: int = EXACT_TW_BUDGET) -> int:
    """Best available treewidth upper bound (exact on small graphs)."""
    if g.n <= exact_budget:
        return exact_treewidth(g, max_vertices=exact_budget)[0]
    return heuristic_decomposition(g).width


@dataclass(frozen=True)
class Protrusion:
    vertices: frozenset[int]
    t: int
    certificate: TreeDecomposition  # decomposition of G[X] over sorted relabeling


def validate_protrusion(g: Graph, x, t: int) -> ValidationResult:
    """|∂(X)| <= t and tw(G[X]) <= t.  The width answer is `decide_treewidth`'s:
    certain for t <= 1 and within the exact budget, else a min-fill bound that
    can only certify a yes.
    """
    xs = frozenset(x)
    if not xs:
        return ValidationResult(True)
    if not xs <= frozenset(g.vertices):
        return ValidationResult(False, "protrusion leaves the vertex set")
    bnd = g.boundary(xs)
    if len(bnd) > t:
        return ValidationResult(False, f"boundary has {len(bnd)} > {t} vertices")
    sub, _ = g.induced_subgraph(xs)
    fits = decide_treewidth(sub, t, EXACT_TW_BUDGET)
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

    @property
    def ell(self) -> int:
        return len(self.parts)


def validate_pd(g: Graph, pd: ProtrusionDecomposition) -> ValidationResult:
    """Check the partition, the size bound, and every closed part."""
    pieces = [pd.core, *pd.parts]
    union: set[int] = set()
    count = 0
    for piece in pieces:
        union |= piece
        count += len(piece)
    if union != set(g.vertices) or count != g.n:
        return ValidationResult(False, "core and parts do not partition the vertex set")
    for part in pd.parts:
        if not part:
            return ValidationResult(False, "empty part")
    if max(len(pd.parts), len(pd.core)) > pd.alpha:
        return ValidationResult(
            False, f"max(ell={len(pd.parts)}, |core|={len(pd.core)}) exceeds alpha={pd.alpha}"
        )
    for i, part in enumerate(pd.parts):
        nb = g.open_neighborhood(part)
        if not nb <= pd.core:
            return ValidationResult(False, f"part {i} has neighbors outside the core")
        closed = part | nb
        bnd = g.boundary(closed)
        if len(bnd) > pd.r:
            return ValidationResult(False, f"closed part {i} has boundary {len(bnd)} > r={pd.r}")
        sub, _ = g.induced_subgraph(closed)
        fits = decide_treewidth(sub, pd.r, EXACT_TW_BUDGET)
        if fits is None:
            return ValidationResult(False, f"closed part {i} treewidth not certifiable")
        if not fits:
            return ValidationResult(False, f"closed part {i} treewidth exceeds r={pd.r}")
    return ValidationResult(True)


def build_pd(g: Graph, s: Modulator) -> ProtrusionDecomposition:
    """Protrusion decomposition with s inside the core.

    Recursion from the modulator: small modulators emit the single-protrusion
    base case; otherwise a separation balanced for the modulator splits the
    graph, both sides recurse with the separator joining their modulators, and
    cores and part lists merge.  Achieved alpha and r are measured, not
    promised.
    """
    if not s.vertices:
        raise ValueError("modulator must be nonempty")
    if not s.validate(g):
        raise ValueError("modulator fails certification")
    eta = s.eta
    max_sep = [0]

    def base(sub: Graph, old: tuple[int, ...], mod: frozenset[int]):
        core = {old[v] for v in mod}
        rest = frozenset(old[v] for v in sub.vertices if v not in mod)
        return core, ([rest] if rest else [])

    def base_components(sub: Graph, old: tuple[int, ...], mod: frozenset[int]):
        core = {old[v] for v in mod}
        parts = []
        for comp in sub.connected_components(avoid=mod):
            parts.append(frozenset(old[v] for v in comp))
        return core, parts

    def rec(sub: Graph, old: tuple[int, ...], mod: frozenset[int]):
        comps = sub.connected_components()
        if len(comps) > 1:
            core: set[int] = set()
            parts: list[frozenset[int]] = []
            for comp in comps:
                csub, cold = sub.induced_subgraph(comp)
                abs_old = tuple(old[v] for v in cold)
                cmod = frozenset(i for i, o in enumerate(cold) if o in mod)
                if not cmod:
                    # component untouched by the modulator: it is one part
                    if comp:
                        parts.append(frozenset(old[v] for v in comp))
                    continue
                ccore, cparts = rec(csub, abs_old, cmod)
                core |= ccore
                parts.extend(cparts)
            return core, parts
        if len(mod) <= 3 or sub.n <= eta + 4:
            return base(sub, old, mod)
        td = heuristic_decomposition(sub)
        sep = balanced_separation(sub, mod, td)
        x = sep.separator
        max_sep[0] = max(max_sep[0], len(x))
        left = sep.a1 - sep.a2
        right = sep.a2 - sep.a1
        if not left or not right:
            # separation cannot shrink both sides; close with per-component parts
            return base_components(sub, old, mod)
        core: set[int] = set()
        parts: list[frozenset[int]] = []
        for side in (left, right):
            region = side | x
            rsub, rold = sub.induced_subgraph(region)
            abs_old = tuple(old[v] for v in rold)
            rmod = frozenset(i for i, o in enumerate(rold) if o in (mod & side) | x)
            rcore, rparts = rec(rsub, abs_old, rmod)
            core |= rcore
            parts.extend(rparts)
        return core, parts

    old0 = tuple(g.vertices)
    core, parts = rec(g, old0, s.vertices)
    parts_t = tuple(parts)
    alpha = max(len(parts_t), len(core))
    r = 0
    for part in parts_t:
        closed = part | g.open_neighborhood(part)
        sub, _ = g.induced_subgraph(closed)
        r = max(r, len(g.boundary(closed)), _width_upper_bound(sub))
    return ProtrusionDecomposition(frozenset(core), parts_t, alpha, r, max_sep[0])


# ---------------------------------------------------------------------------
# protrusion search


def _connected_subsets(g: Graph, max_size: int) -> Iterator[frozenset[int]]:
    """All connected vertex subsets, each exactly once.

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


def iter_protrusions(
    g: Graph, t: int, min_size: int, seeds: tuple[frozenset[int], ...] = ()
) -> Iterator[Protrusion]:
    """Yield valid t-protrusions of at least min_size vertices, largest first.

    Sound, not complete: exhaustive connected-subset search on small dense
    instances (<= 14 vertices, t <= 2), candidate-boundary growth otherwise.
    Seeds (e.g. protrusion-decomposition parts) are tried first via their
    closed neighborhoods.
    """
    candidates: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()

    def add(xs: frozenset[int]) -> None:
        if len(xs) >= min_size and xs not in seen and len(xs) < g.n:
            seen.add(xs)
            candidates.append(xs)

    for seed in seeds:
        add(frozenset(seed) | g.open_neighborhood(seed))

    seed_count = len(candidates)
    if g.n <= 14 and t <= 2:
        for xs in _connected_subsets(g, g.n - 1):
            add(xs)
    else:
        verts = sorted(g.vertices)
        for b in range(t + 1):
            for combo in combinations(verts, b):
                bset = frozenset(combo)
                comps = g.connected_components(avoid=bset)
                if len(comps) > 1:
                    largest = max(range(len(comps)), key=lambda i: (len(comps[i]), i))
                    merged = bset.union(
                        *[c for i, c in enumerate(comps) if i != largest]
                    )
                    add(merged)
                for comp in comps:
                    add(comp | g.open_neighborhood(comp))

    ordered = candidates[:seed_count] + sorted(
        candidates[seed_count:], key=lambda xs: (-len(xs), sorted(xs))
    )
    for xs in ordered:
        bnd = g.boundary(xs)
        if len(bnd) > t or len(bnd) == len(xs):
            # all-boundary candidates have no interior to replace
            continue
        sub, _ = g.induced_subgraph(xs)
        if not sub.is_connected():
            continue
        td = treewidth_at_most(sub, t, EXACT_TW_BUDGET)
        if td is not None:
            yield Protrusion(xs, t, td)


def find_max_protrusion(
    g: Graph, t: int, min_size: int, seeds: tuple[frozenset[int], ...] = ()
) -> Protrusion | None:
    """Largest t-protrusion with at least min_size vertices found by the
    heuristic search; None means none was found, not that none exists.
    """
    for p in iter_protrusions(g, t, min_size, seeds):
        return p
    return None
