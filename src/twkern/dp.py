"""Dynamic programming over tree decompositions.

One engine, `run_dp`, serves two callers: `solve_via_dp` computes an optimum
value with a witness (empty interface), and the replacement-table machinery
computes boundary cost tables (interface pinned to the boundary).  The pinned
set P is added to every bag, and the root table is moved to bag exactly P, so
it maps each interface state to the cheapest interior completion.

The engine walks the decomposition children first.  A child's table reaches
its parent's bag by forgetting, then introducing, one vertex at a time, and
sibling tables are joined.  Every graph edge is applied exactly once, at the
first node whose bag holds both ends, which keeps the forest bookkeeping of
the feedback-vertex DP and the domination updates exact.  States are integer
masks over vertex ids, or tuples of them.  A table maps each state to its
witness, the mask of the vertices that `intro` added to the solution, and the
state's value is that mask's size.  A join takes the union of two witnesses,
which share exactly the bag's solution vertices when every vertex's bags are
connected, so `run_dp` first checks that it has a tree decomposition.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from operator import or_
from typing import TYPE_CHECKING, Iterable

from .graphs import BudgetError, Graph, forest_roots
from .treedec import TreeDecomposition, validate_decomposition

if TYPE_CHECKING:
    from .problems import ProblemDefinition

DP_WIDTH_BUDGET = 12

IN, DOM, NEED = 0, 1, 2  # dominating-set vertex statuses


# ---------------------------------------------------------------------------
# problem machines


def _label_mask(flags: Iterable) -> int:
    """Bit i set iff the i-th flag (one per label, in label order) is true."""
    return sum(1 << i for i, f in enumerate(flags) if f)


def _rgs(block_keys: Iterable) -> tuple[int, ...]:
    """Restricted growth string: blocks numbered in order of first appearance."""
    ids: dict = {}
    return tuple(ids.setdefault(key, len(ids)) for key in block_keys)


def _rgs_strings(k: int) -> list[tuple[int, ...]]:
    """Restricted growth strings of length k: canonical set partitions."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], mx: int) -> None:
        if len(prefix) == k:
            out.append(prefix)
            return
        for c in range(mx + 2):
            rec(prefix + (c,), max(mx, c))

    rec((), -1)
    return out


class Machine:
    """The tree-decomposition DP of one problem and its boundary states.

    DP states are hashable interface snapshots over vertex ids: integer masks
    (bit v for vertex v), or tuples of them.  Boundary states ("label space")
    describe a boundaried gadget's interface by label position instead:
    `boundary_states` lists them in canonical order, `label_state` translates
    a DP root state into one, and `brute_state` derives one directly from an
    interior solution set without the DP, so that the brute-force route stays
    an independent reference.

    `empty` is the state of the empty bag.  `intro` returns each successor
    state with whether v joins the solution.
    """

    empty: object

    def intro(self, state, v: int) -> list[tuple[object, bool]]:
        raise NotImplementedError

    def forget(self, state, v: int):
        """Project v out, or None if the state dies (e.g. undominated interior)."""
        raise NotImplementedError

    def edge(self, state, u: int, v: int):
        raise NotImplementedError

    def join_key(self, state):
        return state

    def join(self, s1, s2):
        return s1

    def boundary_states(self, b: int) -> tuple:
        """Canonically ordered boundary states at boundary size b."""
        raise NotImplementedError

    def label_state(self, state, boundary: tuple[int, ...]):
        """The boundary state of a DP root state; `boundary` is in label order."""
        raise NotImplementedError

    def brute_state(self, adj: list[int], boundary: tuple[int, ...], s: int):
        """The boundary state of interior solution set `s` (a bitmask over the
        vertices with adjacency masks `adj`), or None when `s` is infeasible
        away from the boundary."""
        raise NotImplementedError


class VertexCoverMachine(Machine):
    """States: the mask of bag vertices in the solution."""

    empty = 0

    def intro(self, state, v):
        return [(state, False), (state | 1 << v, True)]

    def forget(self, state, v):
        return state & ~(1 << v)

    def edge(self, state, u, v):
        return state if (state >> u | state >> v) & 1 else None

    def boundary_states(self, b):
        return tuple(range(1 << b))

    def label_state(self, state, boundary):
        return _label_mask(state >> v & 1 for v in boundary)

    def brute_state(self, adj, boundary, s):
        if any(nb & ~s for v, nb in enumerate(adj) if not s >> v & 1):
            return None  # an edge with neither end in s
        return _label_mask(s >> v & 1 for v in boundary)


class IndependentSetMachine(VertexCoverMachine):
    def edge(self, state, u, v):
        return None if state >> u & state >> v & 1 else state

    def brute_state(self, adj, boundary, s):
        if any(nb & s for v, nb in enumerate(adj) if s >> v & 1):
            return None  # an edge with both ends in s
        return _label_mask(s >> v & 1 for v in boundary)


class DominatingSetMachine(Machine):
    """States: (IN mask, NEED mask) over the bag.  IN vertices are in the set,
    NEED vertices are not yet dominated, and the rest of the bag is DOM.
    Boundary states: one status per label."""

    empty = (0, 0)

    def intro(self, state, v):
        ins, need = state
        return [((ins | 1 << v, need), True), ((ins, need | 1 << v), False)]

    def forget(self, state, v):
        ins, need = state
        return None if need >> v & 1 else (ins & ~(1 << v), need)

    def edge(self, state, u, v):
        ins, need = state
        if ins >> u & 1:
            need &= ~(1 << v)
        if ins >> v & 1:
            need &= ~(1 << u)
        return (ins, need)

    def join_key(self, state):
        return state[0]

    def join(self, s1, s2):
        # equal IN masks (join_key): a vertex still needs a dominator only if
        # neither side dominated it
        return (s1[0], s1[1] & s2[1])

    def boundary_states(self, b):
        return tuple(product((IN, DOM, NEED), repeat=b))

    def label_state(self, state, boundary):
        ins, need = state
        return tuple(IN if ins >> v & 1 else NEED if need >> v & 1 else DOM for v in boundary)

    def brute_state(self, adj, boundary, s):
        dominated = 0
        for v, nb in enumerate(adj):
            if s >> v & 1:
                dominated |= nb | 1 << v
        seats = set(boundary)
        if any(not dominated >> v & 1 for v in range(len(adj)) if v not in seats):
            return None
        return tuple(
            IN if s >> v & 1 else DOM if dominated >> v & 1 else NEED for v in boundary
        )


def _block_of(blocks: frozenset[int], v: int) -> int:
    """The component mask in `blocks` that holds vertex v."""
    return next(b for b in blocks if b >> v & 1)


class FeedbackVertexSetMachine(Machine):
    """States: (mask of deleted bag vertices, frozenset of masks partitioning
    the kept bag vertices into forest components).  Boundary states: (mask of
    deleted labels, restricted growth string of the kept labels' components)."""

    empty = (0, frozenset())

    def intro(self, state, v):
        dele, blocks = state
        return [((dele | 1 << v, blocks), True), ((dele, blocks | {1 << v}), False)]

    def forget(self, state, v):
        dele, blocks = state
        bit = 1 << v
        if dele & bit:
            return (dele & ~bit, blocks)
        b = _block_of(blocks, v)
        rest = blocks - {b}
        return (dele, rest | {b & ~bit} if b != bit else rest)

    def edge(self, state, u, v):
        dele, blocks = state
        if (dele >> u | dele >> v) & 1:
            return state
        bu = _block_of(blocks, u)
        if bu >> v & 1:
            return None  # closes a cycle
        bv = _block_of(blocks, v)
        return (dele, blocks - {bu, bv} | {bu | bv})

    def join_key(self, state):
        return state[0]

    def join(self, s1, s2):
        dele, blocks1 = s1
        blocks2 = s2[1]
        merged = set(blocks1)
        for b in blocks2:
            touched = {m for m in merged if m & b}
            merged -= touched
            merged.add(reduce(or_, touched))
        # a side with c components links the kept set K by |K| - c forest
        # edges; the union is a forest iff its edges number |K| - c_merged
        kept = sum(b.bit_count() for b in blocks1)
        if kept + len(merged) != len(blocks1) + len(blocks2):
            return None  # two forests close a cycle
        return (dele, frozenset(merged))

    def boundary_states(self, b):
        # per mask of deleted labels, every partition of the kept ones
        return tuple(
            (mask, rgs) for mask in range(1 << b) for rgs in _rgs_strings(b - mask.bit_count())
        )

    def label_state(self, state, boundary):
        dele, blocks = state
        mask = _label_mask(dele >> v & 1 for v in boundary)
        return (mask, _rgs(_block_of(blocks, v) for v in boundary if not dele >> v & 1))

    def brute_state(self, adj, boundary, s):
        kept = [v for v in range(len(adj)) if not s >> v & 1]
        edges = [(u, v) for u in kept for v in kept if u < v and adj[u] >> v & 1]
        roots = forest_roots(kept, edges)
        if roots is None:
            return None
        mask = _label_mask(s >> v & 1 for v in boundary)
        return (mask, _rgs(roots[v] for v in boundary if not s >> v & 1))


# ---------------------------------------------------------------------------
# the engine


def run_dp(
    p: ProblemDefinition, g: Graph, td: TreeDecomposition, pinned: Iterable[int] = ()
) -> dict:
    """Root table of problem p's DP: state over `pinned` -> witness.

    The witness is the mask of a solution set that realises the state, and
    its size is the state's optimum.  Of two witnesses of equal size for one
    state, the later one found is kept.
    Raises ValueError with `treedec.validate_decomposition`'s message when td
    is not a tree decomposition of g, and BudgetError when a bag together
    with the pinned vertices holds more than DP_WIDTH_BUDGET + 1 vertices.
    """
    valid = validate_decomposition(g, td)
    if not valid:
        raise ValueError(valid.message)
    m = p.machine
    pin = frozenset(pinned)
    bags = [bag | pin for bag in td.bags] or [pin]
    width = max(map(len, bags)) - 1
    if width > DP_WIDTH_BUDGET:
        raise BudgetError(
            f"decomposition width {width} with pinned vertices over DP budget {DP_WIDTH_BUDGET}"
        )
    better = max if p.maximize else min

    def project(table: dict, step) -> dict:
        """Map every state through `step` (None drops it), keeping the better witness."""
        out: dict = {}
        for s, w in table.items():
            s2 = step(s)
            if s2 is not None:
                out[s2] = better(w, out[s2], key=int.bit_count) if s2 in out else w
        return out

    def move(table: dict, src: frozenset, dst: frozenset) -> dict:
        """Forget src - dst, then introduce dst - src, one vertex at a time."""
        for v in sorted(src - dst):
            table = project(table, lambda s: m.forget(s, v))
        for v in sorted(dst - src):
            out = {}
            for s, w in table.items():
                for s2, joins in m.intro(s, v):
                    w2 = w | 1 << v if joins else w
                    out[s2] = better(w2, out[s2], key=int.bit_count) if s2 in out else w2
            table = out
        return table

    def join(t1: dict, t2: dict) -> dict:
        groups: dict = {}
        for s in t2:
            groups.setdefault(m.join_key(s), []).append(s)
        out: dict = {}
        for s1, w1 in t1.items():
            for s2 in groups.get(m.join_key(s1), ()):
                merged = m.join(s1, s2)
                if merged is None:
                    continue
                w = w1 | t2[s2]
                out[merged] = better(w, out[merged], key=int.bit_count) if merged in out else w
        return out

    adj: list[list[int]] = [[] for _ in bags]
    for a, b in td.tree_edges:
        adj[a].append(b)
        adj[b].append(a)
    # preorder from node 0 with an explicit stack; reversed, it is children first
    parent: dict[int, int | None] = {0: None}
    order, stack = [], [0]
    while stack:
        i = stack.pop()
        order.append(i)
        for j in adj[i]:
            if j not in parent:
                parent[j] = i
                stack.append(j)
    leaf = {m.empty: 0}
    pending: dict[int, list[dict]] = {}  # node -> child tables moved to its bag
    applied: set[tuple[int, int]] = set()
    for i in reversed(order):
        bag = bags[i]
        table = reduce(join, pending.pop(i, None) or [move(leaf, frozenset(), bag)])
        for u in bag:
            for v in g.neighbors(u):
                if u < v and v in bag and (u, v) not in applied:
                    applied.add((u, v))
                    table = project(table, lambda s: m.edge(s, u, v))
        up = parent[i]
        if up is None:
            root = move(table, bag, pin)
        else:
            pending.setdefault(up, []).append(move(table, bag, bags[up]))
    return root


def solve_via_dp(
    p: ProblemDefinition, g: Graph, td: TreeDecomposition
) -> tuple[int, frozenset[int]]:
    """Optimum value and witness set for a DP-supported problem.

    Raises as `run_dp` does.
    """
    root = run_dp(p, g, td)
    better = max if p.maximize else min
    witness = better(root.values(), key=int.bit_count)
    return witness.bit_count(), frozenset(v for v in range(g.n) if witness >> v & 1)

