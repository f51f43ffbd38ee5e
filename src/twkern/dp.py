"""Dynamic programming over nice tree decompositions.

One engine serves two callers: `solve_via_dp` computes optimum values with
witnesses (empty interface), and the replacement-table machinery computes
boundary cost tables (interface pinned to the boundary).  The interface set P
is added to every bag; the DP root has bag exactly P, so the root table maps
each interface state to the cheapest interior completion.

Nice trees here use explicit edge application: every graph edge is applied at
exactly one node whose bag contains both endpoints, which keeps the forest
bookkeeping of the feedback-vertex DP and the domination updates exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Iterable

from .graphs import BudgetError, Graph, forest_roots
from .treedec import TreeDecomposition, heuristic_decomposition

if TYPE_CHECKING:
    from .problems import ProblemDefinition

DP_WIDTH_BUDGET = 12

IN, DOM, NEED = 0, 1, 2  # dominating-set vertex statuses


# ---------------------------------------------------------------------------
# nice-tree construction: a flat program of table operations


@dataclass
class _Op:
    kind: str  # leaf | intro | forget | join | edge
    bag: frozenset[int]
    payload: tuple = ()
    inputs: tuple[int, ...] = ()
    out: int = -1


def _transition_chain(ops: list[_Op], top: int, from_bag: frozenset, to_bag: frozenset) -> int:
    """Forget from_bag-to_bag, then introduce to_bag-from_bag, one at a time."""
    cur_bag = from_bag
    cur = top
    for v in sorted(from_bag - to_bag):
        cur_bag = cur_bag - {v}
        ops.append(_Op("forget", cur_bag, (v,), (cur,), len(ops)))
        cur = len(ops) - 1
    for v in sorted(to_bag - from_bag):
        cur_bag = cur_bag | {v}
        ops.append(_Op("intro", cur_bag, (v,), (cur,), len(ops)))
        cur = len(ops) - 1
    return cur


def build_program(g: Graph, td: TreeDecomposition, pinned: Iterable[int] = ()) -> list[_Op]:
    """Flatten a tree decomposition into a nice program rooted at bag = pinned."""
    pin = frozenset(pinned)
    ops: list[_Op] = []
    if len(td.bags) == 0:
        ops.append(_Op("leaf", pin, (), (), 0))
        top, top_bag = 0, pin
    else:
        bags = [b | pin for b in td.bags]
        children: dict[int, list[int]] = {i: [] for i in range(len(bags))}
        order = [0]
        seen = {0}
        adj = [td.node_neighbors(i) for i in range(len(bags))]
        for i in order:
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    children[i].append(j)
                    order.append(j)

        def build(i: int) -> int:
            subtops = []
            for c in children[i]:
                t = build(c)
                subtops.append(_transition_chain(ops, t, bags[c], bags[i]))
            if not subtops:
                ops.append(_Op("leaf", pin, (), (), len(ops)))
                return _transition_chain(ops, len(ops) - 1, pin, bags[i])
            cur = subtops[0]
            for t in subtops[1:]:
                ops.append(_Op("join", bags[i], (), (cur, t), len(ops)))
                cur = len(ops) - 1
            return cur

        top = build(0)
        top_bag = bags[0]
        top = _transition_chain(ops, top, top_bag, pin)
        top_bag = pin

    # assign every graph edge to the first op (in program order) able to host it
    assigned = set()
    insertions: dict[int, list[tuple[int, int]]] = {}
    for idx, op in enumerate(ops):
        for u, v in sorted(g.edges):
            if (u, v) not in assigned and u in op.bag and v in op.bag:
                assigned.add((u, v))
                insertions.setdefault(idx, []).append((u, v))
    missing = set(g.edges) - assigned
    if missing:
        raise ValueError(f"decomposition misses edge {sorted(missing)[0]} (T2 violated)")
    final: list[_Op] = []
    remap: dict[int, int] = {}
    for idx, op in enumerate(ops):
        final.append(
            _Op(op.kind, op.bag, op.payload, tuple(remap[i] for i in op.inputs), len(final))
        )
        remap[idx] = len(final) - 1
        for u, v in insertions.get(idx, ()):
            final.append(_Op("edge", op.bag, (u, v), (len(final) - 1,), len(final)))
            remap[idx] = len(final) - 1
    return final


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
    if k == 0:
        return [()]
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

    DP states are hashable interface snapshots over vertex ids.  Boundary
    states ("label space") describe a boundaried gadget's interface by label
    position instead: `boundary_states` lists them in canonical order,
    `label_state` translates a DP root state into one, and `brute_state`
    derives one directly from an interior solution set without the DP, so
    that the brute-force route stays an independent reference.
    """

    def base(self, pin: frozenset[int]) -> dict:
        raise NotImplementedError

    def intro(self, state, v: int) -> list[tuple[object, int]]:
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

    def join_overlap(self, state) -> int:
        raise NotImplementedError

    def chosen(self, state) -> frozenset[int]:
        """Vertices the state commits to the solution right now."""
        raise NotImplementedError

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
    def base(self, pin):
        out = {}
        items = sorted(pin)
        for mask in range(1 << len(items)):
            s = frozenset(items[i] for i in range(len(items)) if mask >> i & 1)
            out[s] = len(s)
        return out

    def intro(self, state, v):
        return [(state, 0), (state | {v}, 1)]

    def forget(self, state, v):
        return state - {v}

    def edge(self, state, u, v):
        return state if (u in state or v in state) else None

    def join(self, s1, s2):
        return s1

    def join_overlap(self, state):
        return len(state)

    def chosen(self, state):
        return frozenset(state)

    def boundary_states(self, b):
        return tuple(range(1 << b))

    def label_state(self, state, boundary):
        return _label_mask(v in state for v in boundary)

    def brute_state(self, adj, boundary, s):
        if any(nb & ~s for v, nb in enumerate(adj) if not s >> v & 1):
            return None  # an edge with neither end in s
        return _label_mask(s >> v & 1 for v in boundary)


class IndependentSetMachine(VertexCoverMachine):
    def edge(self, state, u, v):
        return None if (u in state and v in state) else state

    def brute_state(self, adj, boundary, s):
        if any(nb & s for v, nb in enumerate(adj) if s >> v & 1):
            return None  # an edge with both ends in s
        return _label_mask(s >> v & 1 for v in boundary)


class DominatingSetMachine(Machine):
    """States map each bag vertex to IN / DOM / NEED (not yet dominated)."""

    def base(self, pin):
        out = {}
        items = sorted(pin)
        stack = [((), 0)]
        while stack:
            prefix, cost = stack.pop()
            if len(prefix) == len(items):
                out[prefix] = cost
                continue
            v = items[len(prefix)]
            stack.append((prefix + ((v, IN),), cost + 1))
            stack.append((prefix + ((v, NEED),), cost))
        return out

    @staticmethod
    def _set(state, v, status):
        return tuple(sorted([(x, s) for x, s in state if x != v] + [(v, status)]))

    @staticmethod
    def _get(state, v):
        for x, s in state:
            if x == v:
                return s
        raise KeyError(v)

    def intro(self, state, v):
        return [
            (tuple(sorted(state + ((v, IN),))), 1),
            (tuple(sorted(state + ((v, NEED),))), 0),
        ]

    def forget(self, state, v):
        if self._get(state, v) == NEED:
            return None
        return tuple((x, s) for x, s in state if x != v)

    def edge(self, state, u, v):
        su, sv = self._get(state, u), self._get(state, v)
        if su == IN and sv == NEED:
            state = self._set(state, v, DOM)
        elif sv == IN and su == NEED:
            state = self._set(state, u, DOM)
        return state

    def join_key(self, state):
        return frozenset(v for v, s in state if s == IN)

    def join(self, s1, s2):
        st2 = dict(s2)
        merged = []
        for v, s in s1:
            o = st2[v]
            if s == IN or o == IN:
                if s != o:
                    return None
                merged.append((v, IN))
            else:
                merged.append((v, DOM if DOM in (s, o) else NEED))
        return tuple(sorted(merged))

    def join_overlap(self, state):
        return sum(1 for _, s in state if s == IN)

    def chosen(self, state):
        return frozenset(v for v, s in state if s == IN)

    def boundary_states(self, b):
        return tuple(product((IN, DOM, NEED), repeat=b))

    def label_state(self, state, boundary):
        status = dict(state)
        return tuple(status[v] for v in boundary)

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


class FeedbackVertexSetMachine(Machine):
    """States: (deleted bag subset, partition of kept bag vertices into
    forest components).  Boundary states: (mask of deleted labels, restricted
    growth string of the kept labels' components)."""

    def base(self, pin):
        out = {}
        items = sorted(pin)
        for mask in range(1 << len(items)):
            dele = frozenset(items[i] for i in range(len(items)) if mask >> i & 1)
            blocks = frozenset(frozenset([v]) for v in items if v not in dele)
            out[(dele, blocks)] = len(dele)
        return out

    def intro(self, state, v):
        dele, blocks = state
        return [
            ((dele | {v}, blocks), 1),
            ((dele, blocks | {frozenset([v])}), 0),
        ]

    def forget(self, state, v):
        dele, blocks = state
        if v in dele:
            return (dele - {v}, blocks)
        new_blocks = []
        for b in blocks:
            if v in b:
                rest = b - {v}
                if rest:
                    new_blocks.append(rest)
            else:
                new_blocks.append(b)
        return (dele, frozenset(new_blocks))

    def edge(self, state, u, v):
        dele, blocks = state
        if u in dele or v in dele:
            return state
        bu = bv = None
        for b in blocks:
            if u in b:
                bu = b
            if v in b:
                bv = b
        if bu is bv:
            return None  # closes a cycle
        merged = (blocks - {bu, bv}) | {bu | bv}
        return (dele, merged)

    def join_key(self, state):
        return state[0]

    def join(self, s1, s2):
        dele, blocks1 = s1
        _, blocks2 = s2
        links = []
        for b in (*blocks1, *blocks2):
            vs = sorted(b)
            links.extend((v, vs[0]) for v in vs[1:])
        roots = forest_roots((v for b in blocks1 for v in b), links)
        if roots is None:
            return None  # two forests close a cycle
        groups: dict[int, set[int]] = {}
        for v, r in roots.items():
            groups.setdefault(r, set()).add(v)
        return (dele, frozenset(frozenset(s) for s in groups.values()))

    def join_overlap(self, state):
        return len(state[0])

    def chosen(self, state):
        return frozenset(state[0])

    def boundary_states(self, b):
        states = []
        for mask in range(1 << b):
            kept = [i for i in range(b) if not mask >> i & 1]
            for rgs in _rgs_strings(len(kept)):
                states.append((mask, rgs))
        return tuple(states)

    def label_state(self, state, boundary):
        dele, blocks = state
        block_of = {v: blk for blk in blocks for v in blk}
        mask = _label_mask(v in dele for v in boundary)
        return (mask, _rgs(block_of[v] for v in boundary if v not in dele))

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


@dataclass
class DPResult:
    tables: list[dict]
    program: list[_Op]
    machine: Machine

    @property
    def root_table(self) -> dict:
        return self.tables[-1]


def run_dp(
    p: ProblemDefinition, g: Graph, td: TreeDecomposition, pinned: Iterable[int] = ()
) -> DPResult:
    """Run the DP of problem p; tables[i] maps state -> (value, back) for
    program op i."""
    machine = p.machine
    if machine is None:
        raise ValueError(f"no tree-decomposition DP for problem {p.name!r}")
    if td.width > DP_WIDTH_BUDGET:
        raise BudgetError(f"decomposition width {td.width} over DP budget {DP_WIDTH_BUDGET}")
    program = build_program(g, td, pinned)
    better = max if p.maximize else min
    tables: list[dict] = []
    for op in program:
        if op.kind == "leaf":
            tables.append({s: (c, None) for s, c in machine.base(op.bag).items()})
            continue
        if op.kind == "join":
            t1, t2 = tables[op.inputs[0]], tables[op.inputs[1]]
            groups: dict = {}
            for s in t2:
                groups.setdefault(machine.join_key(s), []).append(s)
            out: dict = {}
            for s1, (v1, _) in t1.items():
                for s2 in groups.get(machine.join_key(s1), ()):
                    merged = machine.join(s1, s2)
                    if merged is None:
                        continue
                    val = v1 + t2[s2][0] - machine.join_overlap(merged)
                    if merged not in out or better(val, out[merged][0]) == val:
                        out[merged] = (val, (s1, s2))
            tables.append(out)
            continue
        src = tables[op.inputs[0]]
        out = {}
        if op.kind == "intro":
            v = op.payload[0]
            for s, (val, _) in src.items():
                for s2, dc in machine.intro(s, v):
                    cand = val + dc
                    if s2 not in out or better(cand, out[s2][0]) == cand:
                        out[s2] = (cand, s)
        elif op.kind == "forget":
            v = op.payload[0]
            for s, (val, _) in src.items():
                s2 = machine.forget(s, v)
                if s2 is None:
                    continue
                if s2 not in out or better(val, out[s2][0]) == val:
                    out[s2] = (val, s)
        elif op.kind == "edge":
            u, v = op.payload
            for s, (val, _) in src.items():
                s2 = machine.edge(s, u, v)
                if s2 is None:
                    continue
                if s2 not in out or better(val, out[s2][0]) == val:
                    out[s2] = (val, s)
        else:
            raise AssertionError(op.kind)
        tables.append(out)
    return DPResult(tables, program, machine)


def reconstruct_witness(result: DPResult, root_state) -> frozenset[int]:
    """Walk the back-pointers from a root state, collecting committed vertices."""
    chosen: set[int] = set()
    stack = [(len(result.program) - 1, root_state)]
    while stack:
        idx, state = stack.pop()
        op = result.program[idx]
        chosen |= result.machine.chosen(state)
        _, back = result.tables[idx][state]
        if op.kind == "leaf":
            continue
        if op.kind == "join":
            s1, s2 = back
            stack.append((op.inputs[0], s1))
            stack.append((op.inputs[1], s2))
        else:
            stack.append((op.inputs[0], back))
    return frozenset(chosen)


def solve_via_dp(
    problem: ProblemDefinition | str, g: Graph, td: TreeDecomposition
) -> tuple[int | float, frozenset[int]]:
    """Optimum value and witness set for a DP-supported problem.

    `problem` is a ProblemDefinition or its name.  Raises for unsupported
    problems or decompositions over the width budget.
    """
    if isinstance(problem, str):
        from .problems import get_problem

        problem = get_problem(problem)
    result = run_dp(problem, g, td)
    root = result.root_table
    if not root:
        return problem.infeasible_value, frozenset()
    better = max if problem.maximize else min
    state = better(root, key=lambda s: (root[s][0],))
    value = root[state][0]
    return value, reconstruct_witness(result, state)


def interface_cost_table(
    p: ProblemDefinition,
    bg_graph: Graph,
    boundary: tuple[int, ...],
    td: TreeDecomposition | None = None,
) -> dict:
    """Raw interface table: state over `boundary` -> min (max) interior cost.

    States at the root are expressed over boundary vertex ids; callers
    translate them to label space with `p.machine.label_state`.
    """
    if td is None:
        td = heuristic_decomposition(bg_graph)
    result = run_dp(p, bg_graph, td, pinned=boundary)
    return {s: v for s, (v, _) in result.root_table.items()}
