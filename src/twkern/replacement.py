"""Boundary signatures, gadget equivalence, replacement tables, kernelization.

A signature is the normalized table of cheapest interior completions per
boundary state.  Equal signatures witness gadget equivalence up to an integer
transposition constant (the difference of the normalization offsets): gluing
any context onto two gadgets with equal signatures yields optima differing by
exactly that constant.  Signature equality may split true equivalence classes
but never merges distinct ones; soundness is certified mechanically during
table construction: `certify_pair` solves each member and its representative
glued onto every context exactly with the problem's probe (`solvers`),
whose gadget half runs once per gadget and call and whose context half
shares one memo per context across the build.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from . import problems as problems_mod
from .dp import run_dp
from .enumeration import boundaried_universe
from .graphs import (
    BoundariedGraph,
    BudgetError,
    Graph,
    adjacency_masks,
    gadget_plan,
    glue,
    glue_plan,
)
from .io import LineReader, ParseError, format_graph, parse_ints, read_graph
from .problems import ProblemDefinition
from .protrusions import iter_protrusions, validate_protrusion
from .treedec import decide_treewidth, heuristic_decomposition

logger = logging.getLogger(__name__)

BRUTE_SIGNATURE_BUDGET = 16
# largest table t, built or loaded: kernelize searches boundary sets up to t
MAX_TABLE_T = 3

# certification level -> (largest exhaustive context, random contexts drawn
# with up to 8 vertices); only draws larger than the exhaustive ones are
# probed, the others repeat one up to isomorphism; 'off' probes nothing
CERTIFY_LEVELS = {"off": (0, 0), "light": (5, 200), "thorough": (7, 1000), "exhaustive": (8, 0)}


class TableConstructionError(RuntimeError):
    """A context-probing certificate failed; the table must not be used."""


# ---------------------------------------------------------------------------
# raw cost tables: DP route and brute route


@lru_cache(maxsize=64)
def state_space(p: ProblemDefinition, b: int) -> tuple:
    """Canonically ordered boundary states for a problem at boundary size b."""
    return p.machine.boundary_states(b)


def _raw_table_dp(p: ProblemDefinition, bg: BoundariedGraph) -> dict:
    boundary = bg.boundary
    root = run_dp(p, bg.graph, heuristic_decomposition(bg.graph), pinned=boundary)
    return {p.machine.label_state(state, boundary): w.bit_count() for state, w in root.items()}


def _raw_table_brute(p: ProblemDefinition, bg: BoundariedGraph) -> dict:
    """Independent reference route: enumerate all interior solution sets."""
    g = bg.graph
    if g.n > BRUTE_SIGNATURE_BUDGET:
        raise BudgetError(f"brute signature budget is {BRUTE_SIGNATURE_BUDGET} (got {g.n})")
    boundary = bg.boundary
    adj = adjacency_masks(g)
    better = max if p.maximize else min
    out: dict = {}
    for smask in range(1 << g.n):
        state = p.machine.brute_state(adj, boundary, smask)
        if state is None:
            continue
        size = smask.bit_count()
        if state not in out or better(size, out[state]) == size:
            out[state] = size
    return out


# ---------------------------------------------------------------------------
# signatures


@dataclass(frozen=True)
class Signature:
    """Normalized boundary cost table.

    entries follow the canonical state order of state_space(problem, b); None
    marks infeasible states.  Defined entries live in [0, 2*f(b)]: costs
    farther than twice the separability allowance from the anchor never occur
    in an optimal composition, so they are truncated to the infeasible marker.
    """

    b: int
    entries: tuple
    offset: int

    @property
    def key(self) -> tuple:
        return (self.b, self.entries)


def _normalize(p: ProblemDefinition, raw: dict, b: int) -> Signature:
    states = state_space(p, b)
    if not raw:
        return Signature(b, (None,) * len(states), 0)
    window = 2 * p.separability_f(b)
    if p.maximize:
        anchor = max(raw.values())
        kept = {s: v for s, v in raw.items() if anchor - v <= window}
    else:
        anchor = min(raw.values())
        kept = {s: v for s, v in raw.items() if v - anchor <= window}
    offset = min(kept.values())
    entries = tuple(kept[s] - offset if s in kept else None for s in states)
    return Signature(b, entries, offset)


def compute_signature(p: ProblemDefinition, bg: BoundariedGraph) -> Signature:
    """Signature of a boundaried gadget.

    The dynamic program over a heuristic decomposition is the primary route.
    Plain interior enumeration, the reference route, is the fallback when the
    DP is over its width budget and the gadget has at most
    BRUTE_SIGNATURE_BUDGET vertices.
    """
    try:
        raw = _raw_table_dp(p, bg)
    except BudgetError:
        if bg.graph.n > BRUTE_SIGNATURE_BUDGET:
            raise
        raw = _raw_table_brute(p, bg)
    return _normalize(p, raw, len(bg.label_of))


def equivalence_constant(
    p: ProblemDefinition, g1: BoundariedGraph, g2: BoundariedGraph
) -> int | None:
    """Transposition constant c with OPT(g2 ⊕ F) = OPT(g1 ⊕ F) + c for every
    context F, decided by signature equality; None when signatures differ.
    """
    if g1.label_set != g2.label_set:
        raise ValueError("label sets differ; gadgets are incomparable")
    s1 = compute_signature(p, g1)
    s2 = compute_signature(p, g2)
    if s1.entries != s2.entries:
        return None
    return s2.offset - s1.offset


# ---------------------------------------------------------------------------
# replacement tables


@dataclass(frozen=True)
class TableRow:
    signature: Signature
    representative: BoundariedGraph


class ReplacementTable:
    """Map from signatures to minimum-size representatives."""

    def __init__(self, problem: str, t: int, rows: dict[tuple, TableRow]):
        self.problem = problem
        self.t = t
        self.rows = rows

    @property
    def max_rep_size(self) -> int:
        return max((row.representative.graph.n for row in self.rows.values()), default=0)

    def __len__(self) -> int:
        return len(self.rows)

    def lookup(self, sig: Signature) -> TableRow | None:
        return self.rows.get(sig.key)


@lru_cache(maxsize=16)
def certificate_contexts(b: int, max_n: int) -> tuple[BoundariedGraph, ...]:
    """Every connected boundaried context with labels 1..b up to max_n vertices."""
    return tuple(boundaried_universe(max_n, b))


def _random_context(rng: random.Random, b: int, max_n: int) -> BoundariedGraph:
    n = rng.randint(max(b, 1), max_n)
    edges = set()
    # random spanning structure first, then extra edges
    verts = list(range(n))
    rng.shuffle(verts)
    for i in range(1, n):
        edges.add((verts[i], verts[rng.randrange(i)]))
    extra = rng.randint(0, n)
    all_pairs = list(combinations(range(n), 2))
    rng.shuffle(all_pairs)
    for u, v in all_pairs[:extra]:
        edges.add((u, v))
    labels = {v: i + 1 for i, v in enumerate(rng.sample(range(n), b))}
    return BoundariedGraph(Graph(n, edges), labels)


def certify_pair(
    p: ProblemDefinition,
    member: BoundariedGraph,
    rep: BoundariedGraph,
    c: int,
    plans: list,
    rep_cache: dict,
    memos: list[dict],
) -> None:
    """Probe: OPT(rep ⊕ F) must equal OPT(member ⊕ F) + c for every context F,
    given as its `glue_plan`, all of one boundary size, each solved exactly
    by `p.probe`.  The probe's gadget half runs once per call for rep and
    once for member, on their `gadget_plan`s, and its context half on each
    plan; the gadget half reads no context, so every value is still the
    exact optimum of the glued graph.  `rep_cache` holds rep's optima by
    plan index across the calls that share rep and plans; `memos` holds one
    probe memo per plan across the calls that share plans.  Raises
    ValueError when member or rep lacks a context label, and
    TableConstructionError on the first violating context."""
    b = len(plans[0][1]) if plans else 0
    rep_probe = p.probe(gadget_plan(rep, b), b)
    mem_probe = p.probe(gadget_plan(member, b), b)
    for idx, plan in enumerate(plans):
        memo = memos[idx]
        if idx not in rep_cache:
            rep_cache[idx] = rep_probe(plan, memo)
        opt_rep = rep_cache[idx]
        opt_mem = mem_probe(plan, memo)
        if opt_rep != opt_mem + c:
            raise TableConstructionError(
                f"certificate violation: OPT(rep+F)={opt_rep}, OPT(member+F)={opt_mem}, "
                f"c={c} on context {idx} with {len(plan[0]) + len(plan[1])} vertices"
            )


def build_replacement_table(
    p: ProblemDefinition,
    t: int,
    size_bound: int,
    certify: str = "light",
    rng_seed: int = 0,
) -> ReplacementTable:
    """Enumerate the gadget universe and keep one minimum-size representative
    per realized signature.

    The universe is every connected boundaried graph with labels 1..b (b <= t),
    treewidth at most t, and at most size_bound vertices: exactly the boundaried
    forms that protrusion search can feed back (a t-protrusion induces
    treewidth at most t).  Every later member declared equivalent to a stored
    representative is certified by probing the contexts of its `certify` level
    in CERTIFY_LEVELS: every connected context up to the given size, and
    those of the given number of random draws that are larger.  A connected
    draw within that size is isomorphic, labels fixed, to an exhaustive
    context, so its verdict is already decided.  Every draw is still made,
    so the random stream and the verdicts do not depend on the filter.  Each
    context keeps one probe memo for the whole boundary size, shared by every
    member and representative probed against it.  Each `certify_pair` call
    runs the probe's gadget half once for the member and once for the
    representative; that half decides nothing from a context, so the
    verdicts are those of solving every glued graph afresh.  A failed probe
    aborts construction.
    """
    if t < 0:
        raise ValueError(f"table boundary size t={t} is negative")
    if t > MAX_TABLE_T:
        raise BudgetError(f"replacement tables support boundary size at most {MAX_TABLE_T}")
    if size_bound < 1:
        raise ValueError(f"replacement table size bound must be at least 1 (got {size_bound})")
    if size_bound > 9:
        raise BudgetError("replacement table size bound is at most 9")
    if certify not in CERTIFY_LEVELS:
        raise ValueError(f"unknown certification level {certify!r}")
    max_n, n_random = CERTIFY_LEVELS[certify]
    rng = random.Random(rng_seed)
    rows: dict[tuple, TableRow] = {}
    rep_caches: dict[tuple, dict] = {}
    for b in range(t + 1):
        members = boundaried_universe(size_bound, b, t)
        contexts = certificate_contexts(b, max_n) if max_n else ()
        draws = (_random_context(rng, b, 8) for _ in range(n_random))
        plans = [glue_plan(ctx) for ctx in contexts]
        plans += [glue_plan(ctx) for ctx in draws if ctx.graph.n > max_n]
        memos = [{} for _ in plans]
        for bg in members:
            sig = compute_signature(p, bg)
            key = sig.key
            if key not in rows:
                rows[key] = TableRow(sig, bg)
                rep_caches[key] = {}
                continue
            row = rows[key]
            if plans:
                c = row.signature.offset - sig.offset
                certify_pair(p, bg, row.representative, c, plans, rep_caches[key], memos)
    return ReplacementTable(p.name, t, rows)


# ---------------------------------------------------------------------------
# kernel instances and the replacement rule


@dataclass(frozen=True)
class ReplacementStep:
    protrusion_size: int
    boundary_size: int
    rep_size: int
    constant: int


@dataclass(frozen=True)
class KernelInstance:
    """An instance (graph, k) plus the trace of applied replacements.

    Membership is invariant along the trace: (graph, k) belongs to the problem
    iff the original instance does.
    """

    graph: Graph
    k: int
    problem: str
    trace: tuple[ReplacementStep, ...] = ()


def _boundaried_form(g: Graph, x: frozenset[int], bnd: list[int]) -> BoundariedGraph:
    """G[x] as a boundaried graph whose boundary vertices `bnd` (all in x) are
    labeled 1..b in that order."""
    sub, old = g.induced_subgraph(x)
    new_of = {o: i for i, o in enumerate(old)}
    return BoundariedGraph(sub, {new_of[v]: i + 1 for i, v in enumerate(bnd)})


def replace_protrusion(
    inst: KernelInstance, xs: frozenset[int], table: ReplacementTable
) -> KernelInstance:
    """Swap the interior of the protrusion xs (boundary and width at most
    table.t) for its table representative.

    Skip semantics: an unknown signature, a representative at least as large as
    the protrusion, or a positive transposition constant (which would raise k)
    leave the instance unchanged.
    """
    g = inst.graph
    p = problems_mod.get_problem(inst.problem)
    if table.problem != p.name:
        raise ValueError(
            f"table was built for {table.problem!r}, instance is {p.name!r}"
        )
    check = validate_protrusion(g, xs, table.t)
    if not check:
        raise ValueError(f"invalid protrusion: {check.message}")
    bnd = sorted(g.boundary(xs))
    sig = compute_signature(p, _boundaried_form(g, xs, bnd))
    row = table.lookup(sig)
    if row is None:
        return inst
    rep = row.representative
    if rep.graph.n >= len(xs):
        return inst
    c = row.signature.offset - sig.offset
    if c > 0:
        logger.warning(
            "refusing replacement with positive constant c=%d (parameter must not grow)", c
        )
        return inst
    host_keep = (frozenset(g.vertices) - xs) | frozenset(bnd)
    glued, _, _ = glue(_boundaried_form(g, host_keep, bnd), rep)
    step = ReplacementStep(len(xs), len(bnd), rep.graph.n, c)
    return KernelInstance(glued, inst.k + c, inst.problem, inst.trace + (step,))


def kernelize(
    p: ProblemDefinition, g: Graph, k: int, table: ReplacementTable
) -> KernelInstance:
    """Reduce the instance by repeated protrusion replacement until no
    replaceable protrusion larger than the table's representatives is found.

    Each round replaces the first candidate of `iter_protrusions` that the
    table shrinks.  That search is complete over boundary sets, so it needs
    no protrusion decomposition to start from.  Each replacement strictly
    shrinks the graph, so this terminates.
    """
    if table.problem != p.name:
        raise ValueError(f"table was built for {table.problem!r}, not {p.name!r}")
    inst = KernelInstance(g, k, p.name, ())
    min_size = table.max_rep_size + 1
    while True:
        for xs in iter_protrusions(inst.graph, table.t, min_size):
            new_inst = replace_protrusion(inst, xs, table)
            if new_inst.graph.n < inst.graph.n:
                inst = new_inst
                break
        else:
            return inst


# ---------------------------------------------------------------------------
# table serialization (bit-exact round trip)


def _entry_str(e) -> str:
    return "inf" if e is None else str(e)


def format_table(table: ReplacementTable) -> str:
    lines = [f"table {table.problem} {table.t} {table.max_rep_size} {len(table.rows)}"]
    sort_key = lambda kv: (kv[0][0], tuple(-1 if e is None else e for e in kv[0][1]))
    for (b, _entries), row in sorted(table.rows.items(), key=sort_key):
        lines.append(f"row {b} {row.signature.offset}")
        lines.append("sig " + " ".join(_entry_str(e) for e in row.signature.entries))
        lines.append(format_graph(row.representative) + "endrow")
    return "\n".join(lines) + "\n"


def parse_table(text: str) -> ReplacementTable:
    """Parse a table written by `format_table` and check it on load.

    Each row is `row b offset`, a `sig` line, a representative in the graph
    format (`io.read_graph`) and `endrow`.  Every row's signature and offset
    are recomputed from its representative.  A malformed or truncated file, a
    header t outside 0..MAX_TABLE_T, a row that disagrees with its
    representative, labels other than 1..b, b > t, a representative that is
    disconnected or not certified of treewidth at most t (a built table holds
    neither), or a header whose row count or max_rep_size disagrees with the
    rows raise ParseError naming the line.
    """
    lines = LineReader(text)
    head_no, toks = lines.take("table", 4)
    problem = toks[0]
    t, max_rep, nrows = parse_ints(head_no, toks[1:])
    if not 0 <= t <= MAX_TABLE_T:
        raise ParseError(head_no, f"table boundary size t={t} outside 0..{MAX_TABLE_T}")
    try:
        p = problems_mod.get_problem(problem)
    except ValueError as e:
        raise ParseError(head_no, str(e)) from None
    rows: dict[tuple, TableRow] = {}
    while not lines.at_end():
        row_no, toks = lines.take("row", 2)
        b, rep_offset = parse_ints(row_no, toks)
        if not 0 <= b <= t:
            raise ParseError(row_no, f"boundary size {b} outside 0..t={t}")
        no, toks = lines.take("sig", None)
        entries = tuple(None if tok == "inf" else parse_ints(no, [tok])[0] for tok in toks)
        rep = read_graph(lines)
        lines.take("endrow", 0)
        if sorted(lab for _, lab in rep.label_of) != list(range(1, b + 1)):
            raise ParseError(row_no, f"row labels must be 1..{b}")
        if not rep.graph.is_connected():
            raise ParseError(row_no, "representative is disconnected")
        if not decide_treewidth(rep.graph, t):
            raise ParseError(row_no, f"representative's treewidth is not certified at most t={t}")
        try:
            sig = compute_signature(p, rep)
        except BudgetError as e:
            raise ParseError(row_no, f"bad representative: {e}") from None
        if (sig.entries, sig.offset) != (entries, rep_offset):
            raise ParseError(
                row_no,
                f"row has signature {entries} offset {rep_offset}, but its representative "
                f"has {sig.entries} offset {sig.offset}",
            )
        if sig.key in rows:
            raise ParseError(row_no, "duplicate signature")
        rows[sig.key] = TableRow(sig, rep)
    table = ReplacementTable(problem, t, rows)
    if len(rows) != nrows or table.max_rep_size != max_rep:
        raise ParseError(
            head_no,
            f"header declares {nrows} rows with max_rep_size {max_rep}, the file has "
            f"{len(rows)} rows with max_rep_size {table.max_rep_size}",
        )
    return table
