"""Text formats: graphs, tree decompositions, protrusion decompositions.

All writers emit canonical bytes (sorted edges, 1-indexed ids) so round trips
are bit-exact.  Parsers report the offending line number on malformed input.
"""

from __future__ import annotations

from .graphs import BoundariedGraph, Graph
from .protrusions import ProtrusionDecomposition
from .treedec import TreeDecomposition


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_ints(line_no: int, toks: list[str]) -> list[int]:
    """The tokens as integers; ParseError naming the line otherwise."""
    try:
        return [int(tok) for tok in toks]
    except ValueError:
        raise ParseError(line_no, f"expected integers, got {' '.join(toks)!r}") from None


def format_graph(g: Graph | BoundariedGraph) -> str:
    """Canonical text form: `n m`, then sorted edge lines `u v` (1-indexed,
    u < v), then `b v label` lines for a boundaried graph."""
    if isinstance(g, BoundariedGraph):
        base, labels = g.graph, sorted(g.label_of)
    else:
        base, labels = g, []
    lines = [f"{base.n} {len(base.edges)}"]
    for u, v in sorted(base.edges):
        lines.append(f"{u + 1} {v + 1}")
    for v, lab in labels:
        lines.append(f"b {v + 1} {lab}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph | BoundariedGraph:
    """Parse the graph text format; `#` lines are comments.

    Returns a BoundariedGraph when `b` lines are present, else a Graph.
    """
    rows = [
        (i + 1, ln.strip())
        for i, ln in enumerate(text.splitlines())
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not rows:
        raise ParseError(1, "empty graph file")
    line_no, head = rows[0]
    parts = head.split()
    if len(parts) != 2:
        raise ParseError(line_no, f"expected 'n m', got {head!r}")
    n, m = parse_ints(line_no, parts)
    if n < 0 or m < 0:
        raise ParseError(line_no, "negative counts")
    if len(rows) < 1 + m:
        raise ParseError(rows[-1][0], f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for line_no, ln in rows[1 : 1 + m]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(line_no, f"expected edge 'u v', got {ln!r}")
        u, v = parse_ints(line_no, parts)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(line_no, f"endpoint out of range 1..{n}: {ln!r}")
        if u >= v:
            raise ParseError(line_no, f"edges must satisfy u < v: {ln!r}")
        edges.append((u - 1, v - 1))
    labels: dict[int, int] = {}
    for line_no, ln in rows[1 + m :]:
        parts = ln.split()
        if len(parts) != 3 or parts[0] != "b":
            raise ParseError(line_no, f"expected boundary line 'b v label', got {ln!r}")
        v, lab = parse_ints(line_no, parts[1:])
        if not (1 <= v <= n):
            raise ParseError(line_no, f"boundary vertex out of range: {ln!r}")
        if v - 1 in labels:
            raise ParseError(line_no, f"duplicate boundary vertex: {ln!r}")
        labels[v - 1] = lab
    g = Graph(n, edges)
    if labels:
        return BoundariedGraph(g, labels)
    return g


def format_decomposition(td: TreeDecomposition, n: int) -> str:
    """`s nodes width n`, bag lines `b id v...`, tree edges `e a b` (1-indexed)."""
    lines = [f"s {len(td.bags)} {td.width} {n}"]
    for i, bag in enumerate(td.bags):
        lines.append(" ".join(["b", str(i + 1), *[str(v + 1) for v in sorted(bag)]]))
    for a, b in sorted(td.tree_edges):
        lines.append(f"e {a + 1} {b + 1}")
    return "\n".join(lines) + "\n"


def parse_decomposition(text: str) -> tuple[TreeDecomposition, int]:
    """Returns (decomposition, declared vertex count)."""
    rows = [
        (i + 1, ln.strip())
        for i, ln in enumerate(text.splitlines())
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not rows or not rows[0][1].startswith("s "):
        raise ParseError(1, "missing 's nodes width n' header")
    line_no, head = rows[0]
    parts = head.split()
    if len(parts) != 4:
        raise ParseError(line_no, f"expected 's nodes width n', got {head!r}")
    nodes, width, n = parse_ints(line_no, parts[1:])
    bags: dict[int, frozenset[int]] = {}
    tree_edges = []
    for line_no, ln in rows[1:]:
        parts = ln.split()
        if parts[0] == "b":
            if len(parts) < 2:
                raise ParseError(line_no, f"expected 'b id v...', got {ln!r}")
            node, *bag = (v - 1 for v in parse_ints(line_no, parts[1:]))
            if node in bags:
                raise ParseError(line_no, f"duplicate bag {node + 1}")
            bags[node] = frozenset(bag)
        elif parts[0] == "e":
            if len(parts) != 3:
                raise ParseError(line_no, f"expected 'e a b', got {ln!r}")
            a, b = parse_ints(line_no, parts[1:])
            if a == b or not (1 <= a <= nodes and 1 <= b <= nodes):
                raise ParseError(line_no, f"tree edge outside 1..{nodes} or a loop: {ln!r}")
            tree_edges.append((a - 1, b - 1))
        else:
            raise ParseError(line_no, f"unexpected line {ln!r}")
    if sorted(bags) != list(range(nodes)):
        raise ParseError(rows[-1][0], "bag ids must cover 1..nodes")
    td = TreeDecomposition([bags[i] for i in range(nodes)], tree_edges)
    if td.width != width:
        raise ParseError(rows[0][0], f"declared width {width} but bags give {td.width}")
    return td, n


def format_pd(pd: ProtrusionDecomposition) -> str:
    lines = ["core: " + " ".join(str(v + 1) for v in sorted(pd.core))]
    for part in pd.parts:
        lines.append("part: " + " ".join(str(v + 1) for v in sorted(part)))
    return "\n".join(lines) + "\n"


def parse_pd_sets(text: str) -> tuple[frozenset[int], tuple[frozenset[int], ...]]:
    """Core and parts as vertex sets; bounds are re-measured by the caller."""
    core: frozenset[int] | None = None
    parts = []
    for i, ln in enumerate(text.splitlines()):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if ln.startswith("core:"):
            if core is not None:
                raise ParseError(i + 1, "duplicate core line")
            core = frozenset(v - 1 for v in parse_ints(i + 1, ln[5:].split()))
        elif ln.startswith("part:"):
            parts.append(frozenset(v - 1 for v in parse_ints(i + 1, ln[5:].split())))
        else:
            raise ParseError(i + 1, f"unexpected line {ln!r}")
    if core is None:
        raise ParseError(1, "missing core line")
    return core, tuple(parts)


def format_vertex_set(vs) -> str:
    """Modulators and other vertex sets serialize as 1-indexed id lists."""
    return " ".join(str(v + 1) for v in sorted(vs)) + "\n"


def parse_vertex_set(text: str) -> frozenset[int]:
    return frozenset(
        v - 1 for i, ln in enumerate(text.splitlines()) for v in parse_ints(i + 1, ln.split())
    )
