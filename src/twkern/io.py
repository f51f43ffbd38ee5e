"""Text formats: graphs and tree decompositions.

All writers emit canonical bytes (sorted edges, 1-indexed ids) so round trips
are bit-exact.  Every parser reads through one `LineReader`, so all formats
share one comment rule and report the offending line number on malformed
input.
"""

from __future__ import annotations

import math

from .graphs import BoundariedGraph, Graph
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


def _ids(line_no: int, toks: list[str], hi: float = math.inf) -> list[int]:
    """1-indexed ids, each in 1..hi, as 0-indexed integers."""
    ids = parse_ints(line_no, toks)
    for i in ids:
        if not 1 <= i <= hi:
            raise ParseError(line_no, f"id {i} outside 1..{hi}")
    return [i - 1 for i in ids]


class LineReader:
    """Cursor over the content lines of a text.

    Lines keep their numbers in the text (from 1); blank lines and lines whose
    first non-blank character is `#` are comments and skipped.
    """

    def __init__(self, text: str):
        self.lines = [
            (i + 1, ln.split())
            for i, ln in enumerate(text.splitlines())
            if ln.strip() and not ln.lstrip().startswith("#")
        ]
        self.pos = 0

    def at_end(self) -> bool:
        return self.pos == len(self.lines)

    def peek(self, head: str) -> bool:
        """Whether the next line starts with the keyword `head`."""
        return not self.at_end() and self.lines[self.pos][1][0] == head

    def take(self, head: str | None, arity: int | None) -> tuple[int, list[str]]:
        """The next line's number and tokens after `head` (if given), of which
        there must be `arity` (if given)."""
        if self.at_end():
            last = self.lines[-1][0] if self.lines else 1
            raise ParseError(last, f"input ends early, expected {head or 'a line of integers'!r}")
        no, toks = self.lines[self.pos]
        self.pos += 1
        if head is not None:
            if toks[0] != head:
                raise ParseError(no, f"expected {head!r} line, got {' '.join(toks)!r}")
            toks = toks[1:]
        if arity is not None and len(toks) != arity:
            raise ParseError(no, f"expected {arity} values, got {' '.join(toks)!r}")
        return no, toks

    def end(self) -> None:
        """ParseError naming the first line left unread, if any."""
        if not self.at_end():
            no, toks = self.lines[self.pos]
            raise ParseError(no, f"expected end of input, got {' '.join(toks)!r}")


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


def read_graph(lines: LineReader) -> BoundariedGraph:
    """One graph body: `n m`, m distinct edge lines `u v` with u < v, then
    every following `b v label` line (distinct vertices, distinct labels >= 1).
    """
    head_no, toks = lines.take(None, 2)
    n, m = parse_ints(head_no, toks)
    if n < 0 or m < 0:
        raise ParseError(head_no, "negative counts")
    edges: set[tuple[int, int]] = set()
    for _ in range(m):
        no, toks = lines.take(None, 2)
        u, v = _ids(no, toks, n)
        if u >= v:
            raise ParseError(no, f"edges must satisfy u < v: {' '.join(toks)!r}")
        if (u, v) in edges:
            raise ParseError(no, f"repeated edge {u + 1} {v + 1}")
        edges.add((u, v))
    labels: dict[int, int] = {}
    while lines.peek("b"):
        no, toks = lines.take("b", 2)
        v, lab = _ids(no, toks[:1], n)[0], parse_ints(no, toks[1:])[0]
        if v in labels:
            raise ParseError(no, f"duplicate boundary vertex {v + 1}")
        if lab < 1 or lab in labels.values():
            raise ParseError(no, f"label {lab} is not positive or already used")
        labels[v] = lab
    return BoundariedGraph(Graph(n, edges), labels)


def parse_graph(text: str) -> Graph | BoundariedGraph:
    """Parse the graph text format: one graph body and nothing after it.

    Returns a BoundariedGraph when `b` lines are present, else a Graph.
    """
    lines = LineReader(text)
    bg = read_graph(lines)
    lines.end()
    return bg if bg.label_of else bg.graph


def format_decomposition(td: TreeDecomposition, n: int) -> str:
    """`s nodes width n`, bag lines `b id v...`, tree edges `e a b` (1-indexed)."""
    lines = [f"s {len(td.bags)} {td.width} {n}"]
    for i, bag in enumerate(td.bags):
        lines.append(" ".join(["b", str(i + 1), *[str(v + 1) for v in sorted(bag)]]))
    for a, b in sorted(td.tree_edges):
        lines.append(f"e {a + 1} {b + 1}")
    return "\n".join(lines) + "\n"


def parse_decomposition(text: str) -> tuple[TreeDecomposition, int]:
    """Returns (decomposition, declared vertex count).

    The header is followed by exactly one bag line per node, then the tree
    edges, each once; bag vertices lie in 1..n and node ids in 1..nodes.
    """
    lines = LineReader(text)
    head_no, toks = lines.take("s", 3)
    nodes, width, n = parse_ints(head_no, toks)
    if nodes < 0 or n < 0:
        raise ParseError(head_no, "negative counts")
    bags: dict[int, frozenset[int]] = {}
    for _ in range(nodes):
        no, toks = lines.take("b", None)
        if not toks:
            raise ParseError(no, "expected 'b id v...', got 'b'")
        node = _ids(no, toks[:1], nodes)[0]
        if node in bags:
            raise ParseError(no, f"duplicate bag {node + 1}")
        bags[node] = frozenset(_ids(no, toks[1:], n))
    tree_edges: set[tuple[int, int]] = set()
    while not lines.at_end():
        no, toks = lines.take("e", 2)
        a, b = _ids(no, toks, nodes)
        if a == b:
            raise ParseError(no, f"tree edge is a loop: {' '.join(toks)!r}")
        if (min(a, b), max(a, b)) in tree_edges:
            raise ParseError(no, f"repeated tree edge {a + 1} {b + 1}")
        tree_edges.add((min(a, b), max(a, b)))
    td = TreeDecomposition([bags[i] for i in range(nodes)], tree_edges)
    if td.width != width:
        raise ParseError(head_no, f"declared width {width} but bags give {td.width}")
    return td, n

