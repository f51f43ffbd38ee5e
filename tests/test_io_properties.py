"""Property tests of the text formats: write∘parse is the identity, and damaged
input fails only with a ParseError naming a line of the text."""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st
from test_dp_properties import boundaried_graphs, graphs

from twkern.io import (
    ParseError,
    format_decomposition,
    format_graph,
    parse_decomposition,
    parse_graph,
)
from twkern.problems import CATALOG
from twkern.replacement import ReplacementTable, build_replacement_table, format_table, parse_table
from twkern.treedec import TreeDecomposition

DERANDOMIZED = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def decompositions(draw):
    """Any bags and tree edges: the format does not require a valid decomposition."""
    n = draw(st.integers(0, 8))
    nodes = draw(st.integers(0, 6))
    bags = [draw(st.frozensets(st.integers(0, n - 1))) if n else frozenset() for _ in range(nodes)]
    pairs = [(a, b) for a in range(nodes) for b in range(a + 1, nodes)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return TreeDecomposition(bags, edges), n


@lru_cache(maxsize=None)
def _small_tables() -> tuple[ReplacementTable, ...]:
    return (
        build_replacement_table(CATALOG["vertex-cover"], 1, 5, certify="off"),
        build_replacement_table(CATALOG["dominating-set"], 2, 4, certify="off"),
    )


@st.composite
def tables(draw):
    """(problem, t, rows) of a table holding some of a built table's rows."""
    table = draw(st.sampled_from(_small_tables()))
    keys = draw(st.sets(st.sampled_from(sorted(table.rows, key=repr))))
    return table.problem, table.t, {key: table.rows[key] for key in keys}


def _table_value(table: ReplacementTable):
    return table.problem, table.t, table.rows


# format name -> (values, write, parse)
FORMATS = {
    # a boundaried graph without labels is written, and read, as a plain graph
    "graph": (
        graphs() | boundaried_graphs().filter(lambda bg: bg.label_of),
        format_graph,
        parse_graph,
    ),
    "decomposition": (decompositions(), lambda v: format_decomposition(*v), parse_decomposition),
    "table": (
        tables(),
        lambda v: format_table(ReplacementTable(*v)),
        lambda text: _table_value(parse_table(text)),
    ),
}


@DERANDOMIZED
@given(data=st.data(), name=st.sampled_from(sorted(FORMATS)))
def test_write_then_parse_is_identity(data, name):
    values, write, parse = FORMATS[name]
    value = data.draw(values)
    text = write(value)
    assert parse(text) == value
    assert write(parse(text)) == text


@st.composite
def damaged(draw, text: str) -> tuple[str, str]:
    """(kind, text with one damage of that kind)."""
    lines = text.splitlines()
    kind = draw(st.sampled_from(["drop", "duplicate", "swap", "cut", "token", "comment"]))
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "cut":
        return kind, text[: draw(st.integers(0, len(text) - 1))]
    elif kind == "token" and lines[i].split():
        toks = lines[i].split()
        bad = draw(st.sampled_from(["x", "1.5", "-"]) | st.integers(-2, 12).map(str))
        toks[draw(st.integers(0, len(toks) - 1))] = bad
        lines[i] = " ".join(toks)
    elif kind == "comment":
        comment = draw(st.sampled_from(["# note", "   # indented note", "\t#"]))
        lines.insert(draw(st.integers(0, len(lines))), comment)
    return kind, "\n".join(lines) + "\n"


@DERANDOMIZED
@given(data=st.data(), name=st.sampled_from(sorted(FORMATS)))
def test_damaged_input_fails_only_with_a_line_number(data, name):
    values, write, parse = FORMATS[name]
    text = write(data.draw(values))
    kind, bad = data.draw(damaged(text))
    try:
        value = parse(bad)
    except ParseError as e:
        assert kind != "comment", e
        assert 1 <= e.line_no <= max(1, len(bad.splitlines()))
        return
    if kind == "comment":
        assert write(value) == text
