"""Every public function and class of the package is one a program runs.

A name defined at the top level of a `src/twkern` module is reached when a
program path refers to it: top-level code of a package module other than
`twkern/__init__.py` (a re-export is not a caller), any code in `demos/` or
`stagebench/`, or the body of a name already reached.  References are matched
by bare name, read with `ast`.  Tests are not a program path: code only they
call belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twkern"

HYPOTHESES = "the paper's hypotheses; ROADMAP item 16 gives them a program caller"

# (module, name) -> why it stays without a program caller
ALLOWED = {
    ("io", "parse_decomposition"): "reads the format that `twkern decompose` writes",
    ("graphs", "complete_graph"): "the tests' K_n generator, beside path_graph",
    ("problems", "check_separability"): HYPOTHESES,
    ("problems", "check_bidimensionality"): HYPOTHESES,
    ("problems", "check_parameter_treewidth"): HYPOTHESES,
    ("problems", "SeparabilityReport"): HYPOTHESES,
    ("problems", "BidimensionalityRow"): HYPOTHESES,
    ("problems", "ParameterTreewidthReport"): HYPOTHESES,
}


def _names(node: ast.AST) -> set[str]:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def unreached_names() -> list[tuple[str, str]]:
    """(module, name) of the public top-level functions and classes of the
    package that no program path reaches."""
    modules: dict[str, list[str]] = {}  # name -> modules defining it
    uses: dict[tuple[str, str], set[str]] = {}  # definition -> names in its body
    roots: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                modules.setdefault(stmt.name, []).append(path.stem)
                uses[(path.stem, stmt.name)] = _names(stmt) - {stmt.name}
            elif path.stem != "__init__":
                roots |= _names(stmt)
    for folder in ("demos", "stagebench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            roots |= _names(ast.parse(path.read_text()))
    reached: set[tuple[str, str]] = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        for module in modules.get(name, ()):
            if (module, name) not in reached:
                reached.add((module, name))
                todo.extend(uses[(module, name)])
    return sorted(key for key in uses if not key[1].startswith("_") and key not in reached)


def test_every_public_name_is_reached_by_a_program():
    unreached = [f"{m}.{name}" for m, name in unreached_names() if (m, name) not in ALLOWED]
    assert not unreached, f"package code no program runs: {', '.join(unreached)}"


def test_allowed_names_still_exist_and_are_unreached():
    assert set(ALLOWED) <= set(unreached_names())
