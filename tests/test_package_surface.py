"""Every public function, class and method of the package is one a program runs.

A name defined at the top level of a `src/twkern` module, or as a method of
one of its classes, is reached when a program path refers to it: top-level
code of a package module other than `twkern/__init__.py` (a re-export is not
a caller), any code in `demos/` or `stagebench/`, or the body of a name
already reached.  A class's body counts without its public methods, which
are reached on their own.  References are matched by bare name, read with
`ast`, so a method is reached by any attribute of its name.  Tests are not a
program path: code only they call belongs in the tests.
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


def _public(name: str) -> bool:
    return not name.startswith("_")


def unreached_names() -> list[tuple[str, str]]:
    """(module, name) of the public top-level functions and classes of the
    package, and of the public methods of its classes as "Class.method",
    that no program path reaches."""
    definitions: dict[str, list[tuple[str, str]]] = {}  # bare name -> definitions
    uses: dict[tuple[str, str], set[str]] = {}  # definition -> names in its body
    roots: set[str] = set()

    def define(key: tuple[str, str], name: str, body: list[ast.AST]) -> None:
        definitions.setdefault(name, []).append(key)
        uses[key] = set().union(*map(_names, body)) - {name}

    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                define((module, stmt.name), stmt.name, [stmt])
            elif isinstance(stmt, ast.ClassDef):
                rest = [*stmt.bases, *stmt.keywords, *stmt.decorator_list]
                for f in stmt.body:
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(f.name):
                        define((module, f"{stmt.name}.{f.name}"), f.name, [f])
                    else:
                        rest.append(f)
                define((module, stmt.name), stmt.name, rest)
            elif module != "__init__":
                roots |= _names(stmt)
    for folder in ("demos", "stagebench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            roots |= _names(ast.parse(path.read_text()))
    reached: set[tuple[str, str]] = set()
    todo = list(roots)
    while todo:
        for key in definitions.get(todo.pop(), ()):
            if key not in reached:
                reached.add(key)
                todo.extend(uses[key])
    return sorted(
        key for key in uses if all(map(_public, key[1].split("."))) and key not in reached
    )


def test_every_public_name_is_reached_by_a_program():
    unreached = [f"{m}.{name}" for m, name in unreached_names() if (m, name) not in ALLOWED]
    assert not unreached, f"package code no program runs: {', '.join(unreached)}"


def test_allowed_names_still_exist_and_are_unreached():
    assert set(ALLOWED) <= set(unreached_names())
