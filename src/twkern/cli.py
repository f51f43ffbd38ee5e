"""Command-line front end: one verb per pipeline stage.

Subcommands: decompose, table-build, kernelize, verify, experiment.
A missing or malformed input file, or an argument out of range (a table size
bound below 1, an instance over every oracle budget, a negative `--k-window`,
a corpus flag given to `verify` with `--input`, a corpus flag the chosen
`--family` does not read, a corpus parameter out of range such as
`--count 0`, a table built for another problem), ends the command with exit
status 2 and one error line, naming the file (and the line, when malformed)
if there is one; so does a `verify` that checked no (instance, k) pair.
Status 1 means `verify` found a violation.  The corpus families, the flags
each reads and their defaults come from `harness.FAMILIES`.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path
from typing import NoReturn

from . import harness, io
from .graphs import BoundariedGraph
from .problems import CATALOG, get_problem
from .replacement import (
    CERTIFY_LEVELS,
    build_replacement_table,
    format_table,
    kernelize,
    parse_table,
)
from .treedec import EXACT_TW_BUDGET, exact_treewidth, heuristic_decomposition


def _fail(message) -> NoReturn:
    print(f"twkern: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load(path: str, parse):
    """`parse` applied to the text of the file at `path`.  A missing or
    malformed file exits with status 2, as a bad argument does."""
    try:
        return parse(Path(path).read_text())
    except OSError as e:
        _fail(f"{path}: {e.strerror or e}")
    except (io.ParseError, UnicodeDecodeError) as e:  # a ParseError names the line
        _fail(f"{path}: {e}")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_graph(path: str):
    g = _load(path, io.parse_graph)
    return g.graph if isinstance(g, BoundariedGraph) else g


def _cmd_decompose(args) -> int:
    g = _load_graph(args.input)
    if args.exact:
        _, td = exact_treewidth(g, max_vertices=args.exact_budget)
    else:
        td = heuristic_decomposition(g)
    _emit(io.format_decomposition(td, g.n), args.out)
    return 0


def _cmd_table_build(args) -> int:
    p = get_problem(args.problem)
    table = build_replacement_table(
        p, args.t, args.size_bound, certify=args.certify, rng_seed=args.seed
    )
    _emit(format_table(table), args.out)
    print(
        f"built {len(table)} rows for {p.name} at t={args.t}, "
        f"max representative size {table.max_rep_size}",
        file=sys.stderr,
    )
    return 0


def _cmd_kernelize(args) -> int:
    p = get_problem(args.problem)
    g = _load_graph(args.input)
    table = _load(args.table, parse_table)
    inst = kernelize(p, g, args.k, table)
    _emit(io.format_graph(inst.graph), args.out)
    print(
        f"kernel: n {g.n} -> {inst.graph.n}, k {args.k} -> {inst.k}, "
        f"{len(inst.trace)} replacements",
        file=sys.stderr,
    )
    return 0


class _CorpusFlag(argparse.Action):
    """Stores a corpus flag's value and records that the flag was given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.corpus_flags = [*namespace.corpus_flags, (option_string, self.dest)]


# the corpus flags that set a family parameter, and the parameter each sets
FAMILY_FLAGS = {
    "--count": "count",
    "--n-min": "n_min",
    "--n-max": "n_max",
    "--grid-t": "t",
    "--tree-size": "tree_size",
    "--pendants": "pendants",
}


def _corpus_from_args(args):
    """The corpus of `--family` with the parameters whose flags were given;
    a flag the family does not read, or a parameter out of range, ends the
    command with status 2 and names the flag."""
    reads = harness.family_parameters(args.family)
    params = {}
    for flag, dest in args.corpus_flags:
        if dest in reads:
            params[dest] = getattr(args, dest)
        elif dest not in ("family", "seed"):
            _fail(f"corpus family {args.family!r} does not read {flag}")
    try:
        return harness.gen_corpus(args.family, params, args.seed)
    except harness.CorpusParameterError as e:
        flag_of = {dest: flag for flag, dest in FAMILY_FLAGS.items()}
        _fail(e.message(flag_of.__getitem__))


def _cmd_verify(args) -> int:
    p = get_problem(args.problem)
    if args.input and args.corpus_flags:
        flags = ", ".join(flag for flag, _ in args.corpus_flags)
        _fail(f"corpus flags do not apply with --input: {flags}")
    table = _load(args.table, parse_table)
    if args.input:
        corpus = [_load_graph(args.input)]
    else:
        corpus = _corpus_from_args(args)
    report = harness.verify_kernel_soundness(p, corpus, table, k_window=args.k_window)
    if not report.rows:
        _fail("verify checked 0 (instance, k) pairs: no soundness claim rests on an empty run")
    lines = [
        f"checked {len(report.rows)} (instance, k) pairs on {len(corpus)} instances",
        f"violations: {len(report.violations)}",
    ]
    for row in report.violations:
        lines.append(
            f"  instance {row.instance_id} k={row.k}: before={row.member_before} "
            f"after={row.member_after} kernel_n={row.kernel_n} k'={row.k_prime}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if report.ok else 1


def _cmd_experiment(args) -> int:
    p = get_problem(args.problem)
    table = _load(args.table, parse_table)
    corpus = _corpus_from_args(args)
    report = harness.run_experiment(
        p,
        corpus,
        table,
        family=args.family,
        seed=args.seed,
        deterministic_timing=args.no_timing,
    )
    _emit(report.to_csv(), args.out)
    ratio = report.max_ratio
    shown = "n/a" if ratio != ratio else f"{ratio:.3f}"
    print(f"max kernel_n/k over corpus: {shown}", file=sys.stderr)
    print(
        f"k planted as 0, no oracle within budget: {report.unplanted} of "
        f"{len(report.rows)} instances",
        file=sys.stderr,
    )
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="twkern", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="tree-decompose a graph file")
    d.add_argument("--input", required=True)
    d.add_argument("--exact", action="store_true", help="exact treewidth (small graphs)")
    d.add_argument("--exact-budget", type=int, default=EXACT_TW_BUDGET)
    d.add_argument("--out")
    d.set_defaults(fn=_cmd_decompose)

    problems = sorted(CATALOG)
    t = sub.add_parser("table-build", help="build a protrusion replacement table")
    t.add_argument("--problem", required=True, choices=problems)
    t.add_argument("--t", type=int, default=1)
    t.add_argument("--size-bound", type=int, default=6)
    t.add_argument("--certify", default="light", choices=list(CERTIFY_LEVELS))
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out")
    t.set_defaults(fn=_cmd_table_build)

    k = sub.add_parser("kernelize", help="kernelize an instance with a table")
    k.add_argument("--problem", required=True, choices=problems)
    k.add_argument("--input", required=True)
    k.add_argument("--k", type=int, required=True)
    k.add_argument("--table", required=True)
    k.add_argument("--out")
    k.set_defaults(fn=_cmd_kernelize)

    for name, fn in (("verify", _cmd_verify), ("experiment", _cmd_experiment)):
        s = sub.add_parser(name)
        s.add_argument("--problem", required=True, choices=problems)
        s.add_argument("--table", required=True)
        if name == "verify":
            s.add_argument("--input", help="single instance file instead of a corpus")
            s.add_argument("--k-window", type=int, default=1)
        else:
            s.add_argument("--no-timing", action="store_true",
                           help="zero the wall_time column for byte-identical reports")
        corpus = partial(s.add_argument, action=_CorpusFlag)
        corpus("--family", default=harness.DEFAULT_FAMILY, choices=list(harness.FAMILIES))
        for flag, dest in FAMILY_FLAGS.items():
            corpus(flag, type=int, dest=dest, metavar=flag[2:].upper().replace("-", "_"))
        corpus("--seed", type=int, default=0)
        s.add_argument("--out")
        s.set_defaults(fn=fn, corpus_flags=[])

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as e:  # includes BudgetError: a request the code declines
        _fail(e)


if __name__ == "__main__":
    sys.exit(main())
