"""Shared fixtures and the acceptance summary printer."""

from __future__ import annotations

import random

import pytest

from twkern.graphs import Graph

# (criterion, label, ok, detail) rows registered by the acceptance tests
ACCEPTANCE_RESULTS: list[tuple[str, str, bool, str]] = []


def record_acceptance(criterion: str, label: str, ok: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((criterion, label, ok, detail))


@pytest.fixture(scope="session")
def acceptance():
    return record_acceptance


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    by_criterion: dict[str, list[tuple[str, bool, str]]] = {}
    for crit, label, ok, detail in ACCEPTANCE_RESULTS:
        by_criterion.setdefault(crit, []).append((label, ok, detail))
    def crit_order(name: str):
        head = name.split()[0].lstrip("C")
        return (int(head) if head.isdigit() else 99, name)

    for crit in sorted(by_criterion, key=crit_order):
        rows = by_criterion[crit]
        ok_all = all(ok for _, ok, _ in rows)
        status = "PASS" if ok_all else "FAIL"
        tr.write_line(f"[{crit}] {status}")
        for label, ok, detail in rows:
            mark = "ok  " if ok else "FAIL"
            suffix = f"  ({detail})" if detail else ""
            tr.write_line(f"    {mark} {label}{suffix}")


def random_graph(rng: random.Random, n: int, m: int | None = None) -> Graph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if m is None:
        m = rng.randint(0, len(pairs))
    return Graph(n, rng.sample(pairs, min(m, len(pairs))))


def sparse_random_graph(rng: random.Random, n: int) -> Graph:
    m = rng.randint(max(0, n - 2), max(0, min(2 * n, n * (n - 1) // 2)))
    return random_graph(rng, n, m)


@pytest.fixture(scope="session")
def vc_table():
    from twkern.problems import CATALOG
    from twkern.replacement import build_replacement_table

    return build_replacement_table(CATALOG["vertex-cover"], 1, 6, certify="light")


@pytest.fixture(scope="session")
def fvs_table():
    from twkern.problems import CATALOG
    from twkern.replacement import build_replacement_table

    return build_replacement_table(CATALOG["feedback-vertex-set"], 1, 6, certify="light")


@pytest.fixture(scope="session")
def ds_table():
    from twkern.problems import CATALOG
    from twkern.replacement import build_replacement_table

    return build_replacement_table(CATALOG["dominating-set"], 1, 6, certify="light")


@pytest.fixture
def step_checks(monkeypatch):
    """Check every applied replacement on graphs within the brute budget: the
    optimum after must be the optimum before shifted by the step's constant.
    Returns the list of checked steps."""
    from twkern import replacement
    from twkern.problems import BRUTE_BUDGET, get_problem, opt_fast

    replace = replacement.replace_protrusion
    checked = []

    def replace_and_check(inst, xs, table):
        out = replace(inst, xs, table)
        if out.graph.n < inst.graph.n and inst.graph.n <= BRUTE_BUDGET:
            p = get_problem(inst.problem)
            before, after = opt_fast(p, inst.graph)[0], opt_fast(p, out.graph)[0]
            c = out.k - inst.k
            assert after == before + c, (
                f"replacement changed the optimum: before={before}, after={after}, c={c}"
            )
            checked.append(out.trace[-1])
        return out

    monkeypatch.setattr(replacement, "replace_protrusion", replace_and_check)
    return checked


@pytest.fixture
def kernelize_shuffled():
    """`kernelize(p, g, k, table, seed)` that tries each round's protrusions
    in an order shuffled by one random.Random(seed) per call; seed None keeps
    the search order.  The whole candidate list of a round is drawn, as a
    search whose candidates are all rejected draws it."""
    from twkern import replacement

    search = replacement.iter_protrusions

    def run(p, g, k, table, seed):
        if seed is None:
            return replacement.kernelize(p, g, k, table)
        rng = random.Random(seed)

        def shuffled_search(*args):
            pool = list(search(*args))
            rng.shuffle(pool)
            return iter(pool)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(replacement, "iter_protrusions", shuffled_search)
            return replacement.kernelize(p, g, k, table)

    return run
