"""Run one workload of the pipeline-stage benchmark and print its metrics.

    python3 stagebench/run.py --workload kernelize-pendants --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: the program is imported from `src/`.
Every run does the same fixed list of operations, made from the seed; it does
not stop early, so `--seconds` is only recorded.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and the
metrics: the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  A traced run does the work twice, untraced and then traced, and
reports the difference as `trace.overhead_s`.  The full record of the run,
wall-clock times included, goes to `stagebench/results/`.

Times are CPU times of this process (`time.process_time`), which on this
single-threaded program equal wall time on an idle core but leave out time
other processes hold the core.
"""

from __future__ import annotations

import os

# one thread: keep numerical libraries from starting pools of their own
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference
from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
# set-up runs this many times, once here and the rest in fresh processes, and
# reports the median: one import per process cannot be repeated in place
SETUP_SAMPLES = 5


def _program_caches() -> list:
    """The program's memoized functions; each pass starts with them empty, as
    a fresh process would."""
    caches = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not name.startswith("twkern"):
            continue
        for value in vars(mod).values():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", "") == name:
                caches.append(value)
    return caches


def _timed_setup(workload, seed: int) -> float:
    start = time.process_time()
    workload.setup(seed)
    return time.process_time() - start


def _setup_in_child(args) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    child = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(child.stdout.splitlines()[-1])["setup_s"]


def _short_error(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} (at {Path(frame.filename).name}:{frame.lineno})"


def _run_pass(ops, caches) -> dict:
    """Run every operation once, each program cache starting empty."""
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    outputs, errors, op_cpu = [], [], []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for op in ops:
        t0 = time.process_time()
        try:
            outputs.append(op.run())
            errors.append(None)
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append(None)
            errors.append(_short_error(exc))
        op_cpu.append(time.process_time() - t0)
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    return {"cpu_s": cpu, "wall_s": wall, "op_cpu_s": op_cpu, "errors": errors, "outputs": outputs}


def _observe(workload, ops, done: dict) -> None:
    """Turn the outputs of a pass into plain data, outside the timed and
    traced region."""
    done["seen"] = []
    for i, (op, out) in enumerate(zip(ops, done.pop("outputs"))):
        seen = None
        if done["errors"][i] is None:
            try:
                seen = workload.observe(op, out)
            except Exception as exc:
                done["errors"][i] = "observing the output raised " + _short_error(exc)
        done["seen"].append(seen)


def _checks(workload, ops, plain: dict, traced: dict | None) -> list[dict]:
    """One record per counted operation, with its problems (none: passed)."""
    records = []
    for i, op in enumerate(ops):
        count = len(op.labels())
        if plain["errors"][i] is not None:
            problems = [[plain["errors"][i]]] * count
        else:
            try:
                problems = workload.check(op, plain["seen"][i])
            except Exception as exc:
                problems = [["checking the output raised " + _short_error(exc)]] * count
        if traced is not None and traced["seen"][i] != plain["seen"][i]:
            problems = [p + ["the traced pass gave another output"] for p in problems]
        for label, probs in zip(op.labels(), problems):
            records.append({"op": label, "problems": probs})
    return records


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30, help="recorded; the work is fixed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="time set-up alone and print it")
    args = ap.parse_args(argv)

    if not (SRC / "twkern" / "__init__.py").is_file():
        sys.exit(f"no program source at {SRC / 'twkern'}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()

    if args.setup_only:
        print(json.dumps({"setup_s": _timed_setup(workload, args.seed)}))
        return 0

    setup_samples = [_timed_setup(workload, args.seed)]
    import twkern

    if Path(twkern.__file__).resolve().parent != SRC / "twkern":
        sys.exit(f"imported twkern from {twkern.__file__}, not from {SRC}")
    setup_samples += [_setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]

    ops = workload.ops()
    caches = _program_caches()
    plain = _run_pass(ops, caches)
    _observe(workload, ops, plain)
    traced = tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = _run_pass(ops, caches)
        finally:
            tracer.remove()
        _observe(workload, ops, traced)

    records = _checks(workload, ops, plain, traced)
    reference_problems = reference.self_check()
    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    work_s = plain["cpu_s"]

    end_to_end = {
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "work_s": _metric(work_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "units_per_s": _metric(workload.work_units() / work_s, "1/s"),
        "output_vertices": _metric(
            workload.output_vertices([s for s in plain["seen"] if s is not None]), "count"
        ),
    }
    per_layer = {}
    if tracer is not None:
        per_layer = {name: _metric(v, unit) for name, (v, unit) in tracer.metrics().items()}
        per_layer["trace.overhead_s"] = _metric(traced["cpu_s"] - work_s, "s")
    metrics = per_layer if args.trace else end_to_end

    result = {
        "correct": not reference_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "setup_samples_s": setup_samples,
        "work_wall_s": plain["wall_s"],
        "op_cpu_s": plain["op_cpu_s"],
        "traced_work_s": traced["cpu_s"] if traced else None,
        "traced_work_wall_s": traced["wall_s"] if traced else None,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "reference_problems": reference_problems,
        "operations": records,
        "result": result,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for r in records:
        if r["problems"]:
            print(f"FAILED {r['op']}: " + "; ".join(r["problems"][:4]))
    for problem in reference_problems:
        print(f"REFERENCE {problem}")
    print(
        f"{args.workload} seed {args.seed}: {attempted - failed}/{attempted} passed, "
        f"work {work_s:.3f} s CPU / {plain['wall_s']:.3f} s wall, "
        f"set-up median {end_to_end['setup_s']['value']:.3f} s; record in {out.relative_to(HERE.parent)}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
