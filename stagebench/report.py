"""Run workloads over a range of seeds and tabulate the end-to-end metrics.

    python3 stagebench/report.py --seeds 1-10
    python3 stagebench/report.py --seeds 1-5 --workload verify-planar

Run it from the root of a checkout.  Runs go one at a time, each in its own
process, with the command and run length from BENCHMARK.json.  For every
workload and end-to-end metric, plus the wall-clock work time from the run
records, it prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and their distance as a share of the
median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(spec: dict, workload: str, seed: int) -> None:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    print(done.stdout.splitlines()[-2], file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workload", action="append", help="repeatable; default: all")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    for workload in workloads:
        for seed in seeds:
            _run(spec, workload, seed)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print("| workload | metric | unit | median | q1 | q3 | (q3-q1)/median | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        records = [
            json.loads((RESULTS / f"{workload}-seed{seed}-trace0.json").read_text()) for seed in seeds
        ]
        series = {name: [r["end_to_end"][name]["value"] for r in records] for name in bounds}
        series["work_wall_s"] = [r["work_wall_s"] for r in records]
        for name, values in series.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            unit = bounds[name]["unit"] if name in bounds else "s"
            bound = f"{bounds[name]['bound']:.2f}" if name in bounds else "-"
            print(
                f"| {workload} | {name} | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                f"{(q3 - q1) / med:.4f} | {bound} |"
            )
        failed = {r["result"]["failed"] / r["result"]["attempted"] for r in records}
        print(f"| {workload} | failed share | - | {sorted(failed)} | | | | |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
