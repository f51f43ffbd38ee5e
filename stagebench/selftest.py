"""Self-test of the checks: damage one output per workload and require that
workload's check to report the damaged operation as failed.

    python3 stagebench/selftest.py [--seed 1]

Run it from the root of a checkout.  For each workload the first operation
runs twice, once plain and once damaged:

- table-certify: the offset of a boundaried row is edited to -5;
- kernelize-pendants: the kernel's k' is raised by one;
- verify-planar: the oracle value that decides the kernel at k = OPT is
  raised by one.

A damage counts as caught when the damaged operation fails with a problem
the plain one does not have, so a check that already fails for another
reason cannot pass the test by accident.  Exits nonzero if any damage goes
unnoticed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def _problems(workload, seed: int) -> dict[str, list[str]]:
    workload.setup(seed)
    op = workload.ops()[0]
    found = workload.check(op, workload.observe(op, op.run()))
    return dict(zip(op.labels(), found))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if not (SRC / "twkern" / "__init__.py").is_file():
        sys.exit(f"no program source at {SRC / 'twkern'}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))

    missed = 0
    for name, cls in WORKLOADS.items():
        plain = _problems(cls(), args.seed)
        damaged = _problems(cls(damage=True), args.seed)
        caught = {
            label: [p for p in damaged[label] if p not in plain[label]] for label in damaged
        }
        caught = {label: new for label, new in caught.items() if new}
        if caught:
            for label, new in caught.items():
                print(f"caught  {name}: {label} failed: {'; '.join(new)}")
        else:
            missed += 1
            print(f"MISSED  {name}: the damaged operation passed its check")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
