#!/usr/bin/env python3
"""Record `reference.json`: the stage digests and work counts that
`run.py` checks against.

    python3 perfbench/record.py

Run from the root of a checkout whose reports are known to be right.  One
traced pass of every workload with seed 0; refuses to record if any verdict
fails.  A digest is the sha256 of a stage payload as `grex report` prints
it; the counts are every call counter, cache size and tableau count.
"""

from __future__ import annotations

import json
import sys
import time

from run import REFERENCE, run_worker
from worker import WORKLOADS


def is_count(name: str) -> bool:
    return name.endswith((".calls", ".entries")) or name == "kernels.tableaux"


def main() -> int:
    digests: dict[str, dict] = {}
    counts: dict[str, dict] = {}
    for workload in WORKLOADS:
        deadline = time.monotonic() + 600
        res = run_worker(["--workload", workload, "--seed", "0", "--trace"], deadline)
        if res["failed"]:
            print(f"{workload}: {res['failures']}", file=sys.stderr)
            return 1
        digests.update(res["digests"] or {})
        counts[workload] = {k: v for k, v in res["layers"].items() if is_count(k)}
        print(f"{workload}: recorded", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump({"digests": digests, "counts": counts}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
