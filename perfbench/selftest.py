#!/usr/bin/env python3
"""Self-test of the benchmark on G(2,4), in a few seconds.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that:
- a traced run of the G(2,4) report produces every per-layer metric named
  in BENCHMARK.json as a finite number, and every call counter is nonzero,
  so each wrapper is bound where grex calls the function;
- a traced staircase sweep over the boxes inside G(2,4) makes no LR
  product and no Ext table, as the full sweep must not;
- an untraced run produces every end-to-end metric;
- every run is correct.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys


def bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = []
    runs = {
        ("selftest_report", 1): spec["per_layer"],
        ("selftest_sweep", 1): spec["per_layer"],
        ("selftest_report", 0): spec["end_to_end"],
    }
    results = {}
    for (workload, trace), wanted in runs.items():
        res = results[workload, trace] = bench(workload, trace)
        if not res["correct"] or res["failed"]:
            problems.append(f"{workload} trace={trace}: {res['failed']} verdicts failed")
        for m in wanted:
            value = res["metrics"].get(m["name"], {}).get("value")
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"{workload} trace={trace}: {m['name']} is {value!r}")

    report = results["selftest_report", 1]["metrics"]
    for name, metric in report.items():
        if name.endswith(".calls") and metric["value"] == 0:
            problems.append(f"selftest_report: {name} is 0; its wrapper is not bound")
    sweep = results["selftest_sweep", 1]["metrics"]
    for name in ("schur.lr_product.calls", "bott.ext_table.calls"):
        if sweep[name]["value"] != 0:
            problems.append(f"selftest_sweep: {name} is {sweep[name]['value']}, expected 0")

    for p in problems:
        print(p, file=sys.stderr)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
