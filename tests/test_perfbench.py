"""The benchmark's traced self-test workloads run on the current code.

`perfbench/tracer.py` wraps private names of grex (`_Ctx.chis`,
`_bareiss_det` among them), so a refactor that drops one breaks the traced
run; these tests catch that without running the full benchmark.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["selftest_sweep", "selftest_report"])
def test_traced_selftest(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0
