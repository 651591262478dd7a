#!/usr/bin/env python3
"""The grex benchmark: three verification workloads, timed end to end and
traced per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports grex from `src` and needs no
build.  The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it holds the details
(environment, every pass, failures).  Diagnostics go to stderr.

Workloads (BENCHMARK.json says why each exists):

- report_residual: `cli.full_report` on G(3,9), G(4,8) and G(4,10), where the
  residual stage (`class_of`, `euler_char`, `lr_product`, `_twist_matrix`,
  `mutate_left`) dominates.
- report_coprime: `cli.full_report` on G(4,11), G(5,9) and G(7,10); gcd(k,n) = 1
  skips the residual stage, leaving Gram, staircase and fullness.  The tall
  boxes expose costs that grow with k.
- staircase_sweep: K-exactness of the 789 full-first-row staircases of every
  G(k,n) with 1 <= k <= 4 < n <= 12, in one process; nearly all time is the
  skew-LR kernel behind `chi_pair`, and no LR product or Ext table is made.

The seed only shuffles the order of boxes, and of staircases within a box.
Every pass of a workload is a fresh single-threaded interpreter running
with jobs=1.  `attempted` counts verdicts (7 stages per box, or one per
staircase); a verdict is a failure unless it passes and, for a report
stage, its payload matches the digest in `reference.json`.

--trace 0 reports the end-to-end metrics:
  run_s        median over the passes of the time from the end of set-up to
               the last verdict;
  setup_s      median over 9 fresh interpreters of the time until
               `import grex.cli` has finished;
  peak_rss_mb  median over the passes of the worker's peak resident set.
Passes repeat while the next one is expected to end within --seconds.
Both times are wall time rescaled to a nominal host speed by the probe in
`hostspeed.py`, because this benchmark runs on shared hosts whose speed
drifts by up to 2x; the raw wall times are in the details line.

--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics that `tracer.py` collects: call counts, inclusive and self times,
cache sizes and hit ratios, the stage times `full_report` returns, and
`trace.overhead_ratio`, the traced over the untraced run time.  Span
times are raw wall time and include the probe's ticks (about 1 %).  On
report_coprime it also times the full-Ext Gram check of G(4,11) with jobs=1
and jobs=2, each in a fresh interpreter.  `trace.count_mismatches` counts
the work counters that differ from those recorded in `reference.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import hostspeed
from worker import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
WORKER = os.path.join(HERE, "worker.py")
DEADLINE_S = 170.0
SETUP_RUNS = 9
SETUP_CODE = "import time, grex.cli; print(time.monotonic_ns())"


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = "src" + (os.pathsep + path if path else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], deadline: float) -> str:
    """stdout of `argv`; the child and everything it starts end by `deadline`."""
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, text=True, env=child_env(), start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # it ended on its own meanwhile
        proc.communicate()
        raise BenchError(f"{argv[1:]} did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:]} exited with code {proc.returncode}")
    return out


def run_worker(args: list[str], deadline: float) -> dict:
    out = run_child([sys.executable, WORKER, *args], deadline)
    return json.loads(out.strip().splitlines()[-1])


def setup_once(deadline: float) -> dict:
    """One fresh interpreter up to the end of `import grex.cli`."""
    probes = hostspeed.probe_seconds(8)
    t0 = time.monotonic_ns()
    out = run_child([sys.executable, "-c", SETUP_CODE], deadline)
    raw = (int(out.split()[-1]) - t0) / 1e9
    probes += hostspeed.probe_seconds(8)
    return {"raw_s": raw, "scaled_s": hostspeed.rescale(raw, probes)}


def environment() -> dict:
    sha = None
    if os.path.isdir(".git"):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = None
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "probe_nominal_s": hostspeed.NOMINAL_S,
    }


def count_mismatches(workload: str, layers: dict) -> dict:
    """Work counters that differ from the recorded reference, as (now, then)."""
    with open(REFERENCE) as fh:
        reference = json.load(fh)["counts"].get(workload, {})
    return {
        name: [layers.get(name), want]
        for name, want in reference.items()
        if layers.get(name) != want
    }


def measure(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--reference", REFERENCE]
    setup_once(deadline)  # untimed: fills the file cache and writes bytecode
    setups = [setup_once(deadline) for _ in range(SETUP_RUNS)]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_worker(base, deadline))
        elapsed = time.monotonic() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    metrics = {
        "run_s": statistics.median(p["scaled_s"] for p in passes),
        "setup_s": statistics.median(s["scaled_s"] for s in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {"metrics": metrics, "passes": passes, "setups": setups}


def measure_traced(workload: str, seed: int, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--reference", REFERENCE]
    plain = run_worker(base, deadline)
    traced = run_worker([*base, "--trace"], deadline)
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["scaled_s"] / plain["scaled_s"]
    mismatches = count_mismatches(workload, layers)
    layers["trace.count_mismatches"] = len(mismatches)
    grams = []
    if workload == "report_coprime":
        grams = [run_worker(["--gram-jobs", str(jobs)], deadline) for jobs in (1, 2)]
        if grams[1]["digest"] != grams[0]["digest"]:
            grams[1]["failed"] += 1
            grams[1]["failures"].append("the Gram matrix with jobs=2 differs from jobs=1")
    for jobs in (1, 2):
        layers[f"lefschetz.gram.jobs{jobs}_s"] = grams[jobs - 1]["gram_s"] if grams else 0.0
    return {
        "metrics": layers,
        "passes": [plain, traced],
        "grams": grams,
        "count_mismatches": mismatches,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="grex benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "grex", "__init__.py")):
        print("error: run from the root of a grex checkout (no src/grex here)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        if args.trace:
            result = measure_traced(args.workload, args.seed, deadline)
        else:
            result = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1

    passes = result["passes"]
    records = passes + result.get("grams", [])
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {**environment(), **passes[0]["env"]},
        "ops": attempted,
        "ops_failed": failed,
        "failures": [f for r in records for f in r["failures"]][:20],
        "passes": [{k: v for k, v in p.items() if k not in ("env", "layers", "digests")} for p in passes],
        "setups": result.get("setups", []),
        "grams": result.get("grams", []),
        "count_mismatches": result.get("count_mismatches", {}),
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
