"""One pass of a benchmark workload, in the fresh interpreter it runs in.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--reference FILE]
    python3 perfbench/worker.py --gram-jobs J

Run from the root of a checkout with `src` on PYTHONPATH; `run.py` does
both.  Prints one JSON object on stdout.  The timed region runs from the end
of `import grex.cli` (and of installing the tracer, when tracing) to the
last verdict; checking the verdicts against the reference comes after it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import random
import resource
import sys
import time
from math import comb

import hostspeed
import tracer

# name -> (kind, boxes as (k, n))
WORKLOADS = {
    "report_residual": ("report", ((3, 9), (4, 8), (4, 10))),
    "report_coprime": ("report", ((4, 11), (5, 9), (7, 10))),
    "staircase_sweep": (
        "sweep",
        tuple((k, n) for k in range(1, 5) for n in range(k + 1, 13)),
    ),
    # small versions of the above for the self-test
    "selftest_report": ("report", ((2, 4),)),
    "selftest_sweep": ("sweep", tuple((k, n) for k in (1, 2) for n in range(k + 1, 5))),
}

STAGES = ("diagrams", "collection", "gram_fonarev", "staircase", "residual", "fullness", "g48_fixture")


def box_key(k: int, n: int) -> str:
    return f"{k},{n}"


def digest(payload) -> str:
    """sha256 of a payload as `grex report` prints it."""
    return hashlib.sha256((json.dumps(payload, indent=2) + "\n").encode()).hexdigest()


def run_reports(boxes, rng):
    from grex.cli import full_report
    from grex.diagrams import Box

    order = list(boxes)
    rng.shuffle(order)
    payloads = {}
    stage_s = dict.fromkeys(STAGES, 0.0)
    for k, n in order:
        timings: dict[str, float] = {}
        payloads[box_key(k, n)] = full_report(Box(k, n), jobs=1, timings=timings)
        for name, dt in timings.items():
            stage_s[name] = stage_s.get(name, 0.0) + dt
    return payloads, stage_s


def check_reports(payloads, reference):
    """Every stage of every box passes and matches its reference digest."""
    attempted = failed = 0
    failures = []
    digests = {}
    for key, payload in sorted(payloads.items()):
        stages = payload["stages"]
        digests[key] = {name: digest(stage) for name, stage in stages.items()}
        failed_before = failed
        for name in STAGES:
            attempted += 1
            stage = stages.get(name)
            why = None
            if stage is None:
                why = "missing"
            elif stage.get("verdict") not in ("pass", "skipped"):
                why = f"verdict {stage.get('verdict')}"
            elif reference is not None and reference.get(key, {}).get(name) != digests[key][name]:
                why = "payload differs from the reference digest"
            if why:
                failed += 1
                failures.append(f"G({key}) {name}: {why}")
        if not payload["pass"] and failed == failed_before:
            failed += 1
            failures.append(f"G({key}): pass is false")
    return attempted, failed, failures, digests


def run_sweep(boxes, rng):
    from grex.diagrams import Box, enumerate_diagrams
    from grex.staircase import build_staircase, is_k_exact

    order = list(boxes)
    rng.shuffle(order)
    verdicts = {}
    for k, n in order:
        box = Box(k, n)
        lams = [d for d in enumerate_diagrams(box, "all") if d.parts[0] == box.width]
        rng.shuffle(lams)
        verdicts[box_key(k, n)] = [
            (lam.parts, is_k_exact(build_staircase(box, lam))) for lam in lams
        ]
    return verdicts


def check_sweep(boxes, verdicts):
    """Every staircase is K-exact, and there is one per full-first-row diagram.

    A diagram of the k x (n-k) box with first row n-k is a choice of k-1
    weakly decreasing parts in 0..n-k, so there are C(n-1, k-1) of them.
    """
    expected = sum(comb(n - 1, k - 1) for k, n in boxes)
    found = sum(len(v) for v in verdicts.values())
    failures = [
        f"G({key}) {list(parts)} is not K-exact"
        for key, rows in sorted(verdicts.items())
        for parts, exact in rows
        if not exact
    ]
    failed = len(failures) + abs(found - expected)
    if found != expected:
        failures.append(f"{found} staircases built, expected {expected}")
    return max(found, expected), failed, failures


def layer_metrics(tr: tracer.Tracer, stage_s: dict) -> dict:
    """The per-layer metrics that one traced pass yields."""
    s = tr.stat
    out = {}
    for name in (
        "kernels.skew_lr_contents",
        "ktheory.chi_pair",
        "schur.lr_product",
        "bott.euler_char",
        "ktheory.class_of",
        "ktheory.mutate_left",
        "ktheory.euler_pairing",
        "bott.ext_table",
        "bott.bott",
        "staircase.is_k_exact",
        "diagrams.enumerate_diagrams",
    ):
        out[f"{name}.calls"] = s(name).calls
    for name in (
        "kernels.skew_lr_contents",
        "ktheory.chi_pair",
        "schur.lr_product",
        "bott.euler_char",
        "ktheory.class_of",
        "ktheory.twist_class",
        "ktheory.mutate_left",
        "bott.ext_table",
        "lefschetz.gram",
        "ktheory.fullness_determinant",
        "ktheory.bareiss_det",
        "staircase.is_k_exact",
        "staircase.build_staircase",
        "staircase.g48_sequence_check",
        "diagrams.enumerate_diagrams",
    ):
        out[f"{name}.s"] = s(name).total
    for name in (
        "schur.lr_product",
        "bott.euler_char",
        "ktheory.class_of",
        "bott.ext_table",
        "staircase.is_k_exact",
    ):
        out[f"{name}.self_s"] = s(name).self_time
    chi, lr = s("ktheory.chi_pair"), s("schur.lr_product")
    out["kernels.tableaux"] = tr.tableaux
    out["ktheory.chi_pair.entries"] = tr.chi_pair_entries()
    out["ktheory.chi_pair.hit_ratio"] = 1 - chi.misses / chi.calls if chi.calls else 0.0
    out["schur.lr_cache.entries"] = tr.cache_entries("schur", "_LR_CACHE")
    out["schur.lr_cache.hit_ratio"] = 1 - lr.misses / lr.calls if lr.calls else 0.0
    out["bott.bott_cache.entries"] = tr.cache_entries("bott", "_BOTT_CACHE")
    mutations = s("ktheory.mutate_left").calls
    out["ktheory.pairings_per_mutation"] = (
        tr.pairings_in_mutations / mutations if mutations else 0.0
    )
    for name in STAGES:
        out[f"cli.stage.{name}_s"] = stage_s.get(name, 0.0)
    return out


def environment() -> dict:
    import grex

    backend = getattr(grex, "kernel_backend", None)
    numba = importlib.util.find_spec("numba") is not None
    if numba:
        try:
            importlib.import_module("numba")
        except Exception:  # any failure means the jit kernel cannot run
            numba = False
    return {
        "grex_version": getattr(grex, "__version__", None),
        "kernel_backend": backend() if backend else None,
        "numba_imports": numba,
    }


def time_gram(jobs: int) -> dict:
    """Full-Ext Gram check of the Fonarev collection of G(4,11)."""
    from grex.diagrams import Box
    from grex.lefschetz import fonarev, gram

    objects = fonarev(Box(4, 11)).objects
    t0 = time.perf_counter()
    result = gram(objects, mode="full_ext", jobs=jobs)
    seconds = time.perf_counter() - t0
    violations = len(result.violations)
    return {
        "jobs": jobs,
        "gram_s": seconds,
        "attempted": 1,
        "failed": int(violations > 0),
        "failures": [f"G(4,11) gram with jobs={jobs}: {violations} violations"] if violations else [],
        "digest": digest([list(r) for r in result.entries]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference", help="JSON file of reference stage digests")
    parser.add_argument("--gram-jobs", type=int, help="time the G(4,11) Gram check instead")
    args = parser.parse_args()

    import grex.cli  # noqa: F401  (the set-up that precedes the timed region)

    if args.gram_jobs:
        print(json.dumps(time_gram(args.gram_jobs)))
        return 0
    if args.workload is None:
        parser.error("--workload or --gram-jobs is required")
    kind, boxes = WORKLOADS[args.workload]
    reference = None
    if args.reference:
        with open(args.reference) as fh:
            reference = json.load(fh)["digests"]

    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tr.install()
    rng = random.Random(args.seed)
    clock = hostspeed.SpeedClock()
    clock.start()
    if kind == "report":
        payloads, stage_s = run_reports(boxes, rng)
    else:
        verdicts = run_sweep(boxes, rng)
        stage_s = {}
    timing = clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    digests = None
    if kind == "report":
        attempted, failed, failures, digests = check_reports(payloads, reference)
    else:
        attempted, failed, failures = check_sweep(boxes, verdicts)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        **timing,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "stage_s": stage_s,
        "digests": digests,
        "env": environment(),
    }
    if tr is not None:
        out["layers"] = layer_metrics(tr, stage_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
