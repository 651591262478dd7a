"""Command-line front end emitting machine-readable verification reports.

Exit codes: 0 = pass/informational, 1 = a mathematical check failed (a
verdict, or a check that raised), 2 = invalid input, including a box with
C(n,k) above the size guard, without --force, on any command but ext.
JSON goes to stdout; diagnostics, and the stage timings and peak RSS of
`report`, to stderr.  --jobs and GREX_JOBS are validated but start no
processes.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import resource
import sys
import time
from math import comb

from .bott import TwistedSchur, ext_table
from .diagrams import (
    SELECTIONS,
    Box,
    BoxedDiagram,
    _non_minimal_upper,
    enumerate_diagrams,
    orbits,
    residual_rank,
)
from .ktheory import _ctx, _fullness_sign, fullness_determinant, residual_report
from .lefschetz import fonarev, gram, kapranov
from .staircase import (
    _twist_columns_exact,
    appendix_table_check,
    build_staircase,
    build_theta_staircase,
    g48_sequence_check,
    is_k_exact,
)

SIZE_GUARD = 3003


def _fail(msg: str, code: int = 2) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _emit(payload, args, *, csv_rows=None) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in csv_rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = _pretty(payload)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SystemExit(_fail(f"cannot write {args.output}: {exc.strerror}"))
    else:
        sys.stdout.write(text)


def _check_output(path: str) -> None:
    """Exit 2 before any work if --output is a directory or lies in a missing one."""
    if os.path.isdir(path):
        raise SystemExit(_fail(f"cannot write {path}: {os.strerror(errno.EISDIR)}"))
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise SystemExit(_fail(f"cannot write {path}: {os.strerror(errno.ENOENT)}"))


def _pretty(payload, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(payload, dict):
        lines = []
        for key, val in payload.items():
            if isinstance(val, (dict, list)) and val and not _is_flat(val):
                lines.append(f"{pad}{key}:")
                lines.append(_pretty(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(val)}")
        return "\n".join(lines) + ("\n" if indent == 0 else "")
    if isinstance(payload, list):
        return "\n".join(f"{pad}- {json.dumps(v)}" for v in payload)
    return f"{pad}{payload}"


def _is_flat(val) -> bool:
    if isinstance(val, list):
        return all(not isinstance(v, (dict, list)) for v in val) or (
            all(isinstance(v, list) and len(v) <= 12 for v in val) and len(val) <= 12
        )
    return False


def _parse_parts(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(",") if x != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _box_from(args) -> Box:
    if args.k is None or args.n is None:
        raise SystemExit(_fail("--k and --n are required"))
    if args.k < 1 or args.k >= args.n:
        raise SystemExit(_fail(f"invalid box: need 1 <= k < n, got k={args.k}, n={args.n}"))
    return Box(args.k, args.n)


def _guarded_box(args) -> Box:
    """The box of a command that enumerates it: C(n,k) above the size guard
    exits 2 unless --force is given."""
    box = _box_from(args)
    size = comb(box.n, box.k)
    if size > SIZE_GUARD and not args.force:
        raise SystemExit(
            _fail(
                f"C({box.n},{box.k}) = {size} exceeds the size guard {SIZE_GUARD}; "
                "pass --force to run anyway"
            )
        )
    return box


def cmd_diagrams(args) -> int:
    box = _guarded_box(args)
    diagrams = enumerate_diagrams(box, args.selection)
    payload = {
        "box": box.to_json(),
        "selection": args.selection,
        "count": len(diagrams),
        "diagrams": [d.to_json() for d in diagrams],
    }
    _emit(payload, args)
    return 0


def cmd_orbits(args) -> int:
    box = _guarded_box(args)
    orbs = orbits(box)
    payload = {
        "box": box.to_json(),
        "orbit_count": len(orbs),
        "orbits": [
            {
                "representative": orb.representative.to_json(),
                "length": orb.length,
                "members": [m.to_json() for m in orb.members],
            }
            for orb in orbs
        ],
    }
    _emit(payload, args)
    return 0


def cmd_collection(args) -> int:
    box = _guarded_box(args)
    coll = fonarev(box) if args.style == "fonarev" else kapranov(box)
    payload = coll.to_json()
    payload["style"] = args.style
    payload["object_count"] = len(coll.objects)
    _emit(payload, args)
    return 0


def cmd_ext(args) -> int:
    box = _box_from(args)
    if args.lam is None or args.mu is None:
        return _fail("ext needs --lambda and --mu")
    try:
        e = TwistedSchur(args.lam, 0, box)
        f = TwistedSchur(args.mu, args.twist, box)
    except ValueError as exc:
        return _fail(str(exc))
    table = ext_table(e, f)
    payload = {
        "box": box.to_json(),
        "source": e.to_json(),
        "target": f.to_json(),
        "ext": table.to_json(),
        "euler": table.euler(),
    }
    _emit(payload, args)
    return 0


def cmd_gram(args) -> int:
    box = _guarded_box(args)
    coll = fonarev(box) if args.style == "fonarev" else kapranov(box)
    result = gram(coll.objects, mode=args.mode)
    payload = {
        "box": box.to_json(),
        "style": args.style,
        "mode": args.mode,
        "object_count": len(coll.objects),
        "violation_count": len(result.violations),
        "violations": [v.to_json() for v in result.violations],
        "entries": [list(r) for r in result.entries],
    }
    _emit(payload, args, csv_rows=[list(r) for r in result.entries])
    return 1 if result.violations else 0


def cmd_staircase(args) -> int:
    box = _guarded_box(args)
    if args.theta:
        if box.n % box.k != 0 or box.k < 2 or box.n // box.k < 2:
            return _fail("--theta needs n = k*m with k >= 2 and m >= 2")
        sc, ledger = build_theta_staircase(box.k, box.n // box.k)
        exact = is_k_exact(sc)
        payload = sc.to_json(k_exact=exact)
        payload["ledger"] = ledger.to_json()
        payload["ledger_complete"] = ledger.complete
        _emit(payload, args)
        return 0 if exact and ledger.complete else 1
    if args.lam is None:
        return _fail("staircase needs --lambda or --theta")
    try:
        lam = BoxedDiagram(args.lam, box)
        sc = build_staircase(box, lam)
    except ValueError as exc:
        return _fail(str(exc))
    exact = is_k_exact(sc)
    _emit(sc.to_json(k_exact=exact), args)
    return 0 if exact else 1


def cmd_residual(args) -> int:
    box = _guarded_box(args)
    try:
        report = residual_report(box)
    except ValueError as exc:
        # a chain that fails the semiorthogonality check is a failed verdict
        return _fail(str(exc), 1)
    payload = report.to_json()
    payload["fullness_det"] = fullness_determinant(box)
    payload["pass"] = ok = report.passes
    _emit(payload, args, csv_rows=[list(r) for r in report.residual_gram])
    return 0 if ok else 1


def cmd_fullness(args) -> int:
    box = _guarded_box(args)
    det = fullness_determinant(box)
    payload = {"box": box.to_json(), "det": det, "abs_det_is_one": abs(det) == 1}
    _emit(payload, args)
    return 0 if abs(det) == 1 else 1


def full_report(box: Box, jobs: int = 1, timings: dict | None = None) -> dict:
    """Run every verification stage; failures are recorded, never raised.

    A stage whose check raises AssertionError, RuntimeError or ValueError is
    recorded as failed, with the message under "error".  `jobs` is accepted
    and ignored: every stage runs in this process.

    The stages read the box's orbits, Fonarev collection, primitive block
    and twist matrix T from the per-box context of `ktheory`, so each is
    computed once per report; the staircase stage checks the T that the
    residual and fullness stages read, all its full-first-row columns in one
    transposed pass with no pairing table.  Only the theta staircase, the
    residual stage and the G(4,8) fixture build the table, so a report with
    gcd(k, n) = 1 builds none.

    When the Gram and staircase stages both pass, the Fonarev classes C
    satisfy det(C)^2 = 1 (`ktheory` module docstring), and the fullness stage
    reads det C mod 3 for its sign.  Otherwise, or when that residue is 0,
    it eliminates over Z, as `grex fullness` and `grex residual` always do.
    On a pass both routes give the same det, +-1.
    """

    stages: dict[str, dict] = {}
    ctx = _ctx(box)

    def run(name, fn):
        t0 = time.perf_counter()
        try:
            stages[name] = fn()
        except (AssertionError, RuntimeError, ValueError) as exc:
            stages[name] = {"verdict": "fail", "error": str(exc)}
        if timings is not None:
            timings[name] = time.perf_counter() - t0

    def stage_diagrams():
        all_d = ctx.diagrams
        lengths = [orb.length for orb in ctx.orbits]
        minimal = [orb.representative for orb in ctx.orbits]
        rank_m = residual_rank(box)
        rank_b = sum(o for o in lengths if o < box.n)
        ok = (
            len(all_d) == comb(box.n, box.k)
            and sum(lengths) == comb(box.n, box.k)
            and all(box.n % x == 0 for x in lengths)
            and len(minimal) == len(lengths)
            and rank_m == rank_b
        )
        return {
            "verdict": "pass" if ok else "fail",
            "diagram_count": len(all_d),
            "orbit_count": len(lengths),
            "orbit_lengths": sorted(lengths, reverse=True),
            "residual_rank": rank_m,
            "residual_rank_brute_force": rank_b,
            "non_minimal_upper": [d.to_json() for d in _non_minimal_upper(all_d, ctx.orbits)],
        }

    def stage_collection():
        coll = ctx.fonarev
        ok = (
            len(coll.objects) == comb(box.n, box.k)
            and coll.support_partition[0] == len(ctx.orbits)
            and coll.support_partition[-1] == len(ctx.block)
        )
        return {
            "verdict": "pass" if ok else "fail",
            "object_count": len(coll.objects),
            "support_partition": list(coll.support_partition),
        }

    def stage_gram():
        result = gram(ctx.fonarev.objects, mode="full_ext", violations_only=True)
        return {
            "verdict": "pass" if not result.violations else "fail",
            "violation_count": len(result.violations),
            "violations": [v.to_json() for v in result.violations],
        }

    def stage_staircase():
        columns = _twist_columns_exact(box)
        failures = [d.to_json() for d, exact in columns if not exact]
        out = {
            "verdict": "pass" if not failures else "fail",
            "staircases_checked": len(columns),
            "k_exact_failures": failures,
        }
        m = box.n // box.k if box.n % box.k == 0 else 0
        if box.k >= 2 and m >= 2:
            sc, ledger = build_theta_staircase(box.k, m)
            theta_exact = is_k_exact(sc)
            out["theta_ledger_complete"] = ledger.complete
            out["theta_k_exact"] = theta_exact
            if not (theta_exact and ledger.complete):
                out["verdict"] = "fail"
        if box.k == 3 and box.n % 3 == 0 and box.n // 3 >= 2:
            m3 = box.n // 3
            checks = []
            for b in range(m3, box.width + 1):
                for a in range(b, min(box.width, b + m3 - 1) + 1):
                    checks.append(appendix_table_check(box, a, b))
            out["appendix_cases"] = len(checks)
            if not all(checks):
                out["verdict"] = "fail"
        return out

    def stage_residual():
        if residual_rank(box) == 0:
            return {"verdict": "pass", "residual_rank": 0, "note": "residual rank is zero"}
        report = residual_report(box)
        out = report.to_json()
        out["verdict"] = "pass" if report.passes else "fail"
        return out

    def stage_fullness():
        # both verdicts pass: det^2 = 1, so det mod 3 is the sign; 0 there
        # means the stages contradict each other, and the exact route decides
        det = 0
        if stages["gram_fonarev"]["verdict"] == stages["staircase"]["verdict"] == "pass":
            det = _fullness_sign(box)
        if not det:
            det = fullness_determinant(box)
        return {
            "verdict": "pass" if abs(det) == 1 else "fail",
            "det": det,
        }

    def stage_g48():
        if (box.k, box.n) != (4, 8):
            return {"verdict": "skipped"}
        rep = g48_sequence_check()
        return {"verdict": "pass" if rep.all_ok else "fail", **rep.to_json()}

    run("diagrams", stage_diagrams)
    run("collection", stage_collection)
    run("gram_fonarev", stage_gram)
    run("staircase", stage_staircase)
    run("residual", stage_residual)
    run("fullness", stage_fullness)
    run("g48_fixture", stage_g48)

    verdicts = [s["verdict"] for s in stages.values()]
    return {
        "box": box.to_json(),
        "stages": stages,
        "pass": all(v in ("pass", "skipped") for v in verdicts),
    }


def cmd_report(args) -> int:
    box = _guarded_box(args)
    timings: dict[str, float] = {}
    payload = full_report(box, timings=timings)
    for name, dt in timings.items():
        print(f"timing {name}: {dt:.2f}s", file=sys.stderr)
    # ru_maxrss is in KB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak_rss_mb: {peak:.1f}", file=sys.stderr)
    _emit(payload, args)
    return 0 if payload["pass"] else 1


def _add_common(sub, *, jobs=True, csv=False, guard=True):
    # csv only where there is a matrix to write; elsewhere argparse rejects it
    sub.add_argument("--k", type=int, required=False)
    sub.add_argument("--n", type=int, required=False)
    formats = ("json", "csv", "pretty") if csv else ("json", "pretty")
    sub.add_argument("--format", choices=formats, default="json")
    sub.add_argument("--output", default=None, help="write output to a file")
    if guard:
        sub.add_argument("--force", action="store_true", help="ignore the size guard")
    if jobs:
        # None means "not given": main() then reads GREX_JOBS
        sub.add_argument("--jobs", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grex",
        description="verification toolkit for exceptional collections on G(k,n)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("diagrams", help="enumerate box diagrams")
    _add_common(p, jobs=False)
    p.add_argument("--selection", choices=SELECTIONS, default="all")
    p.set_defaults(fn=cmd_diagrams)

    p = subs.add_parser("orbits", help="orbit decomposition of the cyclic action")
    _add_common(p, jobs=False)
    p.set_defaults(fn=cmd_orbits)

    p = subs.add_parser("collection", help="emit a Lefschetz collection")
    _add_common(p, jobs=False)
    p.add_argument("--style", choices=("fonarev", "kapranov"), default="fonarev")
    p.set_defaults(fn=cmd_collection)

    p = subs.add_parser("ext", help="Ext table between two twisted Schur bundles")
    _add_common(p, jobs=False, guard=False)
    p.add_argument("--lambda", dest="lam", type=_parse_parts, default=None)
    p.add_argument("--mu", type=_parse_parts, default=None)
    p.add_argument("--twist", type=int, default=0, help="twist of the target bundle")
    p.set_defaults(fn=cmd_ext)

    p = subs.add_parser("gram", help="Gram matrix and semiorthogonality check")
    _add_common(p, csv=True)
    p.add_argument("--style", choices=("fonarev", "kapranov"), default="fonarev")
    p.add_argument("--mode", choices=("euler", "full_ext"), default="full_ext")
    p.set_defaults(fn=cmd_gram)

    p = subs.add_parser("staircase", help="staircase resolution and K-exactness")
    _add_common(p, jobs=False)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--lambda", dest="lam", type=_parse_parts, default=None)
    which.add_argument("--theta", action="store_true", help="use the canonical short diagram")
    p.set_defaults(fn=cmd_staircase)

    p = subs.add_parser("residual", help="residual classes, Gram matrix and twist orbit")
    _add_common(p, jobs=False, csv=True)
    p.set_defaults(fn=cmd_residual)

    p = subs.add_parser("fullness", help="K-theory fullness determinant")
    _add_common(p, jobs=False)
    p.set_defaults(fn=cmd_fullness)

    p = subs.add_parser("report", help="run every verification stage")
    _add_common(p)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the invalid-input code
        return int(exc.code or 0)
    if hasattr(args, "jobs"):
        if args.jobs is None:
            env = os.environ.get("GREX_JOBS") or "1"
            try:
                args.jobs = int(env)
            except ValueError:
                return _fail(f"GREX_JOBS must be an integer, got {env!r}")
            if args.jobs < 1:
                return _fail(f"GREX_JOBS must be at least 1, got {args.jobs}")
        elif args.jobs < 1:
            return _fail(f"--jobs must be at least 1, got {args.jobs}")
    try:
        if args.output:
            _check_output(args.output)
        return args.fn(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError as exc:
        return _fail(str(exc))
    except (AssertionError, RuntimeError) as exc:
        # a check that raises is a failed verdict, as in full_report
        return _fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
