"""CLI: commands, exit codes, output formats, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from math import comb

import pytest

import grex
from grex.cli import main
from grex.diagrams import SELECTIONS

SRC = os.path.dirname(os.path.dirname(grex.__file__))


def run_python(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=300
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def eliminations(monkeypatch):
    """The modulus of every `ktheory._sparse_det` call; None is the exact route."""
    from grex import ktheory

    calls, det = [], ktheory._sparse_det
    monkeypatch.setattr(
        ktheory, "_sparse_det", lambda rows, modulus=None: calls.append(modulus) or det(rows, modulus)
    )
    return calls


class TestDiagramsAndOrbits:
    def test_diagrams_json(self, capsys):
        code, out, _ = run(
            capsys, "diagrams", "--k", "3", "--n", "6", "--selection", "upper",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 5
        assert data["diagrams"] == [[0, 0, 0], [1, 0, 0], [1, 1, 0], [2, 0, 0], [2, 1, 0]]

    @pytest.mark.parametrize("selection", SELECTIONS)
    def test_every_selection_accepted(self, capsys, selection):
        code, out, _ = run(capsys, "diagrams", "--k", "3", "--n", "6", "--selection", selection)
        assert code == 0
        assert json.loads(out)["selection"] == selection

    def test_unknown_selection_rejected(self, capsys):
        code, out, _ = run(capsys, "diagrams", "--k", "3", "--n", "6", "--selection", "lower")
        assert code == 2 and out == ""

    def test_orbits(self, capsys):
        code, out, _ = run(capsys, "orbits", "--k", "3", "--n", "6", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["orbit_count"] == 4
        assert sorted(o["length"] for o in data["orbits"]) == [2, 6, 6, 6]


class TestResidual:
    def test_g36_payload(self, capsys):
        code, out, _ = run(capsys, "residual", "--k", "3", "--n", "6", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["residual_rank"] == 2
        assert data["short_diagrams"] == [[2, 1, 0]]
        assert data["residual_gram"] == [[1, 0], [0, 1]]
        assert data["tau_orbit_ok"] == [True]
        assert abs(data["fullness_det"]) == 1
        assert data["pass"] is True

    def test_rank_zero_runs_no_pass(self, capsys, monkeypatch):
        # G(4,13) has no short orbit and so no residual class: its residual
        # report runs no transposed pass, and `grex residual` prints the
        # empty residual Gram, stdout as recorded while that pass still ran
        from grex import ktheory
        from grex.diagrams import Box

        passes, transposed = [], ktheory._Ctx.transposed
        monkeypatch.setattr(
            ktheory._Ctx, "transposed", lambda self, columns: passes.append(1) or transposed(self, columns)
        )
        assert ktheory.residual_report(Box(4, 13)).residual_gram == ()
        assert passes == []
        code, out, _ = run(capsys, "residual", "--k", "4", "--n", "13")
        assert code == 0
        assert '"residual_gram": [],' in out
        digest = "f4d6f262a73acc8ef4d6f9148bbbd4f7ca1058de26e303aa701d5a450f94b276"
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestGram:
    def test_fonarev_g36_passes(self, capsys):
        code, out, _ = run(capsys, "gram", "--k", "3", "--n", "6", "--style", "fonarev",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["violation_count"] == 0

    def test_csv_matrix(self, capsys):
        code, out, _ = run(capsys, "gram", "--k", "1", "--n", "3", "--style", "kapranov",
                           "--mode", "euler", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "1,3,6"


class TestExt:
    def test_anchor(self, capsys):
        code, out, _ = run(capsys, "ext", "--k", "2", "--n", "4", "--lambda", "1,0",
                           "--mu", "1,0", "--twist", "-2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["ext"] == {"2": 1}
        assert data["euler"] == 1

    def test_rejects_bad_weight(self, capsys):
        code, out, err = run(capsys, "ext", "--k", "3", "--n", "6", "--lambda", "1,2,0",
                             "--mu", "1,0,0")
        assert code == 2
        assert out == ""
        assert err == "error: weight is not weakly decreasing: (1, 2, 0)\n"

    def test_csv_rejected(self, capsys):
        code, _, err = run(capsys, "ext", "--k", "2", "--n", "4", "--lambda", "1,0",
                           "--mu", "1,0", "--format", "csv")
        assert code == 2
        assert "csv" in err


class TestStaircase:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "staircase", "--k", "4", "--n", "13",
                           "--lambda", "9,8,5,2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["k_exact"] is True
        assert data["terms"][4] == {"c": 7, "mu": [7, 4, 4, 2], "extra_twist": 0}

    def test_theta(self, capsys):
        code, out, _ = run(capsys, "staircase", "--k", "3", "--n", "6", "--theta",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["ledger_complete"] is True

    def test_rejects_bad_lambda(self, capsys):
        code, out, err = run(capsys, "staircase", "--k", "3", "--n", "6",
                             "--lambda", "2,1,0", "--format", "json")
        assert code == 2
        assert out == ""
        assert err == "error: staircase needs a full first row: lambda_1 = 3\n"

    def test_theta_and_lambda_exclusive(self, capsys):
        code, out, err = run(capsys, "staircase", "--k", "3", "--n", "6", "--theta",
                             "--lambda", "2,0,0", "--format", "json")
        assert code == 2
        assert out == ""
        assert "not allowed with argument" in err

    def test_needs_theta_or_lambda(self, capsys):
        code, out, err = run(capsys, "staircase", "--k", "3", "--n", "6")
        assert code == 2
        assert out == ""
        assert "--lambda or --theta" in err


class TestValidation:
    def test_invalid_box(self, capsys):
        code, _, err = run(capsys, "fullness", "--k", "1", "--n", "0")
        assert code == 2
        assert "error" in err

    def test_k_equal_n(self, capsys):
        code, _, _ = run(capsys, "fullness", "--k", "3", "--n", "3")
        assert code == 2

    def test_missing_box(self, capsys):
        code, _, _ = run(capsys, "diagrams")
        assert code == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one(self, capsys, jobs):
        for command in ("gram", "report"):
            code, out, err = run(capsys, command, "--k", "2", "--n", "4", "--jobs", jobs)
            assert code == 2
            assert out == ""
            assert "error: --jobs" in err

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_grex_jobs(self, capsys, monkeypatch, value):
        monkeypatch.setenv("GREX_JOBS", value)
        for command in ("gram", "report"):
            code, out, err = run(capsys, command, "--k", "2", "--n", "4")
            assert code == 2
            assert out == ""
            assert err.startswith("error: GREX_JOBS")
        # an explicit --jobs wins, and commands without --jobs ignore it
        assert run(capsys, "gram", "--k", "2", "--n", "4", "--jobs", "1")[0] == 0
        assert run(capsys, "diagrams", "--k", "2", "--n", "4")[0] == 0


class TestSizeGuard:
    """One guard for every command that enumerates the box: C(n,k) > 3003
    exits 2 unless --force is given.  `ext` builds no basis and is unguarded."""

    def test_huge_box_refused_without_enumerating(self, capsys, monkeypatch):
        import grex.cli as cli

        called = []
        monkeypatch.setattr(cli, "enumerate_diagrams", lambda *args: called.append(args))
        code, out, err = run(capsys, "diagrams", "--k", "30", "--n", "60")
        assert code == 2
        assert out == "" and not called
        assert "size guard" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["orbits"],
            ["collection"],
            ["gram"],
            ["staircase", "--theta"],
            ["residual"],
            ["fullness"],
            ["report"],
        ],
    )
    def test_every_enumerating_command(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--k", "7", "--n", "14")
        assert code == 2
        assert out == ""
        assert err.startswith("error: C(14,7) = 3432 exceeds the size guard 3003")

    def test_force(self, capsys):
        code, out, _ = run(capsys, "diagrams", "--k", "7", "--n", "14", "--force")
        assert code == 0
        assert json.loads(out)["count"] == 3432

    def test_ext_unguarded(self, capsys):
        zero = ",".join(["0"] * 30)
        code, out, _ = run(capsys, "ext", "--k", "30", "--n", "60", "--lambda", zero, "--mu", zero)
        assert code == 0
        assert json.loads(out)["euler"] == 1
        assert run(capsys, "ext", "--k", "30", "--n", "60", "--force")[0] == 2


class TestRaisingCheck:
    """A check that raises is a failed verdict: `error: ...` on stderr and
    exit 1, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["staircase", "--k", "2", "--n", "4", "--lambda", "2,1"],
            ["residual", "--k", "3", "--n", "6"],
        ],
    )
    def test_pairing_row_raises(self, capsys, monkeypatch, argv):
        # a one-off staircase check reads its one relation from one
        # transposed pass, so a pass that raises fails it; the residual chain
        # check reads its covectors from one transposed pass, so a pass whose
        # every read is doubled fails the guard on the first chain member's
        # leading term
        from grex import ktheory

        def corrupt(self, v):
            raise AssertionError(f"corrupt pairing pass on {self.box}")

        def doubled(self, v):
            return [2 * x for x in transpose(self, v)]

        transpose = ktheory._Ctx.strip_transpose
        if argv[0] == "staircase":
            monkeypatch.setattr(ktheory._Ctx, "strip_transpose", corrupt)
            message = "error: corrupt pairing pass"
        else:
            monkeypatch.setattr(ktheory._Ctx, "strip_transpose", doubled)
            message = "error: Kapranov Gram diagonal is not 1 at (0, 0, 0)"
        ktheory._ctx.cache_clear()  # no table built before the patch
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(message)
        assert "Traceback" not in err

    def test_non_semiorthogonal_residual_chain(self, capsys, monkeypatch):
        # the primitive block reversed fails the semiorthogonality check: a
        # failed verdict (exit 1), as in `report`, not invalid input (exit 2)
        from grex import ktheory
        from grex.lefschetz import primitive_block

        # the report reads the block from the per-box context
        reversed_block = property(lambda self: tuple(reversed(primitive_block(self.box))))
        monkeypatch.setattr(ktheory._Ctx, "block", reversed_block)
        ktheory._ctx.cache_clear()  # no block read before the patch
        code, out, err = run(capsys, "residual", "--k", "3", "--n", "6")
        assert code == 1
        assert out == ""
        assert err.startswith("error: projectors") and "not semiorthogonal" in err

    def test_theta_term_raises(self, capsys, monkeypatch):
        # the theta staircase tests its terms against the orbit
        # representatives of the per-box context: with none, every term fails
        from grex import ktheory

        monkeypatch.setattr(ktheory._Ctx, "orbits", property(lambda self: ()))
        ktheory._ctx.cache_clear()  # no orbits read before the patch
        code, out, err = run(capsys, "staircase", "--k", "2", "--n", "4", "--theta")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "not minimal upper triangular" in err


class TestFullness:
    def test_g24(self, capsys):
        code, out, _ = run(capsys, "fullness", "--k", "2", "--n", "4", "--format", "json")
        assert code == 0
        assert json.loads(out)["abs_det_is_one"] is True


class TestReport:
    def test_g24_all_pass(self, capsys):
        code, out, _ = run(capsys, "report", "--k", "2", "--n", "4", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        assert data["stages"]["g48_fixture"]["verdict"] == "skipped"
        for name in ("diagrams", "collection", "gram_fonarev", "staircase",
                     "residual", "fullness"):
            assert data["stages"][name]["verdict"] == "pass", name

    def test_g37_residual_trivial(self, capsys):
        code, out, _ = run(capsys, "report", "--k", "3", "--n", "7", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["stages"]["residual"]["residual_rank"] == 0
        assert data["stages"]["residual"]["verdict"] == "pass"

    def test_g48_includes_fixture(self, capsys):
        code, out, _ = run(capsys, "report", "--k", "4", "--n", "8", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        assert data["stages"]["g48_fixture"]["verdict"] == "pass"
        assert data["stages"]["g48_fixture"]["k_exact"] is True

    def test_size_guard(self, capsys):
        code, _, err = run(capsys, "report", "--k", "7", "--n", "14", "--format", "json")
        assert code == 2
        assert "size guard" in err

    def test_jobs_determinism(self, capsys):
        _, out1, _ = run(capsys, "report", "--k", "2", "--n", "4", "--format", "json",
                         "--jobs", "1")
        _, out2, _ = run(capsys, "report", "--k", "2", "--n", "4", "--format", "json",
                         "--jobs", "2")
        assert out1 == out2

    def test_each_staircase_checked_once(self, capsys, monkeypatch):
        import grex.cli as cli
        from grex import ktheory, staircase

        theta_head = staircase.build_theta_staircase(2, 2)[0].k_class_terms()[0]
        zero_tests, batches, checked, builds = [], [], [], []
        vanish, batch = ktheory._Ctx.vanishes, ktheory._Ctx.vanish_batch
        check, build = cli.is_k_exact, staircase.build_staircase
        monkeypatch.setattr(
            ktheory._Ctx, "vanishes", lambda self, ts: zero_tests.append(ts[0]) or vanish(self, ts)
        )

        def heads(self, columns):  # the head of each column, as (source sigma, coef)
            sigmas = list(self.sources)
            batches.append([(sigmas[c[0][0]], c[0][1]) for c in columns])
            return batch(self, columns)

        monkeypatch.setattr(ktheory._Ctx, "vanish_batch", heads)
        monkeypatch.setattr(cli, "is_k_exact", lambda sc: checked.append(sc) or check(sc))
        monkeypatch.setattr(staircase, "build_staircase", lambda *a: builds.append(a) or build(*a))
        ktheory._ctx.cache_clear()  # no verdicts kept from an earlier report
        code, _, _ = run(capsys, "report", "--k", "2", "--n", "4", "--format", "json")
        assert code == 0
        # the three full-first-row columns of the twist are zero-tested in one
        # batch, untwisted, head first (Sigma^lam U* at its source lam + 1),
        # in basis order; only the theta staircase is built and checked as a
        # complex, by one zero test, which reads the verdicts of that batch
        # at its gate
        assert batches == [[((3, 1), 1), ((3, 2), 1), ((3, 3), 1)]]
        assert zero_tests == [theta_head]
        assert len(checked) == len(builds) == 1

    def test_raising_residual_check_recorded(self, capsys, monkeypatch):
        # the primitive block reversed is not semiorthogonal, and the residual
        # check's ValueError once escaped as the invalid-input exit code 2
        from grex import ktheory
        from grex.lefschetz import primitive_block

        # the report reads the block from the per-box context
        reversed_block = property(lambda self: tuple(reversed(primitive_block(self.box))))
        monkeypatch.setattr(ktheory._Ctx, "block", reversed_block)
        ktheory._ctx.cache_clear()  # no block read before the patch
        code, out, _ = run(capsys, "report", "--k", "3", "--n", "6", "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert data["pass"] is False
        residual = data["stages"]["residual"]
        assert residual["verdict"] == "fail"
        assert "not semiorthogonal" in residual["error"]
        assert data["stages"]["fullness"]["verdict"] == "pass"

    def test_one_residual_verdict(self, capsys, monkeypatch):
        # `grex residual` and the report's residual stage read one verdict,
        # `ResidualReport.passes`: a rank it reads off by one fails both,
        # while the diagrams stage, which reads its own rank, still passes
        from grex import ktheory

        rank = ktheory.residual_rank
        monkeypatch.setattr(ktheory, "residual_rank", lambda box: rank(box) + 1)
        code, out, _ = run(capsys, "residual", "--k", "3", "--n", "6", "--format", "json")
        assert code == 1
        assert json.loads(out)["pass"] is False
        code, out, _ = run(capsys, "report", "--k", "3", "--n", "6", "--format", "json")
        assert code == 1
        stages = json.loads(out)["stages"]
        assert stages["residual"]["verdict"] == "fail"
        assert stages["diagrams"]["verdict"] == "pass"

    @pytest.mark.parametrize("i,step", [(2, -1), (-1, 1)])
    def test_planted_coefficient_fails_the_staircase_stage(self, capsys, monkeypatch, i, step):
        # no honest box reaches k_exact_failures: move the box count c of one
        # middle term of one lam's jump rule, and so its coefficient C(n, c),
        # which the twist reads.  The stage checks that twist and still
        # reports its verdicts; the theta staircase and the G(4,8) fixture,
        # whose deep terms pair through T, are refused by the same gate.
        # The later stages read T too, so only those stages and the exit
        # code are pinned
        from grex import ktheory

        lam, jumps = (4, 3, 1, 0), ktheory._jumps

        def planted(box, parts):
            out = jumps(box, parts)
            if parts == lam:
                c, mu = out[i]
                out[i] = (c + step, mu)
            return out

        monkeypatch.setattr(ktheory, "_jumps", planted)
        ktheory._ctx.cache_clear()
        try:
            code, out, _ = run(capsys, "report", "--k", "4", "--n", "8", "--format", "json")
        finally:
            ktheory._ctx.cache_clear()  # drop the twist built from the planted triples
        assert code == 1
        stages = json.loads(out)["stages"]
        refusal = f"column {lam} of the twist T is not K-exact: T is not (x) O(1)"
        assert stages["staircase"] == {
            "verdict": "fail",
            "staircases_checked": comb(7, 3),
            "k_exact_failures": [list(lam)],
            "theta_ledger_complete": True,
            "theta_error": refusal,
        }
        assert stages["g48_fixture"] == {"verdict": "fail", "error": refusal}

    @pytest.mark.parametrize("entry", [0, -1])
    def test_planted_twist_entry_fails_the_staircase_stage(self, capsys, entry, eliminations):
        # +1 on one entry of column lam of the twist T, the matrix that the
        # residual and fullness stages read: the staircase stage checks T
        # itself, so it fails for lam alone; the theta staircase, the
        # residual stage and the G(4,8) fixture, which read the twist
        # identity, refuse T from that verdict; and the fullness stage takes
        # the exact route
        from grex import ktheory
        from grex.diagrams import Box

        lam = (4, 3, 1, 0)
        ktheory._ctx.cache_clear()
        ctx = ktheory._ctx(Box(4, 8))
        cols = list(ctx.twist)
        col = list(cols[ctx.index[lam]])
        row, v = col[entry]
        col[entry] = (row, v + 1)
        cols[ctx.index[lam]] = tuple(col)
        vars(ctx)["twist"] = tuple(cols)
        try:
            code, out, _ = run(capsys, "report", "--k", "4", "--n", "8", "--format", "json")
        finally:
            ktheory._ctx.cache_clear()  # drop the planted twist
        assert code == 1
        stages = json.loads(out)["stages"]
        refusal = f"column {lam} of the twist T is not K-exact: T is not (x) O(1)"
        assert stages["staircase"] == {
            "verdict": "fail",
            "staircases_checked": comb(7, 3),
            "k_exact_failures": [list(lam)],
            "theta_ledger_complete": True,
            "theta_error": refusal,
        }
        assert stages["residual"] == stages["g48_fixture"] == {"verdict": "fail", "error": refusal}
        assert eliminations == [None]

    @pytest.mark.parametrize("flags", [(), ("-O",)])
    def test_planted_twist_entry_fails_grex_residual(self, flags):
        # `grex residual` runs no staircase stage, so it checks T's
        # full-first-row columns itself before it reads the twist identity:
        # +1 on one entry of column lam is a failed verdict, exit 1, naming
        # lam, with no traceback, also when python -O strips assert statements
        self.check_planted_twist_entry(flags, ["residual"])

    @pytest.mark.parametrize("flags", [(), ("-O",)])
    def test_planted_twist_entry_fails_grex_staircase_theta(self, flags):
        # the deep terms of the theta staircase pair through T by the twist
        # identity, so `grex staircase --theta` passes the same gate first:
        # the same failed verdict, not the invalid-input exit code 2
        self.check_planted_twist_entry(flags, ["staircase", "--theta"])

    @staticmethod
    def check_planted_twist_entry(flags, argv):
        lam = (4, 3, 1, 0)
        probe = (
            "import sys\n"
            "from grex import ktheory\n"
            "from grex.cli import main\n"
            "from grex.diagrams import Box\n"
            "ctx = ktheory._ctx(Box(4, 8))\n"
            "cols = list(ctx.twist)\n"
            f"row, v = cols[ctx.index[{lam}]][0]\n"
            f"cols[ctx.index[{lam}]] = ((row, v + 1), *cols[ctx.index[{lam}]][1:])\n"
            "vars(ctx)['twist'] = tuple(cols)\n"
            f"sys.exit(main({argv} + ['--k', '4', '--n', '8']))\n"
        )
        out = run_python(*flags, "-c", probe)
        assert out.returncode == 1
        assert out.stdout == ""
        message = f"column {lam} of the twist T is not K-exact: T is not (x) O(1)"
        assert out.stderr == f"error: {message}\n"

    def test_planted_weight_out_of_the_box_recorded(self, capsys, monkeypatch):
        # a middle weight off the box would reach the zero test as a missing
        # table source (KeyError); the in-box test stops it as a ValueError,
        # which the stage records
        from grex import ktheory

        lam, jumps = (4, 3, 1, 0), ktheory._jumps

        def planted(box, parts):
            out = jumps(box, parts)
            if parts == lam:
                c, mu = out[0]
                out[0] = (c, mu[::-1])
            return out

        monkeypatch.setattr(ktheory, "_jumps", planted)
        ktheory._ctx.cache_clear()
        try:
            code, out, err = run(capsys, "report", "--k", "4", "--n", "8", "--format", "json")
        finally:
            ktheory._ctx.cache_clear()
        assert code == 1
        assert "Traceback" not in err
        stage = json.loads(out)["stages"]["staircase"]
        assert stage == {"verdict": "fail", "error": "not a diagram in the 4x4 box: (0, 1, 3, 3)"}

    def test_raising_staircase_check_recorded(self, capsys, monkeypatch):
        # a theta staircase term that fails its check raised RuntimeError
        # out of the report.  Planted by moving every theta term to the full
        # box, which is no orbit representative; the other stages read the
        # orbits unchanged
        from grex import staircase
        from grex.bott import normal_form

        def full_box(w, t):
            weight, twist = normal_form(w, t)
            return (2,) * len(weight), twist

        monkeypatch.setattr(staircase, "normal_form", full_box)
        code, out, _ = run(capsys, "report", "--k", "2", "--n", "4", "--format", "json")
        assert code == 1
        data = json.loads(out)
        stage = data["stages"]["staircase"]
        assert stage == {"verdict": "fail", "error": stage["error"]}
        assert "not minimal upper triangular" in stage["error"]
        assert data["stages"]["residual"]["verdict"] == "pass"

    def test_round_trip(self, capsys):
        _, out, _ = run(capsys, "report", "--k", "2", "--n", "4", "--format", "json")
        data = json.loads(out)
        assert json.loads(json.dumps(data)) == data

    def test_csv_rejected_before_any_stage(self, capsys, monkeypatch):
        import grex.cli as cli

        def no_work(*args, **kwargs):
            raise AssertionError("the report ran before csv was rejected")

        monkeypatch.setattr(cli, "full_report", no_work)
        code, out, err = run(capsys, "report", "--k", "2", "--n", "4", "--format", "csv")
        assert code == 2
        assert out == ""
        assert "csv" in err

    @pytest.mark.parametrize("target", ["missing/out.json", "."])
    def test_unwritable_output_rejected_before_any_stage(
        self, tmp_path, capsys, monkeypatch, target
    ):
        # a missing directory or a directory as the file used to fail only
        # after every stage had run
        import grex.cli as cli

        def no_work(*args, **kwargs):
            raise AssertionError("the report ran before the output path was rejected")

        monkeypatch.setattr(cli, "full_report", no_work)
        path = tmp_path / target
        code, out, err = run(capsys, "report", "--k", "2", "--n", "4", "--output", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write")
        assert "timing" not in err and "peak_rss_mb" not in err
        assert not (tmp_path / "missing").exists()

    def test_peak_rss_after_the_timings(self, capsys):
        import resource

        code, out, err = run(capsys, "report", "--k", "2", "--n", "4", "--format", "json")
        assert code == 0
        *timings, last = err.splitlines()
        stages = json.loads(out)["stages"]
        assert [line.split(":")[0] for line in timings] == [f"timing {s}" for s in stages]
        name, value = last.split(": ")
        assert name == "peak_rss_mb"
        # ru_maxrss only grows, and is in KB on Linux
        assert 0 < float(value) <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 + 0.1

    def test_ext_path_keeps_no_module_state(self):
        import importlib

        from grex.cli import full_report
        from grex.diagrams import Box

        full_report(Box(3, 6))
        full_report(Box(2, 5))
        for name in ("grex.bott", "grex.schur", "grex.diagrams"):
            module = importlib.import_module(name)
            for attr, value in vars(module).items():
                if attr.startswith("__"):
                    continue
                assert not (isinstance(value, dict) and value), f"{name}.{attr}"
                assert not hasattr(value, "cache_info"), f"{name}.{attr}"


class TestFullnessRoute:
    """The report's fullness stage reads det C mod 3 only when the Gram and
    staircase stages both pass; otherwise, and when that residue is 0, it
    eliminates over Z, as `grex fullness` and `grex residual` always do."""

    def report(self, capsys):
        code, out, _ = run(capsys, "report", "--k", "4", "--n", "8", "--format", "json")
        return code, json.loads(out)

    def test_passing_report_takes_the_mod_3_route(self, capsys, eliminations):
        code, data = self.report(capsys)
        assert code == 0
        assert data["stages"]["fullness"] == {"verdict": "pass", "det": -1}
        assert eliminations == [3]

    def test_planted_gram_violation_takes_the_exact_route(self, capsys, monkeypatch, eliminations):
        import dataclasses

        import grex.cli as cli
        from grex.lefschetz import Violation

        real = cli.gram

        def planted(objects, **kwargs):
            result = real(objects, **kwargs)
            return dataclasses.replace(result, violations=(*result.violations, Violation(1, 0, 0, 1)))

        monkeypatch.setattr(cli, "gram", planted)
        code, data = self.report(capsys)
        assert code == 1
        assert data["stages"]["gram_fonarev"]["verdict"] == "fail"
        assert data["stages"]["staircase"]["verdict"] == "pass"
        assert data["stages"]["fullness"] == {"verdict": "pass", "det": -1}
        assert eliminations == [None]

    @pytest.mark.parametrize("k,n", [(4, 8), (4, 11)])
    def test_zero_residue_falls_back_to_the_exact_route(self, capsys, monkeypatch, eliminations, k, n):
        # both stages pass, so det mod 3 is never 0; forced to 0, the stage
        # takes the exact determinant, and the payload is unchanged
        import grex.cli as cli

        argv = ("report", "--k", str(k), "--n", str(n), "--format", "json")
        code, expected, _ = run(capsys, *argv)
        assert code == 0 and eliminations == [3]
        eliminations.clear()
        monkeypatch.setattr(cli, "_fullness_sign", lambda box: 0)
        assert run(capsys, *argv)[:2] == (0, expected)
        assert eliminations == [None]

    @pytest.mark.parametrize("command", ["fullness", "residual"])
    def test_commands_without_a_gram_stage_stay_exact(self, capsys, eliminations, command):
        code, out, _ = run(capsys, command, "--k", "4", "--n", "8", "--format", "json")
        assert code == 0
        assert json.loads(out)["fullness_det" if command == "residual" else "det"] == -1
        assert eliminations == [None]


class TestOnePassPerBox:
    """`full_report` computes the orbits, the Fonarev collection, the
    primitive block and the full-first-row staircases once per box, on the
    per-box context of `ktheory`, which keeps only the box used last."""

    def test_one_build_per_staircase(self, monkeypatch):
        import grex.cli as cli
        from grex import diagrams, ktheory, lefschetz, staircase
        from grex.cli import full_report
        from grex.diagrams import Box
        from grex.ktheory import _ctx

        jumps, builds, checks, walks, collections = [], [], [], [], []
        jump, build, check = diagrams._jumps, staircase.build_staircase, cli.is_k_exact
        walk = diagrams._orbit_parts
        post_init = lefschetz.LefschetzCollection.__post_init__
        for module in (ktheory, staircase):  # the twist and the complexes
            monkeypatch.setattr(module, "_jumps", lambda *a: jumps.append(a[1]) or jump(*a))
        monkeypatch.setattr(staircase, "build_staircase", lambda *a: builds.append(1) or build(*a))
        monkeypatch.setattr(cli, "is_k_exact", lambda *a: checks.append(1) or check(*a))
        monkeypatch.setattr(diagrams, "_orbit_parts", lambda *a: walks.append(1) or walk(*a))
        monkeypatch.setattr(
            lefschetz.LefschetzCollection,
            "__post_init__",
            lambda self: collections.append(1) or post_init(self),
        )
        _ctx.cache_clear()
        full_report(Box(4, 10))
        # one jump rule run per lam with lam_1 = n-k: C(9,3) = 84, not 168
        # when the staircase stage and the twist each ran it, and no complex
        # built or checked, as G(4,10) has no theta staircase; one orbit
        # pass, 22 walks for the 22 orbits, as fonarev and primitive_block
        # (which would walk them again) are built from it; one Fonarev
        # collection
        assert len(jumps) == len(set(jumps)) == comb(9, 3) == 84
        assert builds == checks == []
        assert len(walks) == 22
        assert len(collections) <= 1

    def test_twist_verdicts_kept_on_the_context(self, monkeypatch):
        # the verdicts on T's columns are cached on the per-box context: a
        # second report on the box, residual stage included, runs no second
        # column pass, and a new context runs one again
        from grex import ktheory
        from grex.cli import full_report
        from grex.diagrams import Box

        batches = []
        batch = ktheory._Ctx.vanish_batch
        monkeypatch.setattr(ktheory._Ctx, "vanish_batch", lambda *a: batches.append(1) or batch(*a))
        ktheory._ctx.cache_clear()
        box = Box(3, 6)
        first = full_report(box)
        assert full_report(box) == first
        assert len(batches) == 1
        ktheory._ctx.cache_clear()
        assert full_report(box) == first
        assert len(batches) == 2

    @staticmethod
    def fresh(box):
        probe = (
            "import json, sys\n"
            "from grex.cli import full_report\n"
            "from grex.diagrams import Box\n"
            f"print(json.dumps(full_report(Box({box.k}, {box.n}))))\n"
        )
        out = run_python("-c", probe)
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout)

    def test_box_switches_match_a_fresh_interpreter(self):
        import weakref

        from grex.cli import full_report
        from grex.diagrams import Box
        from grex.ktheory import _ctx

        a, b = Box(4, 10), Box(3, 6)
        first = full_report(a)
        ref = weakref.ref(_ctx(a))
        second = full_report(b)
        assert ref() is None  # the context of A is freed when B's is made
        third = full_report(a)
        fresh_a, fresh_b = self.fresh(a), self.fresh(b)
        assert first == third == fresh_a
        assert second == fresh_b

    def test_context_state_inventory(self):
        # every per-box cache is named here: a new one has to be added on
        # purpose, and no twisted class is kept after the report
        from grex.cli import full_report
        from grex.diagrams import Box
        from grex.ktheory import _ctx

        _ctx.cache_clear()
        box = Box(4, 10)
        full_report(box)
        assert sorted(vars(_ctx(box))) == [
            "block", "box", "chis", "diagrams", "fonarev", "index", "lift", "orbits",
            "rowsums", "sources", "strips", "twist", "twist_exact", "weights",
        ]

    def test_report_unpacks_only_deep_rows(self, monkeypatch):
        # the report stores no row: the deep terms (t <= -2) of the theta
        # staircase and of the G(4,8) fixture are read as rows (a, -1) in
        # the one transposed pass of their zero test, each at the level s
        # of T^s, and folded through T; only `_Ctx.row` stores a deep row
        from grex import ktheory
        from grex.cli import full_report
        from grex.diagrams import Box

        levels, pairings = [], ktheory._Ctx.pairings
        monkeypatch.setattr(
            ktheory._Ctx, "pairings", lambda self, ls: levels.append(len(ls)) or pairings(self, ls)
        )
        ktheory._ctx.cache_clear()
        box = Box(4, 8)
        full_report(box)
        assert not ktheory._ctx(box).chis
        # the theta staircase reaches T^1, the fixture's S(2,2)U*(-4) T^3
        assert levels == [2, 4]

    @pytest.mark.parametrize("k,n", [(3, 9), (4, 8), (6, 12)])
    def test_report_takes_no_determinant(self, monkeypatch, k, n):
        # the deep rows come from the twist identity, not from Jacobi-Trudi
        # determinants, and the fullness stage pivots on every row mod 3:
        # `_bareiss_det`, the fallback of `_sparse_det`, is never reached
        from grex import ktheory
        from grex.cli import full_report
        from grex.diagrams import Box

        def refuse(m):
            raise AssertionError(f"determinant of a {len(m)}x{len(m)} matrix")

        monkeypatch.setattr(ktheory, "_bareiss_det", refuse)
        ktheory._ctx.cache_clear()
        assert full_report(Box(k, n))["pass"] is True

    def test_shared_objects_are_read_only(self):
        import dataclasses

        from grex.diagrams import Box
        from grex.ktheory import _ctx

        ctx = _ctx(Box(3, 6))
        assert type(ctx.orbits) is tuple and type(ctx.block) is tuple
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.fonarev.objects = ()


class TestGoldenOutput:
    """sha256 of stdout.  No other test pins every Ext entry and verdict of
    these Gram checks, reports and Ext tables, every orbit and short diagram,
    or every residual class, so any change in them shows here.  The G(4,10)
    and G(5,9) reports and the two ext digests were recorded before the Gram
    check moved to the acyclicity intervals and the lower triangle; the last
    three, before it skipped the weight pairs that the Weyl bounds on the LR
    support prove acyclic at every twist it reads.  The G(6,12) orbits,
    minimal_upper diagrams and Fonarev collection pin the one orbit
    classification that every minimal, short and primitive selection reads.
    The G(7,10) and G(1,5) reports and the G(3,9) theta staircase were
    recorded before the pairing rows were stored under the normal form of
    their bundle; they pin the walks of the one-row and the tallest box.  The
    G(6,12) report is the smallest whose covectors went past the table's
    `cap` in bulk (101 of its 475 classes); it was recorded while the
    context still stored every twisted class.  The last two were
    recorded while the report still built a complex per staircase: the
    G(3,9) report is the one small box with a theta staircase, appendix
    cases and a residual stage, and the G(4,13) staircase, the README
    example, pins the public complex route."""

    DIGESTS = {
        "report_g36": (
            ("report", "--k", "3", "--n", "6"),
            "58d171023e6b37a676b5e9cb35d6ceb88dd26bfc5d0ff937282989c3ad9add5d",
        ),
        "report_g48": (
            ("report", "--k", "4", "--n", "8"),
            "77cd953f68b71cff21d98b5a1bbf252e1c882f24ec0b8ea1eaae0f5bf788ef1f",
        ),
        "gram_fonarev_g48": (
            ("gram", "--k", "4", "--n", "8", "--style", "fonarev", "--mode", "full_ext"),
            "63dc7429b106944dbf17d6dc412c5e4721f163a8dd91f348dcc9faeb54494ecb",
        ),
        "gram_kapranov_g36": (
            ("gram", "--k", "3", "--n", "6", "--style", "kapranov", "--mode", "full_ext"),
            "62728b5c3ce76f3f5c5768eee4423e9f15e6c894de6723f3f02d362d131ba36f",
        ),
        "orbits_g48": (
            ("orbits", "--k", "4", "--n", "8"),
            "904f96f61e55d56b33f321544b0cccb67ec45914d2cddc27b3fd35caa34fe2eb",
        ),
        "diagrams_short_g612": (
            ("diagrams", "--k", "6", "--n", "12", "--selection", "short_minimal_upper"),
            "0eed2ce3f664f31d73a1df3eec49f39a8bb7b865435ffae7db9a440e857cb432",
        ),
        "residual_g48": (
            ("residual", "--k", "4", "--n", "8"),
            "c68cd8c304841490caf779edc0366d441e24cd9e4e80d8ce8a1460450598a081",
        ),
        "collection_g612": (
            ("collection", "--k", "6", "--n", "12"),
            "e9b52ee4d8bc71b9482bf7bcfb5fa0fa9b53b1f1072ad9026a9502c0ba75ce09",
        ),
        "diagrams_minimal_g612": (
            ("diagrams", "--k", "6", "--n", "12", "--selection", "minimal_upper"),
            "8d24a494e9736e7039b323770c73d6dc40ac79005014a271d3fea3b62d6981f0",
        ),
        "orbits_g612": (
            ("orbits", "--k", "6", "--n", "12"),
            "d5b97740af8806747e984a8ea3affa8b2738407ec8d20056c530863b982ffc4f",
        ),
        "report_g410": (
            ("report", "--k", "4", "--n", "10"),
            "5d58fc9f459d2fa05a6255fad75a590c8a104625b49f7908abc3be9d7086c506",
        ),
        "report_g59": (
            ("report", "--k", "5", "--n", "9"),
            "4d95497d97d2d6a31f879ca532533e06923bb1cc6a5cc7d078492c9f5b1ea570",
        ),
        "ext_two_anchor_g24": (
            ("ext", "--k", "2", "--n", "4", "--lambda", "1,0", "--mu", "1,0", "--twist", "-2"),
            "21fd589ab04d8986f16ecdac4d0ad8e32109203a9d376e32c80466b37e50861d",
        ),
        "ext_three_terms_g36": (
            ("ext", "--k", "3", "--n", "6", "--lambda", "3,3,1", "--mu", "2,0,0", "--twist", "-8"),
            "8824e1b7be67d93d4e51b6d78edac251f9cfc54d4fc4b757c5f014bb94aec247",
        ),
        "gram_fonarev_euler_g59": (
            ("gram", "--k", "5", "--n", "9", "--style", "fonarev", "--mode", "euler"),
            "a1483decde60287333d04d7027c085b218709febcfb4e2a8b0a82a6d738ba00c",
        ),
        "gram_kapranov_g49": (
            ("gram", "--k", "4", "--n", "9", "--style", "kapranov", "--mode", "full_ext"),
            "a5b04f68d02ce092eebc47541d62c58d5b0edc6005ed708f81b5f6f97f8d001a",
        ),
        "report_g411": (
            ("report", "--k", "4", "--n", "11"),
            "fb57ccfd423448f35e339913aa283bf4757ffe3bd88da2e00344c14f5a43ae53",
        ),
        "report_g710": (
            ("report", "--k", "7", "--n", "10"),
            "8469f9d367dd720983fb5aaf52b9de511ef98cd7b7f8b91552a18572ea27ad2a",
        ),
        "report_g15": (
            ("report", "--k", "1", "--n", "5"),
            "eef8e1501c1cf69362658a526ec421eb4afcd6aaaa80703e77d5fdff955b4ddf",
        ),
        "staircase_theta_g39": (
            ("staircase", "--k", "3", "--n", "9", "--theta"),
            "15764de23f3cc7a5af48d636e474aa0561a09b021d65b4fcf0009e9434b0f96e",
        ),
        "report_g612": (
            ("report", "--k", "6", "--n", "12"),
            "4e3f2212794a105bfd7c842f07181feee725d3f5f5455551c91022fc2b011373",
        ),
        "report_g39": (
            ("report", "--k", "3", "--n", "9"),
            "7bee05821970d791ca9d786c6807f436cb8b3627d182caa5619afc9161487172",
        ),
        "staircase_g413": (
            ("staircase", "--k", "4", "--n", "13", "--lambda", "9,8,5,2"),
            "699c47e1ff5eeb969e1a20d88cab606e5bcaa3851ee9de156309b32629b262cb",
        ),
    }

    @pytest.mark.parametrize("argv,digest", DIGESTS.values(), ids=list(DIGESTS))
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("case", ["report_g39", "report_g48", "report_g410", "report_g612"])
    def test_report_builds_no_table(self, capsys, monkeypatch, case):
        # the staircase columns, the residual covectors and the slow path of
        # the zero test all read transposed passes, and the theta staircases
        # and the G(4,8) fixture have deep terms (t <= -2), so they take that
        # slow path: a report that could not build the table still prints
        # its digest
        from grex import ktheory
        from grex.diagrams import Box

        def refuse(self):
            raise AssertionError(f"pairing table built on {self.box}")

        monkeypatch.setattr(ktheory._Ctx, "table", property(refuse))
        ktheory._ctx.cache_clear()  # no table built before the patch
        argv, digest = self.DIGESTS[case]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        # the deep rows are folded through T inside their pass, not stored
        assert not ktheory._ctx(Box(int(argv[2]), int(argv[4]))).chis

    @pytest.mark.parametrize(
        "argv,digest",
        [
            DIGESTS["staircase_g413"],
            (
                ("staircase", "--k", "6", "--n", "14", "--lambda", "8,5,3,2,1,0"),
                "70f8c7bf9b536edb003d6e59e9b7b1d511977573ca7c9d4470a4cc8d3f5c1b33",
            ),
        ],
        ids=["g413", "g614"],
    )
    def test_one_off_staircase_builds_no_table(self, capsys, monkeypatch, argv, digest):
        # `grex staircase --lambda` checks one relation: one transposed pass
        # of one column, not a pairing table of every source, and as one
        # column is its own field, no forward pass of the row sums for a
        # width.  The G(6,14) digest was recorded while that command still
        # built the table
        from grex import ktheory

        def refuse(self):
            raise AssertionError(f"pairing table built on {self.box}")

        passes, transposed = [], ktheory._Ctx.transposed
        forward, product = [], ktheory._Ctx.strip_product
        monkeypatch.setattr(ktheory._Ctx, "table", property(refuse))
        monkeypatch.setattr(
            ktheory._Ctx, "transposed", lambda self, cs: passes.append(len(cs)) or transposed(self, cs)
        )
        monkeypatch.setattr(
            ktheory._Ctx, "strip_product", lambda self, x: forward.append(1) or product(self, x)
        )
        ktheory._ctx.cache_clear()  # no table built before the patch
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert passes == [1] and forward == []

    @pytest.mark.parametrize("case", ["report_g411", "report_g59", "report_g710"])
    def test_coprime_report_builds_no_table(self, capsys, monkeypatch, case):
        # gcd(k, n) = 1: no theta staircase, no residual stage, and the twist
        # columns are checked by one transposed pass, so a report that could
        # not build the table still prints its digest
        from grex import ktheory

        def refuse(self):
            raise AssertionError(f"pairing table built on {self.box}")

        monkeypatch.setattr(ktheory._Ctx, "table", property(refuse))
        ktheory._ctx.cache_clear()  # no table built before the patch
        argv, digest = self.DIGESTS[case]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestFreshInterpreter:
    def test_library_has_no_assert_statements(self):
        # python -O strips assert statements, so checks in grex are raises
        import ast
        import pathlib

        files = sorted(pathlib.Path(grex.__file__).parent.glob("*.py"))
        assert files
        found = [
            f"{path.name}:{node.lineno}"
            for path in files
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Assert)
        ]
        assert found == []

    def test_library_imports_are_module_level_and_acyclic(self):
        # an import inside a function body hides a cycle between modules: no
        # function imports, and the relative imports between grex modules
        # form a DAG
        import ast
        import graphlib
        import pathlib

        files = sorted(pathlib.Path(grex.__file__).parent.glob("*.py"))
        assert files
        nested, edges = set(), {}
        for path in files:
            tree = ast.parse(path.read_text(), str(path))
            for fn in ast.walk(tree):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    nested.update(
                        f"{path.name}:{node.lineno}"
                        for node in ast.walk(fn)
                        if isinstance(node, (ast.Import, ast.ImportFrom))
                    )
            edges[path.stem] = {
                name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level
                for name in ([node.module] if node.module else [a.name for a in node.names])
            }
        assert sorted(nested) == []
        try:
            tuple(graphlib.TopologicalSorter(edges).static_order())
        except graphlib.CycleError as exc:
            pytest.fail(f"relative imports form a cycle: {exc.args[1]}")

    def test_library_has_no_unused_imports(self):
        # a name imported into a module must be read there or exported by __all__
        import ast
        import pathlib

        files = sorted(pathlib.Path(grex.__file__).parent.glob("*.py"))
        files = [path for path in files if path.name != "__init__.py"]
        assert files
        unused = []
        for path in files:
            tree = ast.parse(path.read_text(), str(path))
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        imported[name] = node.lineno
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in tree.body:
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
                ):
                    used |= set(ast.literal_eval(node.value))
            unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
        assert unused == []

    def test_library_has_no_unreferenced_private_names(self):
        # a module-level _name defined in grex must be read somewhere in grex
        import ast
        import pathlib

        files = sorted(pathlib.Path(grex.__file__).parent.glob("*.py"))
        assert files
        defined, read = {}, set()
        for path in files:
            tree = ast.parse(path.read_text(), str(path))
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                for name in names:
                    if name.startswith("_") and not name.startswith("__"):
                        defined[name] = f"{path.name}:{node.lineno}"
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
        unread = [f"{where} {name}" for name, where in defined.items() if name not in read]
        assert unread == []

    def test_context_methods_never_look_the_context_up(self):
        # a method of the per-box context reads itself: it names neither
        # `_ctx` nor a module function of ktheory that calls `_ctx`, which
        # would find or build a context of its own for the box
        import ast
        import pathlib

        path = pathlib.Path(grex.__file__).parent / "ktheory.py"
        tree = ast.parse(path.read_text(), str(path))

        def names(node):
            return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

        functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        lookups = {f.name for f in functions if "_ctx" in names(f)} | {"_ctx"}
        (context,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Ctx"]
        reached = [
            f"{method.name} -> {name}"
            for method in context.body
            if isinstance(method, ast.FunctionDef)
            for name in sorted(names(method) & lookups)
        ]
        assert reached == []
        assert sorted(n for n in lookups if n.startswith("_")) == ["_ctx", "_fullness_sign"]

    def test_one_owner_of_the_packed_layout(self):
        # a read is sized and split where it is made: only `_Ctx.transposed`,
        # `_Ctx.check_chain` and `_pairer` call `_width` or `_codec`, every
        # other reader takes its split from the pass, and the cli asks for
        # pairings, not for a batch of verdicts
        import ast
        import pathlib

        here = pathlib.Path(grex.__file__).parent
        tree = ast.parse((here / "ktheory.py").read_text())
        callers = set()
        for node in tree.body:
            methods = node.body if isinstance(node, ast.ClassDef) else [node]
            for f in methods:
                if isinstance(f, ast.FunctionDef):
                    for call in ast.walk(f):
                        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
                            if call.func.id in ("_width", "_codec"):
                                callers.add(f.name)
        assert callers == {"transposed", "check_chain", "_pairer"}
        cli = ast.parse((here / "cli.py").read_text())
        names = {n.attr for n in ast.walk(cli) if isinstance(n, ast.Attribute)}
        names |= {n.id for n in ast.walk(cli) if isinstance(n, ast.Name)}
        assert "vanish_batch" not in names and "pairings" in names

    def test_staircase_builds_no_diagram(self):
        # staircase.py reads every box diagram from the K_0 context of its
        # box, so it never calls BoxedDiagram itself
        import ast
        import pathlib

        path = pathlib.Path(grex.__file__).parent / "staircase.py"
        calls = [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call)
            and "BoxedDiagram" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
        assert calls == []

    def test_optimized_mode_keeps_checks_and_output(self):
        # python -O strips assert statements; the report must not depend on them
        argv = ["-m", "grex.cli", "report", "--k", "3", "--n", "6", "--format", "json"]
        plain = run_python(*argv)
        optimized = run_python("-O", *argv)
        assert plain.returncode == 0, plain.stderr
        assert optimized.returncode == 0, optimized.stderr
        assert optimized.stdout == plain.stdout

    def test_cli_import_loads_only_the_standard_library(self):
        probe = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import grex.cli\n"
            "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print(sorted(new - set(sys.stdlib_module_names)))\n"
        )
        out = run_python("-c", probe)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "['grex']"


class TestOutputModes:
    def test_pretty_smoke(self, capsys):
        code, out, _ = run(capsys, "fullness", "--k", "2", "--n", "4")
        assert code == 0 and "det" in out

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "diagrams", "--k", "2", "--n", "4",
                           "--format", "json", "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["count"] == 6

    def test_unwritable_output_file(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.json"
        code, out, err = run(capsys, "diagrams", "--k", "2", "--n", "4",
                             "--output", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write")
        assert not target.exists()
