"""CLI: commands, exit codes, output formats, determinism."""

import hashlib
import json
import os
import subprocess
import sys

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
        code, _, err = run(capsys, "staircase", "--k", "3", "--n", "6",
                           "--lambda", "2,1,0", "--format", "json")
        assert code == 2

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
        # every pairing row is read from the per-box table, so a builder that
        # raises fails both the staircase check and the residual chain check
        from grex import ktheory

        def corrupt(self):
            raise AssertionError(f"corrupt pairing table on {self.box}")

        monkeypatch.setattr(ktheory._Ctx, "build_table", corrupt)
        ktheory._ctx.cache_clear()  # no table built before the patch
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: corrupt pairing table")
        assert "Traceback" not in err

    def test_non_semiorthogonal_residual_chain(self, capsys, monkeypatch):
        # the primitive block reversed fails the semiorthogonality check: a
        # failed verdict (exit 1), as in `report`, not invalid input (exit 2)
        from grex import ktheory

        block = ktheory.primitive_block
        monkeypatch.setattr(ktheory, "primitive_block", lambda box: tuple(reversed(block(box))))
        code, out, err = run(capsys, "residual", "--k", "3", "--n", "6")
        assert code == 1
        assert out == ""
        assert err.startswith("error: projectors") and "not semiorthogonal" in err

    def test_theta_term_raises(self, capsys, monkeypatch):
        from grex import staircase

        monkeypatch.setattr(staircase, "is_minimal_upper_triangular", lambda d: False)
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

        checked = []
        check = cli.is_k_exact
        monkeypatch.setattr(cli, "is_k_exact", lambda sc: checked.append(sc) or check(sc))
        code, _, _ = run(capsys, "report", "--k", "2", "--n", "4", "--format", "json")
        assert code == 0
        # three full-first-row staircases and the theta staircase, once each
        assert len(checked) == 4
        assert len({id(sc) for sc in checked}) == 4

    def test_raising_residual_check_recorded(self, capsys, monkeypatch):
        # the primitive block reversed is not semiorthogonal, and the residual
        # check's ValueError once escaped as the invalid-input exit code 2
        from grex import ktheory

        block = ktheory.primitive_block
        monkeypatch.setattr(ktheory, "primitive_block", lambda box: tuple(reversed(block(box))))
        code, out, _ = run(capsys, "report", "--k", "3", "--n", "6", "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert data["pass"] is False
        residual = data["stages"]["residual"]
        assert residual["verdict"] == "fail"
        assert "not semiorthogonal" in residual["error"]
        assert data["stages"]["fullness"]["verdict"] == "pass"

    def test_raising_staircase_check_recorded(self, capsys, monkeypatch):
        # a theta staircase term that fails its check raised RuntimeError
        # out of the report
        from grex import staircase

        monkeypatch.setattr(staircase, "is_minimal_upper_triangular", lambda d: False)
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
    their bundle; they pin the walks of the one-row and the tallest box."""

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (("report", "--k", "3", "--n", "6"),
             "58d171023e6b37a676b5e9cb35d6ceb88dd26bfc5d0ff937282989c3ad9add5d"),
            (("report", "--k", "4", "--n", "8"),
             "77cd953f68b71cff21d98b5a1bbf252e1c882f24ec0b8ea1eaae0f5bf788ef1f"),
            (("gram", "--k", "4", "--n", "8", "--style", "fonarev", "--mode", "full_ext"),
             "63dc7429b106944dbf17d6dc412c5e4721f163a8dd91f348dcc9faeb54494ecb"),
            (("gram", "--k", "3", "--n", "6", "--style", "kapranov", "--mode", "full_ext"),
             "62728b5c3ce76f3f5c5768eee4423e9f15e6c894de6723f3f02d362d131ba36f"),
            (("orbits", "--k", "4", "--n", "8"),
             "904f96f61e55d56b33f321544b0cccb67ec45914d2cddc27b3fd35caa34fe2eb"),
            (("diagrams", "--k", "6", "--n", "12", "--selection", "short_minimal_upper"),
             "0eed2ce3f664f31d73a1df3eec49f39a8bb7b865435ffae7db9a440e857cb432"),
            (("residual", "--k", "4", "--n", "8"),
             "c68cd8c304841490caf779edc0366d441e24cd9e4e80d8ce8a1460450598a081"),
            (("collection", "--k", "6", "--n", "12"),
             "e9b52ee4d8bc71b9482bf7bcfb5fa0fa9b53b1f1072ad9026a9502c0ba75ce09"),
            (("diagrams", "--k", "6", "--n", "12", "--selection", "minimal_upper"),
             "8d24a494e9736e7039b323770c73d6dc40ac79005014a271d3fea3b62d6981f0"),
            (("orbits", "--k", "6", "--n", "12"),
             "d5b97740af8806747e984a8ea3affa8b2738407ec8d20056c530863b982ffc4f"),
            (("report", "--k", "4", "--n", "10"),
             "5d58fc9f459d2fa05a6255fad75a590c8a104625b49f7908abc3be9d7086c506"),
            (("report", "--k", "5", "--n", "9"),
             "4d95497d97d2d6a31f879ca532533e06923bb1cc6a5cc7d078492c9f5b1ea570"),
            (("ext", "--k", "2", "--n", "4", "--lambda", "1,0", "--mu", "1,0", "--twist", "-2"),
             "21fd589ab04d8986f16ecdac4d0ad8e32109203a9d376e32c80466b37e50861d"),
            (("ext", "--k", "3", "--n", "6", "--lambda", "3,3,1", "--mu", "2,0,0", "--twist", "-8"),
             "8824e1b7be67d93d4e51b6d78edac251f9cfc54d4fc4b757c5f014bb94aec247"),
            (("gram", "--k", "5", "--n", "9", "--style", "fonarev", "--mode", "euler"),
             "a1483decde60287333d04d7027c085b218709febcfb4e2a8b0a82a6d738ba00c"),
            (("gram", "--k", "4", "--n", "9", "--style", "kapranov", "--mode", "full_ext"),
             "a5b04f68d02ce092eebc47541d62c58d5b0edc6005ed708f81b5f6f97f8d001a"),
            (("report", "--k", "4", "--n", "11"),
             "fb57ccfd423448f35e339913aa283bf4757ffe3bd88da2e00344c14f5a43ae53"),
            (("report", "--k", "7", "--n", "10"),
             "8469f9d367dd720983fb5aaf52b9de511ef98cd7b7f8b91552a18572ea27ad2a"),
            (("report", "--k", "1", "--n", "5"),
             "eef8e1501c1cf69362658a526ec421eb4afcd6aaaa80703e77d5fdff955b4ddf"),
            (("staircase", "--k", "3", "--n", "9", "--theta"),
             "15764de23f3cc7a5af48d636e474aa0561a09b021d65b4fcf0009e9434b0f96e"),
        ],
        ids=["report_g36", "report_g48", "gram_fonarev_g48", "gram_kapranov_g36",
             "orbits_g48", "diagrams_short_g612", "residual_g48", "collection_g612",
             "diagrams_minimal_g612", "orbits_g612", "report_g410", "report_g59",
             "ext_two_anchor_g24", "ext_three_terms_g36", "gram_fonarev_euler_g59",
             "gram_kapranov_g49", "report_g411", "report_g710", "report_g15",
             "staircase_theta_g39"],
    )
    def test_stdout_digest(self, capsys, argv, digest):
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
