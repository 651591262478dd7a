"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Everything asserted here is exact; no tolerances.
"""

import json
import random
import time
from contextlib import contextmanager
from math import comb, gcd

from grex.bott import TwistedSchur, bott, ext_table
from grex.cli import main as cli_main
from grex.diagrams import (
    Box,
    BoxedDiagram,
    enumerate_diagrams,
    orbit_length,
    orbit_of,
    orbits,
    residual_rank,
)
from grex.ktheory import fullness_determinant, residual_report
from grex.lefschetz import fonarev, gram
from grex.staircase import build_staircase, build_theta_staircase, g48_sequence_check, is_k_exact


@contextmanager
def criterion(num, name):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:2d} {name}: FAIL ({time.time() - t0:.2f}s)", flush=True)
        raise
    print(f"[acceptance] criterion {num:2d} {name}: PASS ({time.time() - t0:.2f}s)", flush=True)


def test_01_combinatorics_y36():
    with criterion(1, "Y(3,6) orbits and triangular sets"):
        box = Box(3, 6)
        upper = [d.parts for d in enumerate_diagrams(box, "upper")]
        assert upper == [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0)]
        minimal = [d.parts for d in enumerate_diagrams(box, "minimal_upper")]
        assert minimal == [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)]
        lengths = sorted((orbit_of(d).length for d in enumerate_diagrams(box, "minimal_upper")), reverse=True)
        assert lengths == [6, 6, 6, 2]


def test_02_rank_formula_all_boxes():
    with criterion(2, "rank formula against short orbit lengths, 78 boxes"):
        for n in range(2, 14):
            for k in range(1, n):
                box = Box(k, n)
                m = residual_rank(box)
                assert m == sum(o.length for o in orbits(box) if o.length < n), (k, n)
                if gcd(k, n) == 1:
                    assert m == 0
        assert residual_rank(Box(3, 6)) == 2
        assert residual_rank(Box(4, 8)) == 6
        assert residual_rank(Box(6, 12)) == 24


def test_03_support_partitions():
    with criterion(3, "Fonarev support partitions"):
        for m in (2, 3, 4):
            assert fonarev(Box(2, 2 * m + 1)).support_partition == (m,) * (2 * m + 1)
            assert fonarev(Box(2, 2 * m)).support_partition == (m,) * m + (m - 1,) * m
        assert fonarev(Box(3, 6)).support_partition == (4, 4, 3, 3, 3, 3)


def test_04_bwb_anchors():
    with criterion(4, "dot-action convention anchors"):
        assert bott(Box(1, 2), (-1,)).acyclic
        out = bott(Box(1, 2), (-2,))
        assert (out.degree, out.dim) == (1, 1)
        for k, n in ((2, 4), (3, 6)):
            sections = bott(Box(k, n), (1,) + (0,) * (k - 1))
            assert (sections.degree, sections.dim) == (0, n)
        table = ext_table(
            TwistedSchur((1, 0), 0, Box(2, 4)), TwistedSchur((1, 0), -2, Box(2, 4))
        )
        assert table.dims == {2: 1}


def test_05_serre_duality_200_pairs():
    with criterion(5, "Serre duality, 200 random pairs"):
        boxes = [Box(2, 5), Box(3, 6), Box(2, 7)]
        rng = random.Random(20260809)
        for trial in range(200):
            box = boxes[trial % 3]
            k, n = box.k, box.n
            dim = box.dimension

            def rand_bundle():
                w = tuple(sorted((rng.randint(0, box.width) for _ in range(k)), reverse=True))
                return TwistedSchur(w, rng.randint(-n, n), box)

            e, f = rand_bundle(), rand_bundle()
            lhs = ext_table(e, f)
            rhs = ext_table(f, TwistedSchur(e.weight, e.twist - n, box))
            for i in range(dim + 1):
                assert lhs[i] == rhs[dim - i], (e, f, i)


def test_06_semiorthogonality():
    with criterion(6, "Fonarev semiorthogonality up to G(4,8)"):
        for k, n in ((2, 4), (2, 5), (2, 6), (3, 6), (3, 7), (3, 8), (4, 8)):
            result = gram(fonarev(Box(k, n)).objects, mode="full_ext")
            assert result.violations == (), (k, n)


def test_07_staircases():
    with criterion(7, "staircase fixture and K-exactness sweep"):
        box = Box(4, 13)
        sc = build_staircase(box, BoxedDiagram((9, 8, 5, 2), box))
        assert sc.terms[4].mu.parts == (7, 4, 4, 2) and sc.terms[4].c == 7
        assert sc.tail.weight == (8, 5, 2, 0) and sc.tail.twist == -1
        for k in range(1, 5):
            for n in range(k + 1, 14):
                bx = Box(k, n)
                for lam in enumerate_diagrams(bx, "all"):
                    if lam.parts[0] != bx.width:
                        continue
                    assert is_k_exact(build_staircase(bx, lam)), (k, n, lam)


def test_08_theta_staircases():
    with criterion(8, "theta staircases and ledgers"):
        for k, m in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
            sc, ledger = build_theta_staircase(k, m)  # raises on a non-minimal term
            assert ledger.complete, (k, m)
            assert is_k_exact(sc), (k, m)


def test_09_residual_structure():
    with criterion(9, "residual Gram and twisted-mutation orbits"):
        for k, n in ((2, 4), (2, 6), (2, 8), (3, 6), (3, 9), (4, 8)):
            box = Box(k, n)
            report = residual_report(box)
            assert report.gram_is_identity, (k, n)
            assert report.tau_all_ok, (k, n)
            assert len(report.residual_classes) == residual_rank(box), (k, n)
            for (mu, o), exp in zip(report.short_diagrams, report.sign_exponents):
                assert exp == k * (n - k) // (n // o)


def test_10_fullness_determinants():
    with criterion(10, "fullness determinants"):
        for k, n in ((2, 4), (2, 6), (3, 6), (3, 9), (4, 8)):
            assert abs(fullness_determinant(Box(k, n))) == 1, (k, n)


def test_11_g48_fixture():
    with criterion(11, "G(4,8) sequence fixture"):
        report = g48_sequence_check()
        assert report.k_exact
        assert report.adjacency_ok
        assert report.ledger.complete


def test_12_determinism(capsys):
    with criterion(12, "report determinism across --jobs"):
        outputs = []
        for jobs in ("1", "2"):
            code = cli_main(["report", "--k", "2", "--n", "4", "--format", "json", "--jobs", jobs])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert payload["pass"] is True
        box = Box(3, 6)
        first = [d.parts for d in enumerate_diagrams(box, "all")]
        second = [d.parts for d in enumerate_diagrams(box, "all")]
        assert first == second == sorted(first)
        assert len(first) == comb(6, 3)
