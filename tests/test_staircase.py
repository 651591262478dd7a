"""Staircase resolutions: the worked example, K-exactness, theta variants,
appendix tables, and the G(4,8) fixture."""

import dataclasses

import pytest

import grex.ktheory as ktheory
import grex.staircase as staircase
from grex.bott import TwistedSchur, ext_table
from grex.diagrams import (
    Box,
    BoxedDiagram,
    _jumps,
    enumerate_diagrams,
    is_minimal_upper_triangular,
    orbit_length,
)
from grex.ktheory import _ctx, _Ctx
from grex.schur import dimension, dualize, twist
from grex.staircase import (
    G48_SEQUENCE,
    StaircaseComplex,
    StaircaseTerm,
    appendix_table_check,
    build_staircase,
    build_theta_staircase,
    g48_sequence_check,
    is_k_exact,
    membership_ledger,
)


def staircases_of(box):
    return [d for d in enumerate_diagrams(box, "all") if d.parts[0] == box.width]


class TestWorkedExample:
    def test_g413(self):
        box = Box(4, 13)
        sc = build_staircase(box, BoxedDiagram((9, 8, 5, 2), box))
        assert len(sc.terms) == 9
        assert sc.terms[4].mu.parts == (7, 4, 4, 2)
        assert sc.terms[4].c == 7
        # tail weight lambda'(-1) = (7,4,1,-1), stored as (8,5,2,0) twisted by -1
        assert sc.tail.weight == (8, 5, 2, 0) and sc.tail.twist == -1
        assert is_k_exact(sc)

    def test_p1_euler_sequence(self):
        box = Box(1, 2)
        sc = build_staircase(box, BoxedDiagram((1,), box))
        assert len(sc.terms) == 1
        assert sc.terms[0].mu.parts == (0,) and sc.terms[0].c == 1
        assert sc.tail.weight == (0,) and sc.tail.twist == -1
        assert is_k_exact(sc)

    def test_rejects_short_first_row(self):
        box = Box(3, 6)
        with pytest.raises(ValueError):
            build_staircase(box, BoxedDiagram((2, 1, 0), box))

    def test_rejects_diagram_of_another_box(self):
        # (2,0) has a full first row in the 2x2 box of G(2,4), but not in the
        # 2x3 box it was made on, whose step rule gave the tail S(3,1)U*(-1)
        # and a false verdict
        with pytest.raises(ValueError, match=r"^\(2,0\) lives on a different box$"):
            build_staircase(Box(2, 4), BoxedDiagram((2, 0), Box(2, 5)))
        sc = build_staircase(Box(2, 4), BoxedDiagram((2, 0), Box(2, 4)))
        assert sc.tail.weight == (0, 0) and sc.tail.twist == -1
        assert is_k_exact(sc)


class TestKExactness:
    @pytest.mark.parametrize("k,n", [(2, 4), (2, 6), (3, 6), (3, 7), (4, 8)])
    def test_small_boxes(self, k, n):
        box = Box(k, n)
        for lam in staircases_of(box):
            sc = build_staircase(box, lam)
            assert is_k_exact(sc), lam
            for t in sc.terms:
                assert 0 < t.c < n

    def test_rejects_terms_off_the_pairing_rows(self):
        # the check reads each term's row by its source, with no bundle built
        # per term, and still validates every term like is_zero_combination
        box = Box(3, 6)
        sc = build_staircase(box, BoxedDiagram((3, 1, 0), box))
        other = Box(3, 7)
        moved = StaircaseTerm(sc.terms[0].c, BoxedDiagram(sc.terms[0].mu.parts, other), 0)
        bad = [
            (dataclasses.replace(sc, terms=(moved, *sc.terms[1:])), "lives on a different box"),
            (dataclasses.replace(sc, tail=TwistedSchur((1, 0, 0), -1, other)), "different box"),
            (dataclasses.replace(sc, head=TwistedSchur((3, 1, 0), 1, box)), "does not fit"),
            (dataclasses.replace(sc, tail=TwistedSchur((4, 0, 0), -1, box)), "does not fit"),
        ]
        for wrong, message in bad:
            with pytest.raises(ValueError, match=message):
                is_k_exact(wrong)
        # a term that does not fit is rejected whatever its coefficient:
        # C(6, 7) = 0
        zero = StaircaseTerm(7, BoxedDiagram((3, 0, 0), box), 1)
        with pytest.raises(ValueError, match="does not fit"):
            is_k_exact(dataclasses.replace(sc, terms=(*sc.terms, zero)))

    @pytest.mark.parametrize("k,n", [(4, 8), (7, 10), (6, 12)])
    def test_one_coefficient_moved_is_not_k_exact(self, monkeypatch, k, n):
        # the boxes whose field width the exact bound shrinks most: moving any
        # one coefficient of any staircase by 1 leaves that term's nonzero row
        box = Box(k, n)
        terms = StaircaseComplex.k_class_terms
        for lam in staircases_of(box):
            sc = build_staircase(box, lam)
            for i in range(len(sc.terms) + 2):
                for step in (1, -1):

                    def moved(self, i=i, step=step):
                        out = terms(self)
                        c, w, t = out[i]
                        out[i] = (c + step, w, t)
                        return out

                    monkeypatch.setattr(StaircaseComplex, "k_class_terms", moved)
                    assert not is_k_exact(sc), (lam, i, step)
            monkeypatch.setattr(StaircaseComplex, "k_class_terms", terms)
            assert is_k_exact(sc), lam

    def test_hom_between_consecutive_terms(self):
        # differentials can exist: degree-0 maps are available throughout
        box = Box(4, 13)
        sc = build_staircase(box, BoxedDiagram((9, 8, 5, 2), box))
        chain = [sc.tail] + [t.bundle() for t in reversed(sc.terms)] + [sc.head]
        for src, dst in zip(chain, chain[1:]):
            assert ext_table(src, dst)[0] > 0, (src, dst)


class TestTermTriples:
    """The twist T builds each full-first-row column from the jump rule, with
    no complex built; `build_staircase` runs the same jump rule.  So this is
    a consistency pin, not an oracle: the zero test keeps its Jacobi-Trudi
    oracle, the twist its LR + Bott route (`TestTwistClass`), and the
    appendix check its three-phase table."""

    def test_triples_are_the_complex_terms(self):
        # column lam of T is the complex's non-head terms, negated and
        # merged at the indices mu + t + 1, in the order of the terms
        for n in range(2, 13):
            for k in range(1, n):
                box = Box(k, n)
                ctx = _ctx(box)
                for lam in staircases_of(box):
                    col = {}
                    for c, mu, t in build_staircase(box, lam).k_class_terms()[1:]:
                        i = ctx.index[tuple(x + t + 1 for x in mu)]
                        col[i] = col.get(i, 0) - c
                    assert ctx.twist[ctx.index[lam.parts]] == tuple(col.items()), lam

    def test_middle_term_out_of_the_box(self, monkeypatch):
        # the twist tests each middle weight with the in-box test of
        # BoxedDiagram, with the same messages
        box = Box(4, 8)
        for bad in [(1, 2, 0, 0), (5, 1, 0, 0), (2, 1, 0, -1)]:

            def planted(*a, bad=bad):
                return [(3, bad), *_jumps(*a)[1:]]

            monkeypatch.setattr(ktheory, "_jumps", planted)
            monkeypatch.setattr(staircase, "_jumps", planted)
            with pytest.raises(ValueError) as twist_error:
                _Ctx(box).twist
            with pytest.raises(ValueError) as diagram_error:
                build_staircase(box, BoxedDiagram((4, 3, 1, 0), box))
            assert str(twist_error.value) == str(diagram_error.value)
            assert str(twist_error.value) == f"not a diagram in the 4x4 box: {bad}"
        monkeypatch.undo()
        # (1,0,1) is no diagram, though its one middle term (0,0,0) is: the
        # jump rule takes it, and it is stopped where it enters, by the
        # in-box test of BoxedDiagram
        assert _jumps(Box(3, 4), (1, 0, 1)) == [(2, (0, 0, 0))]
        with pytest.raises(ValueError, match=r"^not a diagram in the 3x1 box: \(1, 0, 1\)"):
            build_staircase(Box(3, 4), BoxedDiagram((1, 0, 1), Box(3, 4)))


class TestTwistColumns:
    """The report's staircase check: column lam of the twist T, untwisted,
    is a relation in K_0 exactly when lam's staircase is K-exact."""

    def test_twist_columns_agree_with_the_complexes(self):
        # against each staircase built as a complex, on every box with n <= 12
        for n in range(2, 13):
            for k in range(1, n):
                box = Box(k, n)
                lams = staircases_of(box)
                got = _ctx(box).twist_exact
                assert got == [(lam, is_k_exact(build_staircase(box, lam))) for lam in lams]
                assert all(exact for _, exact in got), box

    @pytest.mark.parametrize("k,n", [(4, 8), (7, 10)])
    def test_one_twist_entry_moved_fails_its_column(self, monkeypatch, k, n):
        # the boxes whose field width the exact bound shrinks most: moving any
        # one entry of any full-first-row column of T by 1 fails that column
        # alone, named from the packed fields of the one transposed pass,
        # with no table built
        def refuse(self):
            raise AssertionError(f"pairing table built on {self.box}")

        monkeypatch.setattr(_Ctx, "table", property(refuse))
        box = Box(k, n)
        _ctx.cache_clear()
        ctx = _ctx(box)
        honest = ctx.twist
        try:
            for lam in staircases_of(box):
                col = ctx.index[lam.parts]
                for entry, (row, v) in enumerate(honest[col]):
                    for step in (1, -1):
                        moved = list(honest[col])
                        moved[entry] = (row, v + step)
                        vars(ctx)["twist"] = (*honest[:col], tuple(moved), *honest[col + 1 :])
                        vars(ctx).pop("twist_exact", None)  # the verdicts on the honest T
                        got = ctx.twist_exact
                        assert [d for d, exact in got if not exact] == [lam], (lam, entry, step)
        finally:
            _ctx.cache_clear()


class TestThetaStaircase:
    def test_g36_shape(self):
        sc, ledger = build_theta_staircase(3, 2)
        assert sc.head.weight == (2, 1, 0) and sc.head.twist == 0
        assert sc.tail.weight == (2, 1, 0) and sc.tail.twist == -2
        assert [(t.c, t.mu.parts, t.extra_twist) for t in sc.terms] == [
            (1, (1, 1, 0), 0),
            (3, (0, 0, 0), 0),
            (5, (1, 0, 0), -1),
        ]
        assert ledger.complete
        assert is_k_exact(sc)

    def test_g24_case(self):
        sc, ledger = build_theta_staircase(2, 2)
        assert sc.head.weight == (1, 0)
        assert sc.tail.twist == -2
        assert ledger.complete
        assert is_k_exact(sc)

    @pytest.mark.parametrize("k,m", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_ledger_complete(self, k, m):
        sc, ledger = build_theta_staircase(k, m)
        assert ledger.complete
        assert is_k_exact(sc)

    @pytest.mark.parametrize("k,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_twist_pattern(self, k, m):
        # untwisted prefix of length (k-1)(m-1), then one term per twist
        # -1 .. 1-m on the boundary stretch of length m-1
        sc, _ = build_theta_staircase(k, m)
        twists = [t.extra_twist for t in sc.terms]
        assert twists[: (k - 1) * (m - 1)] == [0] * ((k - 1) * (m - 1))
        boundary = twists[(k - 1) * (m - 1) :]
        assert len(boundary) == m - 1
        assert sorted(set(boundary)) == list(range(1 - m, 0))

    @pytest.mark.parametrize("k,m", [(2, 3), (3, 3)])
    def test_hom_between_consecutive_terms(self, k, m):
        sc, _ = build_theta_staircase(k, m)
        chain = [sc.tail] + [t.bundle() for t in reversed(sc.terms)] + [sc.head]
        for src, dst in zip(chain, chain[1:]):
            assert ext_table(src, dst)[0] > 0, (src, dst)

    def test_rejects_trivial_parameters(self):
        with pytest.raises(ValueError):
            build_theta_staircase(1, 3)
        with pytest.raises(ValueError):
            build_theta_staircase(3, 1)


class TestMembershipLedger:
    @pytest.mark.parametrize("k,n", [(3, 6), (4, 8), (3, 9), (6, 12)])
    def test_eligible_means_minimal_with_full_orbit(self, k, n):
        # every diagram at twist -1: a term takes the slot a(-1) exactly when
        # its diagram is minimal upper triangular with an orbit of length n
        box = Box(k, n)
        mu = enumerate_diagrams(box, "short_minimal_upper")[0]
        diagrams = enumerate_diagrams(box, "all")
        ledger = membership_ledger(box, mu, [(x.parts, -1) for x in diagrams])
        expected = [
            i
            for i, x in enumerate(diagrams)
            if is_minimal_upper_triangular(x) and orbit_length(box, x.parts) == n
        ]
        assert ledger.assignments == tuple((i, "a(-1)") for i in expected)
        assert len(ledger.unassigned) == len(diagrams) - len(expected)

    def test_rejects_mu_of_another_box(self):
        # the period was read from mu's own box, not from the ledger's
        box = Box(3, 6)
        mu = BoxedDiagram((2, 1, 0), Box(3, 9))
        with pytest.raises(ValueError):
            membership_ledger(box, mu, [((0, 0, 0), -1)])


class TestAppendixTables:
    def test_base_case(self):
        assert appendix_table_check(Box(3, 6), 2, 2)

    def test_distinct_rows(self):
        assert appendix_table_check(Box(3, 9), 4, 3)

    def test_rejects_small_b(self):
        with pytest.raises(ValueError):
            appendix_table_check(Box(3, 6), 2, 1)

    def test_rejects_large_gap(self):
        with pytest.raises(ValueError):
            appendix_table_check(Box(3, 9), 6, 3)

    def test_rejects_wrong_box(self):
        with pytest.raises(ValueError):
            appendix_table_check(Box(3, 7), 3, 3)
        with pytest.raises(ValueError):
            appendix_table_check(Box(2, 6), 2, 2)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_all_valid_inputs(self, m):
        box = Box(3, 3 * m)
        for b in range(m, box.width + 1):
            for a in range(b, min(box.width, b + m - 1) + 1):
                assert appendix_table_check(box, a, b), (m, a, b)


class TestG48Fixture:
    def test_dual_identifications(self):
        # the rewriting the fixture relies on: S^w U = S^dual(w) U* and
        # twists moving between the two sides
        assert dualize((2, 2, 0, 0)) == twist((2, 2, 0, 0), -2)
        assert dualize((2, 1, 0, 0)) == twist((2, 2, 1, 0), -2)
        assert dualize((1, 1, 0, 0)) == twist((1, 1, 0, 0), -1)
        assert dualize((1, 0, 0, 0)) == twist((1, 1, 1, 0), -1)

    def test_factor_dimensions(self):
        assert dimension((2, 2), 8) == 336
        assert dimension((2, 1), 8) == 168
        assert dimension((1, 1, 1), 8) == 56

    def test_rank_alternating_sum_vanishes(self):
        total = 0
        for pos, summands in enumerate(G48_SEQUENCE):
            sign = -1 if pos % 2 else 1
            for factors, w, _ in summands:
                f = 1
                for fac in factors:
                    f *= dimension(fac, 8)
                total += sign * f * dimension(w, 4)
        assert total == 0

    def test_full_check(self):
        report = g48_sequence_check()
        assert report.k_exact
        assert report.adjacency_ok
        assert report.ledger.complete
        assert report.all_ok
        data = report.to_json()
        assert data["pass"] is True
        assert data["ledger"]["unassigned"] == []


class TestSerialization:
    def test_staircase_json(self):
        box = Box(2, 4)
        sc = build_staircase(box, BoxedDiagram((2, 1), box))
        data = sc.to_json()
        assert data["head"] == {"weight": [2, 1], "twist": 0}
        assert data["tail"] == {"weight": [1, 0], "twist": -1}
        assert data["k_exact"] is True
        assert all(set(t) == {"c", "mu", "extra_twist"} for t in data["terms"])
