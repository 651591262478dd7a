"""K-theory: Gram matrices, classes, mutations, residual reports."""

import gc
import os
import random
import re
import subprocess
import sys
from functools import cached_property
from math import comb

import pytest

from grex.bott import TwistedSchur, euler_char
from grex.diagrams import Box, BoxedDiagram, enumerate_diagrams, orbit_length, residual_rank, theta
from grex import ktheory
from grex.ktheory import (
    _bareiss_det,
    _ctx,
    _Ctx,
    _fullness_sign,
    _sparse_det,
    basis,
    class_of,
    euler_pairing,
    fullness_determinant,
    is_zero_combination,
    kapranov_gram,
    mutate_left,
    residual_report,
    twist_class,
)
from grex.lefschetz import fenced_block, fonarev, gram, primitive_block
from grex.staircase import build_staircase, build_theta_staircase, is_k_exact
from oracles import (
    covector_oracle,
    dimension_oracle,
    ext_table_oracle,
    gram_oracle,
    jacobi_trudi_oracle,
    residual_oracle,
    signed_step,
    signed_step_det,
    whole_chain_oracle,
)


def ts(w, t, box):
    return TwistedSchur(tuple(w), t, box)


def patch_table(monkeypatch, wrap):
    """`_Ctx.table` as wrap(self, table) of the real table, still built at
    most once per context."""
    build = _Ctx.table.func
    table = cached_property(lambda self: wrap(self, build(self)))
    table.__set_name__(_Ctx, "table")
    monkeypatch.setattr(_Ctx, "table", table)


def vanish_batch(box, relations):
    """`_Ctx.vanish_batch` of relations of (coef, w, t) terms, each relation
    read as its one column by `_Ctx.levels`."""
    ctx = _ctx(box)
    return ctx.vanish_batch([ctx.levels(r, deep=False)[0][0] for r in relations])


def unit(box, index):
    n = len(basis(box))
    return tuple(1 if i == index else 0 for i in range(n))


@pytest.fixture
def builds(monkeypatch):
    """A fresh context whose table builds are counted, each by its width."""
    calls = []
    patch_table(monkeypatch, lambda self, table: calls.append(self.bits) or table)
    _ctx.cache_clear()
    yield calls
    _ctx.cache_clear()


class TestKapranovGram:
    @pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 6)])
    def test_matches_general_euler_path(self, k, n):
        box = Box(k, n)
        ws = [d.parts for d in basis(box)]
        g = kapranov_gram(box)
        for i, a in enumerate(ws):
            for j, b in enumerate(ws):
                assert g[i][j] == euler_char(ts(a, 0, box), ts(b, 0, box))

    @pytest.mark.parametrize("k,n", [(2, 4), (3, 6), (2, 7), (4, 8)])
    def test_upper_unitriangular(self, k, n):
        g = kapranov_gram(Box(k, n))
        for i in range(len(g)):
            assert g[i][i] == 1
            for j in range(i):
                assert g[i][j] == 0


def oracle_euler(box, a, t, kappa):
    table = ext_table_oracle(box, a, t, kappa, 0)
    return sum(v if d % 2 == 0 else -v for d, v in table.items())


def chi(ctx, a, t, kappa):
    """chi(Sigma^a U*(t), Sigma^kappa U*), read off the pairing row of (a, t)."""
    return ctx.row(a, t)[ctx.index[kappa]]


class TestChiPair:
    """Pairing-row entries against routes that share none of their code."""

    @pytest.mark.parametrize("k,n", [(2, 5), (3, 6), (3, 7)])
    def test_negative_twist_against_oracle_and_generic_route(self, k, n):
        box = Box(k, n)
        ctx = _ctx(box)
        ws = ctx.weights
        rng = random.Random(100 * k + n)
        for _ in range(25):
            a, kappa = rng.choice(ws), rng.choice(ws)
            t = rng.randint(-2, -1)
            got = chi(ctx, a, t, kappa)
            assert got == oracle_euler(box, a, t, kappa), (a, t, kappa)
            assert got == euler_char(ts(a, t, box), ts(kappa, 0, box)), (a, t, kappa)

    def test_deep_twist(self):
        # a normal form with t <= -2 is row (a, -1) times T^s, s = -1 - t
        box = Box(2, 5)
        ctx = _ctx(box)
        for a, kappa in [((3, 1), (0, 0)), ((0, 0), (3, 3)), ((2, 2), (1, 0))]:
            got = chi(ctx, a, -20, kappa)
            assert got == euler_char(ts(a, -20, box), ts(kappa, 0, box))
            assert got > 0

    def test_twist_deeper_than_the_recursion_limit(self):
        # a deep twist is one pass and a loop of s sparse products by T, not
        # a chain of rows: the store holds the one row of (1, 0), and no
        # table is built for it
        ctx = _Ctx(Box(2, 4))
        t = -sys.getrecursionlimit()
        for kappa, got in zip(ctx.weights, ctx.row((1, 0), t), strict=True):
            assert got == jacobi_trudi_oracle(4, (1, 0), tuple(x - t for x in kappa)), kappa
        assert list(ctx.chis) == [((1, 0), t)]
        assert "table" not in ctx.__dict__

    def test_empty_skew_shape(self):
        assert chi(_ctx(Box(2, 5)), (2, 1), 0, (2, 1)) == 1
        assert chi(_ctx(Box(3, 7)), (3, 3, 2), -1, (2, 2, 1)) == 1

    def test_not_contained_is_zero(self):
        box = Box(2, 5)
        assert chi(_ctx(box), (3, 0), 0, (2, 1)) == 0
        assert euler_char(ts((3, 0), 0, box), ts((2, 1), 0, box)) == 0

    def test_straight_shape_is_a_dimension(self):
        ctx = _ctx(Box(3, 7))
        assert chi(ctx, (0, 0, 0), 0, (3, 2, 1)) == dimension_oracle((3, 2, 1), 7)
        assert chi(ctx, (0, 0, 0), -1, (2, 1, 0)) == dimension_oracle((3, 2, 1), 7)

    def test_large_rank_against_generic_route(self):
        box = Box(12, 14)
        a = (1,) + (0,) * 11
        kappa = (1,) * 6 + (0,) * 6
        got = chi(_ctx(box), a, -1, kappa)
        assert got > 0
        assert got == euler_char(ts(a, -1, box), ts(kappa, 0, box))

    @pytest.fixture
    def plant(self, monkeypatch):
        """plant(a, t) adds 1 to the entry (sigma, kappa) of G, sigma = a + t + 1
        and kappa = a + t, that is, to chi(Sigma^a U*(t), Sigma^(a+t) U*), in
        every transposed pass from then on; plant(a, t, kappa) adds it at
        field kappa instead.  With table=True it goes into every table built
        from then on instead, and with forward=True into every forward pass
        (`strip_product`), whose context must be built first.  No context
        built with it outlives the test."""
        _ctx.cache_clear()
        yield lambda a, t, kappa=None, table=False, forward=False: (
            self.corrupt_products
            if forward
            else self.corrupt_tables if table else self.corrupt_passes
        )(monkeypatch, tuple(v + t + 1 for v in a), kappa)
        _ctx.cache_clear()

    @staticmethod
    def corrupt_passes(monkeypatch, sigma, kappa=None):
        # the pass maps the packed columns c to their reads c^T G at every
        # kappa + 1, so adding the input at sigma to the output at kappa + 1
        # adds c_q[sigma] to field q there, whatever the layout: G[sigma,
        # kappa] read one too high by every column of every batch
        transpose = _Ctx.strip_transpose
        read = sigma if kappa is None else tuple(v + 1 for v in kappa)

        def corrupt(self, v):
            planted = v[self.sources[sigma]]
            v = transpose(self, v)
            v[self.sources[read]] += planted
            return v

        monkeypatch.setattr(_Ctx, "strip_transpose", corrupt)

    @staticmethod
    def corrupt_products(monkeypatch, sigma, kappa):
        # the forward pass maps x to P x, and G[sigma, kappa] is
        # P[sigma, kappa + 1]: adding the input at kappa + 1 to the output at
        # sigma reads that entry one too high for every packed column
        product = _Ctx.strip_product
        source = tuple(v + 1 for v in kappa)

        def corrupt(self, x):
            planted = x[self.sources[source]]
            x = product(self, x)
            x[self.sources[sigma]] += planted
            return x

        monkeypatch.setattr(_Ctx, "strip_product", corrupt)

    @staticmethod
    def corrupt_tables(monkeypatch, sigma, kappa=None):
        if kappa is None:
            kappa = tuple(v - 1 for v in sigma)

        def corrupt(self, x):
            field = len(self.weights) - 1 - self.index[kappa]  # high field first
            x[self.sources[sigma]] += 1 << self.bits * field
            return x

        patch_table(monkeypatch, corrupt)

    def test_corrupt_field_fails_the_gram_check(self, plant):
        # the Gram rows are the reads of the unit classes, each guarded at
        # its least index; a planted 2 on the diagonal is a verdict of the
        # check, not a wrong Gram matrix, while the unguarded row read shows it
        plant((1, 1), 0)
        ctx = _ctx(Box(2, 4))
        assert ctx.row((1, 1), 0)[ctx.index[1, 1]] == 2
        with pytest.raises(AssertionError, match="Gram diagonal is not 1 at \\(1, 1\\)"):
            kapranov_gram(ctx.box)

    def test_corrupt_field_before_the_diagonal_fails_the_gram_check(self, plant):
        # a 1 planted at (1,0) of Gram row (1,1), before its diagonal, where
        # the true entry is 0: the guard on the fields before the least index
        # of e_(1,1) names it, alone in a batch or among the unit classes
        plant((1, 1), 0, (1, 0))
        ctx = _ctx(Box(2, 4))
        i = ctx.index[1, 1]
        assert ctx.row((1, 1), 0)[ctx.index[1, 0]] == 1
        honest = [{0: 1}, {len(ctx.weights) - 1: 1}]  # no nonzero at (1,1)
        assert ctx.covector(honest) == [covector_oracle(ctx.box, x) for x in honest]
        for batch in ([{i: 3}], [{0: 1}, {i: 1}, {i + 1: 2}]):
            with pytest.raises(AssertionError, match="Gram diagonal is not 1 at \\(1, 1\\)"):
                ctx.covector(batch)
        with pytest.raises(AssertionError, match="Gram diagonal is not 1 at \\(1, 1\\)"):
            kapranov_gram(ctx.box)

    def test_corrupt_diagonal_fails_class_of(self, plant):
        # class_of reads the Gram rows as the guarded covectors of the unit
        # classes: a 2 planted on a diagonal stops the solve
        plant((1, 1), 0)
        box = Box(2, 4)
        with pytest.raises(AssertionError, match="Gram diagonal is not 1 at \\(1, 1\\)"):
            class_of(ts((0, 0), 0, box))

    def test_corrupt_field_fails_a_pairing(self, plant):
        # a pairing reads the covector of its first class, guarded at its
        # least index, with the message of the full Gram check; a class with
        # nothing at the planted source does not see the planted 2
        plant((1, 1), 0)
        box = Box(2, 4)
        i = _ctx(box).index[1, 1]
        assert euler_pairing(box, unit(box, 0), unit(box, i)) == 6  # dim Lambda^2 C^4
        with pytest.raises(AssertionError, match="Gram diagonal is not 1 at \\(1, 1\\)"):
            euler_pairing(box, unit(box, i), unit(box, 0))

    def test_corrupt_diagonal_fails_the_residual_stage(self, plant):
        # the block's covectors, the level 0 of the chain, are one guarded
        # read: a 2 planted on the diagonal at (1,1,0), the least index of
        # the block member e_(1,1,0) of G(3,6), stops the residual stage once
        # T is checked, and a pairing sees it only when its first class has a
        # nonzero there
        box = Box(3, 6)
        _ctx(box).twist_exact  # T checked before the plant
        plant((1, 1, 0), 0)
        with pytest.raises(AssertionError, match="Gram diagonal is not 1 at \\(1, 1, 0\\)"):
            residual_report(box)
        i = _ctx(box).index[1, 1, 0]
        assert euler_pairing(box, unit(box, 0), unit(box, i)) == 15  # dim Lambda^2 C^6
        with pytest.raises(AssertionError, match="Gram diagonal is not 1 at \\(1, 1, 0\\)"):
            euler_pairing(box, unit(box, i), unit(box, 0))

    def test_corrupt_off_diagonal_field_fails_the_chain_check(self, plant):
        # on G(3,9) chain member 9, T e_(0,0,0) = e_(1,1,1), has a nonzero at
        # (1,1,1) and member 3 is e_(2,0,0): a 1 planted in field (2,0,0) of
        # Gram row (1,1,1) of the forward pass, where the true entry is 0,
        # breaks chi(member 9, member 3) = 0; the guarded read of the block
        # does not see it
        box = Box(3, 9)
        assert residual_report(box).gram_is_identity
        ctx = _ctx(box)
        plant((1, 1, 1), 0, (2, 0, 0), forward=True)
        x = [0] * len(ctx.sources)
        x[ctx.sources[3, 1, 1]] = 1
        assert ctx.strip_product(x)[ctx.sources[2, 2, 2]] == 1
        with pytest.raises(ValueError, match="^projectors 9 > 3 are not semiorthogonal"):
            residual_report(box)

    @pytest.mark.parametrize("k,n,lam", [(2, 4, (2, 1)), (3, 7, (4, 2, 1)), (1, 3, (2,))])
    def test_corrupt_field_fails_a_staircase(self, plant, k, n, lam):
        # the head Sigma^lam U* of the staircase reads field lam of entry
        # lam + 1, which no other term reads: the planted 1 is left over
        box = Box(k, n)
        sc = build_staircase(box, BoxedDiagram(lam, box))
        assert is_k_exact(sc)
        plant(lam, 0, table=True)
        _ctx.cache_clear()
        assert not is_k_exact(sc)

    @pytest.mark.parametrize("k,n,lam", [(2, 4, (2, 1)), (3, 7, (4, 2, 1)), (1, 3, (2,))])
    def test_corrupt_lowest_order_field_fails_a_staircase(self, plant, k, n, lam):
        # field kappa = the full box is the lowest-order one, bits 0..B-1 of
        # every entry: the zero test's proof starts from it
        box = Box(k, n)
        sc = build_staircase(box, BoxedDiagram(lam, box))
        plant(lam, 0, (box.width,) * k, table=True)
        assert not is_k_exact(sc)

    @pytest.mark.parametrize("k,n", [(2, 4), (4, 8), (5, 9)])
    def test_rows_stop_at_their_support(self, k, n):
        # row sigma is zero before the basis index lo of sigma - 1, and the
        # high-field-first layout keeps those zero fields out of its int
        ctx = _Ctx(Box(k, n))
        size = ctx.bits * len(ctx.weights)
        for s, i in ctx.sources.items():
            lo = ctx.index[tuple(max(v - 1, 0) for v in s)]
            x = ctx.table[i]
            assert x >= 0
            assert x.bit_length() <= size - ctx.bits * lo, s

    @staticmethod
    def check_row_against_oracles(ctx, a, t):
        box = ctx.box
        row = ctx.row(a, t)
        for kappa, got in zip(ctx.weights, row, strict=True):
            lam = tuple(x - t for x in kappa)
            assert got == jacobi_trudi_oracle(box.n, a, lam), (a, t, kappa)
            assert got == euler_char(ts(a, t, box), ts(kappa, 0, box)), (a, t, kappa)

    @pytest.mark.parametrize(
        "k,n,a,t,base",
        [
            # a_{k-1} = m > 0 and t + m > 0: the normal form (a - m, t + m)
            # is read from the table, and is not the t = 0 row of a - m
            (4, 8, (3, 2, 2, 1), 0, ((2, 1, 1, 0), 0)),
            (7, 10, (3, 3, 2, 2, 2, 2, 2), -1, ((1, 1, 0, 0, 0, 0, 0), 0)),
            (12, 14, (2, 2) + (1,) * 10, 0, ((1, 1) + (0,) * 10, 0)),
            # t + m < 0: the very row of the normal form (a - m, t + m), from
            # one pass at t + m = -1 and by the twist identity at t + m = -2
            (4, 8, (3, 2, 2, 1), -2, ((2, 1, 1, 0), -1)),
            (7, 10, (2, 2, 2, 1, 1, 1, 1), -3, ((1, 1, 1, 0, 0, 0, 0), -2)),
            (12, 14, (2,) * 9 + (1,) * 3, -2, ((1,) * 9 + (0,) * 3, -1)),
        ],
    )
    def test_gathered_row_against_oracles(self, builds, monkeypatch, k, n, a, t, base):
        passes = []
        transpose = _Ctx.strip_transpose
        monkeypatch.setattr(
            _Ctx, "strip_transpose", lambda self, v: passes.append(1) or transpose(self, v)
        )
        ctx = _Ctx(Box(k, n))
        verdicts = len(ctx.twist_exact)  # the gate's column pass, before the count
        passes.clear()
        self.check_row_against_oracles(ctx, a, t)
        # one transposed pass for any normal form, the row (a', -1) at level
        # s for a deeper one, and no table; a table row is read, not stored,
        # and a deeper one is stored once
        assert builds == []
        assert verdicts == comb(n - 1, k - 1)
        assert len(passes) == 1
        normal = (tuple(x - a[-1] for x in a), t + a[-1])
        assert list(ctx.chis) == ([normal] if t + a[-1] <= -2 else [])
        assert (ctx.row(a, t) == ctx.row(*base)) == (t + a[-1] <= 0)

    @pytest.mark.parametrize("n", [2, 5])
    def test_one_row_box_against_oracles(self, n):
        # k = 1: the table is one suffix sum per round, and an entry is h_m itself
        ctx = _Ctx(Box(1, n))
        for a in ctx.weights:
            for t in range(-3, 1):
                self.check_row_against_oracles(ctx, a, t)

    def test_g25_gram_values(self):
        g = kapranov_gram(Box(2, 5))
        assert g[0][1] == 5 and g[1][0] == 0
        assert all(g[i][i] == 1 for i in range(10))


class TestDeepRows:
    """A deep row, the normal form (a, t) with t <= -2, is row (a, -1) times
    T^s, s = -1 - t, by the twist identity chi(E(t), F) = chi(E(-1), F(s)),
    read once T's full-first-row columns are K-exact."""

    @pytest.mark.parametrize("k,n", [(k, n) for n in range(2, 10) for k in range(1, n)])
    def test_against_oracles(self, k, n):
        # every twist -2 .. -(n+1), so T is applied 1 .. n times, for the
        # empty diagram, the full box and two drawn diagrams; every entry
        # against one Jacobi-Trudi determinant, a few against LR + Bott
        box = Box(k, n)
        ctx = _Ctx(box)
        ws = ctx.weights
        rng = random.Random(1000 * k + n)
        for a in {ws[0], ws[-1], rng.choice(ws), rng.choice(ws)}:
            for t in range(-2, -n - 2, -1):
                row = ctx.row(a, t)
                for kappa, got in zip(ws, row, strict=True):
                    assert got == jacobi_trudi_oracle(n, a, tuple(x - t for x in kappa)), (a, t)
                for kappa in rng.sample(ws, min(3, len(ws))):
                    got = row[ctx.index[kappa]]
                    assert got == euler_char(ts(a, t, box), ts(kappa, 0, box)), (a, t, kappa)
        assert all(s <= -2 for _, s in ctx.chis)

    def test_one_transposed_pass_per_deep_zero_test(self, builds, monkeypatch):
        # the theta staircase of G(3,9) has terms at levels 0, 1 and 2
        # (t = -2 on (3,1,0), t = -3 on (4,2,0)): after the gate's column
        # pass, its zero test is one pass of three fields, and stores no row
        box = Box(3, 9)
        ctx = _ctx(box)
        ctx.twist_exact
        fields, transposed = [], _Ctx.transposed
        monkeypatch.setattr(
            _Ctx, "transposed", lambda self, cs: fields.append(len(cs)) or transposed(self, cs)
        )
        assert is_k_exact(build_theta_staircase(3, 3)[0])
        assert fields == [3]
        assert not ctx.chis and builds == []

    @pytest.mark.parametrize("entry", [0, -1])
    def test_gate_refuses_a_twist_that_fails_its_columns(self, entry):
        # +1 on one entry of a full-first-row column of T: every reader of a
        # deep row refuses T by the gate's message, and a combination of
        # table rows alone, which never reads T, is still tested
        box = Box(3, 6)
        lam = (3, 2, 0)
        _ctx.cache_clear()
        ctx = _ctx(box)
        cols = list(ctx.twist)
        col = list(cols[ctx.index[lam]])
        row, v = col[entry]
        col[entry] = (row, v + 1)
        cols[ctx.index[lam]] = tuple(col)
        vars(ctx)["twist"] = tuple(cols)
        message = "^" + re.escape(f"column {lam} of the twist T is not K-exact: T is not (x) O(1)") + "$"
        try:
            with pytest.raises(ValueError, match=message):
                ctx.row((1, 0, 0), -2)
            with pytest.raises(ValueError, match=message):
                is_zero_combination(box, [(1, ts((1, 0, 0), -2, box))])
            with pytest.raises(ValueError, match=message):
                is_k_exact(build_theta_staircase(3, 2)[0])
            assert not ctx.chis
            assert not is_zero_combination(box, [(1, ts((1, 0, 0), -1, box))])
        finally:
            _ctx.cache_clear()  # drop the planted twist


class TestFieldWidth:
    """The bound M, the largest row sum of the table, against routes that
    share none of its code, and the width it gives."""

    @pytest.mark.parametrize("k,n", [(k, n) for n in range(2, 8) for k in range(1, n)])
    def test_bound_is_the_largest_row_sum(self, k, n):
        # row sigma of the table holds s_{(kappa+1)/sigma}(1^n) for every
        # basis kappa: its sum, one Jacobi-Trudi determinant per entry
        ctx = _Ctx(Box(k, n))
        lams = [tuple(v + 1 for v in kappa) for kappa in ctx.weights]
        sums = [sum(jacobi_trudi_oracle(n, sigma, lam) for lam in lams) for sigma in ctx.sources]
        assert ctx.bound == max(sums)

    @pytest.mark.parametrize("k,n", [(3, 6), (4, 8)])
    def test_partial_sums_stay_below_their_entries(self, k, n):
        # the strips are I plus a nonnegative matrix, so every field of every
        # row, after every strip of the build, is at most its final entry,
        # and so at most the bound: no field ever carries into the next
        ctx = _Ctx(Box(k, n))
        bits, top = ctx.bits, len(ctx.weights)
        mask = (1 << bits) - 1

        def fields(r):
            assert 0 <= r < 1 << bits * top
            return [r >> bits * (top - 1 - i) & mask for i in range(top)]

        snapshots, rows = [], []
        strips, product = ctx.strips, ctx.strip_product

        class Watched:
            """The strips, with a snapshot of the rows after each one."""

            def __iter__(self):
                for pairs in strips:
                    yield pairs
                    snapshots.append([fields(r) for r in rows[0]])

        ctx.strips = Watched()
        ctx.strip_product = lambda x: rows.append(x) or product(x)
        final = [fields(r) for r in ctx.table]
        assert len(snapshots) == n * k
        assert snapshots[-1] == final
        for snapshot in snapshots:
            for row, last in zip(snapshot, final, strict=True):
                assert all(v <= w for v, w in zip(row, last, strict=True))
        assert max(map(max, final)) <= ctx.bound

    @pytest.mark.parametrize("k,n", [(k, n) for n in range(2, 13) for k in range(1, n)])
    def test_cap_covers_every_staircase(self, k, n):
        # a staircase's sum |coef| is at most 2^n, which one packed sum holds
        ctx = _Ctx(Box(k, n))
        assert ctx.cap >= 1 << n
        assert ctx.bound << n < 1 << ctx.bits - 1

    @pytest.mark.parametrize("k,n,bits", [(4, 8, 40), (7, 10, 48), (6, 12, 72)])
    def test_widths(self, k, n, bits):
        # pinned, so that a return to the loose bound s_R(1^{n+2k}),
        # R = ((n-k+1)^k), shows: it gives 56, 80 and 104
        assert _Ctx(Box(k, n)).bits == bits


class TestClassOf:
    def test_structure_sheaf_is_a_unit_vector(self):
        box = Box(3, 6)
        assert class_of(ts((0, 0, 0), 0, box)) == unit(box, 0)

    def test_basis_bundles_are_unit_vectors(self):
        box = Box(2, 5)
        for i, d in enumerate(basis(box)):
            assert class_of(ts(d.parts, 0, box)) == unit(box, i)

    def test_twisted_line_bundle_on_p1(self):
        box = Box(1, 2)
        assert class_of(ts((2,), 0, box)) == (-1, 2)

    def test_pairing_is_a_section_of_euler_char(self):
        rng = random.Random(19)
        for k, n in [(2, 4), (2, 5), (3, 6)]:
            box = Box(k, n)
            for _ in range(6):
                w1 = tuple(sorted((rng.randint(0, box.width) for _ in range(k)), reverse=True))
                w2 = tuple(sorted((rng.randint(0, box.width) for _ in range(k)), reverse=True))
                e = ts(w1, rng.randint(-3, 3), box)
                f = ts(w2, rng.randint(-3, 3), box)
                assert euler_pairing(box, class_of(e), class_of(f)) == euler_char(e, f)


class TestEulerPairing:
    def test_unit_vectors(self):
        box = Box(2, 4)
        assert euler_pairing(box, unit(box, 0), unit(box, 0)) == 1

    def test_line_bundle_value(self):
        box = Box(2, 4)
        x = class_of(ts((0, 0), 0, box))
        y = class_of(ts((0, 0), 1, box))
        assert euler_pairing(box, x, y) == 6

    def test_bilinearity(self):
        rng = random.Random(8)
        box = Box(2, 5)
        n = len(basis(box))
        for _ in range(5):
            x = tuple(rng.randint(-4, 4) for _ in range(n))
            y = tuple(rng.randint(-4, 4) for _ in range(n))
            z = tuple(rng.randint(-4, 4) for _ in range(n))
            xy = tuple(a + b for a, b in zip(x, y))
            assert euler_pairing(box, xy, z) == euler_pairing(box, x, z) + euler_pairing(box, y, z)

    def test_rejects_wrong_length(self):
        # on Box(2, 4) a class has 6 coordinates; a short one must not be truncated away
        box = Box(2, 4)
        with pytest.raises(ValueError, match="coordinates"):
            euler_pairing(box, (1,), unit(box, 0))
        with pytest.raises(ValueError, match="coordinates"):
            euler_pairing(box, unit(box, 0), unit(box, 0) + (0,))

    def test_matches_dense_product(self):
        # the sparse loops against x^T G y over every coordinate
        rng = random.Random(31)
        for k, n in [(2, 5), (3, 6), (3, 7)]:
            box = Box(k, n)
            g = kapranov_gram(box)
            size = len(g)
            for _ in range(20):
                x = tuple(rng.choice((0, 0, 0, rng.randint(-5, 5))) for _ in range(size))
                y = tuple(rng.choice((0, 0, 0, rng.randint(-5, 5))) for _ in range(size))
                dense = sum(
                    x[i] * g[i][j] * y[j] for i in range(size) for j in range(size)
                )
                assert euler_pairing(box, x, y) == dense

    def test_zero_class(self, builds):
        # a zero class has no terms and no least index: its covector is
        # zero, read beside others in a batch, and no table is built
        box = Box(3, 6)
        ctx = _ctx(box)
        zero = (0,) * len(ctx.weights)
        for i in (0, 7, len(zero) - 1):
            assert euler_pairing(box, zero, unit(box, i)) == 0
            assert euler_pairing(box, unit(box, i), zero) == 0
        assert euler_pairing(box, zero, zero) == 0
        primitive = [unit(box, ctx.index[w]) for w in ((0, 0, 0), (1, 0, 0), (1, 1, 0))]
        assert mutate_left(box, primitive, zero) == zero
        assert mutate_left(box, [], zero) == zero
        g = kapranov_gram(box)
        assert ctx.covector([{}, {3: 1}, {}]) == [zero, g[3], zero]
        assert builds == []

    @pytest.mark.parametrize("k,n", [(2, 5), (3, 6), (4, 8)])
    def test_huge_coefficients_against_dense_product(self, builds, monkeypatch, k, n):
        # sum |coef| far past the table's cap: each covector is read at a
        # width of its own, past the table's, with no table, and equals x^T G
        widths = []
        transposed = _Ctx.transposed

        def record(self, columns):
            v, bits = transposed(self, columns)
            widths.append(bits)
            return v, bits

        monkeypatch.setattr(_Ctx, "transposed", record)
        box = Box(k, n)
        ctx = _ctx(box)
        g = kapranov_gram(box)
        size = len(g)
        cap = ctx.cap  # the largest sum |coef| of one packed sum of table rows
        rng = random.Random(k * n)
        huge = 1 << 300
        classes = [
            tuple(rng.choice((0, 0, 0, rng.randint(-huge, huge))) for _ in range(size)),  # sparse
            tuple(rng.randint(-huge, huge) for _ in range(size)),  # dense
            tuple((-1) ** i * huge for i in range(size)),
            tuple(rng.randint(-9, 9) for _ in range(size)),  # dense, one level
            (cap,) + (0,) * (size - 1),  # at the table's cap
            (cap, -1) + (0,) * (size - 2),  # just past it
        ]
        for x in classes:
            for y in classes:
                dense = sum(x[i] * g[i][j] * y[j] for i in range(size) for j in range(size))
                assert euler_pairing(box, x, y) == dense
        assert builds == []
        assert min(widths) <= ctx.bits < max(widths)


class TestContext:
    """One per-box context, kept for the box used last."""

    @staticmethod
    def check_staircases(box):
        for d in enumerate_diagrams(box, "all"):
            if d.parts[0] == box.width:
                assert is_k_exact(build_staircase(box, d))

    def test_sweep_keeps_one_box(self):
        for k, n in [(2, 6), (3, 7), (4, 8)]:
            self.check_staircases(Box(k, n))
        gc.collect()
        alive = [o for o in gc.get_objects() if type(o) is _Ctx]
        assert len(alive) == 1
        assert alive[0].box == Box(4, 8)

    def test_no_pairing_computed_twice(self, monkeypatch):
        builds, read = [], []

        class Reads(list):
            """A table that records the source of every row read."""

            def __getitem__(self, i):
                read.append(i)
                return super().__getitem__(i)

        patch_table(monkeypatch, lambda self, table: builds.append(1) or Reads(table))
        # the work per box, without a clock: the staircases of the box build
        # one table by `additions` = n * sum_j |pairs_j| big-integer sums,
        # read it at `rows` distinct sources, one per normal form, and
        # unpack no row
        for k, n, rows, additions in [
            (1, 5, 6, 25),
            (2, 6, 20, 180),
            (3, 9, 112, 2268),
            (4, 8, 105, 2240),
            (7, 10, 204, 8400),
        ]:
            box = Box(k, n)
            _ctx.cache_clear()
            ctx = _ctx(box)
            builds.clear()
            read.clear()
            self.check_staircases(box)
            assert _ctx(box) is ctx
            assert len(builds) == 1, box
            assert box.n * sum(map(len, ctx.strips)) == additions, box
            assert len(set(read)) == rows, box
            assert not ctx.chis

    @pytest.mark.parametrize(
        "k,n,chain,classes", [(3, 9, 27, 3), (4, 8, 32, 6), (4, 10, 100, 10), (6, 12, 450, 24)]
    )
    def test_residual_decodes_one_covector_per_class(
        self, builds, monkeypatch, k, n, chain, classes
    ):
        # the residual stage builds no table and stores no row: one read
        # gives the covectors of the primitive block's unit classes, the
        # level 0 of the chain, for the block Gram and every projection,
        # and a second the rows that pair the residual classes, for the
        # residual Gram
        reads = []
        read = _Ctx.read
        monkeypatch.setattr(
            _Ctx, "read", lambda self, xs: reads.append([dict(x) for x in xs]) or read(self, xs)
        )
        box = Box(k, n)
        ctx = _ctx(box)
        report = residual_report(box)
        assert builds == []
        assert not ctx.chis
        assert "gram" not in vars(ctx)
        assert len(report.residual_classes) == classes
        block = [{ctx.index[obj.bundle.weight]: 1} for obj in ctx.block]
        assert len(block) * max(o for _, o in report.short_diagrams) == chain
        assert [len(r) for r in reads] == [len(block), classes]
        assert reads[0] == block
        assert [ctx.dense(x) for x in reads[1]] == list(report.residual_classes)

    def test_gram_is_the_untwisted_rows(self):
        # one reader: Gram row i is the covector of e_i, read alone or in a
        # batch, and the pairing row of its weight at t = 0, none of them stored
        ctx = _ctx(Box(3, 6))
        g = kapranov_gram(ctx.box)
        for i, (row, w) in enumerate(zip(g, ctx.weights, strict=True)):
            assert row == ctx.row(w, 0) == ctx.covector([{i: 1}])[0]
        assert not ctx.chis

    @pytest.mark.parametrize("k,n", [(2, 5), (3, 6)])
    def test_gram_readers_keep_no_rows(self, k, n):
        # class_of and kapranov_gram read the Gram rows as covectors: the
        # context keeps no dense Gram, and its row store holds
        # the deep rows (t <= -2) alone
        _ctx.cache_clear()
        box = Box(k, n)
        ctx = _ctx(box)
        ctx.row(ctx.weights[0], -2)
        ctx.row(ctx.weights[-1], -1)
        kapranov_gram(box)
        for d in basis(box)[:3]:
            class_of(ts(d.parts, -1, box))
        assert _ctx(box) is ctx
        assert "gram" not in vars(ctx)
        assert list(ctx.chis) == [(ctx.weights[0], -2)]

    def test_a_direct_context_reads_itself(self):
        # a context made directly, not by `_ctx`, takes its deep row and its
        # gate on T from itself: no second context is built or cached, and
        # the verdicts on T sit on the context that was asked
        _ctx.cache_clear()
        before = _ctx.cache_info()
        ctx = _Ctx(Box(4, 8))
        ctx.row((1, 0, 0, 0), -3)
        ctx.check_twist()
        assert _ctx.cache_info() == before
        assert [exact for _, exact in vars(ctx)["twist_exact"]] == [True] * comb(7, 3)


class TestTwistClass:
    """The staircase-built twist against the generic LR + Bott route."""

    def test_agrees_with_twisted_bundle(self):
        box = Box(2, 5)
        for d in basis(box)[:5]:
            for t in (0, 1, -2):
                x = class_of(ts(d.parts, t, box))
                assert twist_class(box, x) == class_of(ts(d.parts, t + 1, box))

    @pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 6), (3, 7), (4, 8)])
    def test_every_column(self, k, n):
        # columns with lam_1 = n-k come from the staircase of lam
        box = Box(k, n)
        for i, d in enumerate(basis(box)):
            assert twist_class(box, unit(box, i)) == class_of(ts(d.parts, 1, box)), d

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="coordinates"):
            twist_class(Box(2, 4), (1, 0, 0))

    @pytest.mark.parametrize("k,n", [(3, 6), (4, 8)])
    def test_fonarev_columns(self, k, n):
        box = Box(k, n)
        ctx = _ctx(box)
        for obj in fonarev(box).objects:
            e = obj.bundle
            x = ctx.twisted_classes(e.weight, e.twist + 1)[e.twist]
            assert ctx.dense(x) == class_of(e), e


@pytest.fixture
def twists(monkeypatch):
    """A fresh context whose calls of the one twist step, `_twist_sum`, are
    counted, exact and mod 3 alike."""
    calls = []
    step = ktheory._twist_sum
    monkeypatch.setattr(ktheory, "_twist_sum", lambda *a: calls.append(1) or step(*a))
    _ctx.cache_clear()
    yield calls
    _ctx.cache_clear()


class TestTwistedClasses:
    """Twisted classes are values: each stage computes the classes T^i e_lam
    it reads, one twist pass per orbit, and the context keeps none of them."""

    def test_fresh_values(self):
        box = Box(3, 6)
        ctx, w = _ctx(box), (1, 0, 0)
        assert ctx.twisted_classes(w, 0) == []
        first = ctx.twisted_classes(w, 4)
        expected = [class_of(ts(w, i, box)) for i in range(4)]
        assert [ctx.dense(x) for x in first] == expected
        for x in first:
            x.clear()
        assert [ctx.dense(x) for x in ctx.twisted_classes(w, 4)] == expected

    @pytest.mark.parametrize(
        "k,n,calls", [(4, 8, 60), (4, 10, 188), (3, 9, 74), (5, 9, 112), (6, 12, 844)]
    )
    def test_fullness_twists_each_class_once(self, twists, k, n, calls):
        # each orbit's class at twist 0 is a basis vector, and every other
        # Fonarev class is one twist of the class before it, made once:
        # C(n,k) classes less one per orbit, over Z and mod 3 alike
        box = Box(k, n)
        det = fullness_determinant(box)
        assert len(twists) == calls == comb(n, k) - len(_ctx(box).orbits)
        twists.clear()
        assert _fullness_sign(box) == det
        assert len(twists) == calls

    @pytest.mark.parametrize(
        "k,n,calls", [(4, 8, 34), (4, 10, 98), (3, 9, 23), (5, 9, 0), (6, 12, 418)]
    )
    def test_residual_twist_count(self, twists, k, n, calls):
        # the chain: o_max - 1 twists per block weight; each short mu: o - 1
        # twists for its classes, then one per class for the polarization
        box = Box(k, n)
        residual_report(box)
        ctx = _ctx(box)
        shorts = [orb.length for orb in ctx.orbits if orb.length < n]
        chain = len(ctx.block) * (max(shorts) - 1) if shorts else 0
        assert len(twists) == calls == chain + sum(2 * o - 1 for o in shorts)

    @pytest.mark.parametrize("k,n", [(4, 8), (3, 9), (4, 10)])
    def test_no_stage_reads_a_consumed_row(self, k, n):
        # `_sparse_det` consumes its rows: neither a second determinant nor a
        # later residual stage may read one of them
        box = Box(k, n)
        _ctx.cache_clear()
        expected = residual_report(box)
        _ctx.cache_clear()
        det = fullness_determinant(box)
        assert abs(det) == 1
        assert fullness_determinant(box) == det
        assert residual_report(box) == expected


def record_checks(monkeypatch):
    """The length of every list passed to the semiorthogonality check."""
    lengths = []
    check = _Ctx.check_semiorthogonal
    monkeypatch.setattr(
        _Ctx, "check_semiorthogonal", lambda self, es: lengths.append(len(es)) or check(self, es)
    )
    return lengths


class TestMutateLeft:
    def test_empty_projectors(self):
        box = Box(2, 4)
        x = class_of(ts((1, 0), 1, box))
        assert mutate_left(box, [], x) == x

    def test_projecting_out_self(self):
        box = Box(2, 4)
        e = unit(box, 2)
        zero = (0,) * len(basis(box))
        assert mutate_left(box, [e], e) == zero

    def test_p1_example(self):
        box = Box(1, 2)
        e0 = unit(box, 0)
        x = class_of(ts((1,), 0, box))
        result = mutate_left(box, [e0], x)
        assert result == tuple(a - 2 * b for a, b in zip(x, e0))
        assert euler_pairing(box, e0, result) == 0

    def test_rejects_wrong_order(self):
        box = Box(1, 3)
        e0, e1 = unit(box, 0), unit(box, 1)
        # chi(O(1), O) = 0 but chi(O, O(1)) != 0: the reversed list breaks
        # unitriangularity and must be rejected
        mutate_left(box, [e0, e1], unit(box, 2))
        with pytest.raises(ValueError):
            mutate_left(box, [e1, e0], unit(box, 2))

    def test_rejects_non_exceptional_projector(self):
        box = Box(1, 2)
        with pytest.raises(ValueError):
            mutate_left(box, [(2, 0)], unit(box, 1))

    def test_bad_list_rejected_on_every_call(self):
        # a validated list is remembered; a bad one never is, even after a
        # valid list over the same classes was seen
        box = Box(1, 3)
        e0, e1 = unit(box, 0), unit(box, 1)
        for _ in range(3):
            mutate_left(box, [e0, e1], unit(box, 2))
            with pytest.raises(ValueError):
                mutate_left(box, [e1, e0], unit(box, 2))
            with pytest.raises(ValueError):
                mutate_left(box, [(2, 0, 0)], unit(box, 2))

    def test_list_validated_on_every_call(self, monkeypatch):
        box = Box(3, 6)
        primitive = [unit(box, _ctx(box).index[w]) for w in ((0, 0, 0), (1, 0, 0), (1, 1, 0))]
        checked = record_checks(monkeypatch)
        x = unit(box, 7)
        first = mutate_left(box, primitive, x)
        assert mutate_left(box, primitive, x) == first
        assert checked == [3, 3]

    def test_signed_projectors_against_oracle(self):
        # the first 8 Fonarev classes T^i e_lam of G(2,5): the last has
        # coefficients of both signs and a covector of both signs, so the
        # rows of their read are signed and past M; the unit classes 6 and 7
        # project, to nonzero classes, as by Gram-Schmidt on the oracle's
        # covectors, last projector first
        box = Box(2, 5)
        es = _ctx(box).fonarev_classes()[:8]
        assert min(es[-1].values()) < 0 and sum(map(abs, es[-1].values())) > 1
        assert min(covector_oracle(box, es[-1])) < 0
        size = len(basis(box))
        dense = [tuple(e.get(m, 0) for m in range(size)) for e in es]
        covs = [covector_oracle(box, e) for e in es]
        for i in (6, 7):
            y = {i: 1}
            for e, cov in zip(reversed(es), reversed(covs)):
                c = sum(cov[m] * v for m, v in y.items())
                for m, v in e.items():
                    y[m] = y.get(m, 0) - c * v
            expected = tuple(y.get(m, 0) for m in range(size))
            assert any(expected)
            assert mutate_left(box, dense, unit(box, i)) == expected

    def test_rejects_wrong_length(self):
        box = Box(2, 4)
        e0 = unit(box, 0)
        with pytest.raises(ValueError, match="coordinates"):
            mutate_left(box, [(1, 0, 0)], e0)
        with pytest.raises(ValueError, match="coordinates"):
            mutate_left(box, [e0], (1, 0, 0))


class TestResidualReport:
    @pytest.mark.parametrize("k,n", [(2, 4), (3, 6), (4, 8), (3, 9)])
    def test_matches_dense_oracle(self, k, n):
        report = residual_report(Box(k, n))
        got = (report.residual_classes, report.residual_gram, report.tau_orbit_ok)
        assert got == residual_oracle(Box(k, n))

    def test_one_chain_check(self, monkeypatch):
        # G(4,8): a primitive block of 8 and a longest short orbit of 4 make a
        # 32-class chain, checked once, by the twist identity, from its 8
        # level-0 classes, which alone go through the semiorthogonality check
        # of mutate_left; every projector list is a subsequence of the chain
        box = Box(4, 8)
        checked, dense, chains = record_checks(monkeypatch), [], []
        to_dense, check_chain = _Ctx.dense, _Ctx.check_chain
        monkeypatch.setattr(_Ctx, "dense", lambda self, x: dense.append(1) or to_dense(self, x))
        monkeypatch.setattr(
            _Ctx,
            "check_chain",
            lambda self, block, chain: chains.append((len(block), sum(map(len, chain))))
            or check_chain(self, block, chain),
        )
        report = residual_report(box)
        assert chains == [(8, 32)]
        assert checked == [8]
        # the returned classes are the only dense vectors built
        assert len(dense) == len(report.residual_classes) == 6
        fullness_determinant(box)
        assert len(dense) == 6

    @pytest.mark.parametrize("k,n", [(4, 8), (3, 9), (4, 10)])
    def test_projects_through_fenced_blocks(self, monkeypatch, k, n):
        # F_mu^i projects T^i e_mu through the chain up to twist i, then
        # through the part of the primitive block inside mu at twist i:
        # fenced_block's "minus" side, which residual_report selects from its
        # own block; each polarized class projects through twist 0 alone
        box = Box(k, n)
        calls = []
        project = ktheory._project_levels
        monkeypatch.setattr(
            ktheory,
            "_project_levels",
            lambda gram, pair, chain, xs, top: calls.append((xs, list(top)))
            or project(gram, pair, chain, xs, top),
        )
        report = residual_report(box)
        ctx, block, pos = ktheory._ctx(box), [obj.bundle.weight for obj in primitive_block(box)], 0
        assert report.short_diagrams
        for mu, o in report.short_diagrams:
            fenced = [obj.bundle.weight for obj in fenced_block(box, mu, "minus")]
            for i in range(o):
                xs, top = calls[pos + i]
                assert xs == ctx.twisted_classes(mu.parts, i + 1)
                assert [block[p] for p in top] == fenced
            for xs, top in calls[pos + o : pos + 2 * o]:
                assert len(xs) == 1 and top == list(range(len(block)))
            pos += 2 * o  # o projections, then o polarized ones
        assert pos == len(calls)

    @pytest.mark.parametrize("flags", [(), ("-O",)])
    def test_non_semiorthogonal_chain_raises(self, flags):
        # the primitive block reversed puts chi(O, Sigma^lam U*) != 0 below the
        # diagonal of the block Gram, the level 0 of the chain, where the
        # check names chain positions 1 > 0; python -O strips assert
        # statements, and the check is not one
        probe = (
            "from grex import ktheory\n"
            "from grex.diagrams import Box\n"
            "from grex.lefschetz import primitive_block\n"
            "block = property(lambda self: tuple(reversed(primitive_block(self.box))))\n"
            "ktheory._Ctx.block = block  # the per-box context supplies the block\n"
            "try:\n"
            "    ktheory.residual_report(Box(3, 6))\n"
            "except ValueError as exc:\n"
            "    print('ValueError:', exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ktheory.__file__)))
        out = subprocess.run(
            [sys.executable, *flags, "-c", probe], capture_output=True, text=True, env=env,
            timeout=300,
        )
        assert out.returncode == 0, out.stderr
        message = "projectors 1 > 0 are not semiorthogonal; check the ordering"
        assert out.stdout == f"ValueError: {message}\n"

    def test_g24(self):
        report = residual_report(Box(2, 4))
        assert len(report.residual_classes) == 2
        assert report.gram_is_identity
        assert report.sign_exponents == (2,)
        assert report.tau_all_ok

    def test_g37_empty(self):
        report = residual_report(Box(3, 7))
        assert report.short_diagrams == ()
        assert report.residual_classes == ()
        assert report.residual_gram == ()
        assert report.tau_all_ok

    def test_g36(self):
        report = residual_report(Box(3, 6))
        assert [d.parts for d, _ in report.short_diagrams] == [(2, 1, 0)]
        assert len(report.residual_classes) == 2
        assert report.gram_is_identity
        assert report.sign_exponents == (3,)
        assert report.tau_all_ok
        assert abs(fullness_determinant(Box(3, 6))) == 1

    @pytest.mark.parametrize("k,n", [(2, 4), (2, 6), (3, 6)])
    def test_rank_accounting(self, k, n):
        box = Box(k, n)
        report = residual_report(box)
        assert len(report.residual_classes) == residual_rank(box)

    def test_json_fields(self):
        data = residual_report(Box(2, 4)).to_json()
        for key in (
            "short_diagrams",
            "residual_classes",
            "residual_gram",
            "tau_orbit_ok",
            "residual_rank",
        ):
            assert key in data
        # fullness is its own check; `grex residual` adds it to its payload
        assert "fullness_det" not in data


RESIDUAL_BOXES = [(k, n) for n in range(2, 13) for k in range(1, n) if residual_rank(Box(k, n))]


class TestTwistIdentity:
    """`residual_report` reads the chain by the twist identity
    chi(T^b e_v, T^a e_w) = chi(T^(b-a) e_v, e_w), entrywise against the
    whole-chain route, which reads the covector of every chain class."""

    @pytest.mark.parametrize("k,n", RESIDUAL_BOXES)
    def test_matches_the_whole_chain_route(self, monkeypatch, k, n):
        box = Box(k, n)
        _ctx.cache_clear()
        ctx = _ctx(box)
        passes = []
        product = _Ctx.strip_product
        monkeypatch.setattr(
            _Ctx,
            "strip_product",
            lambda self, x: passes.append((list(x), product(self, x))) or passes[-1][1],
        )
        report = residual_report(box)
        monkeypatch.undo()
        classes, gram, tau, pairs = whole_chain_oracle(box)
        assert report.residual_classes == classes
        assert report.residual_gram == gram
        assert report.tau_orbit_ok == tau
        # the one forward pass of the chain check: unit column w in field w,
        # at the width of S M, S the largest sum |coef| of a chain class
        ((units, packed),) = passes
        block = [ctx.index[obj.bundle.weight] for obj in ctx.block]
        o_max = max(o for _, o in report.short_diagrams)
        chain = [ctx.twisted_classes(ctx.weights[v], o_max) for v in block]
        weight = max(sum(map(abs, y.values())) for ys in chain for y in ys)
        bits = ktheory._width(weight * ctx.bound)
        lift = [i for i, s in enumerate(ctx.sources) if s[-1]]
        expected = [0] * len(ctx.sources)
        for q, v in enumerate(block):
            expected[lift[v]] = 1 << bits * q
        assert units == expected
        split = ktheory._splitter(bits, len(block))
        reads = {
            (p, d): split(sum(c * packed[lift[m]] for m, c in y.items()))
            for p, ys in enumerate(chain)
            for d, y in enumerate(ys)
        }
        assert len(pairs) == len(block) ** 2 * sum(range(len(chain[0]) + 1))
        for (b, p, a, q), value in pairs.items():
            assert reads[p, b - a][q] == value, (b, p, a, q)

    @pytest.mark.parametrize("k,n", [(3, 6), (4, 8)])
    def test_pairer_against_exact_row_sums(self, k, n):
        # one packed sum per class z at the width of sum |z| times the bound
        # of the rows: coefficients of both signs far beyond M, after and
        # before narrower sums, and one-term classes, against the exact sums
        # of the rows of two reads: of unit classes, entries in [0, M], and
        # of the last 4 Fonarev classes, every other one negated, entries
        # signed and past M
        ctx = _ctx(Box(k, n))
        units = [{0: 1}, {1: 1}, {3: 1}, {len(ctx.weights) - 1: 1}]
        fonarev = ctx.fonarev_classes()[-4:]
        signed = [{m: (-1) ** q * v for m, v in x.items()} for q, x in enumerate(fonarev)]
        assert any(v < 0 for x in fonarev for v in x.values())
        rng = random.Random(10 * k + n)
        for xs in (units, signed):
            rows = ctx.read(xs)[0]
            bound = max(sum(map(abs, x.values())) for x in xs) * ctx.bound
            assert max(abs(v) for row in rows for v in row) <= bound
            if xs is signed:
                assert min(v for row in rows for v in row) < 0 < bound - 2 * ctx.bound
            pair = ktheory._pairer(rows, bound)
            for scale in (1, 10**3, 10**40, 1, 10**80):
                for size in (6, 1):
                    z = {m: rng.randint(-scale, scale) for m in rng.sample(range(len(rows)), size)}
                    assert pair(z) == [sum(c * rows[m][q] for m, c in z.items()) for q in range(4)]
            assert pair({}) == [0] * 4

    def test_each_level_is_checked_orthogonal(self, monkeypatch):
        # each level is paired again after its triangular solve: a solve fed
        # pairings one too high, on the first level of the first projection
        # alone, leaves that level unorthogonal, and the second pairing finds
        # it; the block check pairs each block class first, unplanted
        box = Box(4, 8)
        first = len(_ctx(box).block) + 1  # the first pairing after the block check
        calls = []
        pairer = ktheory._pairer

        def first_off(rows, bound):
            pair = pairer(rows, bound)
            return lambda z: calls.append(1) or [v + (len(calls) == first) for v in pair(z)]

        monkeypatch.setattr(ktheory, "_pairer", first_off)
        with pytest.raises(AssertionError, match="^mutation lost orthogonality$"):
            residual_report(box)
        assert len(calls) == first + 1


class TestConeClassConsistency:
    @pytest.mark.parametrize("k,m", [(2, 2), (3, 2), (2, 3)])
    def test_cone_class_matches_staircase_expansion(self, k, m):
        # [S^mu U*] - (-1)^(k(n-k)/d) [S^mu U*(-n/d)] equals the alternating
        # sum of the middle staircase terms, as classes
        box = Box(k, k * m)
        mu = theta(k, m)
        o = orbit_length(box, mu.parts)
        d = box.n // o
        sign_exp = k * (box.n - k) // d
        sign = -1 if sign_exp % 2 else 1
        sc, _ = build_theta_staircase(k, m)
        combo = [(c, ts(w, t, box)) for c, w, t in sc.k_class_terms()]
        head = combo[0]
        tail = combo[-1]
        assert head[1].reduced().weight == mu.parts
        cone = [(1, head[1]), (-sign, tail[1])]
        assert is_zero_combination(box, cone + combo[1:-1])


def dense_fonarev_matrix(box):
    """Column j holds the class of the j-th Fonarev object."""
    ctx = _ctx(box)
    cols = [
        ctx.dense(ctx.twisted_classes(o.bundle.weight, o.bundle.twist + 1)[-1])
        for o in fonarev(box).objects
    ]
    return [[c[i] for c in cols] for i in range(len(cols))]


def refuse(m):
    raise AssertionError("dense fallback taken")


class TestFullness:
    @pytest.mark.parametrize("k,n", [(2, 4), (2, 6), (3, 6)])
    def test_unimodular(self, k, n):
        assert abs(fullness_determinant(Box(k, n))) == 1

    @pytest.mark.parametrize("k,n", [(k, n) for n in range(4, 11) for k in range(2, n - 1)])
    def test_matches_dense_bareiss(self, k, n):
        box = Box(k, n)
        assert fullness_determinant(box) == _bareiss_det(dense_fonarev_matrix(box))

    @pytest.mark.parametrize("k,n", [(2, 4), (2, 6), (3, 6), (3, 7), (4, 8), (3, 9)])
    def test_square_is_euler_gram_det(self, k, n):
        # the Fonarev Euler Gram is C^T G C with det G = 1; it is computed by
        # LR and Bott, not through the twist matrix
        box = Box(k, n)
        entries = gram(fonarev(box).objects, "euler").entries
        assert fullness_determinant(box) ** 2 == _bareiss_det([list(r) for r in entries])

    @pytest.mark.parametrize(
        "k,n", [(k, n) for n in range(2, 11) for k in range(1, n)] + [(4, 11)]
    )
    def test_fonarev_needs_no_fallback(self, k, n, monkeypatch):
        # each Fonarev row, in collection order, has a +-1 entry to pivot on
        monkeypatch.setattr(ktheory, "_bareiss_det", refuse)
        assert abs(fullness_determinant(Box(k, n))) == 1


class TestFullnessModThree:
    """det C mod 3, which the report reads for the sign of det C once its
    Gram and staircase stages give det(C)^2 = 1, against the exact routes."""

    @pytest.mark.parametrize("k,n", [(k, n) for n in range(2, 13) for k in range(1, n)])
    def test_matches_sparse_det(self, k, n, monkeypatch):
        # and no row is deferred: every live entry mod 3 is a pivot
        box = Box(k, n)
        det = fullness_determinant(box)
        monkeypatch.setattr(ktheory, "_bareiss_det", refuse)
        assert _fullness_sign(box) == det

    @pytest.mark.parametrize(
        "k,n", [(k, n) for n in range(2, 10) for k in range(1, n) if comb(n, k) <= 126]
    )
    def test_matches_dense_bareiss(self, k, n):
        box = Box(k, n)
        assert _fullness_sign(box) == _bareiss_det(dense_fonarev_matrix(box))

    @pytest.mark.parametrize("k,n,det", [(6, 14, -1), (8, 14, -1)])
    def test_recorded_exact_sign(self, k, n, det):
        # det recorded once from `fullness_determinant`, the exact route,
        # which takes 2 to 5 s on these boxes
        assert _fullness_sign(Box(k, n)) == det
        _ctx.cache_clear()


class TestSignedStep:
    """S, the signed step matrix of `oracles`, built from `diagrams._step`
    alone: row (lam, i) is (-1)^((n-k) f) e_{step^i lam}, f the full first
    rows among the first i steps."""

    @pytest.mark.parametrize("k,n", [(k, n) for n in range(2, 12) for k in range(1, n)])
    def test_det_matches_fullness(self, k, n):
        # an observation on these 55 boxes, proven only for n a prime power
        # p^a, p odd (below); the library reads det S nowhere
        box = Box(k, n)
        assert fullness_determinant(box) == signed_step_det(box)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_twist_is_the_signed_step_mod_3_at_n_9(self, k):
        # 3 divides C(9, c) for 0 < c < 9, so each staircase keeps only its
        # tail mod 3, and T is congruent to S's one step entrywise
        box = Box(k, 9)
        ctx = _ctx(box)
        for w, col in zip(ctx.weights, ctx.twist, strict=True):
            sign, step = signed_step(box, w)
            assert {i: (c + 1) % 3 - 1 for i, c in col if c % 3} == {ctx.index[step]: sign}


class TestSparseDet:
    @pytest.mark.parametrize(
        "m,det,dense_calls",
        [
            ([], 1, 0),
            ([[2, 3], [4, 5]], -2, 1),  # no +-1 entry: all of it is the fallback
            ([[0, 0, 1], [2, 3, 5], [4, 5, 7]], -2, 1),  # one pivot, then the fallback
            ([[1, 2], [2, 4]], 0, 0),  # singular
            ([[0, 0], [1, 1]], 0, 0),  # zero row
            ([[1, 0, 1], [0, 1, 1], [1, 1, 2]], 0, 0),  # a row cancels to zero
            ([[0, 1], [1, 0]], -1, 0),  # odd permutation
            ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1, 0),  # even permutation
            ([[0, -1, 0], [0, 0, 1], [1, 0, 0]], -1, 0),
            ([[2, 3, 0], [1, 0, 0], [0, 0, 1]], -3, 1),  # row 0 deferred, later rows pivot
        ],
    )
    def test_planted(self, m, det, dense_calls, monkeypatch):
        calls = []

        def counted(dense):
            calls.append(len(dense))
            return _bareiss_det(dense)

        monkeypatch.setattr(ktheory, "_bareiss_det", counted)
        assert _bareiss_det([list(r) for r in m]) == det
        assert _sparse_det([{j: v for j, v in enumerate(row) if v} for row in m]) == det
        assert len(calls) == dense_calls
        # mod 3 every live entry, -1 or 1, is a pivot: no fallback
        rows = [{j: r for j, v in enumerate(row) if (r := (v + 1) % 3 - 1)} for row in m]
        assert _sparse_det(rows, 3) == (det + 1) % 3 - 1
        assert len(calls) == dense_calls


class TestZeroCombination:
    def test_detects_nonzero(self):
        box = Box(2, 4)
        assert not is_zero_combination(box, [(1, ts((1, 0), 0, box))])

    def test_cancellation(self):
        box = Box(2, 4)
        e = ts((1, 1), -1, box)
        assert is_zero_combination(box, [(3, e), (-3, e)])

    def test_perturbed_staircase_detected(self):
        from grex.diagrams import BoxedDiagram
        from grex.staircase import build_staircase

        box = Box(2, 4)
        sc = build_staircase(box, BoxedDiagram((2, 1), box))
        combo = [(c, ts(w, t, box)) for c, w, t in sc.k_class_terms()]
        combo[1] = (combo[1][0] + 1, combo[1][1])
        assert not is_zero_combination(box, combo)

    def test_out_of_box_weight_rejected(self):
        # a bundle fits when w_0 + t and w_0 - w_{k-1} are at most n-k,
        # whatever its coefficient: a zero one is checked before it is skipped
        box = Box(2, 4)
        for w, t in [((3, 0), 0), ((2, 1), 1), ((3, 0), -1), ((9, 0), 0)]:
            for coef in (1, 0):
                with pytest.raises(ValueError):
                    is_zero_combination(box, [(coef, ts(w, t, box))])
        # S^(3,1)U*(-1) = S^(2,0)U* sits on the boundary; S^(1,1)U*(-1) = O
        assert not is_zero_combination(box, [(1, ts((3, 1), -1, box))])
        assert is_zero_combination(box, [(1, ts((1, 1), -1, box)), (-1, ts((0, 0), 0, box))])

    def test_bundle_on_another_box_rejected(self):
        # a bundle of G(3,7) read on G(3,6) came back as a nonzero class, and
        # one of G(2,6) failed the basis lookup with KeyError
        box = Box(3, 6)
        for other in (Box(3, 7), Box(2, 6)):
            with pytest.raises(ValueError):
                is_zero_combination(box, [(1, ts((1,) + (0,) * (other.k - 1), 0, other))])

    def test_out_of_box_zero_combination_rejected(self):
        # [S^(3,0)U*] = 4 e_(0,0) - 6 e_(1,0) + 4 e_(2,0) by class_of, so this
        # combination vanishes; the pairing rows cannot say so for (3,0)
        box = Box(2, 4)
        assert class_of(ts((3, 0), 0, box)) == (4, -6, 0, 4, 0, 0)
        combo = [(1, ts((3, 0), 0, box)), (-4, ts((0, 0), 0, box)),
                 (6, ts((1, 0), 0, box)), (-4, ts((2, 0), 0, box))]
        with pytest.raises(ValueError):
            is_zero_combination(box, combo)

    def test_huge_coefficients(self, builds):
        # 2^300 times a staircase is far past cap: the call reads its rows as
        # one column of one transposed pass, and one unit off is still seen;
        # only the call within cap builds the table
        box = Box(3, 6)
        sc = build_staircase(box, BoxedDiagram((3, 1, 0), box))
        combo = [(c, ts(w, t, box)) for c, w, t in sc.k_class_terms()]
        big = [(c << 300, e) for c, e in combo]
        bits = _ctx(box).bits
        assert is_zero_combination(box, big)
        big[-1] = (big[-1][0] + 1, big[-1][1])
        assert not is_zero_combination(box, big)
        assert is_zero_combination(box, combo)
        assert _ctx(box).bits == bits and builds == [bits]

    def test_deep_twist_entries_above_the_bound(self, builds):
        # a normal form with t <= -2 is no table row, and its entries may
        # exceed M and even 2^B: the call reads row (a, -1) at level s of
        # one transposed pass, beside the table rows at level 0, and folds
        # the levels through T unpacked, with no table
        box = Box(2, 4)
        ctx = _ctx(box)
        deep = ts((1, 0), -300, box)
        peak = max(ctx.row((1, 0), -300))
        assert peak > ctx.bound and peak >> ctx.bits
        # S^(2,1)U*(-301) is the same bundle as S^(1,0)U*(-300)
        same = ts((2, 1), -301, box)
        assert is_zero_combination(box, [(1, deep), (-1, same)])
        assert not is_zero_combination(box, [(1, deep)])
        assert not is_zero_combination(box, [(1, deep), (-1, ts((1, 0), -299, box))])
        assert not is_zero_combination(box, [(1, deep), (-1, same), (1, ts((1, 0), 0, box))])
        assert builds == []

    def test_too_narrow_fields_would_alias(self, builds):
        # on P^1 the rows of O and O(1) are (1, 2) and (0, 1), packed high
        # field first as 2^B + 2 and 1, so these coefficients give the
        # fields (-1, 2^B): a nonzero class whose packed sum at the table's
        # width B is -(2^B + 2) + (2^B + 2) = 0, which the slow path, one
        # column of one transposed pass, still sees
        box = Box(1, 2)
        ctx = _ctx(box)
        b = ctx.bits
        combo = [(-1, ts((0,), 0, box)), ((1 << b) + 2, ts((1,), 0, box))]
        rows = [ctx.table[ctx.sources[tuple(v + 1 for v in e.weight)]] for _, e in combo]
        assert rows == [(1 << b) + 2, 1]
        assert sum(c * r for (c, _), r in zip(combo, rows)) == 0
        assert not is_zero_combination(box, combo)
        assert builds == [b]


class TestVanishBatch:
    """The batched zero test: one transposed pass, one field per relation."""

    def test_verdicts_without_a_table(self, builds):
        # zero and nonzero relations side by side, the first and the last
        # field among the failures, each named by its own field
        box = Box(2, 4)
        sc = build_staircase(box, BoxedDiagram((2, 1), box))
        zero = sc.k_class_terms()
        off = [(zero[0][0] - 1, *zero[0][1:]), *zero[1:]]
        relations = [off, zero, [], [(3, (1, 1), -1), (-3, (0, 0), 0)], [(1, (1, 0), 0)]]
        assert vanish_batch(box, relations) == [False, True, True, True, False]
        assert vanish_batch(box, []) == []
        assert builds == []
        assert [_ctx(box).vanishes(r) for r in relations] == [False, True, True, True, False]

    def test_bad_input_refused(self, builds):
        # a deep term and a term off the pairing rows are refused as
        # ValueError, whatever their coefficients; a relation past the
        # table's cap is read at a width of its own and gets the oracle's
        # verdict
        box = Box(2, 4)
        ctx = _ctx(box)
        cap = ctx.cap
        good = [(1, (1, 0), 0)]
        for bad in (
            [(0, (1, 0), -2)],
            [(1, (2, 1), -3)],
            [(0, (3, 0), 0)],
        ):
            with pytest.raises(ValueError):
                vanish_batch(box, [good, bad])
        huge = cap << 200
        relations = [
            good,
            [(cap, (1, 0), 0), (-1, (1, 0), 0)],
            [(huge, (2, 2), 0), (-huge, (2, 2), 0)],
            [(huge, (2, 2), 0), (1 - huge, (2, 2), 0), (cap, (1, 1), 0)],
            [(cap, (1, 0), 0)],
        ]
        oracle = []
        for r in relations:  # every term a basis bundle at t = 0
            x: dict[int, int] = {}
            for c, w, _ in r:
                x[ctx.index[w]] = x.get(ctx.index[w], 0) + c
            oracle.append(not any(covector_oracle(box, x)))
        assert oracle == [False, False, True, False, False]
        assert vanish_batch(box, relations) == oracle
        assert builds == []

    @pytest.mark.parametrize("k,n", [(1, 4), (2, 4), (2, 5)])
    def test_dual_classes_fail_at_one_read(self, builds, k, n):
        # the class x_i with x_i^T G = e_i, solved on the oracle's Gram
        # matrix, pairs to zero with every basis kappa but kappa_i: each is
        # seen at its one read, kappa_i + 1, whether or not kappa_i ends in 0,
        # and named alone among zero relations
        box = Box(k, n)
        ws, g = gram_oracle(box)
        duals = []
        for i in range(len(ws)):
            x = []
            for j in range(len(ws)):
                x.append((j == i) - sum(x[m] * g[m][j] for m in range(j)))
            duals.append([(c, w, 0) for c, w in zip(x, ws) if c])
        zero = [(1, ws[0], 0), (-1, (1,) * k, -1)]  # O = Sigma^(1..1)U*(-1)
        batch = [r for d in duals for r in (zero, d)]
        assert vanish_batch(box, batch) == [True, False] * len(ws)
        assert builds == []
