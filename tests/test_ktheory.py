"""K-theory: Gram matrices, classes, mutations, residual reports."""

import gc
import os
import random
import subprocess
import sys
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
    dimension_oracle,
    ext_table_oracle,
    jacobi_trudi_oracle,
    residual_oracle,
    signed_step,
    signed_step_det,
)


def ts(w, t, box):
    return TwistedSchur(tuple(w), t, box)


def unit(box, index):
    n = len(basis(box))
    return tuple(1 if i == index else 0 for i in range(n))


@pytest.fixture
def builds(monkeypatch):
    """A fresh context whose table builds are counted, each by its width."""
    calls = []
    build = _Ctx.build_table
    monkeypatch.setattr(_Ctx, "build_table", lambda self: calls.append(self.bits) or build(self))
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
        # a normal form with t <= -2 is one Jacobi-Trudi determinant per entry
        box = Box(2, 5)
        ctx = _ctx(box)
        for a, kappa in [((3, 1), (0, 0)), ((0, 0), (3, 3)), ((2, 2), (1, 0))]:
            got = chi(ctx, a, -20, kappa)
            assert got == euler_char(ts(a, -20, box), ts(kappa, 0, box))
            assert got > 0

    def test_twist_deeper_than_the_recursion_limit(self):
        # a deep twist is one row of determinants, not a chain of rows: the
        # store holds the one row of (1, 0), and no table is built for it
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
        """plant(a, t) makes every table built from then on add 1 to field
        kappa = a + t of the entry sigma = a + t + 1, that is, to
        chi(Sigma^a U*(t), Sigma^(a+t) U*); plant(a, t, kappa) adds it to
        field kappa of that entry instead.  No context built with it
        outlives the test."""
        _ctx.cache_clear()
        yield lambda a, t, kappa=None: self.corrupt_tables(monkeypatch, a, t, kappa)
        _ctx.cache_clear()

    @staticmethod
    def corrupt_tables(monkeypatch, a, t, kappa=None):
        build = _Ctx.build_table
        sigma = tuple(v + t + 1 for v in a)
        if kappa is None:
            kappa = tuple(v - 1 for v in sigma)

        def corrupt(self):
            x = build(self)
            field = len(self.weights) - 1 - self.index[kappa]  # high field first
            x[self.sources[sigma]] += 1 << self.bits * field
            return x

        monkeypatch.setattr(_Ctx, "build_table", corrupt)

    def test_corrupt_field_fails_the_gram_check(self, plant):
        # the Gram diagonal reads one field per row; a planted 2 there is a
        # verdict of the check, not a wrong Gram matrix
        plant((1, 1), 0)
        ctx = _ctx(Box(2, 4))
        assert ctx.row((1, 1), 0)[ctx.index[1, 1]] == 2
        with pytest.raises(AssertionError, match="Gram diagonal is not 1 at \\(1, 1\\)"):
            kapranov_gram(ctx.box)

    def test_corrupt_diagonal_fails_class_of(self, plant):
        # class_of reads each Gram row through covector, which checks its
        # diagonal: a 2 planted there stops the solve
        plant((1, 1), 0)
        box = Box(2, 4)
        with pytest.raises(AssertionError, match="Gram diagonal is not 1 at \\(1, 1\\)"):
            class_of(ts((0, 0), 0, box))

    def test_corrupt_field_fails_a_pairing(self, plant):
        # a pairing reads the packed Gram rows of its first class and checks
        # each diagonal, with the message of the full Gram check; a pairing
        # that does not read row i does not see the planted 2
        plant((1, 1), 0)
        box = Box(2, 4)
        i = _ctx(box).index[1, 1]
        assert euler_pairing(box, unit(box, 0), unit(box, i)) == 6  # dim Lambda^2 C^4
        with pytest.raises(AssertionError, match="Gram diagonal is not 1 at \\(1, 1\\)"):
            euler_pairing(box, unit(box, i), unit(box, 0))

    def test_corrupt_diagonal_fails_the_residual_stage(self, plant):
        # every covector reads its Gram rows from the table and checks each
        # diagonal: a 2 planted on the diagonal of row (1,1,1), which only the
        # chain member e_(1,1,1) of G(3,6) reads, stops the residual stage,
        # and a pairing reads it only when its first class has a nonzero there
        plant((1, 1, 1), 0)
        box = Box(3, 6)
        with pytest.raises(AssertionError, match="Gram diagonal is not 1 at \\(1, 1, 1\\)"):
            residual_report(box)
        i = _ctx(box).index[1, 1, 1]
        assert euler_pairing(box, unit(box, 0), unit(box, i)) == 20  # dim Lambda^3 C^6
        with pytest.raises(AssertionError, match="Gram diagonal is not 1 at \\(1, 1, 1\\)"):
            euler_pairing(box, unit(box, i), unit(box, 0))

    def test_corrupt_off_diagonal_field_fails_the_chain_check(self, plant):
        # on G(3,9) chain member 9 has a nonzero at (1,1,1) and member 3 one
        # at (2,0,0): a 1 planted in field (2,0,0) of Gram row (1,1,1), where
        # the true entry is 0, breaks chi(member 9, member 3) = 0
        box = Box(3, 9)
        assert residual_report(box).gram_is_identity
        plant((1, 1, 1), 0, (2, 0, 0))
        _ctx.cache_clear()
        ctx = _ctx(box)
        assert ctx.gram_packed(ctx.index[1, 1, 1])  # the diagonal still reads 1
        with pytest.raises(ValueError, match="not semiorthogonal"):
            residual_report(box)

    @pytest.mark.parametrize("k,n,lam", [(2, 4, (2, 1)), (3, 7, (4, 2, 1)), (1, 3, (2,))])
    def test_corrupt_field_fails_a_staircase(self, plant, k, n, lam):
        # the head Sigma^lam U* of the staircase reads field lam of entry
        # lam + 1, which no other term reads: the planted 1 is left over
        box = Box(k, n)
        sc = build_staircase(box, BoxedDiagram(lam, box))
        assert is_k_exact(sc)
        plant(lam, 0)
        _ctx.cache_clear()
        assert not is_k_exact(sc)

    @pytest.mark.parametrize("k,n,lam", [(2, 4, (2, 1)), (3, 7, (4, 2, 1)), (1, 3, (2,))])
    def test_corrupt_lowest_order_field_fails_a_staircase(self, plant, k, n, lam):
        # field kappa = the full box is the lowest-order one, bits 0..B-1 of
        # every entry: the zero test's proof starts from it
        box = Box(k, n)
        sc = build_staircase(box, BoxedDiagram(lam, box))
        plant(lam, 0, (box.width,) * k)
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
            # the table at t + m = -1 and by determinants at t + m = -2
            (4, 8, (3, 2, 2, 1), -2, ((2, 1, 1, 0), -1)),
            (7, 10, (2, 2, 2, 1, 1, 1, 1), -3, ((1, 1, 1, 0, 0, 0, 0), -2)),
            (12, 14, (2,) * 9 + (1,) * 3, -2, ((1,) * 9 + (0,) * 3, -1)),
        ],
    )
    def test_gathered_row_against_oracles(self, monkeypatch, k, n, a, t, base):
        builds = []
        build = _Ctx.build_table
        monkeypatch.setattr(_Ctx, "build_table", lambda self: builds.append(1) or build(self))
        ctx = _Ctx(Box(k, n))
        self.check_row_against_oracles(ctx, a, t)
        # one table for a normal form with t + m >= -1, none for a deeper one;
        # a table row is decoded, not stored, and a deeper one is stored once
        assert len(builds) == (t + a[-1] >= -1)
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
        final = [fields(r) for r in ctx.build_table()]
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
        # a zero class has no terms: its covector is zero, not a division by
        # its term count
        box = Box(3, 6)
        ctx = _ctx(box)
        bits, zero = ctx.bits, (0,) * len(ctx.weights)
        for i in (0, 7, len(zero) - 1):
            assert euler_pairing(box, zero, unit(box, i)) == 0
            assert euler_pairing(box, unit(box, i), zero) == 0
        assert euler_pairing(box, zero, zero) == 0
        primitive = [unit(box, ctx.index[w]) for w in ((0, 0, 0), (1, 0, 0), (1, 1, 0))]
        assert mutate_left(box, primitive, zero) == zero
        assert mutate_left(box, [], zero) == zero
        assert ctx.bits == bits and builds == [bits]

    @pytest.mark.parametrize("k,n", [(2, 5), (3, 6), (4, 8)])
    def test_huge_coefficients_against_dense_product(self, builds, k, n):
        # sum |coef| far past the decode bound: the covector is decoded in
        # digit levels, at the table's first width, and equals x^T G
        box = Box(k, n)
        ctx = _ctx(box)
        bits = ctx.bits
        g = kapranov_gram(box)
        size = len(g)
        cap = ((1 << bits - 1) - 1) // ctx.bound  # the largest sum |coef| of one level
        rng = random.Random(k * n)
        huge = 1 << 300
        classes = [
            tuple(rng.choice((0, 0, 0, rng.randint(-huge, huge))) for _ in range(size)),  # sparse
            tuple(rng.randint(-huge, huge) for _ in range(size)),  # dense
            tuple((-1) ** i * huge for i in range(size)),
            tuple(rng.randint(-9, 9) for _ in range(size)),  # dense, one level
            (cap,) + (0,) * (size - 1),  # one level, at the bound
            (cap, -1) + (0,) * (size - 2),  # two levels, just past it
        ]
        for x in classes:
            for y in classes:
                dense = sum(x[i] * g[i][j] * y[j] for i in range(size) for j in range(size))
                assert euler_pairing(box, x, y) == dense
        assert ctx.bits == bits and builds == [bits]


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
        build = _Ctx.build_table

        class Reads(list):
            """A table that records the source of every row read."""

            def __getitem__(self, i):
                read.append(i)
                return super().__getitem__(i)

        monkeypatch.setattr(
            _Ctx, "build_table", lambda self: builds.append(1) or Reads(build(self))
        )
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

    @pytest.mark.parametrize("k,n", [(3, 9), (4, 8)])
    def test_report_builds_one_table_at_one_width(self, builds, k, n):
        # the theta staircase of G(3,9) and the ten-term fixture of G(4,8)
        # read deep rows (t <= -2), so their checks take the slow path of
        # is_zero_combination: the whole report still builds one table, at
        # the width the context set up
        from grex.cli import full_report

        box = Box(k, n)
        ctx = _ctx(box)
        bits = ctx.bits
        assert full_report(box)["pass"]
        assert _ctx(box) is ctx
        assert any(t < -1 for _, t in ctx.chis)
        assert ctx.bits == bits and builds == [bits]

    @pytest.mark.parametrize(
        "k,n,chain,classes", [(3, 9, 27, 3), (4, 8, 32, 6), (4, 10, 100, 10), (6, 12, 450, 24)]
    )
    def test_residual_decodes_one_covector_per_class(self, monkeypatch, k, n, chain, classes):
        # the residual stage reads Gram rows packed from the table: it unpacks
        # no row, builds the table once at its first width, and decodes the
        # covector of each chain member once, then of each residual class
        # once for the residual Gram
        box = Box(k, n)
        builds, decoded = [], []
        build, covector = _Ctx.build_table, _Ctx.covector
        monkeypatch.setattr(_Ctx, "build_table", lambda self: builds.append(self.bits) or build(self))
        monkeypatch.setattr(
            _Ctx, "covector", lambda self, x: decoded.append(dict(x)) or covector(self, x)
        )
        _ctx.cache_clear()
        ctx = _ctx(box)
        bits = ctx.bits
        report = residual_report(box)
        assert ctx.bits == bits and builds == [bits]
        assert not any(t == 0 for _, t in ctx.chis)
        assert "gram" not in vars(ctx)
        assert len(report.residual_classes) == classes
        assert len(decoded) == chain + classes
        block = [obj.bundle.weight for obj in ctx.block]
        levels = chain // len(block)
        per_weight = [ctx.twisted_classes(w, levels) for w in block]
        assert decoded[:chain] == [c[j] for j in range(levels) for c in per_weight]
        assert [ctx.dense(x) for x in decoded[chain:]] == list(report.residual_classes)

    def test_gram_is_the_untwisted_rows(self):
        # one reader: Gram row i is the covector of e_i, and the pairing row
        # of its weight at t = 0, neither of them stored
        ctx = _ctx(Box(3, 6))
        g = kapranov_gram(ctx.box)
        for i, (row, w) in enumerate(zip(g, ctx.weights, strict=True)):
            assert row == ctx.row(w, 0) == tuple(ctx.covector({i: 1}))
        assert not ctx.chis

    @pytest.mark.parametrize("k,n", [(2, 5), (3, 6)])
    def test_gram_readers_keep_no_rows(self, k, n):
        # class_of and kapranov_gram read the Gram rows packed, through
        # covector: the context keeps no dense Gram, and its row store holds
        # the Jacobi-Trudi rows (t <= -2) alone
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
        # 32-class chain; every projector list is a subsequence of it
        box = Box(4, 8)
        checked, dense = record_checks(monkeypatch), []
        to_dense = _Ctx.dense
        monkeypatch.setattr(_Ctx, "dense", lambda self, x: dense.append(1) or to_dense(self, x))
        report = residual_report(box)
        assert checked == [32]
        # the returned classes are the only dense vectors built
        assert len(dense) == len(report.residual_classes) == 6
        fullness_determinant(box)
        assert len(dense) == 6

    @pytest.mark.parametrize("k,n", [(4, 8), (3, 9), (4, 10)])
    def test_projects_through_fenced_blocks(self, monkeypatch, k, n):
        # F_mu^i projects through the chain up to twist i, then through the
        # part of the primitive block inside mu at twist i: fenced_block's
        # "minus" side, which residual_report selects from its own block
        box = Box(k, n)
        lists = []
        project = _Ctx.project
        monkeypatch.setattr(
            _Ctx,
            "project",
            lambda self, ps, covs, x: lists.append(ps) or project(self, ps, covs, x),
        )
        report = residual_report(box)
        ctx, width, pos = ktheory._ctx(box), len(primitive_block(box)), 0
        assert report.short_diagrams
        for mu, o in report.short_diagrams:
            fenced = [obj.bundle.weight for obj in fenced_block(box, mu, "minus")]
            for i in range(o):
                at_i = [ctx.twisted_classes(w, i + 1)[i] for w in fenced]
                assert lists[pos + i][i * width:] == at_i
            pos += 2 * o  # o projections, then o polarized ones
        assert pos == len(lists)

    @pytest.mark.parametrize("flags", [(), ("-O",)])
    def test_non_semiorthogonal_chain_raises(self, flags):
        # the primitive block reversed puts chi(O, Sigma^lam U*) != 0 below the
        # diagonal; python -O strips assert statements, and the check is not one
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
        assert out.stdout.startswith("ValueError:") and "not semiorthogonal" in out.stdout

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
        # 2^300 times a staircase is far past cap: the call decodes its rows
        # in digit levels at the box's one width, and one unit off is still seen
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
        # exceed M and even 2^B: the call adds its row unpacked, and the
        # table rows beside it are decoded at the box's one width
        box = Box(2, 4)
        ctx = _ctx(box)
        bits = ctx.bits
        deep = ts((1, 0), -300, box)
        peak = max(ctx.row((1, 0), -300))
        assert peak > ctx.bound and peak >> ctx.bits
        # S^(2,1)U*(-301) is the same bundle as S^(1,0)U*(-300)
        same = ts((2, 1), -301, box)
        assert is_zero_combination(box, [(1, deep), (-1, same)])
        assert not is_zero_combination(box, [(1, deep)])
        assert not is_zero_combination(box, [(1, deep), (-1, ts((1, 0), -299, box))])
        assert not is_zero_combination(box, [(1, deep), (-1, same), (1, ts((1, 0), 0, box))])
        assert ctx.bits == bits and builds == [bits]

    def test_too_narrow_fields_would_alias(self, builds):
        # on P^1 the rows of O and O(1) are (1, 2) and (0, 1), packed high
        # field first as 2^B + 2 and 1, so these coefficients give the
        # fields (-1, 2^B): a nonzero class whose packed sum at the width B
        # is -(2^B + 2) + (2^B + 2) = 0, which the slow path still sees
        box = Box(1, 2)
        ctx = _ctx(box)
        b = ctx.bits
        combo = [(-1, ts((0,), 0, box)), ((1 << b) + 2, ts((1,), 0, box))]
        assert sum(c * ctx.packed(e.weight, e.twist) for c, e in combo) == 0
        assert not is_zero_combination(box, combo)
        assert ctx.bits == b and builds == [b]


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
        assert ktheory._vanish_batch(box, relations) == [False, True, True, True, False]
        assert ktheory._vanish_batch(box, []) == []
        assert builds == []
        assert [ktheory._vanishes(box, r) for r in relations] == [False, True, True, True, False]

    def test_bad_input_refused(self, builds):
        # a deep term, a term off the pairing rows and a relation past cap
        # are refused as ValueError, whatever their coefficients
        box = Box(2, 4)
        cap = _ctx(box).cap
        good = [(1, (1, 0), 0)]
        for bad in (
            [(0, (1, 0), -2)],
            [(1, (2, 1), -3)],
            [(0, (3, 0), 0)],
            [(cap, (1, 0), 0), (-1, (1, 0), 0)],
        ):
            with pytest.raises(ValueError):
                ktheory._vanish_batch(box, [good, bad])
        assert ktheory._vanish_batch(box, [[(cap, (1, 0), 0)]]) == [False]
        assert builds == []

    @pytest.mark.parametrize("k,n", [(1, 4), (2, 4), (2, 5)])
    def test_dual_classes_fail_at_one_read(self, builds, k, n):
        # the class x_i with x_i^T G = e_i, solved on the oracle's Gram
        # matrix, pairs to zero with every basis kappa but kappa_i: each is
        # seen at its one read, kappa_i + 1, whether or not kappa_i ends in 0,
        # and named alone among zero relations
        box = Box(k, n)
        ws = _ctx(box).weights
        g = [[jacobi_trudi_oracle(n, a, b) for b in ws] for a in ws]
        duals = []
        for i in range(len(ws)):
            x = []
            for j in range(len(ws)):
                x.append((j == i) - sum(x[m] * g[m][j] for m in range(j)))
            duals.append([(c, w, 0) for c, w in zip(x, ws) if c])
        zero = [(1, ws[0], 0), (-1, (1,) * k, -1)]  # O = Sigma^(1..1)U*(-1)
        batch = [r for d in duals for r in (zero, d)]
        assert ktheory._vanish_batch(box, batch) == [True, False] * len(ws)
        assert builds == []
