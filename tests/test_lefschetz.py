"""Collections: construction, support partitions, semiorthogonality."""

import random
from functools import cache
from math import comb

import pytest

import grex.bott
import grex.lefschetz
from grex.bott import TwistedSchur, ext_table
from grex.diagrams import Box, BoxedDiagram, enumerate_diagrams
from grex.lefschetz import (
    GramResult,
    Violation,
    fenced_block,
    fonarev,
    gram,
    kapranov,
    primitive_block,
)
from oracles import bott_oracle, ext_table_oracle, uncut_gram


class TestKapranov:
    def test_p2_is_beilinson(self):
        coll = kapranov(Box(1, 3))
        assert [o.bundle.weight for o in coll.objects] == [(0,), (1,), (2,)]
        assert coll.support_partition == (3,)

    def test_g24_basis(self):
        coll = kapranov(Box(2, 4))
        assert [o.bundle.weight for o in coll.objects] == [
            (0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2),
        ]

    def test_g36_count(self):
        assert len(kapranov(Box(3, 6)).objects) == 20


class TestFonarev:
    def test_g36_partition_and_first_block(self):
        coll = fonarev(Box(3, 6))
        assert coll.support_partition == (4, 4, 3, 3, 3, 3)
        first = [o.bundle.weight for o in coll.blocks()[0]]
        assert first == [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)]

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_g2_even_partition(self, m):
        coll = fonarev(Box(2, 2 * m))
        assert coll.support_partition == (m,) * m + (m - 1,) * m
        # starting block: the symmetric powers S^0 U*, ..., S^(m-1) U*
        first = [o.bundle.weight for o in coll.blocks()[0]]
        assert first == [(i, 0) for i in range(m)]

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_g2_odd_partition_rectangular(self, m):
        coll = fonarev(Box(2, 2 * m + 1))
        assert coll.support_partition == (m,) * (2 * m + 1)

    def test_object_counts(self):
        for k in range(1, 5):
            for n in range(k + 1, 13):
                coll = fonarev(Box(k, n))
                assert len(coll.objects) == comb(n, k), (k, n)

    def test_block_index_below_orbit_length(self):
        from grex.diagrams import orbit_length

        coll = fonarev(Box(4, 8))
        for obj in coll.objects:
            assert obj.block_index == obj.bundle.twist
            assert obj.bundle.twist < orbit_length(Box(4, 8), obj.bundle.weight)

    @pytest.mark.parametrize("k,n", [(2, 6), (3, 6), (4, 8)])
    def test_partition_head_and_tail(self, k, n):
        box = Box(k, n)
        sigma = fonarev(box).support_partition
        assert sigma[0] == len(enumerate_diagrams(box, "minimal_upper"))
        assert sigma[-1] == len(primitive_block(box))
        assert len(sigma) == n

    def test_json_shape(self):
        data = fonarev(Box(2, 4)).to_json()
        assert data["box"] == {"k": 2, "n": 4}
        assert data["support_partition"] == [2, 2, 1, 1]
        assert data["blocks"][0] == [
            {"weight": [0, 0], "twist": 0},
            {"weight": [1, 0], "twist": 0},
        ]


class TestPrimitiveAndFenced:
    def test_g36_primitive(self):
        got = [o.bundle.weight for o in primitive_block(Box(3, 6))]
        assert got == [(0, 0, 0), (1, 0, 0), (1, 1, 0)]

    def test_g24_primitive(self):
        got = [o.bundle.weight for o in primitive_block(Box(2, 4))]
        assert got == [(0, 0)]

    def test_coprime_primitive_is_whole_block(self):
        box = Box(3, 7)
        assert len(primitive_block(box)) == len(enumerate_diagrams(box, "minimal_upper"))

    def test_fenced_g36(self):
        box = Box(3, 6)
        mu = BoxedDiagram((2, 1, 0), box)
        minus = [o.bundle.weight for o in fenced_block(box, mu, "minus")]
        assert minus == [(0, 0, 0), (1, 0, 0), (1, 1, 0)]
        assert fenced_block(box, mu, "plus") == ()

    def test_fenced_g48_brute(self):
        box = Box(4, 8)
        mu = BoxedDiagram((2, 2, 0, 0), box)
        minus = [o.bundle.weight for o in fenced_block(box, mu, "minus")]
        expected = [
            o.bundle.weight
            for o in primitive_block(box)
            if all(a <= b for a, b in zip(o.bundle.weight, (2, 2, 0, 0)))
        ]
        assert minus == expected

    def test_fenced_rejects_long_orbit(self):
        box = Box(3, 6)
        with pytest.raises(ValueError):
            fenced_block(box, BoxedDiagram((1, 0, 0), box), "minus")
        with pytest.raises(ValueError):
            fenced_block(box, BoxedDiagram((2, 1, 0), box), "sideways")

    def test_fenced_rejects_other_box(self):
        # (2,1,0) is short and minimal on G(3,6); its G(3,7) twin came back as ()
        with pytest.raises(ValueError):
            fenced_block(Box(3, 6), BoxedDiagram((2, 1, 0), Box(3, 7)), "plus")


class TestGram:
    def test_p2_euler_matrix(self):
        result = gram(kapranov(Box(1, 3)).objects, mode="euler")
        assert result.entries == ((1, 3, 6), (0, 1, 3), (0, 0, 1))

    def test_single_object(self):
        box = Box(2, 4)
        coll = kapranov(box)
        result = gram(coll.objects[:1], mode="full_ext")
        assert result.entries == ((1,),)
        assert result.violations == ()

    @pytest.mark.parametrize(
        "k,n",
        [(2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
         (3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (4, 8)],
    )
    def test_fonarev_and_kapranov_semiorthogonal(self, k, n):
        box = Box(k, n)
        for coll in (fonarev(box), kapranov(box)):
            result = gram(coll.objects, mode="full_ext")
            assert result.violations == ()

    def test_reversed_collection_has_violations(self):
        box = Box(2, 4)
        objs = tuple(reversed(kapranov(box).objects))
        result = gram(objs, mode="full_ext")
        assert result.violations

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            gram(kapranov(Box(1, 3)).objects, mode="fast")


_oracle = cache(ext_table_oracle)  # by its exact arguments; callers only read


def per_pair_gram(objects):
    """`gram(objects, "full_ext")` with one Ext computation per ordered pair,
    by `ext_table_oracle`: the monomial character and the dot action, with
    no LR expansion, no Weyl skip and no memo shared between pairs."""
    bundles = [o.bundle for o in objects]

    def ext(e, f):
        return _oracle(e.box, e.weight, e.twist, f.weight, f.twist)

    def euler(table):
        return sum(v if d % 2 == 0 else -v for d, v in table.items())

    entries = tuple(tuple(euler(ext(e, f)) for f in bundles) for e in bundles)
    violations = []
    for i, e in enumerate(bundles):
        for j in range(i):
            table = ext(e, bundles[j])
            violations += [Violation(i, j, d, table[d]) for d in sorted(table)]
        table = ext(e, e)
        for d in sorted(set(table) | {0}):
            if table.get(d, 0) != (1 if d == 0 else 0):
                violations.append(Violation(i, i, d, table.get(d, 0)))
    return entries, tuple(violations)


def _shuffled(objects, seed):
    out = list(objects)
    random.Random(seed).shuffle(out)
    return tuple(out)


class TestGramDedup:
    """One Ext table per (a, b, t-s) triple gives the per-pair answer."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "objects",
        [
            tuple(reversed(kapranov(Box(2, 4)).objects)),
            tuple(reversed(fonarev(Box(3, 6)).objects)),
            _shuffled(fonarev(Box(3, 6)).objects, 7),
        ],
        ids=["kapranov24_reversed", "fonarev36_reversed", "fonarev36_shuffled"],
    )
    def test_matches_per_pair_route(self, objects, jobs):
        entries, violations = per_pair_gram(objects)
        assert violations  # the inputs are not semiorthogonal
        result = gram(objects, mode="full_ext", jobs=jobs)
        assert result.entries == entries
        assert result.violations == violations
        assert gram(objects, mode="euler", jobs=jobs).entries == entries
        lower = gram(objects, mode="full_ext", jobs=jobs, violations_only=True)
        assert lower == GramResult(entries=(), violations=violations)

    def test_planted_lower_pair(self):
        # swapping O and U* in Fonarev's G(3,6) makes exactly one lower pair,
        # Ext^*(O, U*) = H^0(U*) = k^6, non-acyclic
        objects = list(fonarev(Box(3, 6)).objects)
        assert [o.bundle.weight for o in objects[:2]] == [(0, 0, 0), (1, 0, 0)]
        objects[:2] = objects[1::-1]
        violations = per_pair_gram(objects)[1]
        assert violations == (Violation(1, 0, 0, 6),)
        assert gram(objects, mode="full_ext").violations == violations
        assert gram(objects, mode="full_ext", violations_only=True).violations == violations

    def test_planted_off_diagonal_pair_at_a_twist(self):
        # swapping the first two twist blocks of Fonarev's G(3,6) puts
        # Sigma^a U* after Sigma^b U*(1); among the non-acyclic lower pairs
        # are some with a != b, which the Weyl bounds must keep
        coll = fonarev(Box(3, 6))
        first, second, *rest = coll.blocks()
        objects = second + first + [o for block in rest for o in block]
        entries, violations = per_pair_gram(objects)
        assert any(
            objects[v.i].bundle.weight != objects[v.j].bundle.weight
            and objects[v.i].bundle.twist != objects[v.j].bundle.twist
            for v in violations
        )
        result = gram(objects, mode="full_ext")
        assert result.entries == entries
        assert result.violations == violations
        assert gram(objects, mode="full_ext", violations_only=True).violations == violations

    def test_violations_only_needs_full_ext(self):
        with pytest.raises(ValueError):
            gram(kapranov(Box(1, 3)).objects, mode="euler", violations_only=True)

    def test_one_lr_product_per_pair_and_one_bott_per_weight(self, monkeypatch):
        from grex.bott import _row_spans
        from grex.schur import dualize, lr_bounds, lr_product, twist

        pairs, weights = [], []
        lr, bott = grex.bott.lr_product, grex.bott.bott
        monkeypatch.setattr(
            grex.bott, "lr_product", lambda a, b, caps=None: pairs.append((a, b)) or lr(a, b, caps)
        )
        monkeypatch.setattr(
            grex.bott, "bott", lambda box, nu: weights.append(nu) or bott(box, nu)
        )
        box = Box(4, 8)
        objects = fonarev(box).objects

        def triples(stop):
            return {
                (e.bundle.weight, f.bundle.weight, f.bundle.twist - e.bundle.twist)
                for i, e in enumerate(objects)
                for f in objects[: stop(i)]
            }

        def memoized(read):
            # the twisted weights nu + t of the expanded pairs at the twists
            # the Weyl bounds keep, each once
            twists = {}
            for a, b, t in read:
                twists.setdefault((a, b), set()).add(t)
            out = set()
            for (a, b), ts in twists.items():
                bounds = lr_bounds(dualize(a), b)
                spans = _row_spans(box, *bounds, min(ts), max(ts))
                kept = ts & {d for first, last in spans for d in range(first, last + 1)}
                out |= {twist(nu, t) for t in kept for nu in lr_product(dualize(a), b)}
            return out

        # violations only: of the lower triangle and the diagonal, only the
        # diagonal pairs (a, a) keep a twist that the Weyl bounds cannot rule
        # out, and the size |nu| = 0 leaves them one live region, t = 0 with
        # every row at or above n-k, where nu = 0: bott runs once, on 0
        lower = triples(lambda i: i + 1)
        assert gram(objects, mode="full_ext", violations_only=True).violations == ()
        diagonal = {(dualize(a), a) for a, _, _ in lower}
        assert sorted(pairs) == sorted(diagonal)
        assert weights == [(0, 0, 0, 0)]

        # the full table: one expansion per weight pair with a non-acyclic
        # term at a twist read, and bott once on each twisted weight of it
        # at a kept twist; the regions cut no term of the full table here
        pairs.clear()
        weights.clear()
        full = triples(lambda i: None)
        assert gram(objects, mode="full_ext").violations == ()
        assert len(full) == 1300
        cohomological = {
            (a, b, t): [nu for nu in lr_product(dualize(a), b)
                        if bott_oracle(box, twist(nu, t)) is not None]
            for a, b, t in full
        }
        expanded = {(dualize(a), b) for (a, b, _), nus in cohomological.items() if nus}
        assert sorted(pairs) == sorted(expanded)
        assert sorted(weights) == sorted(memoized(full))
        assert len(weights) == 318

    @pytest.mark.parametrize("k,n", [(4, 10), (5, 9), (7, 10)])
    def test_violations_only_expands_exactly_the_cohomological_pairs(self, monkeypatch, k, n):
        # the row spans of the Weyl bounds lose nothing here: a weight pair is
        # expanded exactly when some term of a* (x) b is non-acyclic at one of
        # the twists read, by the dot action
        from grex.schur import dualize, lr_product, twist

        pairs = []
        lr = grex.bott.lr_product
        monkeypatch.setattr(
            grex.bott, "lr_product", lambda a, b, caps=None: pairs.append((a, b)) or lr(a, b, caps)
        )
        box = Box(k, n)
        objects = fonarev(box).objects
        assert gram(objects, mode="full_ext", violations_only=True).violations == ()
        read: dict[tuple, set[int]] = {}
        for i, e in enumerate(objects):
            for f in objects[: i + 1]:
                key = (e.bundle.weight, f.bundle.weight)
                read.setdefault(key, set()).add(f.bundle.twist - e.bundle.twist)
        expanded = {
            (dualize(a), b)
            for (a, b), ts in read.items()
            if any(
                bott_oracle(box, twist(nu, t)) is not None
                for nu in lr_product(dualize(a), b)
                for t in ts
            )
        }
        assert expanded
        assert sorted(pairs) == sorted(expanded)

    def test_jobs_starts_no_pool(self, monkeypatch):
        import multiprocessing

        def no_pool(*args, **kwargs):
            raise AssertionError("gram started a process pool")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        objects = fonarev(Box(3, 6)).objects
        assert gram(objects, "full_ext", jobs=2) == gram(objects, "full_ext", jobs=1)

    def test_mixed_boxes_rejected(self):
        objs = kapranov(Box(2, 4)).objects[:1] + kapranov(Box(2, 5)).objects[:1]
        with pytest.raises(ValueError):
            gram(objs, mode="euler")


def _collections(k, n):
    objects = fonarev(Box(k, n)).objects
    return {
        "fonarev": objects,
        "reversed": tuple(reversed(objects)),
        "shuffled": _shuffled(objects, k * 100 + n),
    }


def assert_gram_matches_uncut(objects):
    """`gram` against the uncut LR + Bott route in all three modes."""
    full = uncut_gram(objects, "full_ext")
    assert gram(objects, mode="full_ext") == full
    assert gram(objects, mode="euler") == GramResult(entries=full.entries, violations=())
    lower = gram(objects, mode="full_ext", violations_only=True)
    assert lower == GramResult(entries=(), violations=full.violations)
    return full


class TestGramAgainstUncutRoute:
    """The offset ranges, the row spans and the region cut lose nothing."""

    @pytest.mark.parametrize("order", ["fonarev", "reversed", "shuffled"])
    @pytest.mark.parametrize("k,n", [(3, 9), (4, 8), (4, 10), (5, 9), (7, 10)])
    def test_collections(self, k, n, order):
        full = assert_gram_matches_uncut(_collections(k, n)[order])
        assert bool(full.violations) == (order != "fonarev")

    def test_planted_off_diagonal_pair(self):
        # swapping the first two twist blocks of Fonarev's G(4,8) puts
        # Sigma^a U* after Sigma^b U*(1); some non-acyclic lower pairs have
        # a != b, so their Ext lives off the diagonal of the weight pairs
        first, second, *rest = fonarev(Box(4, 8)).blocks()
        objects = second + first + [o for block in rest for o in block]
        full = assert_gram_matches_uncut(objects)
        assert any(
            objects[v.i].bundle.weight != objects[v.j].bundle.weight for v in full.violations
        )


class TestGramCounters:
    @pytest.mark.parametrize(
        "k,n,pairs,bounded",
        [
            pytest.param(4, 8, 10, 10, id="4-8-10"),
            pytest.param(4, 11, 30, 42, id="4-11-30"),
            pytest.param(5, 9, 14, 28, id="5-9-14"),
            pytest.param(7, 10, 12, 20, id="7-10-12"),
            pytest.param(4, 10, 22, 24, id="4-10-22"),
        ],
    )
    def test_fonarev_violations_only(self, k, n, pairs, bounded):
        # every weight pair is read, the single-term test leaves `bounded`
        # of them for the Weyl bounds, only the diagonal ones have a live
        # span, and each of their expansions yields its one term nu = 0,
        # which bott then evaluates once at t = 0
        result = gram(fonarev(Box(k, n)).objects, mode="full_ext", violations_only=True)
        assert result.violations == ()
        counts = (result.pairs_read, result.pairs_bounded, result.pairs_live)
        assert counts == (pairs * pairs, bounded, pairs)
        assert result.lr_expansions == result.lr_terms == pairs
        assert result.bott_evaluations == 1

    @pytest.mark.parametrize("k,n,exact", [(4, 8, 50), (4, 11, 332)])
    def test_exact_ranges_only_past_the_row_weight_range(self, monkeypatch, k, n, exact):
        # the single-term test on each row weight's range rejects the other
        # pairs before any offset of theirs is computed
        calls = []
        offset_range = grex.lefschetz._lower_offset_range
        monkeypatch.setattr(
            grex.lefschetz,
            "_lower_offset_range",
            lambda rows, cols: calls.append(1) or offset_range(rows, cols),
        )
        result = gram(fonarev(Box(k, n)).objects, mode="full_ext", violations_only=True)
        assert len(calls) == exact
        assert result.pairs_bounded < exact < result.pairs_read

    def test_full_table(self):
        # the full G(4,8) table reads every pair at positive offsets too,
        # where the off-diagonal pairs have Hom, so every pair reaches the
        # bounds and is live; the cut keeps all 395 terms
        result = gram(fonarev(Box(4, 8)).objects, mode="full_ext")
        counts = (result.pairs_read, result.pairs_bounded, result.pairs_live)
        assert counts == (100, 100, 100)
        assert (result.lr_expansions, result.lr_terms) == (100, 395)
        assert result.bott_evaluations == 318

    def test_counts_take_no_part_in_equality(self):
        objects = fonarev(Box(3, 6)).objects
        result = gram(objects, mode="full_ext")
        assert result.pairs_read
        assert result == GramResult(entries=result.entries, violations=result.violations)
        assert gram((), mode="full_ext") == GramResult(entries=(), violations=())


class TestPrimitiveTranslates:
    @pytest.mark.parametrize("k,n", [(2, 4), (2, 6), (3, 6)])
    def test_twists_of_primitive_block_semiorthogonal(self, k, n):
        box = Box(k, n)
        block = primitive_block(box)
        for i in range(n):
            for j in range(i + 1, n):
                for a in block:
                    for b in block:
                        table = ext_table(
                            TwistedSchur(a.bundle.weight, j, box),
                            TwistedSchur(b.bundle.weight, i, box),
                        )
                        assert table.is_zero(), (a, b, i, j)
