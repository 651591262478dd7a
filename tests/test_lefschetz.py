"""Collections: construction, support partitions, semiorthogonality."""

import random
from math import comb

import pytest

import grex.lefschetz
from grex.bott import TwistedSchur, euler_char, ext_table
from grex.diagrams import Box, BoxedDiagram, enumerate_diagrams
from grex.lefschetz import (
    Violation,
    fenced_block,
    fonarev,
    gram,
    kapranov,
    primitive_block,
)


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


def per_pair_gram(objects):
    """`gram(objects, "full_ext")` with one Ext computation per ordered pair."""
    bundles = [o.bundle for o in objects]
    entries = tuple(tuple(euler_char(e, f) for f in bundles) for e in bundles)
    violations = []
    for i, e in enumerate(bundles):
        for j in range(i):
            table = ext_table(e, bundles[j])
            violations += [Violation(i, j, d, table[d]) for d in sorted(table.dims)]
        table = ext_table(e, e)
        for d in sorted(set(table.dims) | {0}):
            if table[d] != (1 if d == 0 else 0):
                violations.append(Violation(i, i, d, table[d]))
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

    def test_one_ext_table_per_triple(self, monkeypatch):
        calls = []
        table = grex.lefschetz.ext_table
        monkeypatch.setattr(
            grex.lefschetz, "ext_table", lambda e, f: calls.append(1) or table(e, f)
        )
        objects = fonarev(Box(4, 8)).objects
        triples = {
            (e.bundle.weight, f.bundle.weight, f.bundle.twist - e.bundle.twist)
            for e in objects
            for f in objects
        }
        assert gram(objects, mode="full_ext").violations == ()
        assert len(triples) == 1300
        assert len(calls) == 1300  # not len(objects)**2 + C(len(objects) + 1, 2)

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
