"""Box diagram combinatorics: enumeration, cyclic orbits, ranks."""

import random
from math import comb, gcd

import pytest

import grex.diagrams as diagrams_mod
from grex.bott import TwistedSchur
from grex.cli import full_report
from grex.diagrams import (
    Box,
    BoxedDiagram,
    cyclic_step,
    enumerate_diagrams,
    is_minimal_upper_triangular,
    is_strictly_upper_triangular,
    is_upper_triangular,
    non_minimal_upper,
    orbit_length,
    orbit_of,
    orbits,
    residual_rank,
    theta,
)
from grex.ktheory import _ctx, _Ctx
from grex.lefschetz import CollectionObject, LefschetzCollection, fonarev, primitive_block
from oracles import ascending_parts_oracle, word_period

B36 = Box(3, 6)


def d(parts, box=B36):
    return BoxedDiagram(tuple(parts), box)


class TestY36:
    def test_upper_set(self):
        got = [x.parts for x in enumerate_diagrams(B36, "upper")]
        assert got == [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0)]

    def test_strictly_upper_set(self):
        got = [x.parts for x in enumerate_diagrams(B36, "strictly_upper")]
        assert got == [(0, 0, 0), (1, 0, 0)]

    def test_minimal_set_excludes_two_rows(self):
        got = [x.parts for x in enumerate_diagrams(B36, "minimal_upper")]
        assert got == [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)]

    def test_orbit_structure(self):
        lengths = sorted(
            orbit_of(x).length for x in enumerate_diagrams(B36, "minimal_upper")
        )
        assert lengths == [2, 6, 6, 6]


class TestCyclicStep:
    def test_adds_column(self):
        assert cyclic_step(d((1, 0, 0))).parts == (2, 1, 1)

    def test_full_first_row_shifts(self):
        assert cyclic_step(d((3, 2, 2))).parts == (2, 2, 0)

    def test_empty_goes_to_column(self):
        assert cyclic_step(d((0, 0, 0))).parts == (1, 1, 1)

    @pytest.mark.parametrize("k,n", [(2, 5), (3, 6), (4, 9)])
    def test_n_fold_iteration_is_identity(self, k, n):
        box = Box(k, n)
        rng = random.Random(k * 100 + n)
        pool = enumerate_diagrams(box, "all")
        for x in rng.sample(pool, min(10, len(pool))):
            cur = x
            for _ in range(n):
                cur = cyclic_step(cur)
            assert cur == x


class TestOrbits:
    def test_short_orbit_members(self):
        orb = orbit_of(d((2, 1, 0)))
        assert orb.length == 2
        assert [m.parts for m in orb.members] == [(2, 1, 0), (3, 2, 1)]
        assert orb.representative.parts == (2, 1, 0)

    def test_representative_of_full_orbit(self):
        orb = orbit_of(d((2, 0, 0)))
        assert orb.length == 6
        assert orb.representative.parts == (1, 1, 0)

    def test_coprime_orbits_are_free(self):
        box = Box(3, 7)
        for x in enumerate_diagrams(box, "all"):
            assert orbit_of(x).length == 7

    def test_members_chain_by_cyclic_step(self):
        orb = orbit_of(d((1, 0, 0)))
        for i, m in enumerate(orb.members):
            assert cyclic_step(m) == orb.members[(i + 1) % orb.length]

    def test_context_orbits_match_the_stateless_walk(self):
        # the context's orbits hold its own diagrams, and equal the orbits
        # that the public walk builds afresh, field by field and in order
        for n in range(1, 13):
            for k in range(1, n + 1):
                box = Box(k, n)
                ctx, fresh = _Ctx(box), orbits(box)
                assert [o.representative for o in ctx.orbits] == [o.representative for o in fresh]
                assert [o.members for o in ctx.orbits] == [o.members for o in fresh]
                assert [o.length for o in ctx.orbits] == [o.length for o in fresh]
                own = ctx.diagrams
                for orb in ctx.orbits:
                    assert all(m is own[ctx.index[m.parts]] for m in orb.members), (k, n)
                    assert any(orb.representative is m for m in orb.members)


class TestEnumeration:
    def test_ascending_parts_against_recursive_oracle(self):
        # the iterative build gives the recursive generators' vectors, in
        # their order, also for no rows and for the empty box
        for k in range(8):
            for width in range(10):
                got = diagrams_mod._ascending_parts(k, width)
                assert got == list(ascending_parts_oracle(k, width)), (k, width)
                assert len(got) == comb(k + width, k)

    def test_single_row_box(self):
        got = [x.parts for x in enumerate_diagrams(Box(1, 4), "all")]
        assert got == [(0,), (1,), (2,), (3,)]

    def test_short_minimal_upper_g48(self):
        got = [x.parts for x in enumerate_diagrams(Box(4, 8), "short_minimal_upper")]
        assert got == [(2, 2, 0, 0), (3, 2, 1, 0)]

    def test_counts_match_binomials(self):
        for n in range(2, 14):
            for k in range(1, n):
                assert len(enumerate_diagrams(Box(k, n), "all")) == comb(n, k)

    def test_bad_selection_rejected(self):
        with pytest.raises(ValueError):
            enumerate_diagrams(B36, "everything")


class TestOrbitInvariants:
    @pytest.mark.parametrize("k,n", [(2, 4), (2, 6), (3, 6), (3, 9), (4, 8), (4, 10)])
    def test_orbit_lengths_partition_the_box(self, k, n):
        box = Box(k, n)
        seen = set()
        total = 0
        minimal_count = 0
        for x in enumerate_diagrams(box, "all"):
            if x.parts in seen:
                continue
            orb = orbit_of(x)
            seen.update(m.parts for m in orb.members)
            total += orb.length
            assert n % orb.length == 0
            assert (n // orb.length) in [e for e in range(1, gcd(k, n) + 1) if gcd(k, n) % e == 0]
            uppers = [m for m in orb.members if is_upper_triangular(m)]
            assert uppers, "every orbit has an upper triangular member"
            minimal = [m for m in orb.members if is_minimal_upper_triangular(m)]
            assert len(minimal) == 1
            minimal_count += 1
            if gcd(k, n) == 1:
                assert len(uppers) == 1
        assert total == comb(n, k)
        assert minimal_count == len(enumerate_diagrams(box, "minimal_upper"))

    @pytest.mark.parametrize("k,n", [(2, 4), (3, 6), (3, 9), (4, 8)])
    def test_strictly_upper_implies_minimal(self, k, n):
        box = Box(k, n)
        for x in enumerate_diagrams(box, "strictly_upper"):
            assert is_minimal_upper_triangular(x)

    @pytest.mark.parametrize("k,n", [(2, 4), (2, 6), (3, 6), (4, 8), (4, 12)])
    def test_short_orbit_sizes_sum_to_rank(self, k, n):
        box = Box(k, n)
        total = sum(
            orbit_of(x).length
            for x in enumerate_diagrams(box, "short_minimal_upper")
        )
        assert total == residual_rank(box)


class TestOneStepRule:
    def test_against_boundary_words(self):
        # orbit_length against the least period of the boundary word, and
        # orbits(box) as a partition of the box into cyclic_step chains
        for n in range(2, 11):
            for k in range(1, n):
                box = Box(k, n)
                diagrams = enumerate_diagrams(box, "all")
                for x in diagrams:
                    assert orbit_length(box, x.parts) == word_period(box, x.parts), x
                orbs = orbits(box)
                assert sorted(m.parts for o in orbs for m in o.members) == [
                    x.parts for x in diagrams
                ]
                for o in orbs:
                    assert o.length == len(o.members)
                    chain = o.members + o.members[:1]
                    assert all(cyclic_step(a) == b for a, b in zip(chain, chain[1:])), o
                assert [o.representative for o in orbs] == sorted(
                    (o.representative for o in orbs), key=lambda x: x.parts
                )
                _check_per_diagram_route(box, diagrams)

    def test_one_walk_per_orbit(self, monkeypatch):
        walks = []
        inner = diagrams_mod._orbit_parts

        def counted(parts, width):
            walks.append(parts)
            return inner(parts, width)

        monkeypatch.setattr(diagrams_mod, "_orbit_parts", counted)
        box = Box(6, 12)
        enumerate_diagrams(box, "minimal_upper")
        assert len(walks) == 80
        walks.clear()
        assert len(orbits(box)) == len(walks) == 80
        walks.clear()
        _ctx.cache_clear()
        full_report(Box(4, 8))
        # one orbit pass, kept on the per-box context: 10 walks for the 10
        # orbits of G(4,8), and no other.  The theta staircase tests its
        # middle terms against the orbit representatives, and the ledgers
        # read o(mu) from the orbits.  298 when every selection walked per
        # diagram, 150 when residual_report called fenced_block once per
        # short diagram, 126 when each stage called orbits(box) (10 passes)
        # itself, 16 when the theta terms and ledgers walked their own orbits.
        assert len(walks) == 10


def _check_per_diagram_route(box, diagrams):
    """The selections read from orbits(box) equal their per-diagram
    definitions, which walk one orbit for each diagram tested."""
    n = box.n
    minimal = [x for x in diagrams if is_minimal_upper_triangular(x)]
    lengths = [orbit_length(box, x.parts) for x in minimal]
    assert enumerate_diagrams(box, "minimal_upper") == minimal
    assert enumerate_diagrams(box, "short_minimal_upper") == [
        x for x, o in zip(minimal, lengths) if o < n
    ]
    assert non_minimal_upper(box) == [
        x for x in enumerate_diagrams(box, "upper") if not is_minimal_upper_triangular(x)
    ]
    objs, support = [], []
    for i in range(n):
        block = [
            CollectionObject(TwistedSchur(x.parts, i, box), i)
            for x, o in zip(minimal, lengths)
            if i < o
        ]
        if block:
            support.append(len(block))
            objs.extend(block)
    assert fonarev(box) == LefschetzCollection(tuple(objs), tuple(support), box)
    assert primitive_block(box) == tuple(
        CollectionObject(TwistedSchur(x.parts, 0, box), 0)
        for x, o in zip(minimal, lengths)
        if o == n
    )


class TestResidualRank:
    def test_spot_values(self):
        assert residual_rank(Box(3, 6)) == 2
        assert residual_rank(Box(3, 7)) == 0
        assert residual_rank(Box(4, 8)) == 6
        box = Box(6, 12)
        assert residual_rank(box) == 24
        assert sum(o.length for o in orbits(box) if o.length < box.n) == 24

    def test_methods_agree_small(self):
        # the Moebius formula against the lengths of the short orbits
        for n in range(2, 12):
            for k in range(1, n):
                box = Box(k, n)
                assert residual_rank(box) == sum(o.length for o in orbits(box) if o.length < n)

    def test_coprime_vanishes(self):
        for k, n in [(2, 5), (3, 8), (4, 9), (5, 12)]:
            assert residual_rank(Box(k, n)) == 0


class TestTheta:
    def test_values(self):
        assert theta(3, 2).parts == (2, 1, 0)
        assert theta(4, 2).parts == (3, 2, 1, 0)
        assert theta(2, 1).parts == (0, 0)
        assert theta(2, 1).box == Box(2, 2)

    @pytest.mark.parametrize("k,m", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_orbit_length_is_m_and_minimal(self, k, m):
        t = theta(k, m)
        assert orbit_of(t).length == m
        assert is_minimal_upper_triangular(t)


class TestNonMinimalUpper:
    def test_g36(self):
        assert [x.parts for x in non_minimal_upper(B36)] == [(2, 0, 0)]

    def test_g39(self):
        got = [x.parts for x in non_minimal_upper(Box(3, 9))]
        assert got == [(4, 0, 0), (4, 1, 0)]

    def test_g24_empty(self):
        assert non_minimal_upper(Box(2, 4)) == []

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_g3_3m_pattern(self, m):
        got = [x.parts for x in non_minimal_upper(Box(3, 3 * m))]
        assert got == [(2 * (m - 1), i, 0) for i in range(m - 1)]


class TestValidationAndJson:
    def test_bad_box(self):
        with pytest.raises(ValueError):
            Box(0, 3)
        with pytest.raises(ValueError):
            Box(4, 3)

    def test_bad_diagram(self):
        # one in-box test, each of its four conditions with its message
        for parts in [(1, 2, 0), (2, 1, -1), (4, 0, 0)]:
            with pytest.raises(ValueError, match=r"^not a diagram in the 3x3 box: "):
                BoxedDiagram(parts, B36)
        for parts in [(1, 0), (), (3, 2, 1, 0)]:
            with pytest.raises(ValueError, match=r"^diagram must have exactly 3 parts, got "):
                BoxedDiagram(parts, B36)
        assert BoxedDiagram((3, 3, 0), B36).parts == (3, 3, 0)

    def test_json(self):
        assert d((2, 1, 0)).to_json() == [2, 1, 0]
        assert B36.to_json() == {"k": 3, "n": 6}
        assert Box.from_json({"k": 3, "n": 6}) == B36

    def test_contains(self):
        assert d((2, 1, 0)).contains(d((1, 1, 0)))
        assert not d((1, 1, 0)).contains(d((2, 0, 0)))
