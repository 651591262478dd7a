"""Dot-action cohomology: convention anchors, Ext tables, Serre duality."""

import random
import types
from math import gcd

import pytest

from grex.bott import TwistedSchur, bott, euler_char, ext_table
from grex.diagrams import Box, enumerate_diagrams, orbit_length
from oracles import bott_oracle, dimension_oracle, ext_table_oracle


def ts(w, t, box):
    return TwistedSchur(tuple(w), t, box)


def random_bundle(rng, box, tlo=-6, thi=6):
    w = tuple(
        sorted((rng.randint(0, box.width) for _ in range(box.k)), reverse=True)
    )
    return ts(w, rng.randint(tlo, thi), box)


class TestConventionAnchors:
    """These pin the rho convention; a flipped twist or degree breaks them."""

    def test_p1_minus_one_acyclic(self):
        out = bott(Box(1, 2), (-1,))
        assert out.acyclic

    def test_p1_minus_two(self):
        out = bott(Box(1, 2), (-2,))
        assert (out.degree, out.dim) == (1, 1)

    def test_structure_sheaf(self):
        out = bott(Box(3, 6), (0, 0, 0))
        assert (out.degree, out.dim) == (0, 1)

    @pytest.mark.parametrize("k,n", [(2, 4), (3, 6)])
    def test_sections_of_dual_tautological(self, k, n):
        box = Box(k, n)
        out = bott(box, (1,) + (0,) * (k - 1))
        assert (out.degree, out.dim) == (0, n)

    def test_outcome_dimension_consistency(self):
        # the oracle counts tableaux, so the weights stay small
        rng = random.Random(2)
        box = Box(3, 7)
        for _ in range(40):
            nu = tuple(sorted((rng.randint(-5, 5) for _ in range(3)), reverse=True))
            out = bott(box, nu)
            want = bott_oracle(box, nu)
            if want is None:
                assert out.acyclic, nu
            else:
                degree, weight = want
                got = (out.degree, out.gln_weight, out.dim)
                assert got == (degree, weight, dimension_oracle(weight, box.n)), nu


class TestExtTable:
    def test_exceptional_bundle(self):
        box = Box(2, 4)
        e = ts((1, 0), 0, box)
        assert ext_table(e, e).dims == {0: 1}

    def test_ext_two_anchor(self):
        # Ext^{k(n-k)/d}(S^(1,0)U*, S^(1,0)U*(-n/d)) is one-dimensional on G(2,4)
        box = Box(2, 4)
        table = ext_table(ts((1, 0), 0, box), ts((1, 0), -2, box))
        assert table.dims == {2: 1}

    def test_g36_against_character_oracle(self):
        box = Box(3, 6)
        got = ext_table(ts((2, 1, 0), 0, box), ts((1, 1, 0), 1, box))
        want = ext_table_oracle(box, (2, 1, 0), 0, (1, 1, 0), 1)
        assert got.dims == want

    @pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 6)])
    def test_random_against_character_oracle(self, k, n):
        box = Box(k, n)
        rng = random.Random(100 * k + n)
        for _ in range(6):
            e = random_bundle(rng, box, -3, 3)
            f = random_bundle(rng, box, -3, 3)
            got = ext_table(e, f)
            want = ext_table_oracle(box, e.weight, e.twist, f.weight, f.twist)
            assert got.dims == want, (e, f)

    def test_mismatched_boxes(self):
        with pytest.raises(ValueError):
            ext_table(ts((0, 0), 0, Box(2, 4)), ts((0, 0), 0, Box(2, 5)))


class TestEulerChar:
    def test_line_bundle_sections(self):
        box = Box(2, 4)
        assert euler_char(ts((0, 0), 0, box), ts((0, 0), 1, box)) == 6

    def test_self_euler_of_exceptional(self):
        for k, n in [(2, 4), (3, 6), (2, 5)]:
            box = Box(k, n)
            for d in enumerate_diagrams(box, "all")[:6]:
                e = ts(d.parts, 0, box)
                assert euler_char(e, e) == 1

    def test_twisted_down_on_p2(self):
        box = Box(1, 3)
        assert euler_char(ts((1,), 0, box), ts((0,), 0, box)) == 0

    def test_matches_ext_alternating_sum(self):
        rng = random.Random(77)
        for k, n in [(2, 5), (3, 6), (2, 7)]:
            box = Box(k, n)
            for _ in range(10):
                e = random_bundle(rng, box, -3, 3)
                f = random_bundle(rng, box, -3, 3)
                table = ext_table_oracle(box, e.weight, e.twist, f.weight, f.twist)
                want = sum(v if d % 2 == 0 else -v for d, v in table.items())
                assert euler_char(e, f) == want, (e, f)


class TestBWBConcentration:
    def test_single_degree_per_term(self):
        # ext tables never hide cancellation in the euler characteristic:
        # the total dimension is the sum of absolute term contributions
        rng = random.Random(13)
        box = Box(3, 6)
        for _ in range(12):
            e = random_bundle(rng, box, -6, 6)
            f = random_bundle(rng, box, -6, 6)
            table = ext_table(e, f)
            assert all(v > 0 for v in table.dims.values())


class TestSerreDuality:
    @pytest.mark.parametrize("k,n", [(2, 5), (3, 6)])
    def test_random_pairs(self, k, n):
        box = Box(k, n)
        dim = box.dimension
        rng = random.Random(k * 31 + n)
        for _ in range(12):
            e = random_bundle(rng, box)
            f = random_bundle(rng, box)
            lhs = ext_table(e, f)
            rhs = ext_table(f, ts(e.weight, e.twist - n, box))
            for i in range(dim + 1):
                assert lhs[i] == rhs[dim - i]


class TestKodairaInstances:
    @pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 6)])
    def test_twisted_structure_sheaves(self, k, n):
        box = Box(k, n)
        o = ts((0,) * k, 0, box)
        for t in range(1, n):
            assert ext_table(ts((0,) * k, t, box), o).is_zero()
            positive = ext_table(o, ts((0,) * k, t, box))
            assert set(positive.dims) == {0}


class TestShortDiagramHomVanishing:
    def test_instances(self):
        # For short minimal diagrams mu, nu with o = n/d, n/e and twists in
        # the assumed window, Ext^*(S^mu U*(i), S^nu U*(j - n/e)) vanishes
        # unless mu = nu and i = j, where it is one-dimensional in degree
        # k(n-k)/e.
        for k, n in [(2, 4), (2, 6), (2, 8), (3, 6), (3, 9)]:
            if gcd(k, n) == 1:
                continue
            box = Box(k, n)
            shorts = [
                (d, orbit_length(box, d.parts))
                for d in enumerate_diagrams(box, "short_minimal_upper")
            ]
            for mu, omu in shorts:
                for nu, onu in shorts:
                    e = n // onu
                    for i in range(omu):
                        for j in range(onu):
                            if i > j:
                                continue
                            table = ext_table(
                                TwistedSchur(mu.parts, i, box),
                                TwistedSchur(nu.parts, j - n // e, box),
                            )
                            if mu == nu and i == j:
                                assert table.dims == {k * (n - k) // e: 1}
                            else:
                                assert table.is_zero(), (mu, nu, i, j)


class TestSerialization:
    def test_ext_table_json(self):
        box = Box(2, 4)
        table = ext_table(ts((1, 0), 0, box), ts((1, 0), -2, box))
        assert table.to_json() == {"2": 1}

    def test_twisted_schur_reduced(self):
        box = Box(3, 6)
        r = ts((3, 2, 1), 0, box).reduced()
        assert r.weight == (2, 1, 0) and r.twist == 1


class TestPackageNamespace:
    def test_grex_bott_is_the_module(self):
        import grex

        assert isinstance(grex.bott, types.ModuleType)
        assert grex.bott.bott is bott
