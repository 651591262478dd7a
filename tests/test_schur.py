"""Weight arithmetic: LR products against the polynomial oracle, dimensions."""

import random

import pytest

from grex.schur import dimension, dualize, lr_product, twist
from oracles import dimension_oracle, lr_product_oracle


def random_weight(rng, k, lo=-3, hi=4):
    return tuple(sorted((rng.randint(lo, hi) for _ in range(k)), reverse=True))


class TestTwistDualize:
    def test_twist(self):
        assert twist((2, 1, 0), 1) == (3, 2, 1)
        assert twist((1, 0), -2) == (-1, -2)
        assert twist((2, 1, 0), 0) == (2, 1, 0)

    def test_dualize(self):
        assert dualize((1, 0)) == (0, -1)
        assert dualize((2, 2)) == (-2, -2)
        assert dualize(dualize((3, 1, 0))) == (3, 1, 0)


class TestLRProduct:
    def test_pieri_rank_two(self):
        assert lr_product((1, 0), (1, 0)) == {(2, 0): 1, (1, 1): 1}

    def test_rank_three_example(self):
        got = lr_product((2, 1, 0), (1, 0, 0))
        assert got == lr_product_oracle((2, 1, 0), (1, 0, 0))
        assert got == {(3, 1, 0): 1, (2, 2, 0): 1, (2, 1, 1): 1}

    def test_determinant_factor(self):
        assert lr_product((1, 1), (2, 0)) == {(3, 1): 1}

    def test_negative_entries(self):
        got = lr_product((0, -1), (1, 0))
        assert got == lr_product_oracle((0, -1), (1, 0))

    def test_cache_holds_finished_expansions(self, monkeypatch):
        import grex.schur

        monkeypatch.setattr(grex.schur, "_LR_CACHE", {})
        calls = []
        core = grex.schur._lr_core
        monkeypatch.setattr(
            grex.schur, "_lr_core", lambda *args: calls.append(args) or core(*args)
        )
        pair = ((0, -1), (1, 0))
        first = lr_product(*pair)
        assert len(calls) == 1
        second = lr_product(*pair)
        assert len(calls) == 1  # the shifted-back answer is cached, not the core
        assert second == first == lr_product_oracle(*pair)
        second[(9, 9)] = 1
        first.clear()
        assert lr_product(*pair) == lr_product_oracle(*pair)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            lr_product((1, 0), (1, 0, 0))

    def test_not_a_weight(self):
        with pytest.raises(ValueError):
            lr_product((0, 1), (1, 0))

    @pytest.mark.parametrize("k", [2, 3])
    def test_against_polynomial_oracle(self, k):
        rng = random.Random(17 + k)
        for _ in range(12):
            a = random_weight(rng, k, 0, 4)
            b = random_weight(rng, k, -2, 3)
            assert lr_product(a, b) == lr_product_oracle(a, b), (a, b)

    def test_commutative(self):
        rng = random.Random(5)
        for _ in range(20):
            a = random_weight(rng, 3)
            b = random_weight(rng, 3)
            assert lr_product(a, b) == lr_product(b, a)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_associative(self, k):
        rng = random.Random(23 + k)
        for _ in range(6):
            a = random_weight(rng, k, 0, 3)
            b = random_weight(rng, k, 0, 3)
            c = random_weight(rng, k, 0, 3)

            def expand(expansion, other):
                out = {}
                for nu, m in expansion.items():
                    for rho, m2 in lr_product(nu, other).items():
                        out[rho] = out.get(rho, 0) + m * m2
                return out

            assert expand(lr_product(a, b), c) == expand(lr_product(b, c), a)

    def test_twist_equivariance(self):
        rng = random.Random(40)
        for _ in range(15):
            a = random_weight(rng, 3)
            b = random_weight(rng, 3)
            s, t = rng.randint(-2, 2), rng.randint(-2, 2)
            shifted = lr_product(twist(a, s), twist(b, t))
            base = {twist(nu, s + t): m for nu, m in lr_product(a, b).items()}
            assert shifted == base

    def test_dimension_conservation(self):
        # conservation at probe rank m needs the product expanded in GL(m):
        # padding the inputs and re-expanding keeps every m-row term
        rng = random.Random(71)
        for _ in range(8):
            k = rng.choice([2, 3])
            a = random_weight(rng, k, 0, 3)
            b = random_weight(rng, k, 0, 3)
            for m in range(k, k + 5):
                pa = a + (0,) * (m - k)
                pb = b + (0,) * (m - k)
                expansion = lr_product(pa, pb)
                lhs = dimension(a, m) * dimension(b, m)
                rhs = sum(mult * dimension(nu, m) for nu, mult in expansion.items())
                assert lhs == rhs, (a, b, m)

    def test_dimension_conservation_at_rank(self):
        # at m = k the truncated product itself conserves dimension
        rng = random.Random(72)
        for _ in range(10):
            k = rng.choice([2, 3, 4])
            a = random_weight(rng, k, -2, 3)
            b = random_weight(rng, k, -2, 3)
            lhs = dimension(twist(a, 3), k) * dimension(twist(b, 3), k)
            rhs = sum(
                mult * dimension(twist(nu, 6), k)
                for nu, mult in lr_product(a, b).items()
            )
            assert lhs == rhs


class TestDimension:
    def test_standard_rep(self):
        for n in [2, 5, 8]:
            assert dimension((1,) + (0,) * (n - 1), n) == n

    def test_exterior_square(self):
        assert dimension((1, 1, 0, 0), 4) == 6

    def test_gl8_value(self):
        assert dimension((2, 2), 8) == 336
        assert dimension((2, 2), 8) == dimension_oracle((2, 2), 8)

    def test_against_tableau_count(self):
        rng = random.Random(9)
        for _ in range(10):
            k = rng.choice([2, 3])
            w = random_weight(rng, k, 0, 4)
            m = rng.randint(k, k + 3)
            assert dimension(w, m) == dimension_oracle(w, m)

    def test_self_dual_dimension(self):
        rng = random.Random(33)
        for _ in range(10):
            w = random_weight(rng, 3, -3, 3)
            m = 5
            full = w + (0,) * (m - len(w)) if w[-1] >= 0 else None
            if full is None:
                continue
            assert dimension(full, m) == dimension(dualize(full), m)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            dimension((2, 1, 0), 2)

    def test_rejects_negative_padding(self):
        with pytest.raises(ValueError):
            dimension((1, -1), 4)
        assert dimension((1, -1), 2) == 3  # no padding needed
