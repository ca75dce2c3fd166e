import pytest

from slnbranch import (
    AffineWeight,
    energy,
    epsilon_step,
    equal_mod_delta,
    fundamental,
    is_dominant,
    partitions_up_to,
    residue_counts,
    simple_root,
    weight_of,
)


class TestWeightOf:
    def test_empty_is_l0(self):
        w = weight_of((), 3)
        assert w.lam == (1, 0, 0) and w.delta == 0

    def test_21_is_l0_minus_delta(self):
        w = weight_of((2, 1), 3)
        assert w.lam == (1, 0, 0) and w.delta == -1

    def test_single_box(self):
        w = weight_of((1,), 3)
        assert w.lam == (-1, 1, 1) and w.delta == -1

    def test_level_one_everywhere(self):
        for p in partitions_up_to(16):
            for n in (2, 3, 4):
                assert weight_of(p, n).level == 1

    def test_delta_is_minus_energy(self):
        for p in partitions_up_to(20):
            for n in (2, 3, 4):
                assert weight_of(p, n).delta == -residue_counts(p, n)[0]
                assert energy(p, n) == residue_counts(p, n)[0]


class TestEpsilonStep:
    def test_definition(self):
        assert epsilon_step(3, 0).lam == (-1, 1, 0)

    def test_mod_n_reduction(self):
        assert epsilon_step(3, -3) == epsilon_step(3, 0)

    def test_wraparound(self):
        assert epsilon_step(3, 2).lam == (1, 0, -1)

    def test_level_zero_and_telescoping(self):
        for n in (2, 3, 4, 5):
            steps = [epsilon_step(n, i) for i in range(n)]
            assert all(s.level == 0 and s.delta == 0 for s in steps)
            total = steps[0]
            for s in steps[1:]:
                total = total + s
            assert total.lam == (0,) * n


class TestDominance:
    def test_examples(self):
        assert is_dominant(AffineWeight(3, (1, 0, 1)))
        assert not is_dominant(AffineWeight(3, (2, -1, 1)))
        assert is_dominant(AffineWeight(3, (0, 0, 0)))

    def test_delta_ignored(self):
        assert is_dominant(AffineWeight(3, (1, 0, 0), -5))


class TestEqualModDelta:
    def test_examples(self):
        l0 = fundamental(3, 0)
        assert equal_mod_delta(l0, AffineWeight(3, (1, 0, 0), -1))
        assert not equal_mod_delta(l0, fundamental(3, 1))
        assert equal_mod_delta(weight_of((2, 1), 3), l0)

    def test_rank_mismatch_is_error(self):
        with pytest.raises(ValueError):
            equal_mod_delta(fundamental(2, 0), fundamental(3, 0))


class TestSimpleRoot:
    def test_alpha0_carries_delta(self):
        a0 = simple_root(3, 0)
        assert a0.lam == (2, -1, -1) and a0.delta == 1
        assert simple_root(3, 1).delta == 0

    def test_n2_accumulation(self):
        assert simple_root(2, 0).lam == (2, -2)

    def test_sum_of_roots_is_delta(self):
        for n in (2, 3, 5):
            total = simple_root(n, 0)
            for i in range(1, n):
                total = total + simple_root(n, i)
            assert total.lam == (0,) * n and total.delta == 1


def test_weight_rendering():
    assert str(AffineWeight(3, (2, -1, 1), -3)) == "2*L0 + L2 - L1 - 3*d"
    assert str(AffineWeight(2, (0, 0), 0)) == "0"
    assert str(weight_of((2, 1), 3)) == "L0 - d"
