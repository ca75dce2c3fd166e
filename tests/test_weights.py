import pytest

from slnbranch import AffineWeight, partitions_up_to, residue_counts, weight_of
from slnbranch.weights import weight_coefficients

from oracles import epsilon_step, naive_residue_counts, simple_root, weight_difference


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
                assert sum(weight_of(p, n).lam) == 1

    def test_delta_is_minus_energy(self):
        for p in partitions_up_to(20):
            for n in (2, 3, 4):
                assert weight_of(p, n).delta == -residue_counts(p, n)[0]


class TestEpsilonStep:
    """The path reference's step L(i+1) - L(i), pinned by hand."""

    def test_definition(self):
        assert epsilon_step(3, 0) == (-1, 1, 0)

    def test_mod_n_reduction(self):
        assert epsilon_step(3, -3) == epsilon_step(3, 0)

    def test_wraparound(self):
        assert epsilon_step(3, 2) == (1, 0, -1)

    def test_level_zero_and_telescoping(self):
        for n in (2, 3, 4, 5):
            steps = [epsilon_step(n, i) for i in range(n)]
            assert all(sum(s) == 0 for s in steps)
            assert tuple(map(sum, zip(*steps))) == (0,) * n


class TestWeightCoefficients:
    def test_matches_l0_minus_the_roots_of_the_content(self):
        # The oracle sums m_r alpha_r over a cell-by-cell content; weight_of
        # builds its coefficients from the helper, so it must agree too.
        for n in (2, 3, 4, 5):
            roots = [simple_root(n, r) for r in range(n)]
            for p in partitions_up_to(12):
                m = naive_residue_counts(p, n)
                expected = tuple(
                    (i == 0) - sum(m[r] * roots[r].lam[i] for r in range(n)) for i in range(n)
                )
                assert weight_coefficients(residue_counts(p, n)) == expected == weight_of(p, n).lam


class TestEqualModDelta:
    """The tests' weight difference subtracts only at one rank."""

    def test_rank_mismatch_is_error(self):
        with pytest.raises(ValueError, match="mixed ranks"):
            weight_difference(AffineWeight(2, (1, 0)), AffineWeight(3, (1, 0, 0)))

    def test_difference_adds_the_negation(self):
        for n in (2, 3, 4):
            weights = [weight_of(p, n) for p in partitions_up_to(6)]
            weights += [simple_root(n, i) for i in range(n)]
            for a in weights:
                for b in weights:
                    lam = tuple(x - y for x, y in zip(a.lam, b.lam))
                    assert weight_difference(a, b) == AffineWeight(n, lam, a.delta - b.delta)


class TestSimpleRoot:
    def test_alpha0_carries_delta(self):
        a0 = simple_root(3, 0)
        assert a0.lam == (2, -1, -1) and a0.delta == 1
        assert simple_root(3, 1).delta == 0

    def test_n2_accumulation(self):
        assert simple_root(2, 0).lam == (2, -2)

    def test_sum_of_roots_is_delta(self):
        for n in (2, 3, 5):
            roots = [simple_root(n, i) for i in range(n)]
            assert tuple(map(sum, zip(*(a.lam for a in roots)))) == (0,) * n
            assert sum(a.delta for a in roots) == 1


def test_weight_rendering():
    assert str(AffineWeight(3, (2, -1, 1), -3)) == "2*L0 + L2 - L1 - 3*d"
    assert str(AffineWeight(2, (0, 0), 0)) == "0"
    assert str(weight_of((2, 1), 3)) == "L0 - d"


class TestAffineWeightValue:
    """A weight is a value: equal, unequal and hashed by (n, lam, delta), and immutable."""

    def test_equality_and_hash(self):
        a, b = AffineWeight(3, (2, -1, 1), -3), AffineWeight(3, (2, -1, 1), -3)
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b, weight_of((), 3)}) == 2
        assert AffineWeight(2, (1, 0)) == AffineWeight(2, (1, 0), 0)

    @pytest.mark.parametrize(
        "other",
        [
            AffineWeight(3, (2, -1, 1), -2),
            AffineWeight(3, (2, -1, 0), -3),
            AffineWeight(4, (2, -1, 1, 0), -3),
            (3, (2, -1, 1), -3),
        ],
    )
    def test_inequality(self, other):
        a = AffineWeight(3, (2, -1, 1), -3)
        assert a != other and not a == other

    def test_rank_and_length_errors(self):
        with pytest.raises(ValueError, match="n must be at least 2"):
            AffineWeight(1, (0,))
        with pytest.raises(ValueError, match="expected 3 coefficients, got 2"):
            AffineWeight(3, (1, 0))

    def test_fields_cannot_be_reassigned(self):
        a = AffineWeight(2, (1, 0))
        with pytest.raises(AttributeError):
            a.delta = 1
        assert a.delta == 0
