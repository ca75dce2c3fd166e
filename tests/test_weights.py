import pytest

from slnbranch import format_weight, partitions_up_to, residue_counts, weight_of
from slnbranch.weights import weight_coefficients

from oracles import epsilon_step, naive_residue_counts, simple_root, weight_difference


class TestWeightOf:
    def test_empty_is_l0(self):
        assert weight_of((), 3) == ((1, 0, 0), 0)

    def test_21_is_l0_minus_delta(self):
        assert weight_of((2, 1), 3) == ((1, 0, 0), -1)

    def test_single_box(self):
        assert weight_of((1,), 3) == ((-1, 1, 1), -1)

    def test_level_one_everywhere(self):
        for p in partitions_up_to(16):
            for n in (2, 3, 4):
                lam, _ = weight_of(p, n)
                assert sum(lam) == 1

    def test_delta_is_minus_energy(self):
        for p in partitions_up_to(20):
            for n in (2, 3, 4):
                _, delta = weight_of(p, n)
                assert delta == -residue_counts(p, n)[0]


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
        # pairs the helper's coefficients with -m_0, so it must agree too.
        for n in (2, 3, 4, 5):
            roots = [simple_root(n, r) for r in range(n)]
            for p in partitions_up_to(12):
                m = naive_residue_counts(p, n)
                expected = tuple(
                    (i == 0) - sum(m[r] * roots[r][0][i] for r in range(n)) for i in range(n)
                )
                assert weight_coefficients(residue_counts(p, n)) == expected
                assert weight_of(p, n) == (expected, -m[0])


class TestEqualModDelta:
    """The tests' weight difference subtracts only at one rank."""

    def test_rank_mismatch_is_error(self):
        with pytest.raises(ValueError, match="mixed ranks"):
            weight_difference(((1, 0), 0), ((1, 0, 0), 0))

    def test_difference_adds_the_negation(self):
        for n in (2, 3, 4):
            weights = [weight_of(p, n) for p in partitions_up_to(6)]
            weights += [simple_root(n, i) for i in range(n)]
            for a in weights:
                for b in weights:
                    lam = tuple(x - y for x, y in zip(a[0], b[0]))
                    assert weight_difference(a, b) == (lam, a[1] - b[1])


class TestSimpleRoot:
    def test_alpha0_carries_delta(self):
        assert simple_root(3, 0) == ((2, -1, -1), 1)
        assert simple_root(3, 1)[1] == 0

    def test_n2_accumulation(self):
        assert simple_root(2, 0) == ((2, -2), 1)

    def test_sum_of_roots_is_delta(self):
        for n in (2, 3, 5):
            roots = [simple_root(n, i) for i in range(n)]
            assert tuple(map(sum, zip(*(lam for lam, _ in roots)))) == (0,) * n
            assert sum(delta for _, delta in roots) == 1


def test_weight_rendering():
    assert format_weight(((2, -1, 1), -3)) == "2*L0 + L2 - L1 - 3*d"
    assert format_weight(((0, 0), 0)) == "0"
    assert format_weight(((0, -1), 0)) == "-L1"
    assert format_weight(((0, 0), -2)) == "-2*d"
    assert format_weight(weight_of((2, 1), 3)) == "L0 - d"
