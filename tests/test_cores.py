import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slnbranch import (
    abacus_display,
    block_dimension,
    is_n_core,
    is_n_regular,
    is_rectangle_le_n,
    n_core,
    n_weight,
    partitions_of,
)
from oracles import rim_hook_core


def all_partitions_up_to(max_size):
    for m in range(max_size + 1):
        yield from partitions_of(m)


# Partitions with up to 12 parts of size up to 30, as nonincreasing tuples.
partitions = st.lists(st.integers(1, 30), max_size=12).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)


class TestNCore:
    @pytest.mark.parametrize(
        "p,n,core",
        [((3,), 3, ()), ((8,), 3, (2,)), ((1,), 3, (1,)), ((3, 3, 1, 1), 3, (2,))],
    )
    def test_examples(self, p, n, core):
        assert n_core(p, n) == core

    def test_size_split(self):
        for p in all_partitions_up_to(20):
            for n in (2, 3, 4, 5):
                assert sum(p) == sum(n_core(p, n)) + n * n_weight(p, n)

    def test_idempotent(self):
        for p in all_partitions_up_to(14):
            for n in (2, 3, 4):
                core = n_core(p, n)
                assert n_core(core, n) == core

    def test_bead_count_invariance(self):
        for p in all_partitions_up_to(12):
            for n in (2, 3, 5):
                base = max(len(p), 1)
                cores = {n_core(p, n, beads) for beads in (base, base + 1, base + n)}
                assert len(cores) == 1

    @settings(max_examples=200, deadline=None)
    @given(partitions, st.integers(2, 6), st.integers(0, 15))
    def test_bead_count_invariance_property(self, p, n, extra):
        assert n_core(p, n, len(p) + extra) == n_core(p, n)

    def test_matches_rim_hook_oracle_up_to_16(self):
        for p in all_partitions_up_to(16):
            for n in (2, 3, 4, 5):
                assert n_core(p, n) == rim_hook_core(p, n)


class TestNWeight:
    @pytest.mark.parametrize(
        "p,n,d", [((6, 2), 3, 2), ((2, 1), 3, 1), ((), 2, 0), ((8,), 3, 2)]
    )
    def test_examples(self, p, n, d):
        assert n_weight(p, n) == d


class TestAbacusDisplay:
    def test_beta_numbers(self):
        display = abacus_display((3, 1), 2, beads=2)
        assert display.beta == (4, 1)

    def test_default_bead_count_is_multiple_of_n(self):
        assert len(abacus_display((3, 1), 3).beta) == 3
        assert len(abacus_display((), 4).beta) == 4

    def test_rejects_too_few_beads(self):
        with pytest.raises(ValueError):
            abacus_display((3, 1, 1), 2, beads=2)


class TestBlockDimension:
    @pytest.mark.parametrize(
        "n,m,mu,count", [(3, 3, (), 2), (3, 1, (1,), 1), (3, 2, (), 0)]
    )
    def test_examples(self, n, m, mu, count):
        assert block_dimension(n, m, mu) == count

    def test_blocks_partition_the_regular_set(self):
        for n in (2, 3, 4):
            for m in range(11):
                total = 0
                for c in range(m % n, m + 1, n):
                    for mu in partitions_of(c):
                        if is_n_core(mu, n):
                            total += block_dimension(n, m, mu)
                assert total == sum(1 for _ in partitions_of(m, regular=n))


class TestRectangles:
    @pytest.mark.parametrize(
        "mu,n,expected",
        [((2,), 3, (2, 1)), ((1, 1), 3, (1, 2)), ((2, 1), 3, None), ((), 5, (0, 0)),
         ((2, 2), 3, None), ((2, 2), 4, (2, 2))],
    )
    def test_examples(self, mu, n, expected):
        assert is_rectangle_le_n(mu, n) == expected


def test_is_n_core():
    assert is_n_core((2,), 3)
    assert not is_n_core((3,), 3)
    assert is_n_core((), 2)


def test_core_of_regular_partition_need_not_be_regular_free():
    # cores are always n-regular; cheap sanity sweep
    for p in all_partitions_up_to(12):
        for n in (2, 3):
            assert is_n_regular(n_core(p, n), n)
