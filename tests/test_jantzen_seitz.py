from operator import le

import pytest

from slnbranch import (
    block_series,
    chi_by_branching,
    chi_direct,
    epsilon_vector,
    fow_index,
    is_js,
    is_js_by_crystal,
    is_rectangle_le_n,
    js_set,
    n_core,
    n_cores,
    n_weight,
    partitions_of,
    partitions_up_to,
    residue_counts,
    verify_rectangle_cores,
)
from slnbranch import jantzen_seitz
from slnbranch.cores import _block_diffs, _block_key, block_content
from slnbranch.jantzen_seitz import _chi_sweep
from slnbranch.partitions import _listing

# the twelve worked sets for n = 3, keyed by (core, weight)
EXAMPLE_SETS = {
    ((), 0): {()},
    ((), 1): {(3,), (2, 1)},
    ((), 2): {(6,), (5, 1), (3, 3), (4, 1, 1), (3, 2, 1)},
    ((1,), 0): {(1,)},
    ((1,), 1): {(4,), (2, 2)},
    ((1,), 2): {(7,), (4, 3)},
    ((2,), 0): {(2,)},
    ((2,), 1): {(5,)},
    ((2,), 2): {(8,), (3, 3, 1, 1)},
    ((1, 1), 0): {(1, 1)},
    ((1, 1), 1): {(3, 2)},
    ((1, 1), 2): {(6, 2), (4, 4)},
}

EXAMPLE_CHI = {
    (): (1, 2, 5),
    (1,): (1, 2, 2),
    (2,): (1, 1, 2),
    (1, 1): (1, 1, 2),
}


class TestIsJs:
    def test_21(self):
        assert is_js((2, 1), 3)

    def test_single_rows(self):
        assert all(is_js((m,), 3) for m in range(1, 12))

    def test_55411_fails_chain(self):
        assert not is_js((5, 5, 4, 1, 1), 3)

    def test_31_fails_chain(self):
        assert not is_js((3, 1), 3)

    def test_empty_is_member(self):
        assert is_js((), 3)

    def test_irregular_rejected(self):
        assert not is_js((1, 1, 1), 3)


class TestCrystalCharacterization:
    def test_21_profile(self):
        assert epsilon_vector((2, 1), 3) == (0, 1, 0)
        assert is_js_by_crystal((2, 1), 3)

    def test_11_profile(self):
        assert epsilon_vector((1, 1), 3) == (0, 0, 1)
        assert is_js_by_crystal((1, 1), 3)

    def test_31_profile(self):
        assert epsilon_vector((3, 1), 3) == (0, 0, 2)
        assert not is_js_by_crystal((3, 1), 3)

    def test_equivalence_up_to_12(self):
        for n in (2, 3, 4):
            for p in partitions_up_to(12, regular=n):
                assert is_js(p, n) == is_js_by_crystal(p, n), p

    def test_chain_membership_equals_class_membership(self):
        for n in (2, 3):
            for p in partitions_up_to(12, regular=n):
                assert is_js(p, n) == (fow_index(p, n) is not None)


class TestJsSets:
    @pytest.mark.parametrize("key,expected", sorted(EXAMPLE_SETS.items()))
    def test_example_sets(self, key, expected):
        mu, d = key
        assert set(js_set(3, mu, d)) == expected

    def test_emitted_in_decreasing_lex_order(self):
        members = js_set(3, (), 2)
        assert members == sorted(members, reverse=True)

    def test_rejects_non_core(self):
        with pytest.raises(ValueError):
            js_set(3, (3,), 1)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_equals_the_filtered_listing_on_every_core(self, n):
        # Every n-core up to size 20, non-rectangles (no member) included,
        # at every n-weight d from -1 (no partition) up to size 20: the
        # n-regular partitions of |mu| + n d that pass the chain congruence
        # and have mu's content plus d (1, ..., 1), in decreasing lex order.
        for mu in n_cores(n, 20):
            base = residue_counts(mu, n)
            for d in range(-1, (20 - sum(mu)) // n + 1):
                expected = [
                    p
                    for p in partitions_of(sum(mu) + n * d, regular=n)
                    if is_js(p, n) and residue_counts(p, n) == tuple(c + d for c in base)
                ]
                assert js_set(n, mu, d) == expected, (n, mu, d)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_lists_no_partition_past_its_content(self, monkeypatch, n):
        # The step cuts each block below which no rows hold the content
        # left, so every partition in the listing js_set reads fits in the
        # block's content: without the cut it lists every key at the grade
        # c_0 + d, and the block's key holds the members.
        listed = []

        def listing(*args):
            lists = _listing(*args)
            listed.append(lists)
            return lists

        monkeypatch.setattr(jantzen_seitz, "_listing", listing)
        for mu in n_cores(n, 12):
            base = residue_counts(mu, n)
            for d in range(4):
                members = js_set(n, mu, d)
                lists = listed.pop()
                assert lists.get(_block_key(base), []) == members, (n, mu, d)
                for p in (p for found in lists.values() for p in found):
                    assert all(map(le, residue_counts(p, n), (c + d for c in base))), (n, mu, d, p)


class TestChi:
    @pytest.mark.parametrize("mu,expected", sorted(EXAMPLE_CHI.items()))
    def test_direct(self, mu, expected):
        assert chi_direct(3, mu, 2) == expected

    @pytest.mark.parametrize("mu,expected", sorted(EXAMPLE_CHI.items()))
    def test_by_branching(self, mu, expected):
        assert chi_by_branching(3, mu, 2) == expected

    def test_empty_core_combination(self):
        # sum of the three b(j, 0) series minus the double-counted empty partition
        from slnbranch import branching_series

        rows = [branching_series(3, j, 0, 2, "fow") for j in range(3)]
        combined = [sum(col) for col in zip(*rows)]
        combined[0] -= 2
        assert tuple(combined) == (1, 2, 5)

    def test_methods_agree_to_order_6(self):
        for n in (2, 3, 4):
            cores = [()] + [
                (k,) * l for k in range(1, n) for l in range(1, n - k + 1)
            ]
            for mu in cores:
                assert chi_direct(n, mu, 6) == chi_by_branching(n, mu, 6), (n, mu)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_members_are_a_subset_of_the_block(self, n):
        # chi counts the members of the block of mu, so no coefficient
        # exceeds the block's own count at that n-weight.  Every rectangle
        # core has at most n^2 / 4 nodes, so each block reaches n-weight 8.
        blocks = block_series(n, n * n // 4 + 8 * n)
        for mu in [()] + [(k,) * l for k in range(1, n) for l in range(1, n - k + 1)]:
            direct, block = chi_direct(n, mu, 8), blocks[mu][:9]
            assert len(block) == 9
            assert all(c <= b for c, b in zip(direct, block)), (n, mu, direct, block)

    def test_constant_term_is_one(self):
        for n in (2, 3, 4):
            for mu in [()] + [(k,) * l for k in range(1, n) for l in range(1, n - k + 1)]:
                assert chi_direct(n, mu, 0) == (1,)

    def test_inadmissible_core_rejected(self):
        with pytest.raises(ValueError):
            chi_by_branching(3, (2, 1), 2)
        with pytest.raises(ValueError):
            chi_by_branching(3, (2, 2), 2)  # rectangle but k + l > n

    def test_non_rectangular_core_has_no_members(self):
        # (2,1) is a genuine 4-core but not a rectangle: no member carries it
        assert n_core((2, 1), 4) == (2, 1)
        for d in range(3):
            assert js_set(4, (2, 1), d) == []
        with pytest.raises(ValueError):
            chi_by_branching(4, (2, 1), 2)


class TestChiSweep:
    @pytest.mark.parametrize(
        "n,max_size,order",
        [(2, 16, 16), (3, 14, 10), (4, 12, 6), (5, 12, 5), (6, 12, 4), (7, 12, 4)],
    )
    def test_equals_the_walk_and_the_listing_on_every_core(self, n, max_size, order):
        # Every n-core, so the cores no member has (non-rectangles) read zeros
        # too.  The reference is `js_set`'s listing of each block by the
        # sweep's listing twin, which the test above checks against every
        # partition.
        for mu in n_cores(n, max_size):
            direct = chi_direct(n, mu, order)
            assert direct == tuple(len(js_set(n, mu, d)) for d in range(order + 1)), (n, mu)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_block_diffs_equal_residue_count_differences(self, n):
        # A block of a rows of part v below rho rows; the table is read at
        # v mod n and rho mod n, so v and rho run past n.
        table = _block_diffs(n)
        for v in range(1, 3 * n + 1):
            for rho in range(2 * n):
                above = residue_counts((v,) * rho, n)
                for a in range(1, n):
                    below = residue_counts((v,) * (rho + a), n)
                    moved = tuple(
                        (below[r] - below[0]) - (above[r] - above[0]) for r in range(1, n)
                    )
                    assert table[v % n][rho % n][a] == moved, (n, v, rho, a)

    def test_frontier_equals_chi_by_branching(self):
        for n, order in ((3, 60), (4, 40), (6, 24)):
            for mu in [()] + [(k,) * l for k in range(1, n) for l in range(1, n - k + 1)]:
                assert chi_direct(n, mu, order) == chi_by_branching(n, mu, order), (n, mu)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_one_sweep_reads_every_core_as_chi_direct_does(self, n):
        # verify_js reads every rectangle core from one sweep graded to the
        # largest c_0 plus the order; each core's series is chi_direct's,
        # and the non-rectangle cores read zeros there too.
        cores = n_cores(n, 12)
        for order in (0, 3):
            chis = _chi_sweep(n, [block_content(n, mu) for mu in cores], order)
            assert chis == [chi_direct(n, mu, order) for mu in cores], (n, order)

    def test_non_rectangle_core_reads_zeros(self):
        assert chi_direct(4, (2, 1), 3) == (0, 0, 0, 0)
        assert chi_direct(5, (3, 1), 2) == (0, 0, 0)

    def test_rejects_a_non_core_and_a_negative_order(self):
        with pytest.raises(ValueError, match="not an n-core"):
            chi_direct(3, (3,), 2)
        with pytest.raises(ValueError, match="order must be nonnegative"):
            chi_direct(3, (), -1)
        with pytest.raises(ValueError):
            chi_direct(1, (), 2)


class TestRecords:
    def test_classification_fields(self):
        assert is_js((8,), 3)
        assert n_core((8,), 3) == (2,) and n_weight((8,), 3) == 2

    def test_none_for_non_members(self):
        assert not is_js((3, 1), 3)

    def test_weight_energy_shift_invariant(self):
        # n-weight = energy - min(k, l) of the core rectangle
        for n in (2, 3, 4):
            for p in partitions_up_to(12, regular=n):
                if not is_js(p, n):
                    continue
                rect = is_rectangle_le_n(n_core(p, n), n)
                assert rect is not None
                assert n_weight(p, n) == residue_counts(p, n)[0] - min(rect)


class TestRectangleCores:
    @pytest.mark.parametrize("n,max_size", [(3, 12), (2, 14), (5, 10)])
    def test_no_violations(self, n, max_size):
        members = [p for p in partitions_up_to(max_size, regular=n) if is_js(p, n)]
        report = verify_rectangle_cores(n, members)
        assert report.failures == []
        assert report.cases > 0
