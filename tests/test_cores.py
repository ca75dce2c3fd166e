from collections import Counter
from itertools import product, takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slnbranch import (
    abacus_display,
    block_series,
    core_size_of_content,
    is_js,
    is_n_core,
    is_n_regular,
    is_rectangle_le_n,
    n_core,
    n_cores,
    n_weight,
    partitions_of,
    partitions_up_to,
    regular_partitions_with_content,
    residue_counts,
)
from slnbranch.branching import fow_close, fow_prefix, in_fow
from slnbranch.cores import (
    _add_row,
    _charge_bound,
    _pushed_partition,
    _runners,
    _spread,
    count_by_weight,
)
from oracles import (
    abacus_core,
    charge_vector,
    crystal_member,
    eps_close,
    eps_prefix,
    filtered_n_cores,
    position_scan_pushed_partition,
    prefix_value,
    rim_hook_core,
    rim_hook_weight,
)


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
        for p in partitions_up_to(20):
            for n in (2, 3, 4, 5):
                assert sum(p) == sum(n_core(p, n)) + n * n_weight(p, n)

    def test_idempotent(self):
        for p in partitions_up_to(14):
            for n in (2, 3, 4):
                core = n_core(p, n)
                assert n_core(core, n) == core

    def test_bead_count_invariance(self):
        for p in partitions_up_to(12):
            for n in (2, 3, 5):
                base = max(len(p), 1)
                counts = (base, base + 1, base + n)
                cores = {_pushed_partition(_runners(p, n, beads)) for beads in counts}
                cores |= {abacus_core(p, n, beads) for beads in counts}
                assert cores == {n_core(p, n)}

    @settings(max_examples=200, deadline=None)
    @given(partitions, st.integers(2, 6), st.integers(0, 15))
    def test_bead_count_invariance_property(self, p, n, extra):
        beads = len(p) + extra
        pushed = _pushed_partition(_runners(p, n, beads))
        assert pushed == abacus_core(p, n, beads) == n_core(p, n)

    def test_matches_rim_hook_oracle_up_to_16(self):
        for p in partitions_up_to(16):
            for n in (2, 3, 4, 5):
                assert n_core(p, n) == rim_hook_core(p, n)

    def test_equals_references_at_every_bead_count(self):
        for p in partitions_up_to(14):
            for n in (2, 3, 4, 5):
                core = rim_hook_core(p, n)
                assert n_core(p, n) == abacus_core(p, n) == core
                for beads in (*range(len(p), len(p) + 2 * n + 1), len(p) + 3 * n):
                    pushed = _pushed_partition(_runners(p, n, beads))
                    assert pushed == abacus_core(p, n, beads) == core

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_level_walk_equals_the_position_scan(self, n):
        # Every runner vector with entries up to 3 (single non-zero runners
        # among them), raised by 0, 1 and 3: the raised ones have
        # min(runners) > 0, and the walk must skip those full levels.
        for base in product(range(4), repeat=n):
            for lift in (0, 1, 3):
                runners = [count + lift for count in base]
                got = _pushed_partition(runners)
                assert got == position_scan_pushed_partition(runners), runners
        assert _pushed_partition([2] * n) == ()


class TestNWeight:
    @pytest.mark.parametrize(
        "p,n,d", [((6, 2), 3, 2), ((2, 1), 3, 1), ((), 2, 0), ((8,), 3, 2)]
    )
    def test_examples(self, p, n, d):
        assert n_weight(p, n) == d

    def test_equals_size_split_and_rim_hook_count(self):
        for p in partitions_up_to(14):
            for n in (2, 3, 4, 5):
                weight = n_weight(p, n)
                assert n * weight == sum(p) - sum(rim_hook_core(p, n))
                assert weight == rim_hook_weight(p, n)


class TestNCores:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_filtered_partitions_up_to_18(self, n):
        reference = filtered_n_cores(n, 18)
        for max_size in range(19):
            expected = [mu for mu in reference if sum(mu) <= max_size]
            assert n_cores(n, max_size) == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_charge_bound_holds_on_every_core_up_to_18(self, n):
        widest = {}
        for mu in filtered_n_cores(n, 18):
            x = charge_vector(mu, n)
            assert sum(x) == 0
            assert 2 * sum(mu) == n * sum(c * c for c in x) + 2 * sum(
                r * c for r, c in enumerate(x)
            )
            assert max(map(abs, x)) <= _charge_bound(n, sum(mu)), mu
            widest[sum(mu)] = max(widest.get(sum(mu), 0), max(map(abs, x)))
        # The walk boxes every smaller size in the bound of max_size, so the
        # bound must not fall as the size grows; and it is attained somewhere.
        assert all(_charge_bound(n, s) <= _charge_bound(n, s + 1) for s in range(18))
        assert any(w == _charge_bound(n, s) for s, w in widest.items())


class TestAbacusDisplay:
    def test_beta_numbers(self):
        assert abacus_display((3, 1), 2) == (4, 1)

    def test_default_bead_count_is_multiple_of_n(self):
        assert len(abacus_display((3, 1), 3)) == 3
        assert len(abacus_display((), 4)) == 4

    @pytest.mark.parametrize(
        "p, message",
        [((1, 2), "parts must be weakly decreasing"), ((2, 0), "parts must be positive")],
    )
    def test_rejects_malformed_input(self, p, message):
        # The beta numbers are checked by validating p, the input they are read from.
        with pytest.raises(ValueError, match=message):
            abacus_display(p, 2)


class TestBlockDimension:
    @pytest.mark.parametrize(
        "n,m,mu,count", [(3, 3, (), 2), (3, 1, (1,), 1), (3, 2, (), 0)]
    )
    def test_examples(self, n, m, mu, count):
        # Coefficient w counts size |mu| + n w; a size between them is in no block of mu.
        by_size = {sum(mu) + n * w: c for w, c in enumerate(block_series(n, mu, m))}
        assert by_size.get(m, 0) == count

    def test_matches_core_filter_count(self):
        for n in (2, 3, 4):
            by_core = [
                Counter(n_core(p, n) for p in partitions_of(m, regular=n)) for m in range(17)
            ]
            for mu in partitions_up_to(8):
                if not is_n_core(mu, n):
                    with pytest.raises(ValueError) as info:
                        block_series(n, mu, 2)
                    assert str(info.value) == f"{mu} is not an n-core for n={n}"
                    continue
                series = block_series(n, mu, (16 - sum(mu)) // n)
                assert series == tuple(by_core[sum(mu) + n * w][mu] for w in range(len(series)))

    def test_blocks_partition_the_regular_set(self):
        for n in (2, 3, 4):
            by_size = Counter()
            for mu in partitions_up_to(10):
                if is_n_core(mu, n):
                    for w, count in enumerate(block_series(n, mu, (10 - sum(mu)) // n)):
                        by_size[sum(mu) + n * w] += count
            assert by_size == Counter(map(sum, partitions_up_to(10, regular=n)))


def filtered_census(n, size):
    """n-regular partitions of `size` bucketed by residue content, in enumeration order."""
    buckets = {}
    for p in partitions_of(size, regular=n):
        buckets.setdefault(residue_counts(p, n), []).append(p)
    return buckets


def anything(*window):
    """A prefix or close test that passes every row."""
    return True


class TestContentWalk:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_filtered_census_up_to_20(self, n):
        for size in range(21):
            for counts, members in filtered_census(n, size).items():
                assert list(regular_partitions_with_content(n, counts)) == members

    @pytest.mark.parametrize("n,max_size", [(2, 14), (3, 12), (4, 10), (5, 9)])
    def test_every_vector_up_to_size(self, n, max_size):
        # Contents that no partition has, or only irregular ones, yield
        # nothing.  The counting walk, whose tests here pass everything,
        # counts the same bucket of the census: the two walks share their
        # row step, so neither is checked only against the other.
        buckets = {}
        for size in range(max_size + 1):
            buckets.update(filtered_census(n, size))
        for counts in product(range(max_size + 1), repeat=n):
            if sum(counts) <= max_size:
                bucket = buckets.get(counts, [])
                assert list(regular_partitions_with_content(n, counts)) == bucket, counts
                got = count_by_weight(n, counts, 0, anything, anything)[0]
                assert got == len(bucket), counts

    @pytest.mark.parametrize("n,max_size", [(2, 14), (3, 12), (4, 10)])
    def test_prefix_sees_only_parts_that_can_hold_the_nodes_left(self, n, max_size):
        # The size cut: an n-regular partition with largest part v has at
        # most (n - 1) v (v + 1) / 2 nodes, so neither walk offers a
        # candidate row that cannot hold every node left from it down.
        for size in range(max_size + 1):
            for counts in filtered_census(n, size):

                def placed(v, v1, run, r, above, size=size):
                    above = above or 0
                    assert 2 * (size - above) <= (n - 1) * v * (v + 1), (counts, above, v)
                    return above + v

                list(regular_partitions_with_content(n, counts, placed))
                count_by_weight(n, counts, 0, placed, anything)

    def test_deep_content(self):
        # 1,194 rows, one per level of the walk's stack: deeper than the
        # recursion limit, so a recursive walk would fail here.
        n = 200
        p = tuple(k for k in range(6, 0, -1) for _ in range(199))
        counts = residue_counts(p, n)
        assert list(regular_partitions_with_content(n, counts)) == [p]
        assert count_by_weight(n, counts, 0, anything, anything)[0] == 1

    def test_examples(self):
        assert list(regular_partitions_with_content(3, (0, 0, 0))) == [()]
        assert list(regular_partitions_with_content(3, (2, 2, 2))) == [
            (6,), (5, 1), (4, 1, 1), (3, 3), (3, 2, 1)
        ]
        assert list(regular_partitions_with_content(2, (0, 1))) == []
        assert list(regular_partitions_with_content(2, (-1, 2))) == []

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 3 residue counts"):
            list(regular_partitions_with_content(3, (1, 0)))

    def test_checks_arguments_when_called(self):
        # Not deferred to the first next(): nothing here iterates the walk.
        with pytest.raises(ValueError, match="expected 3 residue counts"):
            regular_partitions_with_content(3, (1, 0))
        with pytest.raises(ValueError, match="n must be at least 2"):
            regular_partitions_with_content(1, (0,))

    @pytest.mark.parametrize("n,max_size", [(2, 14), (3, 14), (4, 12)])
    def test_prefix_keeps_exactly_the_partitions_whose_prefixes_pass(self, n, max_size):
        def tracked(v, v1, run, r, above):
            # The walk hands each row its window and the value returned for
            # the row above; here that value is every row placed so far.
            rows = above or ()
            assert v1 == (rows[-1] if rows else None), (rows, v)
            assert run == sum(1 for _ in takewhile(lambda u: u == v1, reversed(rows))), (rows, v)
            assert r == len(rows) % n, (rows, v, r)
            return rows + (v,) if v != 2 else None

        tests = [tracked, fow_prefix(n)]
        for j in range(n):
            tests += [fow_prefix(n, j), eps_prefix(n, j)]
        # The value counts the rows placed, so no member has more than three.
        tests.append(lambda v, v1, s, r, above: v != 2 and (above or 0) < 3 and (above or 0) + 1)
        for size in range(max_size + 1):
            for counts, members in filtered_census(n, size).items():
                for prefix in tests:
                    expected = [p for p in members if prefix_value(prefix, p, n)]
                    assert list(regular_partitions_with_content(n, counts, prefix)) == expected

    def test_false_cuts_one_part_only(self):
        # Only CUT_ROW cuts the rest of a row; a plain False, like any
        # other falsy value, cuts its own part and the row goes on shrinking.
        for n, counts, part, members in ((3, (1, 1, 1), 3, [(2, 1)]), (2, (2, 2), 4, [(3, 1)])):

            def prefix(v, v1, s, r, above, part=part):
                return v != part

            assert list(regular_partitions_with_content(n, counts, prefix)) == members
            assert count_by_weight(n, counts, 0, prefix, None) == (1,)

    def test_add_row_returns_the_change_of_spread(self):
        for n in (2, 3, 4, 5):
            for counts in product(range(3), repeat=n):
                for r in range(n):
                    for a in range(2 * n + 1):
                        content = list(counts)
                        rem, step = _add_row(content, r, a)
                        assert content == list(counts) and rem is not content
                        assert _spread(rem) - _spread(counts) == step, (counts, r, a)
                        row = [0] * n
                        for j in range(a):
                            row[(j - r) % n] += 1
                        assert rem == [c - x for c, x in zip(counts, row)]

    def test_core_size_of_content(self):
        for p in partitions_up_to(12):
            for n in (2, 3, 4, 5):
                assert core_size_of_content(residue_counts(p, n)) == sum(n_core(p, n))


@st.composite
def residue_series(draw):
    """(n, base, order): a partition's content, one count nudged by -1, 0 or 1, shifted by -delta.

    The shift by 0, 1 or 2 times (1, ..., 1) lets the base hold negative
    entries, so the first d of a series may have no content.
    """
    n = draw(st.integers(2, 5))
    p = draw(st.sampled_from(list(partitions_of(draw(st.integers(0, 14))))))
    counts = list(residue_counts(p, n))
    r = draw(st.integers(0, n - 1))
    counts[r] = max(0, counts[r] + draw(st.integers(-1, 1)))
    shift = draw(st.integers(0, 2))
    return n, tuple(c - shift for c in counts), draw(st.integers(0, 3))


class TestContentCount:
    @settings(max_examples=150, deadline=None)
    @given(residue_series())
    def test_counts_the_filtered_listing_walk(self, case):
        # One contract for both walks.  For each pair of prefix and close
        # tests -- none, the j-free chain congruence, and each route at each
        # j -- and each d, the listing walk yields exactly the members that
        # the pair's membership test keeps from the unpruned listing of
        # base + d (1, ..., 1), and coefficient d of the count is how many
        # it yields, 0 when that content has a negative entry.
        n, base, order = case
        pairs = [
            (None, None, lambda p: True),
            (fow_prefix(n), fow_close, lambda p: is_js(p, n)),
        ]
        for j in range(n):
            pairs += [
                (fow_prefix(n, j), fow_close, lambda p, j=j: in_fow(p, n, j)),
                (eps_prefix(n, j), eps_close(n, j), lambda p, j=j: crystal_member(p, n, j)),
            ]
        contents = [tuple(c + d for c in base) for d in range(order + 1)]
        listings = [list(regular_partitions_with_content(n, counts)) for counts in contents]
        for prefix, close, member in pairs:
            got = count_by_weight(n, base, order, prefix, close)
            assert len(got) == order + 1
            for d, (counts, members) in enumerate(zip(contents, listings)):
                listed = list(regular_partitions_with_content(n, counts, prefix, close))
                assert listed == [p for p in members if member(p)], (n, counts)
                expected = 0 if min(counts) < 0 else len(listed)
                assert got[d] == expected, (n, base, d)

    def test_empty_and_impossible_contents(self):
        def never(*args):
            raise AssertionError("no row to test")

        assert count_by_weight(3, (0, 0, 0), 0, never, never) == (1,)
        assert count_by_weight(2, (0, 1), 0, never, never) == (0,)
        assert count_by_weight(2, (-1, 2), 0, never, never) == (0,)

    def test_counts_what_the_prefix_and_close_pass(self):
        # With no tests, or tests that pass everything, it counts the whole
        # content; the close sees each member's last part and its row index
        # mod n.  (3) and (2, 1) have content (1, 1, 1); (1, 1, 1) is not
        # 3-regular.
        assert count_by_weight(3, (1, 1, 1), 0) == (2,)
        for counts in ((2, 2, 2), (4, 3, 3), (5, 5, 4)):
            members = list(regular_partitions_with_content(3, counts))
            assert count_by_weight(3, counts, 0, anything, anything) == (len(members),)
            ends = Counter((p[-1], (len(p) - 1) % 3) for p in members)
            for (v, r), many in ends.items():

                def close(v2, r2, value, v=v, r=r):
                    return (v2, r2) == (v, r)

                assert count_by_weight(3, counts, 0, anything, close)[0] == many

    @pytest.mark.parametrize("n,max_size", [(2, 16), (3, 15), (4, 14)])
    def test_counts_what_window_reading_prefixes_pass(self, n, max_size):
        # Below a placed part that no row below can reach, the memo keeps
        # of it only whether it starts its run and its residue mod n; these
        # tests read each, as the contract lets them, and cut members so
        # that a key missing either one would count them wrong.
        tests = [
            lambda v, v1, run, r, above: v1 is None or v == v1 or run == 1,
            lambda v, v1, run, r, above: v1 is None or (v1 - v + r) % n != 1,
        ]
        for size in range(max_size + 1):
            for counts in filtered_census(n, size):
                for prefix in tests:
                    listed = list(regular_partitions_with_content(n, counts, prefix))
                    assert count_by_weight(n, counts, 0, prefix, None) == (len(listed),), counts

    def test_checks_arguments_when_called(self):
        with pytest.raises(ValueError, match="expected 3 residue counts"):
            count_by_weight(3, (1, 0), 0)
        with pytest.raises(ValueError, match="n must be at least 2"):
            count_by_weight(1, (0,), 0)
        with pytest.raises(ValueError, match="order must be nonnegative"):
            count_by_weight(3, (0, 0, 0), -1)


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
    for p in partitions_up_to(12):
        for n in (2, 3):
            assert is_n_regular(n_core(p, n), n)
