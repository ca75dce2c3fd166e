from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slnbranch import (
    abacus_display,
    block_series,
    exponent_form,
    is_js,
    is_n_core,
    is_n_regular,
    is_rectangle_le_n,
    n_core,
    n_cores,
    n_weight,
    partitions_of,
    partitions_up_to,
    residue_counts,
)
from slnbranch.branching import (
    _census,
    _class_members,
    _crystal_route,
    _fow_route,
    _paths_route,
)
from slnbranch.cores import (
    _block_entry,
    _block_key,
    block_content,
    _charge_bound,
    _content_route,
    _pushed_partition,
    _runners,
)
from slnbranch.jantzen_seitz import _chi_route
from slnbranch.partitions import _listing, _sweep
from oracles import (
    abacus_core,
    charge_vector,
    filtered_n_cores,
    multipartition_counts,
    position_scan_pushed_partition,
    rim_hook_core,
    rim_hook_weight,
    size_capped_route,
    uncapped_content_route,
    walk_blocks,
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
        by_size = {sum(mu) + n * w: c for w, c in enumerate(block_series(n, m)[mu])}
        assert by_size.get(m, 0) == count

    def test_matches_core_filter_count(self):
        for n in (2, 3, 4):
            by_core = [
                Counter(n_core(p, n) for p in partitions_of(m, regular=n)) for m in range(17)
            ]
            blocks = block_series(n, 16)
            # Every n-core up to 16, and nothing else, names a block.
            assert sorted(blocks) == sorted(mu for mu in partitions_up_to(16) if is_n_core(mu, n))
            for mu in partitions_up_to(8):
                if not is_n_core(mu, n):
                    with pytest.raises(ValueError) as info:
                        block_content(n, mu)
                    assert str(info.value) == f"{mu} is not an n-core for n={n}"
            for mu, series in blocks.items():
                assert len(series) == (16 - sum(mu)) // n + 1
                assert series == tuple(by_core[sum(mu) + n * w][mu] for w in range(len(series)))

    @pytest.mark.parametrize(
        "n,max_size,order",
        [
            (2, 24, 20), (3, 20, 10), (4, 16, 7), (5, 14, 5), (6, 14, 4),
            (7, 14, 3), (8, 14, 3), (9, 14, 2), (10, 14, 2),
        ],
    )
    def test_every_block_counts_the_multipartitions_of_its_weight(self, n, max_size, order):
        # The n-regular partitions of a block of n-weight w are as many as the
        # (n - 1)-multipartitions of w, whatever the core: a reference that
        # enumerates no partition.  One call counts every block up to
        # max_size + n order, so each core up to max_size reaches weight order.
        expected = multipartition_counts(n - 1, max_size // n + order)
        blocks = block_series(n, max_size + n * order)
        assert set(n_cores(n, max_size)) <= set(blocks)
        for mu, series in blocks.items():
            assert series == expected[: len(series)], (n, mu)

    def test_blocks_partition_the_regular_set(self):
        for n in (2, 3, 4):
            by_size = Counter()
            for mu, series in block_series(n, 10).items():
                for w, count in enumerate(series):
                    by_size[sum(mu) + n * w] += count
            assert by_size == Counter(map(sum, partitions_up_to(10, regular=n)))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_content_route_holds_the_content_and_the_size_placed(self, n):
        # Stepped block by block over a partition, each block at its first
        # row index mod n, the route's state is its content differences and
        # its size, and the route cuts the block that takes the size past
        # the bound.
        start, step, close = _content_route(n, 12)
        for p in partitions_up_to(14, regular=n):
            state, rows = start, 0
            for v, a in exponent_form(p):
                state = step(state, v, a, rows % n)
                if state is None:
                    break
                rows += a
            if sum(p) > 12:
                assert state is None, p
                continue
            counts = residue_counts(p, n)
            diffs = tuple(c - counts[0] for c in counts[1:])
            assert state == (diffs, sum(p)), p
            assert close(state, len(p) % n) == diffs

    @pytest.mark.parametrize("n", range(2, 7))
    def test_size_cap_equals_the_uncapped_content_sweep(self, n):
        # The content route cuts a block once the size passes max_size; with
        # no cut, one sweep graded past every block's top weight counts the
        # same series for every core, at every max_size up to 14.
        order = max(residue_counts(mu, n)[0] + (14 - sum(mu)) // n for mu in n_cores(n, 14))
        sums = _sweep(n, order, *uncapped_content_route(n))
        for max_size in range(15):
            for mu, series in block_series(n, max_size).items():
                uncapped = _block_entry(sums, residue_counts(mu, n), len(series) - 1)
                assert series == uncapped, (n, max_size, mu)


class TestContentListing:
    """`partitions._listing` over the content route, against the filtered listing."""

    @pytest.mark.parametrize("n,max_size", [(2, 20), (3, 20), (4, 18), (5, 16), (6, 16), (7, 16)])
    def test_lists_every_content_in_decreasing_lex(self, n, max_size):
        # At grade d the key c_r - c_0 fixes the content, hence the size, so
        # each list is one content's bucket of the listing by size, in its
        # decreasing lex order; a content past max_size is cut.
        buckets = {}
        for p in partitions_up_to(max_size, regular=n):
            counts = residue_counts(p, n)
            buckets.setdefault(counts[0], {}).setdefault(_block_key(counts), []).append(p)
        for d in range(max(buckets) + 2):
            listed = _listing(n, d, *_content_route(n, max_size))
            assert listed == buckets.get(d, {}), (n, d)

    def test_the_empty_partition_is_listed_at_grade_zero_only(self):
        # Every other partition has its corner node, of residue 0.
        route = _content_route(3, 4)
        assert _listing(3, 0, *route) == {(0, 0): [()]}
        assert _listing(3, 1, *route)[(0, 0)] == [(3,), (2, 1)]


def filtered_census(n, size):
    """{content: the n-regular partitions of size with that content, in decreasing lex}."""
    buckets = {}
    for p in partitions_of(size, regular=n):
        buckets.setdefault(residue_counts(p, n), []).append(p)
    return buckets


def content_listing(n, counts):
    """The n-regular partitions of one content: one entry of a content-route `_listing`.

    The route's size cap is the content's own size, and its grade c_0.
    """
    if min(counts) < 0:
        return []
    return _listing(n, counts[0], *_content_route(n, sum(counts))).get(_block_key(counts), [])


def row_zeros(n, v, x):
    """The residue-0 nodes of a row of part v at 0-based row index x, by counting its nodes."""
    return sum(1 for t in range(v) if (t - x) % n == 0)


class TestContentWalk:
    """`_listing` one content at a time, and what its route's step sees."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_filtered_census_up_to_20(self, n):
        # A size cap equal to the content's size cuts no member.
        for size in range(21):
            for counts, members in filtered_census(n, size).items():
                assert content_listing(n, counts) == members, (n, counts)

    @pytest.mark.parametrize("n,max_size", [(2, 14), (3, 12), (4, 10), (5, 9)])
    def test_every_vector_up_to_size(self, n, max_size):
        # Contents that no partition has, or only irregular ones, list
        # nothing.
        buckets = {}
        for size in range(max_size + 1):
            buckets.update(filtered_census(n, size))
        for counts in product(range(max_size + 1), repeat=n):
            if sum(counts) <= max_size:
                assert content_listing(n, counts) == buckets.get(counts, []), counts

    @pytest.mark.parametrize("n,max_size", [(2, 14), (3, 12), (4, 10)])
    def test_prefix_sees_only_parts_that_can_hold_the_nodes_left(self, n, max_size):
        # The listing offers the step no block whose residue-0 nodes take
        # the grade past the order, and still lists every partition of that
        # grade: the state carries the grade, counted node by node from the
        # row index the listing hands the step.
        regular = list(partitions_up_to(max_size, regular=n))
        for order in range(max_size + 1):

            def step(state, v, a, rho, order=order):
                grade, size = state
                grade += sum(row_zeros(n, v, rho + x) for x in range(a))
                size += v * a
                assert grade <= order, (state, v, a)
                return None if size > max_size else (grade, size)

            listed = _listing(n, order, (0, 0), step, lambda state, rho: state[0])
            expected = sorted((p for p in regular if residue_counts(p, n)[0] == order), reverse=True)
            assert listed == ({order: expected} if expected else {}), (n, order)

    def test_examples(self):
        assert content_listing(3, (0, 0, 0)) == [()]
        assert content_listing(3, (2, 2, 2)) == [(6,), (5, 1), (4, 1, 1), (3, 3), (3, 2, 1)]
        assert content_listing(2, (0, 1)) == []
        assert content_listing(2, (-1, 2)) == []

    @pytest.mark.parametrize("n,max_size", [(2, 14), (3, 14), (4, 12)])
    def test_prefix_keeps_exactly_the_partitions_whose_prefixes_pass(self, n, max_size):
        def tracked(rows, v, a, rho):
            # The step is handed the state of exactly the blocks above:
            # here every row placed so far, and rho, their count mod n.
            assert rho == len(rows) % n and 1 <= a < n, (rows, v, a)
            assert not rows or v < rows[-1], (rows, v)
            return None if v == 2 else rows + (v,) * a

        def placed(rows, rho):
            # The close is handed the count of every row, the last block's too.
            assert rho == len(rows) % n, rows
            return rows

        def three_blocks(blocks, v, a, rho):
            return None if blocks == 3 else blocks + 1

        routes = [((), tracked, placed), (0, three_blocks, lambda blocks, rho: blocks)]
        for j in range(n):
            routes += [_fow_route(n, j), _crystal_route(n, j), _paths_route(n, j)]
        regular = list(partitions_up_to(max_size, regular=n))
        for route in routes:
            capped = size_capped_route(route, max_size)
            for order in range(max_size // n + 2):
                expected = {}
                for p in sorted(regular, reverse=True):
                    key = walk_blocks(capped, p, n) if residue_counts(p, n)[0] == order else None
                    if key is not None:
                        expected.setdefault(key, []).append(p)
                assert _listing(n, order, *capped) == expected, (n, order, route[0])

    def test_false_cuts_one_part_only(self):
        # A None from the step cuts that one block (v, a): the listing goes
        # on to the shorter blocks of v and to smaller parts.
        start, step, close = _content_route(3, 6)
        for cut, members in (
            ((3, 2), [(6,), (5, 1), (4, 1, 1), (3, 2, 1)]),
            ((1, 2), [(6,), (5, 1), (3, 3), (3, 2, 1)]),
            ((3, 1), [(6,), (5, 1), (4, 1, 1), (3, 3)]),
        ):

            def cutting(state, v, a, rho, cut=cut):
                return None if (v, a) == cut else step(state, v, a, rho)

            assert _listing(3, 2, start, cutting, close)[(0, 0)] == members, cut


@st.composite
def residue_series(draw):
    """(n, base, order): a partition's content, one count nudged by -1, 0 or 1, shifted by -delta.

    The shift by 0, 1 or 2 times (1, ..., 1) lets the base hold negative
    entries, so the first d of a series may have no content.
    """
    n = draw(st.integers(2, 5))
    p = draw(st.sampled_from(list(partitions_of(draw(st.integers(0, 12))))))
    counts = list(residue_counts(p, n))
    r = draw(st.integers(0, n - 1))
    counts[r] = max(0, counts[r] + draw(st.integers(-1, 1)))
    shift = draw(st.integers(0, 2))
    return n, tuple(c - shift for c in counts), draw(st.integers(0, 3))


def never(*args):
    raise AssertionError("no block to step or close")


class TestContentCount:
    """`branching._census` over the content route: one content base + d (1, ..., 1) at a time."""

    @settings(max_examples=100, deadline=None)
    @given(residue_series())
    def test_counts_the_filtered_listing_walk(self, case):
        # Coefficient c_0 + d of the base's key counts the n-regular
        # partitions of base + d (1, ..., 1), 0 when that content has a
        # negative entry; the chi route counts those that pass `is_js`.
        n, base, order = case
        top = max(base[0] + order, 0)
        cap = max(sum(base) + n * order, 0)
        key = _block_key(base)
        counted = {
            "all": _census(n, top, *_content_route(n, cap)).get(key, (0,) * (top + 1)),
            "js": _census(n, top, *size_capped_route(_chi_route(n), cap)).get(key, (0,) * (top + 1)),
        }
        for d in range(order + 1):
            counts = tuple(c + d for c in base)
            members = [] if min(counts) < 0 else filtered_census(n, sum(counts)).get(counts, [])
            expected = {"all": len(members), "js": sum(is_js(p, n) for p in members)}
            for route, series in counted.items():
                got = series[counts[0]] if counts[0] >= 0 else 0
                assert got == expected[route], (n, base, d, route)

    def test_empty_and_impossible_contents(self):
        # At order 0 only the empty partition is counted, with no block
        # stepped; (0, 1) and (-1, 2) at n = 2 have no partition.
        assert _census(3, 0, ((0, 0), 0), never, lambda state, rho: state[0]) == {(0, 0): (1,)}
        sums = _census(2, 2, *_content_route(2, 4))
        assert sums.get(_block_key((0, 1)), (0,))[0] == 0
        assert _block_key((-1, 2)) not in sums

    def test_counts_what_the_prefix_and_close_pass(self):
        # The close sees each member's last part, which the route carries
        # beside the content, and its row count mod n, which the walker
        # hands it: a close that keys on both counts each such pair.  (3)
        # and (2, 1) have content (1, 1, 1), beside the empty partition at
        # grade 0; (1, 1, 1) is not 3-regular.
        start, step, close = _content_route(3, 3)
        assert _census(3, 1, start, step, close)[(0, 0)] == (1, 2)
        for counts in ((2, 2, 2), (4, 3, 3), (5, 5, 4)):
            start, step, close = _content_route(3, sum(counts))

            def ends(state, v, a, rho):
                after = step(state[0], v, a, rho)
                return None if after is None else (after, v)

            def keyed(state, rho):
                return close(state[0], rho), state[1], rho

            members = content_listing(3, counts)
            sums = _census(3, counts[0], (start, None), ends, keyed)
            got = Counter()
            for (diffs, v, rho), series in sums.items():
                if diffs == _block_key(counts):
                    got[v, (rho - 1) % 3] += series[counts[0]]
            expected = Counter((p[-1], (len(p) - 1) % 3) for p in members)
            assert +got == expected, counts

    def test_checks_arguments_when_called(self):
        # The order and the rank are checked before any block is stepped.
        with pytest.raises(ValueError, match="order must be nonnegative"):
            _census(3, -1, ((0, 0), 0), never, never)
        with pytest.raises(ValueError, match="n must be at least 2"):
            _class_members(1, 0, 0, 2, "fow")


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
