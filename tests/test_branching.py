from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slnbranch import (
    branching_series,
    class_residue_counts,
    fow_index,
    in_fow,
    in_path_set,
    is_n_regular,
    partitions_of,
    partitions_up_to,
    residue_counts,
    verify_fow_theorem,
    weight_of,
)
from slnbranch import branching
from slnbranch.branching import (
    METHODS,
    _class_members,
    _crystal_route,
    _fow_route,
    _paths_route,
    _sweep,
    fow_close,
    fow_prefix,
    sweep_series,
)
from slnbranch.cores import CUT_ROW, count_by_weight
from slnbranch.crystal import _scan, eps_index
from slnbranch.partitions import exponent_form

from oracles import (
    column_walk_in_path_set,
    crystal_member,
    dominant_path,
    eps_close,
    eps_prefix,
    filtered_bucket_series,
    listed_series,
    path_coordinates,
    prefix_steps,
    prefix_value,
    residue_class,
    settled_eps_close,
    settled_eps_prefix,
)

# the six worked n=3 series (orders as displayed: three terms each)
EXAMPLE_TABLE = {
    (0, 0): (1, 0, 1),
    (0, 1): (0, 1, 2, 2),
    (1, 0): (1, 1, 2),
    (1, 2): (0, 1, 1, 2),
    (2, 0): (1, 1, 2),
    (2, 1): (0, 1, 1, 2),
}


def class_lam(n, j, k):
    """L-coefficients of L(k) + L(j - k) - L(j), the weight of class (j, k) mod delta."""
    lam = [0] * n
    lam[k % n] += 1
    lam[(j - k) % n] += 1
    lam[j % n] -= 1
    return tuple(lam)


class TestPathOf:
    """The column-by-column path reference, pinned by hand and by weight."""

    def test_empty(self):
        assert path_coordinates((), 3, 0) == [(2, 0, 0)]

    def test_21_j1(self):
        lams = path_coordinates((2, 1), 3, 1)
        assert lams == [(1, 1, 0), (1, 0, 1), (0, 1, 1)]  # L0+L1, L0+L2, L1+L2

    def test_21_j0_hits_nondominant(self):
        assert path_coordinates((2, 1), 3, 0)[1] == (2, -1, 1)
        assert not dominant_path((2, 1), 3, 0)

    def test_level_two_coordinates(self):
        for m in range(9):
            for p in partitions_of(m, regular=3):
                for j in range(3):
                    assert all(sum(lam) == 2 for lam in path_coordinates(p, 3, j))

    def test_first_coordinate_is_weight_plus_lambda_for_members(self):
        for m in range(10):
            for p in partitions_of(m, regular=3):
                for j in range(3):
                    if in_path_set(p, 3, j):
                        expected = list(weight_of(p, 3)[0])
                        expected[j] += 1
                        assert path_coordinates(p, 3, j)[0] == tuple(expected)


class TestMembership:
    def test_examples(self):
        assert in_path_set((2, 1), 3, 1)
        assert not in_path_set((2, 1), 3, 0)
        assert in_path_set((), 3, 2)

    def test_members_are_regular(self):
        # the path set sits inside the n-regular partitions by definition
        assert not in_path_set((1, 1), 2, 0)
        assert not in_path_set((1, 1), 2, 1)

    def test_agrees_with_full_dominance_scan(self):
        # Every partition, n-singular ones included, against the column walk
        # and the scan of every coordinate; up to size 18 a block of equal
        # columns (a gap between consecutive parts) runs longer than n.
        for n in range(2, 8):
            for p in partitions_up_to(18):
                regular = is_n_regular(p, n)
                for j in range(-1, n + 2):
                    got = in_path_set(p, n, j)
                    assert got == column_walk_in_path_set(p, n, j), (p, n, j)
                    assert got == (regular and dominant_path(p, n, j)), (p, n, j)


class TestFow:
    @pytest.mark.parametrize(
        "p,expected",
        [((2, 1), 1), ((5, 5, 4, 1, 1), None), ((3,), 2), ((), 0), ((4, 1, 1), 0)],
    )
    def test_index_examples(self, p, expected):
        assert fow_index(p, 3) == expected

    def test_index_rejects_irregular(self):
        assert fow_index((1, 1, 1), 3) is None

    @pytest.mark.parametrize("p,expected", [((2, 1), 0), ((3,), 0), ((), 0)])
    def test_k_examples(self, p, expected):
        j = fow_index(p, 3)
        assert weight_of(p, 3)[0] == class_lam(3, j, expected)

    def test_k_is_canonical_label(self):
        # Every member lies in exactly one class pair {k, j - k}.
        for m in range(11):
            for p in partitions_of(m, regular=3):
                j = fow_index(p, 3)
                if j is None:
                    continue
                labels = [k for k in range(3) if weight_of(p, 3)[0] == class_lam(3, j, k)]
                assert labels and {labels[0], (j - labels[0]) % 3} == set(labels)

    def test_empty_belongs_to_every_index(self):
        for n in (2, 3, 4):
            assert all(in_fow((), n, j) for j in range(n))

    def test_index_unique_for_nonempty_members(self):
        for m in range(1, 11):
            for p in partitions_of(m, regular=3):
                memberships = [j for j in range(3) if in_fow(p, 3, j)]
                assert len(memberships) <= 1


class TestClassCensus:
    def test_hand_solved_cases(self):
        assert class_residue_counts(3, 1, 0) == (0, 0, 0)
        assert class_residue_counts(3, 2, 1) == (0, -1, 0)
        # (0, -1, -1): at d = 0 the class has no member, so both counting
        # routes start their series with 0; at d = 1 the content is (1, 0, 0).
        assert class_residue_counts(3, 0, 1) == (0, -1, -1)
        assert branching_series(3, 0, 1, 1, "fow") == (0, 1)
        assert branching_series(3, 0, 1, 1, "crystal") == (0, 1)

    def test_census_characterizes_class_members(self):
        # counts match iff weight class and energy match
        for d in range(1, 4):
            counts = tuple(c + d for c in class_residue_counts(3, 0, 1))
            for p in partitions_of(sum(counts)):
                in_class = (
                    weight_of(p, 3)[0] == class_lam(3, 0, 1)
                    and residue_counts(p, 3)[0] == d
                )
                assert (residue_counts(p, 3) == counts) == in_class


class TestBranchingMethods:
    @pytest.mark.parametrize("jk,expected", sorted(EXAMPLE_TABLE.items()))
    def test_paths(self, jk, expected):
        j, k = jk
        assert branching_series(3, j, k, len(expected) - 1, "paths") == expected

    @pytest.mark.parametrize("jk,expected", sorted(EXAMPLE_TABLE.items()))
    def test_fow(self, jk, expected):
        j, k = jk
        assert branching_series(3, j, k, len(expected) - 1, "fow") == expected

    @pytest.mark.parametrize("jk,expected", sorted(EXAMPLE_TABLE.items()))
    def test_crystal(self, jk, expected):
        j, k = jk
        assert branching_series(3, j, k, len(expected) - 1, "crystal") == expected

    def test_trivial_n2(self):
        assert branching_series(2, 0, 0, 0, "fow") == (1,)

    def test_methods_agree_small_scale(self):
        for n in (2, 3):
            for j in range(n):
                for k in range(n):
                    rows = {
                        branching_series(n, j, k, 5, method)
                        for method in ("paths", "fow", "crystal", "fermionic")
                    }
                    assert len(rows) == 1, (n, j, k, rows)

    def test_all_methods_agree_to_order_8(self):
        for n in (2, 3, 4):
            for j in range(n):
                for k in range(n):
                    if k > (j - k) % n:
                        continue
                    rows = {
                        branching_series(n, j, k, 8, method)
                        for method in ("paths", "fow", "crystal", "fermionic")
                    }
                    assert len(rows) == 1, (n, j, k, rows)

    def test_coefficients_nonnegative(self):
        for j in range(3):
            for k in range(3):
                assert min(branching_series(3, j, k, 6, "fow")) >= 0

    def test_label_symmetry(self):
        # k and (j - k) mod n label the same class
        for n in (3, 4):
            for j in range(n):
                for k in range(n):
                    assert (
                        branching_series(n, j, k, 5, "fow")
                        == branching_series(n, j, (j - k) % n, 5, "fow")
                    )

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            branching_series(3, 0, 0, 2, "bogus")

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("n", [0, 1])
    def test_small_n_rejected(self, method, n):
        with pytest.raises(ValueError, match="n must be at least 2"):
            branching_series(n, 0, 0, 2, method)


class TestPathChainAgreement:
    @pytest.mark.parametrize("n,max_size", [(3, 8), (2, 10), (5, 6)])
    def test_no_counterexamples(self, n, max_size):
        report = verify_fow_theorem(n, max_size)
        assert report.failures == []
        assert report.cases > 0

    def test_members_always_regular(self):
        for m in range(11):
            for p in partitions_of(m):
                for j in range(3):
                    if in_path_set(p, 3, j):
                        assert is_n_regular(p, 3)


ROUTES = ("paths", "fow", "crystal")


@st.composite
def small_branching_cases(draw):
    n = draw(st.integers(2, 5))
    return n, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(st.integers(0, 8))


class TestRoutesAgainstFilteredBuckets:
    """The three block sweeps equal the filtered unpruned buckets."""

    @pytest.mark.parametrize("n,order", [(2, 12), (3, 10), (4, 8), (5, 6)])
    def test_every_class(self, n, order):
        for j in range(n):
            for k in range(n):
                expected = filtered_bucket_series(n, j, k, order)
                for route in ROUTES:
                    got = branching_series(n, j, k, order, route)
                    assert got == expected[route], (n, j, k, route)

    @settings(max_examples=30, deadline=None)
    @given(small_branching_cases())
    def test_random_class(self, case):
        n, j, k, order = case
        expected = filtered_bucket_series(n, j, k, order)
        for route in ROUTES:
            assert branching_series(n, j, k, order, route) == expected[route]

    def test_paths_end_only_at_class_end_points(self):
        # Every end point is L(k) + L(j - k) for some k: a level-2 dominant
        # weight with j = (sum of its two labels) mod n.
        for n in (2, 3, 4, 5):
            for j in range(n):
                for labels in _sweep(n, 6, *_paths_route(n, j)):
                    assert len(labels) == 2 and sum(labels) % n == j, (n, j, labels)


# Each route's sweep factory and its membership test.
SWEEPS = {
    "paths": (_paths_route, in_path_set),
    "fow": (_fow_route, in_fow),
    "crystal": (_crystal_route, crystal_member),
}
# The listing reference's size bound at each rank.
LISTED_SIZES = {2: 22, 3: 22, 4: 20, 5: 20, 6: 18, 7: 18}


class TestBlockSweep:
    """Each route's block sweep against every n-regular partition, filtered by its test."""

    @pytest.mark.parametrize("n", sorted(LISTED_SIZES))
    def test_every_class_equals_the_filtered_listing(self, n):
        # Coefficient d of class (j, k) counts partitions of size
        # n d + sum(class_residue_counts(n, j, k)), so the listing up to
        # `size` holds every such partition up to that d.
        size = LISTED_SIZES[n]
        order = size // n + 1
        regular = [(p, residue_counts(p, n)[0]) for p in partitions_up_to(size, regular=n)]
        for j in range(n):
            listed = {route: {k: [0] * (order + 1) for k in range(n)} for route in SWEEPS}
            for p, d in regular:
                if d > order:
                    continue
                pair = residue_class(p, n, j)
                for route, (_, member) in SWEEPS.items():
                    if member(p, n, j):
                        assert pair is not None, (n, j, p, route)
                        for k in set(pair):
                            listed[route][k][d] += 1
            for route in SWEEPS:
                got = sweep_series(n, j, order, route)
                for k in range(n):
                    top = min(order, (size - sum(class_residue_counts(n, j, k))) // n)
                    expected = tuple(listed[route][k][: top + 1])
                    assert got[k][: top + 1] == expected, (n, j, k, route)

    @pytest.mark.parametrize("n", sorted(LISTED_SIZES))
    def test_class_readings_equal_residue_counts(self, n):
        # Stepping a partition's blocks through a route's sweep step cuts it
        # exactly when it is not a member, and the close of a member reads
        # the class its residue content names.
        for p in partitions_up_to(LISTED_SIZES[n] - 4, regular=n):
            for j in range(n):
                pair = residue_class(p, n, j)
                for route, (make, member) in SWEEPS.items():
                    start, step, close = make(n, j)
                    state = start
                    for v, a in exponent_form(p):
                        state = step(state, v, a)
                        if state is None:
                            break
                    if member(p, n, j):
                        assert state is not None and close(state) == pair, (p, j, route)
                    else:
                        assert state is None, (p, j, route)

    def test_the_empty_partition_is_class_j0_which_is_class_jj(self):
        # At order 0 the empty partition is the only partition counted; it
        # belongs to class (j, 0), which (j, j) labels too.
        for n in range(2, 8):
            for j in range(n):
                for route in SWEEPS:
                    got = sweep_series(n, j, 0, route)
                    assert got == {k: (1,) if k in (0, j) else (0,) for k in range(n)}, (n, j)
                    assert branching_series(n, j, j, 0, route) == (1,)

    def test_unknown_sweep_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep method 'fermionic'"):
            sweep_series(3, 0, 2, "fermionic")


class TestCountingRoutes:
    """fow and crystal count what the listing walk lists and the leaf tests keep."""

    @pytest.mark.parametrize("n,order", [(2, 12), (3, 12), (4, 12), (5, 10), (6, 9)])
    def test_every_class_equals_the_filtered_listing(self, n, order):
        for j in range(n):
            for k in range(n):
                expected = listed_series(n, j, k, order)
                for route in ("fow", "crystal"):
                    got = branching_series(n, j, k, order, route)
                    assert got == expected[route], (n, j, k, route)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_close_decides_every_walked_partition(self, n):
        # On a partition all of whose row prefixes pass, the closing test on
        # its last row is the route's membership test.
        for p in partitions_up_to(12, regular=n):
            if not p:
                continue
            r = (len(p) - 1) % n
            for j in range(n):
                value = prefix_value(fow_prefix(n, j), p, n)
                if value:
                    assert fow_close(p[-1], r, value) == in_fow(p, n, j), (p, j)
                value = prefix_value(eps_prefix(n, j), p, n)
                if value:
                    assert eps_close(n, j)(p[-1], r, value) == (eps_index(p, n) == j), (p, j)

    def test_close_examples(self):
        # (3, 3) at n = 3 is the one block (3, 2), so j = 1; (3,) is the
        # block (3, 1), j = 2, short of the two rows j = 1 forces on it.
        assert fow_close(3, 1, prefix_value(fow_prefix(3, 1), (3, 3), 3))
        assert not fow_close(3, 0, prefix_value(fow_prefix(3, 1), (3,), 3))
        # (2, 1) at n = 3: row 1's removable node, residue 1, raises eps_1,
        # and its addable node leaves a "+" of residue 2, which row 2's
        # removable node, residue 2, cancels: eps = e_1.
        # That leaves only residue 2 able to absorb a "-".
        value = prefix_value(eps_prefix(3, 1), (2, 1), 3)
        assert value == (1, (0, 0, 1), 0b100) and eps_close(3, 1)(1, 1, value)
        # (2,) and (2, 2): a lone removable node of residue 1, resp. 0.
        assert eps_close(3, 1)(2, 0, prefix_value(eps_prefix(3, 1), (2,), 3))
        assert not eps_close(3, 0)(2, 0, prefix_value(eps_prefix(3, 0), (2,), 3))
        value = prefix_value(eps_prefix(3, 0), (2, 2), 3)
        assert eps_close(3, 0)(2, 1, value) and not eps_close(3, 1)(2, 1, value)

    @pytest.mark.parametrize("n,order", [(2, 16), (3, 14), (4, 12), (5, 10)])
    def test_shared_memo_equals_a_fresh_memo_per_d(self, n, order):
        # A class count shares one memo by every d; counting each d's
        # content on its own, with a fresh memo, gives the same series.
        for j in range(n):
            for k in range(n):
                base = class_residue_counts(n, j, k)
                for route, prefix, close in (
                    ("fow", fow_prefix(n, j), fow_close),
                    ("crystal", eps_prefix(n, j), eps_close(n, j)),
                ):
                    fresh = tuple(
                        count_by_weight(n, [c + d for c in base], 0, prefix, close)[0]
                        for d in range(order + 1)
                    )
                    got = _class_members(n, j, k, order, prefix, close)
                    assert got == fresh, (n, j, k, route)
                    assert got == branching_series(n, j, k, order, route), (n, j, k, route)

    def test_eps_prefix_keeps_the_value_inside_a_run(self):
        # A candidate equal to a row above that does not start its run
        # settles no node, so the value is handed on as it is, not copied:
        # the third 1 of (5, 1, 1, 1) at n = 4.  If that row starts its run,
        # its addable node adds a "+": row 2 of (4, 1, 1) at n = 3, part 1,
        # residue 0, which sets bit 0 of the residues that can absorb a "-".
        value = prefix_value(eps_prefix(4, 0), (5, 1, 1), 4)
        assert eps_prefix(4, 0)(1, 1, 2, 3, value) is value
        value = prefix_value(eps_prefix(3, 0), (4, 1), 3)
        assert value == (1, (0, 1, 0), 0b010)
        assert eps_prefix(3, 0)(1, 1, 1, 2, value) == (1, (1, 1, 0), 0b011)


class TestPrefixTests:
    """No prefix of a member is cut, so the prunes are pure speed-ups."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_no_member_prefix_is_cut(self, n):
        for p in partitions_up_to(14, regular=n):
            j = fow_index(p, n)
            if j is not None:
                assert prefix_value(fow_prefix(n, j), p, n), p
                assert prefix_value(fow_prefix(n), p, n), p
            j = eps_index(p, n)
            if j is not None:
                assert prefix_value(eps_prefix(n, j), p, n), p

    def test_prefixes_cut(self):
        # (3, 1) closes the first block (3, 1), which gives j = 2 at n = 3,
        # so for j = 1 it is cut.  For j = 2, (3, 2) passes: the next block
        # (2, a2) needs a2 ≡ 2 - 3 - 1 ≡ 1 (for (3, 1) see the open-block test).
        assert not prefix_value(fow_prefix(3, 1), (3, 1), 3)
        assert prefix_value(fow_prefix(3, 2), (3, 2), 3)
        # (3, 2) closes the first block (3, 1), but j = 1 needs length 2.
        assert prefix_value(fow_prefix(3, 1), (3, 3), 3)
        assert not prefix_value(fow_prefix(3, 1), (3, 2), 3)
        # At n = 4, (5, 4) forces a block (4, a2) with a2 ≡ 4 - 5 - 1 ≡ 2,
        # so (5, 4, 3) closes it one row too early.
        assert prefix_value(fow_prefix(4), (5, 4, 4), 4)
        assert not prefix_value(fow_prefix(4), (5, 4, 3), 4)
        # (4, 2, 1) at n = 3 with no fixed j: the first block may have any
        # length, but (4, 2) already needs a block (2, a2) with
        # a2 ≡ 2 - 4 - 1 ≡ 0, so the cut comes one row before (4, 2, 1).
        assert prefix_value(fow_prefix(3), (4,), 3) and not prefix_value(fow_prefix(3), (4, 2), 3)
        # (5, 4, ...): 1 + 5 - 4 + a2 ≡ 0 forces a2 = 1, so a second 4 is cut.
        assert prefix_value(fow_prefix(3), (5, 4), 3)
        assert not prefix_value(fow_prefix(3), (5, 4, 4), 3)
        # Row 1 of (4, 2) raises eps_0 and leaves a "+" of residue 1 only,
        # while the run of 2s from row 2 ends at residue 0 or 2 (one row or
        # two): its "-" can be absorbed nowhere, so the look-ahead cuts
        # (4, 2), one row before (4, 2, 1) settles that node.
        assert prefix_value(eps_prefix(3, 0), (4,), 3)
        assert not prefix_value(eps_prefix(3, 0), (4, 2), 3)
        # Row 1 of (3, 1) holds a removable node of residue 2, which cuts
        # (3, 1) for j = 0.  For j = 2 it raises eps_2 and leaves a "+" of
        # residue 0 only, while the run of 1s ends at residue 2 or 1: the
        # look-ahead cuts it too.
        assert prefix_value(eps_prefix(3, 2), (3,), 3)
        assert not prefix_value(eps_prefix(3, 2), (3, 1), 3)
        assert not prefix_value(eps_prefix(3, 0), (3, 1), 3)
        # The candidate's own removable node is not settled yet: (3,) has
        # eps = e_2, but (3, 3) has eps = e_1.  A run of 3s in the first
        # row, one or two rows long, ends at residue 2 or 1, never at 0,
        # and no "+" lies above it, so for j = 0 (3,) is cut.
        assert prefix_value(eps_prefix(3, 1), (3,), 3)
        assert not prefix_value(eps_prefix(3, 0), (3,), 3)

    def test_open_fow_block_is_cut(self):
        # At n = 3 the first block of (3, ...) must have length (3 - j) mod 3.
        assert not prefix_value(fow_prefix(3, 0), (3,), 3)
        assert prefix_value(fow_prefix(3, 2), (3,), 3)
        assert not prefix_value(fow_prefix(3, 2), (3, 3), 3)
        # (3, 1) closes the block (3, 1) of j = 2, and then the block
        # (1, a2) would need a2 ≡ 1 - 3 - 1 ≡ 0.
        assert not prefix_value(fow_prefix(3, 2), (3, 1), 3)

    def test_eps_prefix_carries_the_scan(self):
        # Stepping down the rows gives the eps_j and "+" counts of one scan
        # over the rows above the candidate, and the residues that can
        # absorb a "-": a "+" survives there, or it is j and eps_j = 0.  The
        # test passes exactly when one of them is a residue where the
        # candidate's run, of `length` rows so far, can end.
        for n in (3, 4):
            for p in partitions_up_to(12, regular=n):
                length = 0
                for r in range(1, len(p) + 1):
                    length = length + 1 if r > 1 and p[r - 1] == p[r - 2] else 1
                    eps, plus, _ = _scan(p[:r], n)
                    counts = tuple(len(rows) for rows in plus)
                    ends = {(p[r - 1] - r - t) % n for t in range(n - length)}
                    for j in range(n):
                        value = prefix_value(eps_prefix(n, j), p[:r], n)
                        absorb = {x for x in range(n) if counts[x] or x == j and not eps[j]}
                        if eps[j] <= 1 and sum(eps) == eps[j] and absorb & ends:
                            settles = sum(1 << x for x in absorb)
                            assert value == (eps[j], counts, settles), (p, r, j)
                        else:
                            assert not value, (p, r, j)


def member_heads(n, max_size):
    """For each j, the row prefixes of the n-regular partitions up to max_size with eps = e_j."""
    heads = {j: set() for j in range(n)}
    for q in partitions_up_to(max_size, regular=n):
        j = eps_index(q, n)
        if q and j is not None:
            heads[j].update(q[:k] for k in range(1, len(q) + 1))
    return heads


class TestLookAhead:
    """The crystal test cuts a run ahead of its end only where no member lies below."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_counts_equal_the_settled_rows_reference(self, n):
        for j in range(n):
            pruned = eps_prefix(n, j), eps_close(n, j)
            settled = settled_eps_prefix(n, j), settled_eps_close(n, j)
            for k in range(n):
                base = class_residue_counts(n, j, k)
                got = count_by_weight(n, base, 12, *pruned)
                assert got == count_by_weight(n, base, 12, *settled), (n, j, k)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cut_prefixes_have_no_member_below(self, n):
        # A plain falsy value is the look-ahead's cut (the settled rows cut
        # with CUT_ROW); no partition up to 14 with eps = e_j begins with
        # the rows it cuts.
        heads = member_heads(n, 14)
        cuts = 0
        for p in partitions_up_to(12, regular=n):
            for j in range(n):
                steps = list(prefix_steps(eps_prefix(n, j), p, n))
                value = steps[-1][1] if steps else True
                if not value and value is not CUT_ROW:
                    cuts += 1
                    assert p[: len(steps)] not in heads[j], (p, j)
        assert cuts

    def test_hand_examples_have_no_member_below(self):
        # The examples of `test_prefixes_cut` that the look-ahead cuts
        # before the settled rows do.
        heads = member_heads(3, 14)
        for j, p in ((0, (4, 2)), (0, (3,)), (2, (3, 1))):
            assert not prefix_value(eps_prefix(3, j), p, 3)
            assert prefix_value(settled_eps_prefix(3, j), p, 3), (j, p)
            assert p not in heads[j], (j, p)

    # The crystal route no longer walks rows: the two tests below count the
    # block sweep that replaced its content walk.

    @pytest.mark.parametrize("n,order", [(3, 24), (4, 24), (5, 18), (6, 16)])
    def test_crystal_row_steps_stay_near_fow(self, n, order, monkeypatch):
        # The crystal sweep holds one state more than the fow sweep's n, its
        # start, so it makes at most (n + 1) / n times the fow block steps.
        steps, _ = count_block_steps(monkeypatch)
        for j in range(n):
            steps.clear()
            for route in ("fow", "crystal"):
                sweep_series(n, j, order, route)
            assert n * steps["crystal"] <= (n + 1) * steps["fow"], (n, j, steps)

    def test_crystal_states_on_one_class(self, monkeypatch):
        # The sweep for class (1, 0) at (4, 44) holds n + 1 = 5 crystal states:
        # the start, and one per rho, since after the first block the one
        # surviving "+" sits at residue j + rho.  The paths and fow sweeps
        # hold n each; the content walk filled 5,456 memo states here.
        steps, states = count_block_steps(monkeypatch)
        for route in ("paths", "fow", "crystal"):
            branching_series(4, 1, 0, 44, route)
        assert {route: len(seen) for route, seen in states.items()} == {
            "paths": 4,
            "fow": 4,
            "crystal": 5,
        }
        assert all(steps.values())


def count_block_steps(monkeypatch):
    """The block steps per route (a Counter) and the states each sweep reaches.

    Each route's factory is rebound for the test; `sweep_series` looks it
    up by its global name on every call.
    """
    steps = Counter()
    states = {}

    def counted(route, make):
        def made(n, j):
            start, step, close = make(n, j)
            seen = states.setdefault(route, set())
            seen.add(start)

            def counted_step(state, v, a):
                steps[route] += 1
                after = step(state, v, a)
                if after is not None:
                    seen.add(after)
                return after

            return start, counted_step, close

        return made

    for route, make in (("paths", _paths_route), ("fow", _fow_route), ("crystal", _crystal_route)):
        monkeypatch.setattr(branching, f"_{route}_route", counted(route, make))
    return steps, states


def route_prefixes(n):
    """Every route prefix test at rank n: fow for each j and for none, crystal for each j."""
    return [fow_prefix(n)] + [make(n, j) for make in (fow_prefix, eps_prefix) for j in range(n)]


def reached_windows(prefix, n):
    """The windows (v1, run, r, above) reached on the n-regular partitions up to 12."""
    return {
        window for p in partitions_up_to(12, regular=n) for window, _ in prefix_steps(prefix, p, n)
    }


class TestRowCutContract:
    """The two clauses of the prefix contract that the walks rely on, on the route tests."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cut_row_leaves_no_smaller_part_passing(self, n):
        # The row step offers a row's parts largest first and stops at
        # CUT_ROW, so no smaller part of that window may pass.
        cuts = 0
        for prefix in route_prefixes(n):
            for v1, run, r, above in reached_windows(prefix, n):
                values = [prefix(v, v1, run, r, above) for v in range(1, (v1 or 12) + 1)]
                for v, value in enumerate(values, start=1):
                    if value is CUT_ROW:
                        cuts += 1
                        assert not any(values[: v - 1]), (prefix, v, v1, run, r, above)
        # At n = 2 every run has one row, so the crystal look-ahead settles
        # each run's node one row before a CUT_ROW could, and the fow block
        # length is always 1: no route test cuts a row there.
        assert cuts or n == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_part_below_the_row_above_reads_it_mod_n(self, n):
        # The counting memo keys a placed part that no row below can reach
        # on its residue mod n and whether it starts its run, so below it
        # v1 and v1 + n must be alike, and so must every run other than 1.
        for prefix in route_prefixes(n):
            for v1, run, r, above in reached_windows(prefix, n):
                runs = [run] if run == 1 else range(2, n)
                for v in range(1, v1 or 1):
                    got = prefix(v, v1, run, r, above)
                    for other in runs:
                        window = (other, r, above)
                        assert got == prefix(v, v1 + n, *window), (v, v1, run, r, above)
                        assert got == prefix(v, v1, *window), (v, v1, run, r, above)

    def test_route_tests_cut_the_row(self):
        # fow, j = 1 at n = 3: the first block (3, ...) needs length 2, so
        # below one row of 3 only a second 3 can go on.
        assert fow_prefix(3, 1)(2, 3, 1, 1, (1, 2)) is CUT_ROW
        # crystal, j = 0 at n = 3, below (2,): the first row passes, since
        # a run of 2s two rows long ends at residue 0, but a smaller part
        # ends the run at once, at residue 1, with no "+" to cancel it.
        value = prefix_value(eps_prefix(3, 0), (2,), 3)
        assert eps_prefix(3, 0)(1, 2, 1, 1, value) is CUT_ROW
