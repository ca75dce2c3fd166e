from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slnbranch import (
    branching_series,
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
from slnbranch import branching, jantzen_seitz
from slnbranch.branching import (
    METHODS,
    _census,
    _class_members,
    _crystal_route,
    _fow_route,
    _paths_route,
    _sweep,
    sweep_series,
)
from slnbranch.cores import _content_route
from slnbranch.jantzen_seitz import _chi_route
from slnbranch.partitions import _listing

from oracles import (
    class_residue_counts,
    column_walk_in_path_set,
    crystal_member,
    dominant_path,
    filtered_bucket_series,
    path_coordinates,
    residue_class,
    size_capped_route,
    walk_blocks,
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
                    key = walk_blocks(make(n, j), p, n)
                    if member(p, n, j):
                        assert key is not None and key == pair, (p, j, route)
                    else:
                        assert key is None, (p, j, route)

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
    """Each route's block sweep counts what its listing twin lists, one d at a time (`_census`)."""

    @pytest.mark.parametrize("n,order", [(2, 10), (3, 8), (4, 6), (5, 5), (6, 4), (7, 3)])
    def test_equals_the_sweep_on_every_key(self, n, order):
        makes = (_paths_route, _fow_route, _crystal_route)
        routes = [make(n, j) for make in makes for j in range(n)]
        routes += [_chi_route(n), _content_route(n, n * order)]
        for route in routes:
            assert _census(n, order, *route) == _sweep(n, order, *route), (n, route[0])

    @pytest.mark.parametrize("n,order", [(2, 16), (3, 14), (4, 12), (5, 10)])
    def test_class_members_equal_the_sweep(self, n, order):
        # The listing count of each class, read as `sweep_series` reads the
        # sweep, equals the route's block sweep.
        for j in range(n):
            for route in ("paths", "fow", "crystal"):
                swept = sweep_series(n, j, order, route)
                for k in range(n):
                    got = _class_members(n, j, k, order, route)
                    assert got == swept[k], (n, j, k, route)

    @pytest.mark.parametrize("n,order", [(2, 12), (3, 12), (4, 12), (5, 10), (6, 9)])
    def test_every_class_equals_the_filtered_listing(self, n, order):
        # The three routes list the same partitions under the same class
        # key at every d, and each one passes all three membership tests
        # and lies in the class its residue content names.
        for j in range(n):
            for d in range(order + 1):
                listed = {route: _listing(n, d, *make(n, j)) for route, (make, _) in SWEEPS.items()}
                assert listed["paths"] == listed["fow"] == listed["crystal"], (n, j, d)
                for key, members in listed["fow"].items():
                    for p in members:
                        assert residue_class(p, n, j) == key, (n, j, p)
                        for route, (_, member) in SWEEPS.items():
                            assert member(p, n, j), (n, j, p, route)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_close_decides_every_walked_partition(self, n):
        # Under a size cap of 12, each route's listing at grade d holds
        # exactly the members of size up to 12 with d residue-0 nodes, each
        # under the class its residue content names.
        regular = sorted(partitions_up_to(12, regular=n), reverse=True)
        for j in range(n):
            for route, (make, member) in SWEEPS.items():
                capped = size_capped_route(make(n, j), 12)
                for d in range(12 // n + 2):
                    expected = {}
                    for p in regular:
                        if residue_counts(p, n)[0] == d and member(p, n, j):
                            expected.setdefault(residue_class(p, n, j), []).append(p)
                    assert _listing(n, d, *capped) == expected, (n, j, d, route)

    def test_close_examples(self):
        # (3, 3) at n = 3 is the one block (3, 2), which j = 1 admits; it
        # closes into class (1, 0).  (2, 1) closes there too.  (2,) is the
        # block (2, 1), which j = 1 admits and j = 0 cuts: for j = 1 it
        # closes into class (1, 2), whose labels are (2, 2).
        for route, (make, _) in SWEEPS.items():
            for j, p, key in ((1, (3, 3), (0, 1)), (1, (2, 1), (0, 1)), (1, (2,), (2, 2))):
                assert walk_blocks(make(3, j), p, 3) == key, (route, j, p)
                assert residue_class(p, 3, j) == key
            assert walk_blocks(make(3, 0), (2,), 3) is None, route
        # The empty partition closes from the start state into class (j, 0).
        for route, (make, _) in SWEEPS.items():
            for j in range(4):
                start, _, close = make(4, j)
                assert close(start, 0) == tuple(sorted((0, j))), (route, j)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_every_route_closes_its_own_start(self, n, monkeypatch):
        # At order 0 the sweep and the listing step no block: each closes
        # the route's start alone, the empty partition, under the key the
        # route's docstring names: class (j, 0) for paths, fow and crystal
        # at every j, and the zero differences c_r - c_0 for the content
        # and chi routes and for js_set's listing of the empty core.
        routes = [
            (make(n, j), tuple(sorted((0, j)))) for make, _ in SWEEPS.values() for j in range(n)
        ]
        zeros = (0,) * (n - 1)
        routes += [(_content_route(n, 0), zeros), (_chi_route(n), zeros)]
        calls = []

        def listing(*args):
            calls.append(args[2:])
            return _listing(*args)

        monkeypatch.setattr(jantzen_seitz, "_listing", listing)
        assert jantzen_seitz.js_set(n, (), 0) == [()]
        routes += [(calls.pop(), zeros)]
        for route, key in routes:
            assert _sweep(n, 0, *route) == {key: (1,)}, (n, route[0])
            assert _listing(n, 0, *route) == {key: [()]}, (n, route[0])

    def test_rejects_a_negative_order_and_an_unknown_route(self):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            _census(3, -1, *_fow_route(3, 0))
        with pytest.raises(ValueError, match="unknown sweep method 'fermionic'"):
            _class_members(3, 0, 0, 2, "fermionic")


class TestPrefixTests:
    """Route steps that cut a block by hand: the cut falls on the block, before any row below."""

    def test_prefixes_cut(self):
        # Chain congruence with no j (the chi route), n = 4: after the block
        # (5, 1) the next block (4, a2) needs a2 ≡ 4 - 5 - 1 ≡ 2 (mod 4),
        # so (5, 4) and (5, 4, 4, 4) are cut and (5, 4, 4) goes on.
        start, step, _ = _chi_route(4)
        after = step(start, 5, 1, 0)
        assert after is not None
        assert [step(after, 4, a, 1) is not None for a in (1, 2, 3)] == [False, True, False]
        # n = 3: after (4, 1), a block (2, a2) needs a2 ≡ 2 - 4 - 1 ≡ 0,
        # which no length 1 or 2 is, so nothing below (4,) starts with 2.
        start, step, _ = _chi_route(3)
        after = step(start, 4, 1, 0)
        assert after is not None and step(after, 2, 1, 1) is None and step(after, 2, 2, 1) is None
        # Crystal, j = 0 at n = 3: the row of 4 puts a "+" at residue 1 and
        # its removable node, residue 0, raises eps_0.  A block of 2s below
        # ends at residue 0 (one row), where eps_0 is already 1, or at
        # residue 2 (two rows), where no "+" is: both are cut.
        start, step, _ = _crystal_route(3, 0)
        after = step(start, 4, 1, 0)
        assert after == (1, (0, 1, 0))
        assert step(after, 2, 1, 1) is None and step(after, 2, 2, 1) is None
        # (3,) and (3, 3) end at residue 2 and 1, with no "+" above: for
        # j = 0 both first blocks are cut.  For j = 2, (3,) raises eps_2,
        # and then a block of 1s ends at residue 2 or 1, where neither eps
        # nor a "+" can take its "-": (3, 1) and (3, 1, 1) are cut.
        assert step(start, 3, 1, 0) is None and step(start, 3, 2, 0) is None
        start, step, _ = _crystal_route(3, 2)
        after = step(start, 3, 1, 0)
        assert after == (1, (1, 0, 0))
        assert step(after, 1, 1, 1) is None and step(after, 1, 2, 1) is None
        for p in ((4, 2), (4, 2, 2), (3, 1)):
            assert not crystal_member(p, 3, 0) and not crystal_member(p, 3, 2), p

    def test_open_fow_block_is_cut(self):
        # At n = 3 the first block (3, a) must have a ≡ 3 - j (mod 3):
        # j = 0 admits no length, j = 2 only a = 1.
        start, step, _ = _fow_route(3, 0)
        assert step(start, 3, 1, 0) is None and step(start, 3, 2, 0) is None
        start, step, _ = _fow_route(3, 2)
        assert step(start, 3, 1, 0) is not None and step(start, 3, 2, 0) is None
        # After the block (3, 1) of j = 2, a block (1, a2) would need
        # a2 ≡ 1 - 3 - 1 ≡ 0.
        after = step(start, 3, 1, 0)
        assert step(after, 1, 1, 1) is None and step(after, 1, 2, 1) is None
        assert not in_fow((3, 1), 3, 2) and in_fow((3,), 3, 2)


class TestLookAhead:
    """The crystal route settles a block's removable node at the block below, and stays near fow."""

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
        # The sweep for class (1, 0) at (4, 44) holds n + 1 = 5 crystal
        # entries (state, rho): the start, and one per rho, since after the
        # first block the one surviving "+" sits at residue j + rho.  The
        # paths and fow sweeps hold n each.
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
    """The block steps per route (a Counter) and the (state, rho) entries each sweep reaches.

    Each route's factory is rebound for the test; `sweep_series` looks it
    up by its global name on every call.
    """
    steps = Counter()
    states = {}

    def counted(route, make):
        def made(n, j):
            start, step, close = make(n, j)
            seen = states.setdefault(route, set())
            seen.add((start, 0))

            def counted_step(state, v, a, rho):
                steps[route] += 1
                after = step(state, v, a, rho)
                if after is not None:
                    seen.add((after, (rho + a) % n))
                return after

            return start, counted_step, close

        return made

    for route, make in (("paths", _paths_route), ("fow", _fow_route), ("crystal", _crystal_route)):
        monkeypatch.setattr(branching, f"_{route}_route", counted(route, make))
    return steps, states
