import pytest

from slnbranch import (
    branching_series,
    class_residue_counts,
    fow_index,
    fow_k,
    fundamental,
    in_fow,
    in_path_set,
    is_dominant,
    is_n_regular,
    partitions_of,
    path_of,
    residue_counts,
    verify_fow_theorem,
    weight_of,
)
from slnbranch.branching import METHODS

# the six worked n=3 series (orders as displayed: three terms each)
EXAMPLE_TABLE = {
    (0, 0): (1, 0, 1),
    (0, 1): (0, 1, 2, 2),
    (1, 0): (1, 1, 2),
    (1, 2): (0, 1, 1, 2),
    (2, 0): (1, 1, 2),
    (2, 1): (0, 1, 1, 2),
}


class TestPathOf:
    def test_empty(self):
        coords = path_of((), 3, 0).coords
        assert len(coords) == 1
        assert coords[0].lam == (2, 0, 0)

    def test_21_j1(self):
        lams = [w.lam for w in path_of((2, 1), 3, 1).coords]
        assert lams == [(1, 1, 0), (1, 0, 1), (0, 1, 1)]  # L0+L1, L0+L2, L1+L2

    def test_21_j0_hits_nondominant(self):
        coords = path_of((2, 1), 3, 0).coords
        assert coords[1].lam == (2, -1, 1)
        assert not is_dominant(coords[1])

    def test_level_two_coordinates(self):
        for m in range(9):
            for p in partitions_of(m, regular=3):
                for j in range(3):
                    assert all(w.level == 2 for w in path_of(p, 3, j).coords)

    def test_first_coordinate_is_weight_plus_lambda_for_members(self):
        for m in range(10):
            for p in partitions_of(m, regular=3):
                for j in range(3):
                    if in_path_set(p, 3, j):
                        expected = weight_of(p, 3) + fundamental(3, j)
                        assert path_of(p, 3, j).coords[0].lam == expected.lam


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
        for n in (2, 3, 4, 5):
            for m in range(11):
                for p in partitions_of(m, regular=n):
                    for j in range(n):
                        full = all(is_dominant(w) for w in path_of(p, n, j).coords)
                        assert in_path_set(p, n, j) == full


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
        assert fow_k(p, 3) == expected

    def test_k_is_canonical_label(self):
        for m in range(11):
            for p in partitions_of(m, regular=3):
                j = fow_index(p, 3)
                if j is None:
                    continue
                k = fow_k(p, 3)
                target = fundamental(3, k) + fundamental(3, j - k) - fundamental(3, j)
                assert weight_of(p, 3).lam == target.lam
                assert k <= (j - k) % 3

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
        assert class_residue_counts(3, 1, 0, 2) == (2, 2, 2)
        assert class_residue_counts(3, 0, 1, 0) is None  # (0,-1,-1) shifted
        assert class_residue_counts(3, 0, 1, 1) == (1, 0, 0)
        assert class_residue_counts(3, 2, 1, 1) == (1, 0, 1)

    def test_census_characterizes_class_members(self):
        # counts match iff weight class and energy match
        for d in range(4):
            counts = class_residue_counts(3, 0, 1, d)
            if counts is None:
                continue
            target = fundamental(3, 1) + fundamental(3, 2) - fundamental(3, 0)
            for p in partitions_of(sum(counts)):
                in_class = (
                    weight_of(p, 3).lam == target.lam
                    and residue_counts(p, 3)[0] == d
                )
                assert (residue_counts(p, 3) == counts) == in_class


class TestBranchingMethods:
    @pytest.mark.parametrize("jk,expected", sorted(EXAMPLE_TABLE.items()))
    def test_paths(self, jk, expected):
        j, k = jk
        assert branching_series(3, j, k, len(expected) - 1, "paths").coeffs == expected

    @pytest.mark.parametrize("jk,expected", sorted(EXAMPLE_TABLE.items()))
    def test_fow(self, jk, expected):
        j, k = jk
        assert branching_series(3, j, k, len(expected) - 1, "fow").coeffs == expected

    @pytest.mark.parametrize("jk,expected", sorted(EXAMPLE_TABLE.items()))
    def test_crystal(self, jk, expected):
        j, k = jk
        assert branching_series(3, j, k, len(expected) - 1, "crystal").coeffs == expected

    def test_trivial_n2(self):
        assert branching_series(2, 0, 0, 0, "fow").coeffs == (1,)

    def test_methods_agree_small_scale(self):
        for n in (2, 3):
            for j in range(n):
                for k in range(n):
                    rows = {
                        branching_series(n, j, k, 5, method).coeffs
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
                        branching_series(n, j, k, 8, method).coeffs
                        for method in ("paths", "fow", "crystal", "fermionic")
                    }
                    assert len(rows) == 1, (n, j, k, rows)

    def test_coefficients_nonnegative(self):
        for j in range(3):
            for k in range(3):
                assert min(branching_series(3, j, k, 6, "fow").coeffs) >= 0

    def test_label_symmetry(self):
        # k and (j - k) mod n label the same class
        for n in (3, 4):
            for j in range(n):
                for k in range(n):
                    assert (
                        branching_series(n, j, k, 5, "fow").coeffs
                        == branching_series(n, j, (j - k) % n, 5, "fow").coeffs
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
