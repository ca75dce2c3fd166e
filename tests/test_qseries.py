from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slnbranch import (
    QuadraticFormData,
    TruncatedSeries,
    branching_series,
    canonical_pair,
    chi_by_branching,
    chi_direct,
    fermionic_series,
    inv_pochhammer,
    lattice_points,
    lattice_sum,
)
from slnbranch.branching import METHODS
from slnbranch.qseries import scaled_inverse_cartan
from oracles import (
    count_parts_at_most,
    fraction_exponent,
    fraction_inverse_cartan,
    lattice_enumeration_bound,
    product_lattice_sum,
    shell_lattice_points,
)


# Every series entry point returns the coefficients c_0..c_order as a tuple of ints.
SERIES_CALLS = {
    **{f"branching_series-{m}": partial(branching_series, 3, 1, 0, method=m) for m in METHODS},
    "fermionic_series": partial(fermionic_series, 3, 0, 1),
    "lattice_sum": lambda order: lattice_sum(lattice_points(3, 0, 1, order), order),
    "chi_direct": partial(chi_direct, 3, ()),
    "chi_by_branching": partial(chi_by_branching, 3, (1,)),
}


@pytest.mark.parametrize("name", SERIES_CALLS)
@pytest.mark.parametrize("order", [0, 5])
def test_series_entry_points_return_coefficient_tuples(name, order):
    series = SERIES_CALLS[name](order)
    assert type(series) is tuple and len(series) == order + 1
    assert all(type(c) is int for c in series)


class TestTruncatedSeries:
    def test_arithmetic_is_exact(self):
        a = TruncatedSeries([1, 2, 3, 0, 0])
        b = TruncatedSeries([0, 1, 1, 1, 1])
        assert a.order == 4
        assert (a * b).coeffs == (0, 1, 3, 6, 6)

    def test_multiplication_truncates_to_shorter_order(self):
        a = TruncatedSeries([1, 1])
        b = TruncatedSeries([1, 1, 1])
        assert (a * b).order == 1

    def test_rejects_an_empty_series(self):
        # Its order, len(coeffs) - 1, would be -1.
        with pytest.raises(ValueError, match="order must be nonnegative"):
            TruncatedSeries([])

    def test_big_integers_stay_exact(self):
        big = 10**30
        a = TruncatedSeries([big, big])
        assert (a * a).coeffs == (big * big, 2 * big * big)


class TestLatticeSum:
    """The sum of q^Q / prod((q)_{m_i}) against the series-product reference."""

    @pytest.mark.parametrize(
        "points,order,expected",
        [
            ([], 4, (0, 0, 0, 0, 0)),
            ([((1, 2), 0)], 0, (1,)),
            ([((2, 0), 3)], 3, (0, 0, 0, 1)),
            ([((0, 0, 0), 1)], 3, (0, 1, 0, 0)),
            ([((1,), 1), ((1,), 1)], 3, (0, 2, 2, 2)),
            ([((2, 1), 0), ((0, 0), 2), ((2, 1), 0)], 4, (2, 4, 9, 12, 18)),
        ],
        ids=["empty", "order-0", "q-at-order", "zero-coordinates", "repeated", "mixed"],
    )
    def test_hand_built_points(self, points, order, expected):
        assert lattice_sum(points, order) == product_lattice_sum(points, order) == expected

    @pytest.mark.parametrize(
        "n,s,t,order",
        [(2, 0, 1, 12), (3, 1, 2, 10), (4, 2, 3, 10), (5, 0, 1, 15), (6, 0, 1, 16), (6, 3, 5, 12)],
    )
    def test_walked_points(self, n, s, t, order):
        # (4, 2, 3) and (6, 3, 5) are folded pairs: s + t > n
        points = list(lattice_points(n, s, t, order))
        assert lattice_sum(points, order) == product_lattice_sum(points, order)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_class_to_order_40(self, n):
        for s in range(n):
            for t in range(s, n):
                points = list(lattice_points(n, s, t, 40))
                assert lattice_sum(points, 40) == product_lattice_sum(points, 40), (s, t)

    @pytest.mark.parametrize(
        "n,s,t,order", [(4, 0, 0, 120), *((3, s, t, 200) for s in range(3) for t in range(s, 3))]
    )
    def test_high_order(self, n, s, t, order):
        points = list(lattice_points(n, s, t, order))
        assert lattice_sum(points, order) == product_lattice_sum(points, order)

    def test_negative_coordinate_rejected(self):
        with pytest.raises(ValueError, match="coordinates must be nonnegative"):
            lattice_sum([((1, -1), 0)], 3)

    def test_negative_exponent_rejected(self):
        for total in (lattice_sum, product_lattice_sum):
            with pytest.raises(ValueError, match="Q=-1"):
                total([((), -1)], 3)

    def test_points_above_the_order_add_nothing(self):
        for points, expected in [
            ([((1,), 5)], (0, 0, 0, 0)),
            ([((1,), 5), ((1,), 3)], (0, 0, 0, 1)),
        ]:
            assert lattice_sum(points, 3) == product_lattice_sum(points, 3) == expected

    def test_walk_to_a_higher_order_truncates(self):
        # The points walked to order 15 include exponents above 10.
        assert lattice_sum(lattice_points(5, 0, 1, 15), 10) == fermionic_series(5, 0, 1, 10)


class TestInvPochhammer:
    def test_k0(self):
        assert inv_pochhammer(0, 5).coeffs == (1, 0, 0, 0, 0, 0)

    def test_k1_geometric(self):
        assert inv_pochhammer(1, 3).coeffs == (1, 1, 1, 1)

    def test_k2(self):
        assert inv_pochhammer(2, 4).coeffs == (1, 1, 2, 2, 3)

    def test_counts_partitions_into_bounded_parts(self):
        for k in range(5):
            series = inv_pochhammer(k, 10)
            for d in range(11):
                assert series.coeffs[d] == count_parts_at_most(d, k)


class TestCartan:
    """B = n * C^{-1}, the matrix the lattice walk runs on."""

    def test_inverse_entries(self):
        assert scaled_inverse_cartan(3) == ((2, 1), (1, 2))  # 3 * C^{-1}

    @pytest.mark.parametrize("n", range(2, 9))
    def test_inverse_times_cartan_is_identity(self, n):
        # B * C = n * I, with C the sl(n) Cartan matrix built here
        size = n - 1
        c = [
            [2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(size)]
            for i in range(size)
        ]
        b = scaled_inverse_cartan(n)
        for i in range(size):
            for j in range(size):
                entry = sum(b[i][k] * c[k][j] for k in range(size))
                assert entry == (n if i == j else 0)


class TestQuadraticForm:
    def test_exponent_values(self):
        qf = QuadraticFormData(3, 1, 2)
        assert qf.exponent((1, 0)) == 1
        assert qf.exponent((0, 2)) == 2

    def test_excluded_point_from_bound_example(self):
        qf = QuadraticFormData(3, 0, 0)
        assert qf.exponent((3, 0)) == 6

    def test_n2_square_over_two(self):
        qf = QuadraticFormData(2, 0, 0)
        assert qf.exponent((2,)) == 2
        assert qf.exponent((4,)) == 8

    def test_create_validates(self):
        with pytest.raises(ValueError):
            QuadraticFormData(3, 2, 1)
        with pytest.raises(ValueError):
            QuadraticFormData(1, 0, 0)

    def test_integer_data(self):
        qf = QuadraticFormData(3, 1, 2)
        assert qf.scaled_inverse == scaled_inverse_cartan(3)
        assert qf.beta == (1, 2)  # column u = s - t + n = 2
        assert QuadraticFormData(4, 2, 2).beta == (0, 0, 0)  # u = n

    @pytest.mark.parametrize("n", range(2, 7))
    def test_exponent_matches_fraction_oracle(self, n):
        # every vector, admissible or not, with coordinates up to 2
        inv = fraction_inverse_cartan(n)
        for s in range(n):
            for t in range(s, n):
                qf = QuadraticFormData(n, s, t)
                for m in product(range(3), repeat=n - 1):
                    assert qf.exponent(m) == fraction_exponent(inv, s, t, m), (s, t, m)


class TestFermionicSeries:
    @pytest.mark.parametrize(
        "n,s,t,expected",
        [
            (3, 0, 0, (1, 0, 1)),
            (3, 1, 2, (0, 1, 2, 2)),
            (2, 0, 0, (1, 0, 1, 1, 2)),
        ],
    )
    def test_examples(self, n, s, t, expected):
        assert fermionic_series(n, s, t, len(expected) - 1) == expected

    def test_folding_reflected_pairs(self):
        assert canonical_pair(3, 2, 2) == (1, 1)
        assert canonical_pair(3, 1, 2) == (1, 2)
        assert canonical_pair(4, 3, 3) == (1, 1)
        assert fermionic_series(3, 2, 2, 3) == fermionic_series(3, 1, 1, 3) == (0, 1, 1, 2)

    def test_every_admissible_exponent_is_integral(self):
        # lattice_points raises on any fractional admissible exponent
        for n in (2, 3, 4):
            for s in range(n):
                for t in range(s, n):
                    for _, q in lattice_points(n, s, t, 8):
                        assert q >= 0

    def test_stability_under_larger_bound(self):
        # a larger order only appends coefficients, and enlarging the
        # reference walk's shell cutoff adds no point below the order
        for n, s, t, order in [(3, 0, 0, 4), (2, 1, 1, 6), (4, 1, 2, 5)]:
            base = fermionic_series(n, s, t, order)
            richer = fermionic_series(n, s, t, order + n)
            assert richer[: order + 1] == base
            enlarged = lattice_enumeration_bound(n, order) + n
            assert sorted(lattice_points(n, s, t, order)) == shell_lattice_points(
                n, s, t, order, bound=enlarged
            )

    def test_agrees_with_enumeration_small(self):
        for n in (2, 3):
            for s in range(n):
                for t in range(s, n):
                    j = (s + t) % n
                    assert (
                        fermionic_series(n, s, t, 6)
                        == branching_series(n, j, s, 6, "fow")
                    )

    def test_lattice_point_count_reported_examples(self):
        pts = list(lattice_points(3, 1, 2, 3))
        assert ((1, 0), 1) in pts and ((0, 2), 2) in pts


@st.composite
def small_classes(draw):
    n = draw(st.integers(2, 4))
    t = draw(st.integers(0, n - 1))
    s = draw(st.integers(0, t))
    return n, s, t, draw(st.integers(0, 10))


class TestLatticeWalkAgainstShellOracle:
    """The pruned walk admits exactly the points of the unpruned shell walk."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_class_and_order_to_10(self, n):
        for s in range(n):
            for t in range(s, n):
                reference = shell_lattice_points(n, s, t, 10)
                for order in range(11):
                    expected = [(m, q) for m, q in reference if q <= order]
                    got = sorted(lattice_points(n, s, t, order))
                    assert got == expected, (n, s, t, order)

    @pytest.mark.parametrize("s,t,order", [(0, 1, 15), (1, 2, 8)])
    def test_n5(self, s, t, order):
        assert sorted(lattice_points(5, s, t, order)) == shell_lattice_points(5, s, t, order)

    @settings(max_examples=60, deadline=None)
    @given(small_classes())
    def test_random_small_classes(self, case):
        n, s, t, order = case
        assert sorted(lattice_points(n, s, t, order)) == shell_lattice_points(n, s, t, order)

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_rejects_n_below_2(self, n):
        with pytest.raises(ValueError):
            list(lattice_points(n, 0, 0, 3))
