import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slnbranch import (
    QuadraticFormData,
    abacus_display,
    as_partition,
    block_series,
    branching_series,
    build_component,
    canonical_pair,
    chi_by_branching,
    chi_direct,
    e_tilde,
    eps_phi,
    epsilon_vector,
    f_tilde,
    is_js,
    is_js_by_crystal,
    is_rectangle_le_n,
    fermionic_series,
    inv_pochhammer,
    js_set,
    lattice_points,
    lattice_sum,
    n_core,
    n_cores,
    n_weight,
    verify_cores,
    verify_crystal,
    verify_fow_theorem,
    verify_js,
    verify_methods,
    verify_rectangle_cores,
    exponent_form,
    format_partition,
    is_n_regular,
    parse_partition,
    partitions_of,
    partitions_up_to,
    residue_counts,
    weight_of,
)
from slnbranch.branching import fow_index, in_path_set, sweep_series
from slnbranch.crystal import eps_index
from slnbranch.qseries import scaled_inverse_cartan
from oracles import (
    add_cell,
    brute_partitions,
    conjugate,
    naive_conjugate,
    naive_residue_counts,
    partition_number,
    remove_cell,
    signature_word,
    successor_partitions,
)


# Partitions with up to 12 parts of size up to 30, as nonincreasing tuples.
partitions = st.lists(st.integers(1, 30), max_size=12).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)


class TestConjugate:
    """The column lengths that the path set's column-walk reference reads."""

    def test_empty(self):
        assert conjugate(()) == ()

    def test_431(self):
        # column lengths of the (4,3,1) diagram, counted by hand
        assert conjugate((4, 3, 1)) == (3, 2, 2, 1)

    def test_single_column(self):
        assert conjugate((1, 1, 1)) == (3,)

    def test_involution_up_to_20(self):
        for p in partitions_up_to(20):
            assert conjugate(conjugate(p)) == p

    def test_matches_grid_oracle(self):
        for p in partitions_up_to(16):
            assert conjugate(p) == naive_conjugate(p)


class TestExponentForm:
    def test_55411(self):
        assert exponent_form((5, 5, 4, 1, 1)) == ((5, 2), (4, 1), (1, 2))

    def test_empty(self):
        assert exponent_form(()) == ()

    def test_single(self):
        assert exponent_form((3,)) == ((3, 1),)

    def test_round_trip(self):
        for p in partitions_up_to(12):
            assert tuple(part for part, mult in exponent_form(p) for _ in range(mult)) == p


class TestRegularity:
    @pytest.mark.parametrize(
        "p,n,expected",
        [((5, 5, 4, 1, 1), 3, True), ((2, 2, 2), 3, False), ((), 2, True)],
    )
    def test_examples(self, p, n, expected):
        assert is_n_regular(p, n) is expected


class TestResidueCounts:
    def test_coloured_diagram(self):
        # counts of 0/1/2 entries in the 3-coloured (5,5,4,1,1) diagram
        assert residue_counts((5, 5, 4, 1, 1), 3) == (6, 5, 5)

    def test_empty(self):
        assert residue_counts((), 3) == (0, 0, 0)

    def test_21(self):
        assert residue_counts((2, 1), 3) == (1, 1, 1)

    def test_total_is_size(self):
        for p in partitions_up_to(20):
            for n in range(2, 7):
                assert sum(residue_counts(p, n)) == sum(p)

    def test_matches_per_node_oracle(self):
        for p in partitions_up_to(14):
            for n in (2, 3, 5):
                assert residue_counts(p, n) == naive_residue_counts(p, n)


class TestBoundaryNodes:
    """The addable (+) and removable (-) nodes of the word-form reference."""

    def test_empty_corner(self):
        assert signature_word((), 2, 0)[0] == [((1, 1), "+")]

    def test_row_word(self):
        assert signature_word((2,), 2, 1)[0] == [((1, 2), "-"), ((2, 1), "+")]

    def test_21_residue_0(self):
        assert signature_word((2, 1), 3, 0)[0] == [((2, 2), "+")]

    def test_rows_increase(self):
        # Each row holds at most one node of a fixed residue, so the row
        # order of the word is total.
        for p in partitions_up_to(12):
            for i in range(3):
                rows = [row for (row, _), _ in signature_word(p, 3, i)[0]]
                assert all(a < b for a, b in zip(rows, rows[1:]))

    def test_add_remove_give_valid_partitions(self):
        for p in partitions_up_to(12):
            for n in (2, 3, 4):
                for i in range(n):
                    for cell, sign in signature_word(p, n, i)[0]:
                        q = add_cell(p, cell) if sign == "+" else remove_cell(p, cell)
                        assert q == as_partition(q)
                        assert sum(q) == sum(p) + (1 if sign == "+" else -1)


class TestEnumeration:
    def test_of_three(self):
        assert list(partitions_of(3)) == [(3,), (2, 1), (1, 1, 1)]

    def test_of_three_3_regular(self):
        assert list(partitions_of(3, regular=3)) == [(3,), (2, 1)]

    def test_of_zero(self):
        assert list(partitions_of(0)) == [()]

    def test_counts_match_pentagonal_recurrence(self):
        for m in range(26):
            assert sum(1 for _ in partitions_of(m)) == partition_number(m)

    def test_order_and_elements_match_brute_force(self):
        for m in range(13):
            assert list(partitions_of(m)) == list(brute_partitions(m))

    @pytest.mark.parametrize("regular", [None, 2, 3, 4, 5, 6])
    def test_sequence_equals_the_successor_rule(self, regular):
        # Lists, not sets: the decreasing-lex order is the contract.
        for m in range(26):
            got = list(partitions_of(m, regular))
            assert got == list(successor_partitions(m, regular)), (m, regular)

    def test_regular_filter(self):
        for m in range(13):
            for n in (2, 3):
                assert list(partitions_of(m, regular=n)) == [
                    p for p in partitions_of(m) if is_n_regular(p, n)
                ]

    def test_regular_matches_multiplicities(self):
        for p in partitions_up_to(16):
            for n in range(2, 7):
                assert is_n_regular(p, n) == all(a < n for _, a in exponent_form(p)), (p, n)

    @pytest.mark.parametrize("n", [None, 2, 3, 4, 5])
    def test_up_to_chains_sizes_in_order(self, n):
        for max_size in range(15):
            expected = [p for m in range(max_size + 1) for p in partitions_of(m, regular=n)]
            assert list(partitions_up_to(max_size, regular=n)) == expected


class TestTextForms:
    def test_parse_plain(self):
        assert parse_partition("5,5,4,1,1") == (5, 5, 4, 1, 1)

    def test_parse_empty(self):
        assert parse_partition("-") == ()

    def test_parse_exponent(self):
        assert parse_partition("5^2,4,1^2") == (5, 5, 4, 1, 1)

    def test_format(self):
        assert format_partition((5, 1)) == "5,1"
        assert format_partition(()) == "-"

    def test_round_trip(self):
        for p in partitions_up_to(10):
            assert parse_partition(format_partition(p)) == p

    @settings(max_examples=200, deadline=None)
    @given(partitions)
    def test_round_trip_property(self, p):
        assert parse_partition(format_partition(p)) == p

    @pytest.mark.parametrize("bad", ["1,2", "0", "x", "3^0", "2,-1"])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            parse_partition(bad)


def test_as_partition_rejects_increasing():
    with pytest.raises(ValueError):
        as_partition((1, 2))


# Every entry point that takes a rank rejects n < 2 with the same message.
RANKED_CALLS = {
    "weight_of": lambda n: weight_of((2, 1), n),
    "abacus_display": lambda n: abacus_display((2, 1), n),
    "block_series": lambda n: block_series(n, 3),
    "n_cores": lambda n: n_cores(n, 3),
    "n_weight": lambda n: n_weight((2, 1), n),
    "n_core": lambda n: n_core((2, 1), n),
    # The one-pass kernels check the rank before their empty-partition answers.
    "fow_index": lambda n: fow_index((), n),
    "in_path_set": lambda n: in_path_set((), n, 0),
    "residue_counts": lambda n: residue_counts((), n),
    "verify_methods": lambda n: verify_methods(n, 2),
    "verify_fow_theorem": lambda n: verify_fow_theorem(n, 3),
    "verify_js": lambda n: verify_js(n, 3, 2),
    "verify_cores": lambda n: verify_cores(n, 3),
    "verify_crystal": lambda n: verify_crystal(n, 3),
    "verify_rectangle_cores": lambda n: verify_rectangle_cores(n, []),
    "partitions_of": lambda n: list(partitions_of(1, regular=n)),
    "is_rectangle_le_n": lambda n: is_rectangle_le_n((), n),
    "canonical_pair": lambda n: canonical_pair(n, 0, 0),
    "QuadraticFormData": lambda n: QuadraticFormData(n, 0, 0),
    "eps_phi": lambda n: eps_phi((2, 1), n, 0),
    "epsilon_vector": lambda n: epsilon_vector((2, 1), n),
    "eps_index": lambda n: eps_index((2, 1), n),
    "e_tilde": lambda n: e_tilde((2, 1), n, 0),
    "f_tilde": lambda n: f_tilde((2, 1), n, 0),
    "build_component": lambda n: build_component(n, 2),
    "chi_by_branching": lambda n: chi_by_branching(n, (), 2),
    "scaled_inverse_cartan": scaled_inverse_cartan,
    "sweep_series": lambda n: sweep_series(n, 0, 2, "paths"),
    "js_set": lambda n: js_set(n, (), 2),
    "chi_direct": lambda n: chi_direct(n, (), 2),
    "is_js": lambda n: is_js((2, 1), n),
    "is_js_by_crystal": lambda n: is_js_by_crystal((2, 1), n),
    "branching_series": lambda n: branching_series(n, 0, 0, 2, "paths"),
    # Checked when called: the iterator is not advanced.
    "partitions_up_to": lambda n: partitions_up_to(3, regular=n),
}


@pytest.mark.parametrize("name", RANKED_CALLS)
@pytest.mark.parametrize("n", [0, 1])
def test_rank_below_two_rejected(name, n):
    with pytest.raises(ValueError, match="n must be at least 2"):
        RANKED_CALLS[name](n)


# Every entry point that takes a truncation order rejects order < 0 with the
# same message, whichever route it counts by.
ORDERED_CALLS = {
    "sweep_series": lambda order: sweep_series(3, 1, order, "paths"),
    "branching_series": lambda order: branching_series(3, 1, 0, order, "paths"),
    "lattice_points": lambda order: list(lattice_points(3, 0, 1, order)),
    "chi_direct": lambda order: chi_direct(3, (), order),
    "chi_by_branching": lambda order: chi_by_branching(3, (), order),
    "verify_methods": lambda order: verify_methods(3, order),
    "verify_js": lambda order: verify_js(3, 2, order),
    "fermionic_series": lambda order: fermionic_series(3, 0, 1, order),
    "inv_pochhammer": lambda order: inv_pochhammer(2, order),
    "lattice_sum": lambda order: lattice_sum([], order),
}


@pytest.mark.parametrize("name", ORDERED_CALLS)
def test_negative_order_rejected(name):
    with pytest.raises(ValueError, match="order must be nonnegative"):
        ORDERED_CALLS[name](-1)


# Every entry point that takes a size bound rejects max_size < 0 with the
# same message, when it is called: `partitions_up_to` is not iterated here.
SIZED_CALLS = {
    "verify_fow_theorem": lambda size: verify_fow_theorem(3, size),
    "verify_js": lambda size: verify_js(3, size, 2),
    "verify_cores": lambda size: verify_cores(3, size),
    "verify_crystal": lambda size: verify_crystal(3, size),
    "build_component": lambda size: build_component(3, size),
    "n_cores": lambda size: n_cores(3, size),
    "block_series": lambda size: block_series(3, size),
    "partitions_up_to": lambda size: partitions_up_to(size),
}


@pytest.mark.parametrize("name", SIZED_CALLS)
def test_negative_max_size_rejected(name):
    with pytest.raises(ValueError, match="max_size must be nonnegative"):
        SIZED_CALLS[name](-1)
