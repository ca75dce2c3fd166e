import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slnbranch import (
    ADDABLE,
    REMOVABLE,
    abacus_display,
    add_node,
    as_partition,
    block_dimension,
    boundary_nodes,
    core_size_of_content,
    epsilon_step,
    fundamental,
    path_of,
    regular_partitions_with_content,
    simple_root,
    verify_cores,
    verify_crystal,
    verify_fow_theorem,
    verify_js,
    verify_methods,
    conjugate,
    exponent_form,
    format_partition,
    from_exponent_form,
    is_n_regular,
    parse_partition,
    partitions_of,
    remove_node,
    residue_counts,
)
from oracles import (
    brute_partitions,
    naive_conjugate,
    naive_residue_counts,
    partition_number,
)


def all_partitions_up_to(max_size):
    for m in range(max_size + 1):
        yield from partitions_of(m)


# Partitions with up to 12 parts of size up to 30, as nonincreasing tuples.
partitions = st.lists(st.integers(1, 30), max_size=12).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)


class TestConjugate:
    def test_empty(self):
        assert conjugate(()) == ()

    def test_431(self):
        # column lengths of the (4,3,1) diagram, counted by hand
        assert conjugate((4, 3, 1)) == (3, 2, 2, 1)

    def test_single_column(self):
        assert conjugate((1, 1, 1)) == (3,)

    def test_involution_up_to_20(self):
        for p in all_partitions_up_to(20):
            assert conjugate(conjugate(p)) == p

    def test_matches_grid_oracle(self):
        for p in all_partitions_up_to(12):
            assert conjugate(p) == naive_conjugate(p)


class TestExponentForm:
    def test_55411(self):
        assert exponent_form((5, 5, 4, 1, 1)) == ((5, 2), (4, 1), (1, 2))

    def test_empty(self):
        assert exponent_form(()) == ()

    def test_single(self):
        assert exponent_form((3,)) == ((3, 1),)

    def test_round_trip(self):
        for p in all_partitions_up_to(12):
            assert from_exponent_form(exponent_form(p)) == p


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
        for p in all_partitions_up_to(20):
            for n in range(2, 7):
                assert sum(residue_counts(p, n)) == sum(p)

    def test_matches_per_node_oracle(self):
        for p in all_partitions_up_to(14):
            for n in (2, 3, 5):
                assert residue_counts(p, n) == naive_residue_counts(p, n)


class TestBoundaryNodes:
    def test_empty_corner(self):
        nodes = boundary_nodes((), 2, 0)
        assert [(tuple(node), kind) for node, kind in nodes] == [((1, 1, 0), ADDABLE)]

    def test_row_word(self):
        nodes = boundary_nodes((2,), 2, 1)
        assert [(node.row, node.col, kind) for node, kind in nodes] == [
            (1, 2, REMOVABLE),
            (2, 1, ADDABLE),
        ]

    def test_21_residue_0(self):
        nodes = boundary_nodes((2, 1), 3, 0)
        assert [(node.row, node.col, kind) for node, kind in nodes] == [(2, 2, ADDABLE)]

    def test_rows_increase(self):
        for p in all_partitions_up_to(12):
            for i in range(3):
                rows = [node.row for node, _ in boundary_nodes(p, 3, i)]
                assert rows == sorted(rows)

    def test_add_remove_give_valid_partitions(self):
        for p in all_partitions_up_to(12):
            for n in (2, 3, 4):
                for i in range(n):
                    for node, kind in boundary_nodes(p, n, i):
                        q = add_node(p, node) if kind == ADDABLE else remove_node(p, node)
                        assert q == as_partition(q)
                        assert sum(q) == sum(p) + (1 if kind == ADDABLE else -1)


class TestEnumeration:
    def test_of_three(self):
        assert list(partitions_of(3)) == [(3,), (2, 1), (1, 1, 1)]

    def test_of_three_3_regular(self):
        assert list(partitions_of(3, regular=3)) == [(3,), (2, 1)]

    def test_of_zero(self):
        assert list(partitions_of(0)) == [()]

    def test_counts_match_pentagonal_recurrence(self):
        for m in range(19):
            assert sum(1 for _ in partitions_of(m)) == partition_number(m)

    def test_order_and_elements_match_brute_force(self):
        for m in range(13):
            assert list(partitions_of(m)) == list(brute_partitions(m))

    def test_regular_filter(self):
        for m in range(13):
            for n in (2, 3):
                assert list(partitions_of(m, regular=n)) == [
                    p for p in partitions_of(m) if is_n_regular(p, n)
                ]


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
        for p in all_partitions_up_to(10):
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
    "fundamental": lambda n: fundamental(n, 0),
    "simple_root": lambda n: simple_root(n, 0),
    "epsilon_step": lambda n: epsilon_step(n, 0),
    "path_of": lambda n: path_of((2, 1), n, 0),
    "abacus_display": lambda n: abacus_display((2, 1), n),
    "regular_partitions_with_content": lambda n: list(
        regular_partitions_with_content(n, (0,) * n)
    ),
    "core_size_of_content": lambda n: core_size_of_content((0,) * n),
    "block_dimension": lambda n: block_dimension(n, 3, ()),
    "verify_methods": lambda n: verify_methods(n, 2),
    "verify_fow_theorem": lambda n: verify_fow_theorem(n, 3),
    "verify_js": lambda n: verify_js(n, 3, 2),
    "verify_cores": lambda n: verify_cores(n, 3),
    "verify_crystal": lambda n: verify_crystal(n, 3),
}


@pytest.mark.parametrize("name", RANKED_CALLS)
@pytest.mark.parametrize("n", [0, 1])
def test_rank_below_two_rejected(name, n):
    with pytest.raises(ValueError, match="n must be at least 2"):
        RANKED_CALLS[name](n)
