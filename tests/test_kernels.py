"""The one-pass per-partition kernels equal their multi-pass references.

`fow_index` and `in_path_set` read n-regularity from the run lengths of
their own walk, `residue_counts` does O(1) work per row, and `n_core`
pre-fills its runners with the empty rows' beads; each is compared with a
reference that makes the passes separately, on every partition of size at
most 20 for n = 2..7 and on long inputs.

One counting kernel is compared with the library's earlier one too: the
paths route's block sweep, whose configuration sums must equal the
transfer matrix that stepped one column at a time.
"""

import pytest

from slnbranch.branching import _paths_route, _sweep, fow_index, in_path_set, sweep_series
from slnbranch.cores import _pushed_partition, _runners, n_core
from slnbranch.partitions import partitions_up_to, residue_counts
from oracles import (
    abacus_core,
    column_walk_in_path_set,
    naive_residue_counts,
    rescan_configuration_sums,
    two_pass_fow_index,
)

RANKS = range(2, 8)
ALL_UP_TO_20 = list(partitions_up_to(20))


def long_inputs(n):
    """A long single column, a staircase, and a run of n - 1 parts before a run of n."""
    return [
        (1,) * 40,
        tuple(range(30, 0, -1)),
        (7,) * (n - 1) + (3,) * n,
        (7,) * n + (3,) * (n - 1),
        (9,) * (n - 1) + (5,) * (n - 1) + (2,) * (n - 1),
    ]


def bead_counts(p, n):
    b = max(len(p), 1)
    return (b, b + 1, b + n, b + 2 * n)


def check_kernels(p, n):
    assert fow_index(p, n) == two_pass_fow_index(p, n), (p, n)
    for j in range(n):
        assert in_path_set(p, n, j) == column_walk_in_path_set(p, n, j), (p, n, j)
    assert residue_counts(p, n) == naive_residue_counts(p, n), (p, n)
    assert n_core(p, n) == abacus_core(p, n), (p, n)
    for beads in bead_counts(p, n):
        got = _pushed_partition(_runners(p, n, beads))
        assert got == abacus_core(p, n, beads), (p, n, beads)


@pytest.mark.parametrize("n", RANKS)
def test_kernels_equal_their_references_up_to_size_20(n):
    for p in ALL_UP_TO_20:
        check_kernels(p, n)


@pytest.mark.parametrize("n", RANKS)
def test_kernels_equal_their_references_on_long_inputs(n):
    for p in long_inputs(n):
        check_kernels(p, n)


def check_configuration_sums(n, j, order):
    # The transfer matrix sums the paths by end point L(k) + L(j - k).
    expected = {}
    for lam, series in rescan_configuration_sums(n, j, order).items():
        labels = [i for i, c in enumerate(lam) for _ in range(c)]
        for k in labels:
            expected[k] = tuple(series)
    got = sweep_series(n, j, order, "paths")
    assert got == {k: expected.get(k, (0,) * (order + 1)) for k in range(n)}, (n, j, order)
    # Series are added into in place, so two classes that shared one list
    # would each read their sum; every class reads its own series as a tuple.
    sums = _sweep(n, order, *_paths_route(n, j))
    assert all(type(series) is tuple and len(series) == order + 1 for series in sums.values())


@pytest.mark.parametrize("n", range(2, 7))
def test_configuration_sums_equal_the_rescanning_transfer_matrix(n):
    for j in range(n):
        for order in range(25):
            check_configuration_sums(n, j, order)


@pytest.mark.parametrize("n, j, order", [(4, 1, 100), (6, 1, 40)])
def test_configuration_sums_equal_the_rescanning_transfer_matrix_at_the_frontier(n, j, order):
    check_configuration_sums(n, j, order)
