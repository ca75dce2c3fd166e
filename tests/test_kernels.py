"""The one-pass per-partition kernels equal their multi-pass references.

`fow_index` and `in_path_set` read n-regularity from the run lengths of
their own walk, `residue_counts` does O(1) work per row, and `n_core`
pre-fills its runners with the empty rows' beads; each is compared with a
reference that makes the passes separately, on every partition of size at
most 20 for n = 2..7 and on long inputs.
"""

import pytest

from slnbranch.branching import fow_index, in_path_set
from slnbranch.cores import n_core
from slnbranch.partitions import partitions_up_to, residue_counts
from oracles import (
    abacus_core,
    column_walk_in_path_set,
    naive_residue_counts,
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
    return (None, b, b + 1, b + n, b + 2 * n)


def check_kernels(p, n):
    assert fow_index(p, n) == two_pass_fow_index(p, n), (p, n)
    for j in range(n):
        assert in_path_set(p, n, j) == column_walk_in_path_set(p, n, j), (p, n, j)
    assert residue_counts(p, n) == naive_residue_counts(p, n), (p, n)
    for beads in bead_counts(p, n):
        assert n_core(p, n, beads) == abacus_core(p, n, beads), (p, n, beads)


@pytest.mark.parametrize("n", RANKS)
def test_kernels_equal_their_references_up_to_size_20(n):
    for p in ALL_UP_TO_20:
        check_kernels(p, n)


@pytest.mark.parametrize("n", RANKS)
def test_kernels_equal_their_references_on_long_inputs(n):
    for p in long_inputs(n):
        check_kernels(p, n)
