"""Partitions whose restriction stays irreducible, graded by core and weight.

Membership has two equivalent characterizations implemented independently:
the chain congruence on the exponent form, and the crystal eps-profile
(at most one nonzero eps_i, equal to 1).  The generating series chi counts
the members of one block, named by its n-core, by n-weight: `chi_direct`
counts them in one block sweep (`_chi_route`), the fow route's congruence
with no j fixed carrying the content differences c_r - c_0 as the content
route of `cores` does, so every block is counted at once and the one asked
for is read off the end by `cores`' block reader; `verify_js` reads every
rectangle core from one such sweep (`_chi_sweep`).  `js_set` lists the
members by the content walk of `cores`, with the same congruence row by
row; `chi_by_branching` reads branching functions.
"""

from __future__ import annotations

from operator import add

from .branching import _fow_route, branching_series, fow_close, fow_index, fow_prefix
from .cores import (
    _block_diffs,
    _block_entry,
    block_content,
    is_rectangle_le_n,
    n_core,
    regular_partitions_with_content,
)
from .crystal import eps_index
from .partitions import Partition, _sweep, as_partition, check_order, check_rank, is_n_regular
from .report import VerificationReport


def is_js(p: Partition, n: int) -> bool:
    """Chain-congruence test: r <= 1, or every consecutive-pair sum ≡ 0 mod n.

    Only n-regular partitions qualify; the empty partition does.  p is
    validated by `as_partition` first, so malformed input raises.
    """
    return fow_index(as_partition(p), n) is not None


def is_js_by_crystal(p: Partition, n: int) -> bool:
    """Eps-profile test: at most one nonzero eps_i, and that one equals 1.

    Only n-regular partitions qualify.  p is validated once, by the eps
    scan (`eps_index` through `epsilon_vector` runs `as_partition`), before
    the regularity verdict, so malformed input raises as in `is_js`.
    """
    return eps_index(p, n) is not None and is_n_regular(p, n)


def js_set(n: int, mu: Partition, d: int) -> list[Partition]:
    """All member partitions with n-core mu and n-weight d, descending lex order.

    They are the partitions of the block content `block_content(n, mu)`
    plus d (1, ..., 1) that pass `fow_prefix`, no j fixed, and `fow_close`.
    """
    base = block_content(n, mu)
    if d < 0:
        return []
    return list(regular_partitions_with_content(n, [c + d for c in base], fow_prefix(n), fow_close))


def chi_direct(n: int, mu: Partition, order: int) -> tuple[int, ...]:
    """Generating-series coefficients of the member count by n-weight, by `_chi_sweep`.

    Coefficient d counts the members of content `block_content(n, mu)` +
    d (1, ..., 1).  A core no member has (one not a rectangle) reads zeros;
    a non-core and a negative order raise.
    """
    return _chi_sweep(n, [block_content(n, mu)], order)[0]


def _chi_sweep(n: int, contents, order: int) -> list[tuple[int, ...]]:
    """chi of each block content, read by `cores._block_entry` from one sweep of `_chi_route`.

    The sweep is graded by residue-0 nodes up to the largest c_0 plus the
    order, and sums every member by its content differences c_r - c_0.
    """
    check_order(order)
    sums = _sweep(n, max(c[0] for c in contents) + order, *_chi_route(n))
    return [_block_entry(sums, c, order) for c in contents]


def _chi_route(n: int) -> tuple:
    """The chain congruence with no j fixed, carrying the content: the state is (after, diffs, rho).

    `after` and rho step as in `branching._fow_route` with j None, whose
    step this reads: `after` is (v + a) mod n of the last block (None
    before the first, whose length is free), rho the row count mod n.
    `diffs` is c_r - c_0, r = 1..n-1, over the rows placed, moved per block
    by the `cores._block_diffs` table made here, as in `cores`' content
    route.  The end reads diffs, the key of the block: with c_0 the
    sweep's grade, it fixes the content.
    """
    _, chain, _ = _fow_route(n, None)
    table = _block_diffs(n)

    def step(state, v, a):
        moved = chain(state, v, a)
        if moved is None:
            return None
        return moved[0], tuple(map(add, state[1], table[v % n][state[2]][a])), moved[2]

    return (None, (0,) * (n - 1), 0), step, lambda state: state[1]


def chi_by_branching(n: int, mu: Partition, order: int) -> tuple[int, ...]:
    """chi via branching functions, counted by the paths route.

    The paths route is the RSOS configuration sum, the other side of the
    theorem from the chain-congruence walk that `chi_direct` counts with.

    For a rectangular core (k^l) with k, l >= 1 and k + l <= n the series is
    the (j, k) = ((k-l) mod n, k) branching function shifted down by
    min(k, l); for the empty core it is the sum over j of the b(j, 0) series
    minus (n - 1) at order zero.  Any other core is rejected: no member
    partition has one.
    """
    check_rank(n)
    check_order(order)
    rect = is_rectangle_le_n(mu, n)
    if rect is None:
        raise ValueError(
            f"core {mu} is not a rectangle (k^l) with k+l <= {n}; "
            "no partition passing the chain congruence has such a core"
        )
    k, l = rect
    if k == 0:
        rows = [branching_series(n, j, 0, order, "paths") for j in range(n)]
        coeffs = [sum(column) for column in zip(*rows)]
        coeffs[0] -= n - 1
        return tuple(coeffs)
    s = min(k, l)
    series = branching_series(n, (k - l) % n, k, order + s, "paths")
    if any(series[:s]):
        raise ArithmeticError(
            f"branching series for core {mu} has nonzero terms below the shift {s}"
        )
    return tuple(series[s : s + order + 1])


def verify_rectangle_cores(n: int, members) -> VerificationReport:
    """Check that the core of each member partition is a rectangle (k^l) with k+l <= n.

    `members` are partitions that pass the chain congruence, such as the
    ones `verify_js` accepts in its sweep.
    """
    check_rank(n)
    with VerificationReport(suite=f"rectangle-cores(n={n})") as report:
        for p in members:
            report.cases += 1
            core = n_core(p, n)
            if is_rectangle_le_n(core, n) is None:
                report.record(partition=list(p), core=list(core))
    return report
