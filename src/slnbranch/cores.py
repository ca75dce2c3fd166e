"""n-cores, n-weights, and blocks via beta numbers on an abacus.

With L beads, the beta numbers of a partition are the first-column hook
lengths beta_i = part_i + (L - i), a strictly decreasing set.  Sliding every
bead to the top of its runner (position mod n) yields the n-core; the result
does not depend on L, so `n_core` takes the one L that `_bead_count` fixes.
It works in integers: `_runners` counts the beads on each runner in one
pass over the parts, and `_pushed_partition` reads the pushed display
straight back into parts.  The push depends on the runner counts alone, so
a caller that reads many cores, as the `cores` verify suite does, can push
each distinct runner vector once.

The n-weight is read off the same display without passing to the core:
each bead slides up past the empty positions above it on its runner, and
each such step removes one rim n-hook, so the weight is the number of those
empty positions summed over the beads.

An n-core is fixed by its charge vector x in Z^n with sum x = 0: with nL
beads, runner r holds L + x_r of them, all at the top.  Every such x is a
core, and |core| = (n/2) sum x_r^2 + sum r x_r (Garvan, Kim and Stanton,
"Cranks and t-cores", Invent. Math. 101, 1990), so `n_cores` generates the
cores of bounded size from the charges, without filtering partitions.

The residue content fixes the n-core and the n-weight (Nakayama's
conjecture; James & Kerber 1981, 2.7), and adding w (1, ..., 1) leaves
the differences c_r - c_0 as they are, so a block is named by its core mu
(`block_content` checks mu, the one core check) or by those differences.
`block_series` counts every block up to a size in one block sweep
(`partitions._sweep`, graded by residue-0 nodes) whose state holds the
differences and the size placed; `_block_entry` reads a block's series
off it, as it reads `jantzen_seitz.chi_direct`'s sweep, by the key
`_block_key` that `jantzen_seitz.js_set` reads its listing with.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache
from operator import add

from .partitions import (
    Partition,
    _sweep,
    as_partition,
    check_rank,
    check_size,
    exponent_form,
    residue_counts,
)


def _bead_count(p: Partition, n: int) -> int:
    """max(len(p), 1) rounded up to a multiple of n: one bead per row, at least one."""
    check_rank(n)
    beads = max(len(p), 1)
    return beads + (-beads) % n


def abacus_display(p: Partition, n: int) -> tuple[int, ...]:
    """The beta numbers part_i + (L - i) of p, largest first, with L = `_bead_count`.

    p is validated by `as_partition`, so they are strictly decreasing and
    nonnegative.
    """
    p = as_partition(p)
    beads = _bead_count(p, n)
    padded = list(p) + [0] * (beads - len(p))
    return tuple(padded[i - 1] + beads - i for i in range(1, beads + 1))


def n_core(p: Partition, n: int) -> Partition:
    """The partition left after sliding all abacus beads up their runners.

    Equivalently: remove rim n-hooks until none remain.  The core is
    `_pushed_partition` of the runner counts that `_runners` reads in one
    integer pass, at `_bead_count` beads.
    """
    return _pushed_partition(_runners(p, n, _bead_count(p, n)))


def _runners(p: Partition, n: int, beads: int) -> list[int]:
    """How many of the `beads` beads of p's abacus lie on each runner.

    `beads` is at least len(p).  The beads of the empty rows fill positions
    0 .. beads - len(p) - 1, so the runners start from those, and one loop
    over the parts adds the bead of each row: row r's bead sits at
    part + beads - r, stepped down one row at a time.
    """
    full, extra = divmod(beads - len(p), n)
    runners = [full + 1] * extra + [full] * (n - extra)
    for part in p:
        beads -= 1
        runners[(part + beads) % n] += 1
    return runners


def _pushed_partition(runners: Sequence[int]) -> Partition:
    """The partition whose abacus has runners[r] beads on runner r, all at the top.

    A bead's part is the number of empty positions below it.  Only the
    levels from min(runners) up to max(runners) are read: below them every
    position holds a bead with no gap under it, so none gives a part, and
    from max(runners) on no position holds a bead.
    """
    parts = []
    gaps = 0
    for level in range(min(runners), max(runners)):
        for count in runners:
            if level < count:
                if gaps:
                    parts.append(gaps)
            else:
                gaps += 1
    parts.reverse()
    return tuple(parts)


def n_weight(p: Partition, n: int) -> int:
    """Number of rim n-hooks removed in passing to the n-core.

    Each bead slides up its runner past the empty positions above it, one
    rim hook per position.  With one bead per row, a runner holding beads
    at levels l_0 < l_1 < ... has l_t - t empty positions above its t-th
    bead, so the weight is sum_b (b // n) - sum_r N_r (N_r - 1) / 2.
    p is validated by `as_partition` first, so malformed input raises.
    """
    p = as_partition(p)
    check_rank(n)
    return _n_weight(p, n)


def _n_weight(p: Partition, n: int) -> int:
    """`n_weight`'s count on a partition and rank already checked, as the `cores` suite reads it."""
    runners = [0] * n
    levels = 0
    beads = len(p)
    for row, part in enumerate(p, start=1):
        level, r = divmod(part + beads - row, n)
        levels += level
        runners[r] += 1
    return levels - sum(count * (count - 1) // 2 for count in runners)


def is_n_core(p: Partition, n: int) -> bool:
    return n_core(p, n) == p


def _charge_bound(n: int, size: int) -> int:
    """The largest t with n t^2 - (n - 1) t <= 2 size: a box on core charges.

    Each term (n/2) x_r^2 + (r - (n - 1)/2) x_r of the core size is at
    least (n |x_r|^2 - (n - 1) |x_r|) / 2 >= 0 for integer x_r, so no
    charge of a core of size at most `size` lies outside [-t, t].
    """
    t = 0
    while n * (t + 1) ** 2 - (n - 1) * (t + 1) <= 2 * size:
        t += 1
    return t


def n_cores(n: int, max_size: int) -> list[Partition]:
    """Every n-core of size at most max_size, by size, each size in decreasing lex.

    An n-core is its charge vector x (sum 0): runner r of an abacus with
    nL beads holds L + x_r beads, all at the top.  Its size is
    (n/2) sum x_r^2 + sum r x_r = sum_r ((n/2) x_r^2 + (r - (n - 1)/2) x_r),
    a sum of nonnegative terms, so a depth-first walk over x_0, ..., x_{n-2}
    in the box of `_charge_bound` cuts every branch whose partial size
    exceeds max_size; x_{n-1} closes the sum.
    """
    check_rank(n)
    check_size(max_size)
    bound = _charge_bound(n, max_size)
    by_size: dict[int, list[Partition]] = {}
    charges = [0] * n

    def place(r: int, total: int, size2: int) -> None:
        # size2 is twice the sum of the terms of the charges placed so far.
        if r == n - 1:
            x = -total
            size2 += n * x * x + (2 * r - n + 1) * x
            if abs(x) <= bound and size2 <= 2 * max_size:
                charges[r] = x
                low = min(charges)
                core = _pushed_partition([c - low for c in charges])
                by_size.setdefault(size2 // 2, []).append(core)
            return
        for x in range(-bound, bound + 1):
            step = size2 + n * x * x + (2 * r - n + 1) * x
            if step <= 2 * max_size:
                charges[r] = x
                place(r + 1, total + x, step)

    place(0, 0, 0)
    return [core for size in sorted(by_size) for core in sorted(by_size[size], reverse=True)]


def block_content(n: int, mu: Partition) -> tuple[int, ...]:
    """The residue content of the n-core mu: the one place a core is checked.

    By Nakayama's conjecture the n-regular partitions of this content plus
    w (1, ..., 1) are those of the block of mu at n-weight w.
    """
    mu = as_partition(mu)
    if not is_n_core(mu, n):
        raise ValueError(f"{mu} is not an n-core for n={n}")
    return residue_counts(mu, n)


@cache
def _block_diffs(n: int) -> tuple:
    """table[v % n][rho][a]: how a block moves c_r - c_0, r = 1..n-1.

    The block is a rows of part v, the first at 0-based row index rho mod
    n.  A row of part v at row index x holds v // n nodes of every residue
    and one more of each of the v mod n residues from -x on; the full turns
    leave every difference as it was, so the move depends on (v mod n, rho,
    a) alone.  Entry a = 0 is None.  The table is made once per n and
    shared by every route that reads it, so it is built of tuples.
    """
    table = []
    for extra in range(n):
        by_rho = []
        for rho in range(n):
            counts = [0] * n
            moves = [None]
            for x in range(rho, rho + n - 1):
                for t in range(extra):
                    counts[(t - x) % n] += 1
                moves.append(tuple(c - counts[0] for c in counts[1:]))
            by_rho.append(tuple(moves))
        table.append(tuple(by_rho))
    return tuple(table)


def _content_route(n: int, max_size: int) -> tuple:
    """The content of the rows placed, up to a size: the state is (diffs, size).

    diffs is c_r - c_0, r = 1..n-1, over the rows placed, moved per block
    by the `_block_diffs` table of n at the block's first row index rho;
    size is the nodes placed, and a block that takes it past max_size is
    cut, since it only grows.  The end reads diffs, the key of the block:
    with c_0 the sweep's grade, it fixes the content.
    """
    table = _block_diffs(n)

    def step(state, v, a, rho):
        diffs, size = state
        size += v * a
        if size > max_size:
            return None
        return tuple(map(add, diffs, table[v % n][rho][a])), size

    return ((0,) * (n - 1), 0), step, lambda state, rho: state[0]


def _block_entry(sums: dict, content, order: int) -> tuple[int, ...]:
    """Coefficients c_0 .. c_0 + order of the entry keyed by content's c_r - c_0, r = 1..n-1.

    Of a sweep graded by residue-0 nodes, coefficient w is the count of the
    content + w (1, ..., 1): a block by n-weight.  A missing key reads zeros.
    """
    c0 = content[0]
    found = sums.get(_block_key(content))
    return (0,) * (order + 1) if found is None else found[c0 : c0 + order + 1]


def _block_key(content) -> tuple[int, ...]:
    """c_r - c_0, r = 1..n-1: the end key of a block sweep's or listing's block."""
    return tuple(c - content[0] for c in content[1:])


def block_series(n: int, max_size: int) -> dict[Partition, tuple[int, ...]]:
    """Every block of the n-regular partitions of size at most max_size, by n-weight.

    Returns {mu: series} for each n-core mu of `n_cores(n, max_size)`, in
    its order: coefficient w counts the n-regular partitions of |mu| + n w
    with n-core mu, w = 0..(max_size - |mu|) // n, all from one sweep of
    `_content_route` graded up to the largest c_0(mu) + w.
    """
    cores = n_cores(n, max_size)
    contents = [residue_counts(mu, n) for mu in cores]
    weights = [(max_size - sum(mu)) // n for mu in cores]
    order = max(c[0] + w for c, w in zip(contents, weights))
    sums = _sweep(n, order, *_content_route(n, max_size))
    return {mu: _block_entry(sums, c, w) for mu, c, w in zip(cores, contents, weights)}


def is_rectangle_le_n(mu: Partition, n: int) -> tuple[int, int] | None:
    """(k, l) if mu is the rectangle (k^l) with k + l <= n, else None.

    The empty partition counts as the degenerate rectangle (0, 0).
    """
    check_rank(n)
    mu = as_partition(mu)
    if not mu:
        return (0, 0)
    ef = exponent_form(mu)
    if len(ef) != 1:
        return None
    k, l = ef[0]
    return (k, l) if k + l <= n else None
