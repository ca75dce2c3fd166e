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
off it, as it reads `jantzen_seitz.chi_direct`'s sweep.

The n-regular partitions of one content are listed by a pruned walk (for
`jantzen_seitz.js_set`).  One row step applies all of the walk's cuts in
one eager pass and returns the parts a row can take, each with the
content left below it, which it takes off the content in one pass
(`_add_row`); the walk drives it with an explicit stack of row steps.  A
partition is a member when a caller's `prefix` test passes each of its
row prefixes and its `close` test passes its last row.  The test reads a
window of the rows placed: the candidate part, the part above and the
length of its run, the row index mod n, and the test's own value for the
row above.  A prefix test that knows no smaller part of a row can pass
returns `CUT_ROW`, and the row step offers no more parts of that row.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
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


def core_size_of_content(counts) -> int:
    """Size of the n-core of every partition with residue content `counts`.

    Adding a node of residue r moves one bead from runner r-1 to runner r,
    so with nL beads runner r holds N_r = L + c_r - c_{r+1} (indices mod n)
    and the core has sum_r (r N_r + n N_r (N_r - 1) / 2) - nL (nL - 1) / 2
    nodes.  That is constant in L; at L = 0 it reads
    |c| - n c_0 + (n / 2) sum_r (c_r - c_{r+1})^2.  A vector c >= 0 is the
    content of some partition iff this is at most |c|; the n-weight is then
    c_0 - sum_r (c_r - c_{r+1})^2 / 2.
    """
    n = len(counts)
    check_rank(n)
    return sum(counts) - n * counts[0] + n * _spread(counts) // 2


def _spread(counts) -> int:
    """sum_r (c_r - c_{r+1})^2, indices mod n; always even, and unchanged by rotation."""
    return sum((counts[r] - counts[r - 1]) ** 2 for r in range(len(counts)))


def _add_row(content, r: int, a: int) -> tuple[list[int], int]:
    """The content left once a part a in 0-based row r is taken off `content`.

    Returns it as a new list, with the change of `_spread` from `content`
    to it.  The row takes `full` off every residue and one more off the arc
    of `extra` residues from `start` on, so only the differences at the two
    ends of the arc move: c_start - c_{start-1} by -1 and c_end - c_{end-1}
    by +1, with end = start + extra.
    """
    n = len(content)
    full, extra = divmod(a, n)
    start = -r % n
    rem = [c - full for c in content]
    if not extra:
        return rem, 0
    end = (start + extra) % n
    step = 2 * (content[start - 1] - content[start] + content[end] - content[end - 1]) + 2
    for t in range(start, start + extra):
        rem[t % n] -= 1
    return rem, step


# What a prefix test returns to cut its candidate part and every smaller
# part of the same row.  It is falsy, so whatever reads a prefix value by
# its truth cuts it as any other falsy value; only the row step tells the
# two apart, and a plain False still cuts one part only.
CUT_ROW = type(
    "CutRow", (), {"__bool__": lambda self: False, "__repr__": lambda self: "CUT_ROW"}
)()


def regular_partitions_with_content(
    n: int, counts, prefix: Callable | None = None, close: Callable | None = None
) -> Iterator[Partition]:
    """The n-regular partitions of content `counts` that pass `prefix` and `close`, decreasing lex.

    `counts[r]` is the number of residue-r nodes, as in `residue_counts`.
    The walk places one row at a time, largest part first, taking the parts
    a row can have from `_row_choices`; it keeps one list of the parts left
    per placed row, so its depth is not bounded by the recursion limit.

    prefix(v, v1, run, r, above) is asked of each candidate row, with a
    window of the placed rows: the candidate part v, the part v1 of the row
    above, the length of that row's run of equal parts so far, the
    candidate's 0-based row index r mod n, and what the call for the row
    above returned (v1 and above are None, and run is 0, for the first
    row).  So a test carries its state down the rows; a falsy value cuts
    the candidate, and `CUT_ROW` cuts it and every smaller part of the same
    row (a plain False cuts one part only).  close(v, r, value) is asked of
    the last row, with its prefix value.  A partition is yielded exactly
    when all its rows pass `prefix` and its last row passes `close`; the
    empty partition is yielded untested, and None passes everything.

    One clause binds a prefix test, so that the walk stays exact: it
    returns `CUT_ROW` only where every smaller part in the same window
    would be cut too.  The arguments are checked when this is called, not
    when the walk starts.
    """
    return _content_walk(n, _content(n, counts), prefix, close)


def _content(n: int, counts) -> list[int]:
    """`counts` as a list, once n and its length are checked."""
    check_rank(n)
    rem = list(counts)
    if len(rem) != n:
        raise ValueError(f"expected {n} residue counts, got {len(rem)}")
    return rem


def _row_choices(
    n: int, content, left: int, spread: int, r: int, v1, run: int, above, prefix
) -> list[tuple]:
    """The parts that 0-based row r can take, largest first, in one eager pass.

    `content` is the content still to place, `left` its size and `spread`
    `_spread(content)`; v1, run and above are the part of the row above, the
    length of its run of equal parts and what `prefix` returned for it
    (None, 0 and None for the first row).  Each entry is (a, run, value,
    left, spread, rest): the part, its run, its prefix value (True without
    a prefix), and the size, spread and content (a tuple) of what is left
    below it.  `content` is read, not changed: the row's content comes off
    it into a new list in one pass, by `_add_row`.

    The part is capped by the row above (one less where that row ends a run
    of n - 1, so the partition stays n-regular), by `left`, and where a
    residue runs out: residue x at use content[x] + 1.  The size cut: an
    n-regular partition with largest part a has at most (n - 1) a (a + 1) / 2
    nodes.  The content cut: the rows below see the content rotated by
    r + 1, so by `core_size_of_content` it needs
    sum_r (c_r - c_{r+1})^2 <= 2 c_{-(r+1) mod n}.  A part that fails it,
    or whose prefix value is falsy, shrinks by one node; a prefix value of
    `CUT_ROW` ends the pass there.  Every content that passes has an
    n-regular member (every such weight is a weight of L(L0)), so the
    content cut is exact up to the size cut.
    """
    cap = n - 1
    top = left if v1 is None else v1 - (run == cap)
    start = -r % n
    # Residue start + t runs out at the part n c + t + 1: the cap is the
    # first least count of the content rotated to start, as n c + t.
    rotated = content[start:] + content[:start]
    least = min(rotated)
    a = min(left, top, n * least + rotated.index(least))
    if a <= 0 or 2 * left > cap * a * (a + 1):
        return []
    rem, step = _add_row(content, r, a)
    spread += step
    left -= a
    below = (start - 1) % n
    index = r % n
    choices = []
    while True:
        if spread <= 2 * rem[below]:
            value = True if prefix is None else prefix(a, v1, run, index, above)
            if value:
                choices.append((a, run + 1 if a == v1 else 1, value, left, spread, tuple(rem)))
            elif value is CUT_ROW:
                break
        # Shrink the row by one node, until no smaller part can hold the
        # nodes left.
        x = (a - 1 - r) % n
        spread += 2 * (2 * rem[x] - rem[x - 1] - rem[(x + 1) % n] + 1)
        rem[x] += 1
        left += 1
        a -= 1
        if not a or 2 * (left + a) > cap * a * (a + 1):
            break
    return choices


def _content_walk(n: int, rem: list[int], prefix, close) -> Iterator[Partition]:
    left = sum(rem)
    if min(rem) < 0 or core_size_of_content(rem) > left:
        return
    if not left:
        yield ()
        return
    parts: list[int] = []  # the part chosen by each row step but the last
    steps = [iter(_row_choices(n, rem, left, _spread(rem), 0, None, 0, None, prefix))]
    while steps:
        for a, run, value, left, spread, rest in steps[-1]:
            if left:
                parts.append(a)
                step = _row_choices(n, rest, left, spread, len(parts), a, run, value, prefix)
                steps.append(iter(step))
                break
            if close is None or close(a, len(parts) % n, value):
                yield (*parts, a)
        else:
            steps.pop()
            del parts[-1:]


def block_content(n: int, mu: Partition) -> tuple[int, ...]:
    """The residue content of the n-core mu: the one place a core is checked.

    By Nakayama's conjecture the n-regular partitions of this content plus
    w (1, ..., 1) are those of the block of mu at n-weight w.
    """
    mu = as_partition(mu)
    if not is_n_core(mu, n):
        raise ValueError(f"{mu} is not an n-core for n={n}")
    return residue_counts(mu, n)


def _block_diffs(n: int) -> list:
    """table[v % n][rho][a]: how a block moves c_r - c_0, r = 1..n-1.

    The block is a rows of part v, the first at 0-based row index rho mod
    n.  A row of part v at row index x holds v // n nodes of every residue
    and one more of each of the v mod n residues from -x on; the full turns
    leave every difference as it was, so the move depends on (v mod n, rho,
    a) alone.  Entry a = 0 is None.
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
            by_rho.append(moves)
        table.append(by_rho)
    return table


def _content_route(n: int, max_size: int) -> tuple:
    """The content of the rows placed, up to a size: the state is (diffs, size, rho).

    diffs is c_r - c_0, r = 1..n-1, over the rows placed, moved per block
    by the `_block_diffs` table made here; size is the nodes placed, and a
    block that takes it past max_size is cut, since it only grows; rho is
    the row count mod n.  The end reads diffs, the key of the block: with
    c_0 the sweep's grade, it fixes the content.
    """
    table = _block_diffs(n)

    def step(state, v, a):
        diffs, size, rho = state
        size += v * a
        if size > max_size:
            return None
        return tuple(map(add, diffs, table[v % n][rho][a])), size, (rho + a) % n

    return ((0,) * (n - 1), 0, 0), step, lambda state: state[0]


def _block_entry(sums: dict, content, order: int) -> tuple[int, ...]:
    """Coefficients c_0 .. c_0 + order of the entry keyed by content's c_r - c_0, r = 1..n-1.

    Of a sweep graded by residue-0 nodes, coefficient w is the count of the
    content + w (1, ..., 1): a block by n-weight.  A missing key reads zeros.
    """
    c0 = content[0]
    found = sums.get(tuple(c - c0 for c in content[1:]))
    return (0,) * (order + 1) if found is None else tuple(found[1][c0 : c0 + order + 1])


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
