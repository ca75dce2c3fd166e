"""Integer partitions, Young diagrams, and residue (colour) statistics.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the empty partition.  Rows and columns of the Young diagram
are 1-based, and the node in row i, column j carries the residue
(j - i) mod n.

`_sweep` counts n-regular partitions as sequences of blocks (runs of equal
parts) under a route's step, for the branching routes, `cores` and
`jantzen_seitz`; `_listing`, its twin, lists them, for `jantzen_seitz.js_set`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from itertools import accumulate
from operator import add

Partition = tuple[int, ...]


def as_partition(parts) -> Partition:
    """Validate an iterable of parts and return it as a canonical tuple.

    Raises ValueError unless the parts are positive integers in weakly
    decreasing order.
    """
    p = tuple(parts)
    for i, part in enumerate(p):
        if not isinstance(part, int) or part <= 0:
            raise ValueError(f"parts must be positive integers, got {part!r}")
        if i and p[i - 1] < part:
            raise ValueError(f"parts must be weakly decreasing, got {p}")
    return p


def exponent_form(p: Partition) -> tuple[tuple[int, int], ...]:
    """Runs of equal parts as (part, multiplicity) pairs, parts strictly decreasing."""
    out: list[tuple[int, int]] = []
    for part in p:
        if out and out[-1][0] == part:
            out[-1] = (part, out[-1][1] + 1)
        else:
            out.append((part, 1))
    return tuple(out)


def check_rank(n: int) -> None:
    """The one rank check: every function that takes n rejects n < 2 through it."""
    if n < 2:
        raise ValueError("n must be at least 2")


def check_order(order: int) -> None:
    """The one order check: every function that takes a truncation order rejects order < 0."""
    if order < 0:
        raise ValueError("order must be nonnegative")


def check_size(max_size: int) -> None:
    """The one size-bound check: every sweep up to max_size rejects max_size < 0."""
    if max_size < 0:
        raise ValueError("max_size must be nonnegative")


def check_residue(n: int, i: int) -> None:
    """check_rank, then reject a residue i outside 0..n-1."""
    check_rank(n)
    if not 0 <= i < n:
        raise ValueError(f"residue {i} out of range for n={n}")


def is_n_regular(p: Partition, n: int) -> bool:
    """True iff no part is repeated n or more times."""
    check_rank(n)
    return _multiplicities_below(p, n)


def residue_counts(p: Partition, n: int) -> tuple[int, ...]:
    """Number of nodes of each residue 0..n-1 (the colour charge census).

    Row i contributes residues (1-i) mod n, (2-i) mod n, ... along its parts,
    in O(1) per row: its full turns of n nodes add one to every residue, and
    go into one running total; the arc of part mod n residues left over from
    start = (1-i) mod n goes into a cyclic difference array of length n + 1.
    An arc that wraps past n - 1 counts as one more full turn less the gap
    [end - n, start) it misses.  One prefix pass at the end reads the counts.
    """
    check_rank(n)
    turns = 0
    diff = [0] * (n + 1)
    start = 1  # (1 - row) mod n, stepped down by one per row
    for part in p:
        start = start - 1 if start else n - 1
        full, rem = divmod(part, n)
        turns += full
        if rem:
            end = start + rem
            diff[start] += 1
            if end > n:
                turns += 1
                diff[end - n] -= 1
            else:
                diff[end] -= 1
    return tuple(accumulate(diff[:n], initial=turns))[1:]


def partitions_of(m: int, regular: int | None = None) -> Iterator[Partition]:
    """All partitions of m, in decreasing lexicographic order.

    With `regular=n`, only n-regular partitions are yielded.  The order is
    the enumeration contract: serialized outputs depend on it.

    The walk is ZS1 (Zoghbi and Stojmenovic, "Fast algorithms for
    generating integer partitions", Int. J. Comput. Math. 70, 1998), in
    place on one list of length m.  Its invariant: the partition is
    a[:size], a[h] is its last part above 1, and a[h + 1:] holds only 1s.
    The successor lowers a[h] by one to r and refills the parts after it
    greedily with r's, then the remainder t; a trailing t of 1 is already
    in place, and a[h] = 2 just becomes 1, lengthening the partition by one.
    """
    if regular is not None:
        check_rank(regular)
    if m < 0:
        return
    if m == 0:
        yield ()
        return
    a = [1] * m
    a[0] = m
    size = 1
    h = 0
    while True:
        p = tuple(a[:size])
        if regular is None or _multiplicities_below(p, regular):
            yield p
        if a[0] == 1:
            return
        if a[h] == 2:
            a[h] = 1
            size += 1
            h -= 1
        else:
            r = a[h] - 1
            t = size - h
            a[h] = r
            while t >= r:
                h += 1
                a[h] = r
                t -= r
            if t == 0:
                size = h + 1
            else:
                size = h + 2
                if t > 1:
                    h += 1
                    a[h] = t


def _multiplicities_below(parts, n: int) -> bool:
    run = 0
    prev = None
    for part in parts:
        run = run + 1 if part == prev else 1
        if run >= n:
            return False
        prev = part
    return True


def partitions_up_to(max_size: int, regular: int | None = None) -> Iterator[Partition]:
    """All partitions of size at most max_size, size by size, each size in `partitions_of` order.

    A negative max_size, or a `regular` below 2, is rejected when this is
    called, not when the walk starts.
    """
    check_size(max_size)
    if regular is not None:
        check_rank(regular)
    return (p for m in range(max_size + 1) for p in partitions_of(m, regular))


def parse_partition(text: str) -> Partition:
    """Parse "5,5,4,1,1" or exponent text "5^2,4,1^2"; "-" (or "") is empty."""
    text = text.strip()
    if text in ("-", ""):
        return ()
    parts: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if "^" in token:
            base, _, mult = token.partition("^")
            try:
                part, count = int(base), int(mult)
            except ValueError:
                raise ValueError(f"bad partition token {token!r}") from None
            if count < 1:
                raise ValueError(f"bad multiplicity in token {token!r}")
            parts.extend([part] * count)
        else:
            try:
                parts.append(int(token))
            except ValueError:
                raise ValueError(f"bad partition token {token!r}") from None
    return as_partition(parts)


def format_partition(p: Partition) -> str:
    """Comma-separated parts; "-" for the empty partition."""
    return ",".join(str(part) for part in p) if p else "-"


def _sweep(n: int, order: int, start: tuple, step: Callable, close: Callable) -> dict:
    """Block sequences counted by residue-0 nodes, up to q^order, summed by their end key.

    A nonempty n-regular partition is a sequence of blocks (v, a): a run of
    a equal parts v, with 1 <= a <= n - 1 and v strictly decreasing.  The
    sweep visits the parts v from n * order down to 1 (the first row of a
    larger part holds more than `order` residue-0 nodes).  A dict, private
    to the call, maps a route state, whose last field is rho, the number
    of rows placed mod n, to [low, series]: the series of the block
    sequences with larger parts that reach the state, and its lowest power.
    At each v, every state tries a block of each length a, whose rows start
    at rho; step(state, v, a) is the route's state after the block, or None
    where the route cuts it.  The block carries q^z: a row of part v at
    0-based row index x mod n has (v - 1 - x) // n + 1 residue-0 nodes
    (none when x >= v).  The new states merge into the dict only after v
    is done, so no two blocks share a part.  Each state left at the end,
    the start state among them (the empty partition), is closed:
    close(state) is the key to which its series is added, such as a
    branching class's sorted label pair (k, j - k).
    """
    size = order + 1
    states = {start: [0, [1] + [0] * order]}
    for v in range(n * order, 0, -1):
        zeros = _row_zeros(n, v)
        ahead: dict = {}
        for state, (low, series) in states.items():
            rho = state[-1]
            shift = 0
            for a in range(1, n):
                shift += zeros[(rho + a - 1) % n]
                if low + shift > order:
                    break
                after = step(state, v, a)
                if after is not None:
                    _add_into(ahead, after, low + shift, series, shift, size)
        for state, (low, series) in ahead.items():
            _add_into(states, state, low, series, 0, size)
    sums: dict = {}
    for state, (low, series) in states.items():
        _add_into(sums, close(state), low, series, 0, size)
    return sums


def _listing(n: int, order: int, start: tuple, step: Callable, close: Callable) -> dict:
    """The block sequences with exactly `order` residue-0 nodes, listed by their end key.

    The listing twin of `_sweep`: it takes the same route (start, step,
    close), tries the blocks (v, a) below each state in the same way, v
    from n * order down, with the same residue-0 count per row, and cuts a
    block where the sweep's grade would pass `order`, or where no blocks
    of its part and below could bring the grade up to it.  Depth first,
    each state tries v descending, then a descending, and a sequence is
    listed after every sequence that extends it, so each list is in
    decreasing lex order.  Returns {close(state): [partitions]}.
    """
    # rows[v][x]: the residue-0 nodes of a row of part v at row index x mod n, x < 2n.
    rows = [None] + [_row_zeros(n, v) * 2 for v in range(1, n * order + 1)]
    # reach[v]: the most residue-0 nodes that blocks of parts v and below hold.
    reach = [0] * (n * order + 1)
    for v in range(1, n * order + 1):
        reach[v] = reach[v - 1] + (n - 1) * rows[v][0]
    lists: dict = {}
    parts: list[int] = []

    def extend(state, top: int, low: int) -> None:
        rho = state[-1]
        # A first row of part v holds at most order - low residue-0 nodes
        # when v <= n (order - low) + rho, so each v here takes one row at least.
        for v in range(min(top - 1, n * (order - low) + rho), 0, -1):
            if low + reach[v] < order:
                break
            row = rows[v]
            # The longest block within the order, a rows, and its grade.
            a, grade = 0, low
            while a < n - 1 and grade + row[rho + a] <= order:
                grade += row[rho + a]
                a += 1
            while a:
                after = step(state, v, a)
                if after is not None:
                    parts.extend([v] * a)
                    extend(after, v, grade)
                    if grade == order:
                        lists.setdefault(close(after), []).append(tuple(parts))
                    del parts[-a:]
                a -= 1
                grade -= row[rho + a]

    extend(start, n * order + 1, 0)
    if not order:
        lists.setdefault(close(start), []).append(())
    return lists


def _row_zeros(n: int, v: int) -> list[int]:
    """The residue-0 nodes of a row of part v at 0-based row index x mod n, x = 0..n-1."""
    return [(v - 1 - x) // n + 1 for x in range(n)]


def _add_into(table: dict, key, low: int, series: list, shift: int, size: int) -> None:
    """Add q^shift times `series`, whose lowest power after the shift is low, into table[key].

    A new entry gets a list of its own, so no two entries share one.
    """
    out = table.get(key)
    if out is None:
        table[key] = [low, [0] * shift + series[: size - shift]]
        return
    if low < out[0]:
        out[0] = low
    top = out[1]
    top[low:] = map(add, top[low:], series[low - shift : size - shift])
