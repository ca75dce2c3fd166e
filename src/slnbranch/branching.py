"""Paths, the chain-congruence membership test, and branching coefficients.

The branching function b(j, k) attached to the pair L(j) ⊗ L0 and the target
class L(k) + L(j-k) has as coefficient of q^d the number of class members
with d residue-0 nodes.  Each route counts them by its own mathematics:

- paths: the one-dimensional configuration sum of the level-2 RSOS model,
  a transfer matrix over the column-by-column path coordinates
  (`configuration_sums`); `in_path_set` tests one partition;
- fow: a memoized count over the class's residue contents, one per d
  (`cores.count_by_weight`), pruned by the chain congruence, which forces
  the length of each block once its part is placed (`fow_prefix`), and
  closed on the last row, whose block must have the length forced on it
  (`fow_close`); `in_fow` tests one partition;
- crystal: the same count, pruned by the eps vector of the settled rows,
  carried down the walk, and by a look-ahead that cuts a run whose
  removable node no settled "+" (nor eps_j = 0) can absorb at any residue
  where the run can end (`crystal.eps_prefix`), and closed on the last
  row, whose removable node the empty row below settles; eps must then be
  e_j (`crystal.eps_close`);
- fermionic: the lattice sum of the qseries module.

Neither walk lists a member: no leaf is filtered, so each route's prefix
and close tests alone decide membership.  Each fow or crystal series is
one `count_by_weight` call on the class's d = 0 content: the route's
prefix and close tests, bound to (n, j), are the same for every d.  Each
prefix test returns `cores.CUT_ROW` where its cut holds for every smaller
part of the row (a short open block for fow, a row above whose removable
node would raise eps past e_j for crystal), so the walk offers no more of
that row.
"""

from __future__ import annotations

from collections.abc import Callable
from operator import add

from .cores import CUT_ROW, count_by_weight
from .crystal import eps_close, eps_prefix
from .partitions import (
    Partition,
    check_order,
    check_rank,
    check_residue,
    check_size,
    is_n_regular,
    partitions_up_to,
)
from .qseries import fermionic_series
from .report import VerificationReport

METHODS = ("paths", "fow", "crystal", "fermionic")


def in_path_set(p: Partition, n: int, j: int) -> bool:
    """True iff p is n-regular and every path coordinate is dominant.

    Paths are only defined on n-regular partitions; dominance of all
    coordinates is then the membership test for the path set of L(j) ⊗ L0.
    The path runs down from p_{lambda_1} = L(j) + L(lambda_1 mod n), and
    column k, of length c_k, gives p_{k-1} = p_k - L(e + 1) + L(e) with
    e = (k - 1 - c_k) mod n; each step lowers one coefficient, so only that
    one is checked.

    The walk takes a block of equal columns at once.  Columns
    p_{i+1} + 1 .. p_i all have length i, so across them the steps
    telescope: the block lowers L((p_i - i) mod n) by one and raises
    L((p_{i+1} - i) mod n) by one.  Every step after the block's first
    lowers the coefficient its previous step raised, which is then at least
    1, so only the first step can go negative: the test is
    lam[(p_i - i) mod n] >= 1 before each block, one block per distinct part.
    The same walk reads n-regularity: a block ends each run of equal parts,
    and the run is i minus the row where the block before it ended.
    """
    check_rank(n)
    if not p:
        return True
    lam = [0] * n
    lam[j % n] += 1
    lam[p[0] % n] += 1
    last = len(p)
    ended = 0  # the row where the last block ended
    for i, part in enumerate(p, start=1):
        below = p[i] if i < last else 0
        if part > below:
            if i - ended >= n:
                return False
            ended = i
            top = (part - i) % n
            if not lam[top]:
                return False
            lam[top] -= 1
            lam[(below - i) % n] += 1
    return True


def fow_index(p: Partition, n: int) -> int | None:
    """The unique j such that p passes the chain congruence test, else None.

    A nonempty n-regular partition with exponent form ((v1,a1),..,(vr,ar))
    passes when r = 1 or a_i + v_i - v_{i+1} + a_{i+1} ≡ 0 (mod n) for all
    consecutive pairs; then j = (v1 - a1) mod n.  The empty partition
    belongs to every j's membership set; by convention this returns 0 for it
    (see in_fow).

    One pass over the parts reads both conditions from the run lengths: a
    run that reaches n parts fails regularity, and each run, once the next
    part closes it, is checked against the run before it.
    """
    check_rank(n)
    if not p:
        return 0
    j = None  # (v1 - a1) mod n, once the first run is closed
    v, a = p[0], 0  # the open run: part v, a parts so far
    for part in p:
        if part == v:
            a += 1
            if a == n:
                return None
            continue
        if j is None:
            j = (v - a) % n
        elif (a1 + v1 - v + a) % n:
            return None
        v1, a1, v, a = v, a, part, 1
    if j is None:
        return (v - a) % n
    return None if (a1 + v1 - v + a) % n else j


def in_fow(p: Partition, n: int, j: int) -> bool:
    """Membership of p in the chain-congruence set for index j.

    The empty partition is a member for every j (its path is trivially
    dominant for every j), matching the constant terms of the branching
    functions b(j, 0).
    """
    if not p:
        return is_n_regular(p, n)
    return fow_index(p, n) == j % n


def class_residue_counts(n: int, j: int, k: int) -> tuple[int, ...]:
    """Residue counts forced on weight-class (j, k) members with no residue-0 node.

    Writing the class condition as a cyclic second-difference equation in the
    counts m_0..m_{n-1}, the class pins m up to a constant shift and the
    energy pins the shift (m_0 = d): the members with d residue-0 nodes all
    have this census plus d (1, ..., 1).  Entries may be negative; a d that
    leaves one negative has no member.
    """
    check_rank(n)
    j %= n
    k %= n
    b = [0] * n
    b[0] += 1
    b[j] += 1
    b[k] -= 1
    b[(j - k) % n] -= 1
    prefix = []
    acc = 0
    for r in range(1, n):
        acc += b[r]
        prefix.append(acc)
    total = sum(prefix)
    if total % n:
        raise ArithmeticError(f"class (j={j}, k={k}) has no integral census for n={n}")
    g = total // n
    base = [0]
    for r in range(n - 1):
        base.append(base[-1] + g)
        g -= b[r + 1]
    return tuple(base)


def fow_prefix(n: int, j: int | None = None) -> Callable:
    """The chain congruence for index j on the blocks of the rows placed, checked row by row.

    Returns the content walk's prefix test prefix(v, v1, run, r, above),
    bound to n and j, whose arguments are checked here.  Of its window it
    reads the candidate part v, the part v1 of the row above, and `above`,
    this test's value for the row above (None for the first row), but
    neither the run of the row above nor the row index r.  Its value for a
    row is (a, need): the row ends a run of a equal parts, the open block,
    whose length the congruence forces to be need.
    Once the block (v1, a1) before the open block (v, a) is closed,
    a1 + v1 - v + a ≡ 0 (mod n) and 1 <= a <= n - 1 (n-regularity) fix
    a = (v - v1 - a1) mod n; for the first block, j = (v - a) mod n fixes
    a = (v - j) mod n in the same way (need is None when j is None: any
    length).  So the candidate is cut as soon as that residue is 0, as soon
    as the run grows past need, and when it closes a block of another
    length.  In that last case every smaller part closes it too, since only
    v == v1 can grow the open block, so the test returns `CUT_ROW`.  It
    reads v1 only through v == v1 and v1 mod n, as the contract asks.
    """
    check_rank(n)
    if j is not None:
        check_residue(n, j)

    def prefix(v, v1, run, r, above):
        if above is None:  # the first row opens the first block
            a, need = 1, None if j is None else (v - j) % n
        else:
            a, need = above
            if v == v1:
                a += 1
            elif need is None or a == need:
                a, need = 1, (v - v1 - a) % n
            else:  # v < v1: only v == v1 could have grown the open block
                return CUT_ROW
        return (a, need) if need is None or a <= need else None

    return prefix


def fow_close(v: int, r: int, value) -> bool:
    """Whether the last block closes at the length the congruence forces.

    `value` is `fow_prefix`'s (a, need) for the last row; every earlier
    block was checked when the block after it opened.  A first block with
    no j fixed (need None) closes at any length.
    """
    a, need = value
    return a == need or need is None


def configuration_sums(n: int, j: int, order: int) -> dict[tuple[int, ...], list[int]]:
    """The paths of L(j) ⊗ L0 up to q^order, summed by their end point.

    The one-dimensional configuration sum of the level-2 RSOS model, run as
    a transfer matrix.  A path reads the columns of an n-regular partition
    from the last (index lambda_1) to the first, starting from the
    coordinate L(j) + L(lambda_1 mod n); the column of index i and length c
    moves the coordinate by the epsilon-step e = (i - 1 - c) mod n, which
    needs lam[e + 1] >= 1 (dominance, as in `in_path_set`), and carries
    q^z for its z residue-0 nodes, the rows r < c with r ≡ i - 1 (mod n).
    A state is (lam, the length of the column just read, 0 before the
    first, the index mod n of the next column), holding the series of the
    paths that reach it.  Column lengths grow by less than n
    (n-regularity), and a path may end whenever the next index is 0 mod n,
    at the end point lam = L(k) + L(j - k) of the class (j, k).  Each
    partition in the path set is one path, so the result maps each end
    point to the partition count by residue-0 nodes.

    Each state carries the lowest power of q its series holds, so a column
    that would carry it past q^order is never read.  Many states share a
    coordinate, so the epsilon-steps are made through a dict, private to
    the call, from (lam, e) to the stepped coordinate, or None where it is
    not dominant: each is made once.  Series are added slice by slice from
    the lowest power on, into a list each state and end point owns.
    """
    check_rank(n)
    check_order(order)
    j %= n
    size = order + 1
    sums: dict[tuple[int, ...], list[int]] = {}
    # (lam, e) -> lam after the epsilon-step e, or None where it is not dominant.
    stepped: dict[tuple[tuple[int, ...], int], tuple[int, ...] | None] = {}
    layer: dict[tuple[tuple[int, ...], int, int], list] = {}
    for rho in range(n):
        lam = [0] * n
        lam[j] += 1
        lam[rho] += 1
        layer[(tuple(lam), 0, rho)] = [0, [1] + [0] * order]
    while layer:
        ahead: dict[tuple[tuple[int, ...], int, int], list] = {}
        for (lam, c, i), (low, series) in layer.items():
            if not i:
                total = sums.setdefault(lam, [0] * size)
                total[low:] = map(add, total[low:], series[low:])
            zero = (i - 1) % n  # rows r of residue 0 in column i: r ≡ i - 1
            for c2 in range(max(c, 1), c + n):
                z = (c2 - zero + n - 1) // n
                if low + z > order:
                    break
                e = (i - 1 - c2) % n
                step = stepped.get((lam, e), False)
                if step is False:
                    step = stepped[lam, e] = _epsilon_step(lam, e)
                if step is None:
                    continue
                key = (step, c2, zero)
                out = ahead.get(key)
                if out is None:
                    ahead[key] = [low + z, [0] * z + series[: size - z]]
                else:
                    if low + z < out[0]:
                        out[0] = low + z
                    top = out[1]
                    top[low + z :] = map(add, top[low + z :], series[low : size - z])
        layer = ahead
    return sums


def _epsilon_step(lam: tuple[int, ...], e: int) -> tuple[int, ...] | None:
    """lam - L(e + 1) + L(e), or None when lam has no L(e + 1) to lower (not dominant)."""
    up = (e + 1) % len(lam)
    if not lam[up]:
        return None
    step = list(lam)
    step[up] -= 1
    step[e] += 1
    return tuple(step)


def _census(n: int, base: tuple[int, ...], order: int, prefix, close) -> tuple[int, ...]:
    """How many n-regular partitions of each content base + d (1, ..., 1) pass a route's tests."""
    return count_by_weight(n, base, order, prefix, close)


def _class_members(n: int, j: int, k: int, order: int, prefix, close) -> tuple[int, ...]:
    """How many members of class (j, k) have d residue-0 nodes, d = 0..order, by a route's tests."""
    return _census(n, class_residue_counts(n, j, k), order, prefix, close)


def class_paths_series(
    sums: dict[tuple[int, ...], list[int]], n: int, j: int, k: int, order: int
) -> tuple[int, ...]:
    """The series of class (j, k) read from `configuration_sums(n, j, order)`.

    The class's paths end at L(k) + L(j - k).
    """
    end = [0] * n
    end[k % n] += 1
    end[(j - k) % n] += 1
    return tuple(sums.get(tuple(end), [0] * (order + 1)))


def _paths_series(n: int, j: int, k: int, order: int) -> tuple[int, ...]:
    return class_paths_series(configuration_sums(n, j, order), n, j, k, order)


def _fow_series(n: int, j: int, k: int, order: int) -> tuple[int, ...]:
    return _class_members(n, j, k, order, fow_prefix(n, j), fow_close)


def _crystal_series(n: int, j: int, k: int, order: int) -> tuple[int, ...]:
    return _class_members(n, j, k, order, eps_prefix(n, j), eps_close(n, j))


def _fermionic_series(n: int, j: int, k: int, order: int) -> tuple[int, ...]:
    s, t = sorted((k, (j - k) % n))
    return fermionic_series(n, s, t, order)


def branching_series(n: int, j: int, k: int, order: int, method: str) -> tuple[int, ...]:
    """Coefficients of b(j, k) up to q^order by the named route.

    "paths" sums the path configurations by transfer matrix; "fow" and
    "crystal" count the class's members of every d in one memoized walk
    over its residue contents, each pruned by its own prefix test and
    closed by its own test on the last row; "fermionic" evaluates the
    lattice sum.
    """
    check_rank(n)
    check_order(order)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    j %= n
    k %= n
    # Looked up per call, not held in a module-level table, so that a
    # rebinding of a route's global name takes effect here.
    count = {
        "paths": _paths_series,
        "fow": _fow_series,
        "crystal": _crystal_series,
        "fermionic": _fermionic_series,
    }[method]
    return count(n, j, k, order)


def verify_fow_theorem(n: int, max_size: int) -> VerificationReport:
    """Check path-dominance membership against the chain congruence.

    Runs over every n-regular partition up to max_size and every index j,
    recording any partition on which the two tests disagree.
    """
    check_rank(n)
    check_size(max_size)
    with VerificationReport(suite=f"fow(n={n}, max_size={max_size})") as report:
        for p in partitions_up_to(max_size, regular=n):
            for j in range(n):
                report.cases += 1
                by_path = in_path_set(p, n, j)
                by_chain = in_fow(p, n, j)
                if by_path != by_chain:
                    report.record(partition=list(p), j=j, paths=by_path, chain=by_chain)
    return report
