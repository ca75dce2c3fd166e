"""Paths, the chain-congruence membership test, and branching coefficients.

The branching function b(j, k) attached to the pair L(j) ⊗ L0 and the target
class L(k) + L(j-k) has as coefficient of q^d the number of class members
with d residue-0 nodes.  The members are n-regular partitions, and a
nonempty one is a sequence of blocks (v, a), a run of a equal parts v.
Three routes count them in one block sweep (`sweep_series`), which visits
the parts from the largest down and carries, per route state, the series
of the block sequences that reach it; each route has its own state and
its own step per block, and reads the class off its own end state:

- paths: the one-dimensional configuration sum of the level-2 RSOS model,
  the path coordinate lam stepped once per block as `in_path_set` steps
  it (`_paths_route`); `in_path_set` tests one partition;
- fow: the chain congruence on consecutive blocks, which forces each
  block's length mod n once its part is placed (`_fow_route`); `in_fow`
  tests one partition;
- crystal: the eps-profile, the signature's "+" and "-" of each block
  reduced as they come, eps kept at most e_j (`_crystal_route`);
- fermionic: the lattice sum of the qseries module.

No route lists a member, and no step reads another route's test or class.
The sweep itself, `_sweep`, lives in `partitions`, since `cores` counts
blocks with it too; `jantzen_seitz.chi_direct` counts the Jantzen-Seitz
partitions of a block by the same sweep, stepping the fow route's
congruence with no j fixed, and `jantzen_seitz.js_set` lists them by the
sweep's listing twin, `partitions._listing`.
"""

from __future__ import annotations

from collections.abc import Callable

from .partitions import (
    Partition,
    _listing,
    _sweep,
    check_order,
    check_rank,
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


# No route counts through these two since the block sweep; `perfbench/tracer.py`
# still wraps them by name, and the tests check each sweep route against them.
def _census(n: int, order: int, start: tuple, step: Callable, close: Callable) -> dict:
    """`_sweep`'s {key: series} of a route, counted off its listing twin one d at a time."""
    check_order(order)
    series: dict = {}
    for d in range(order + 1):
        for key, members in _listing(n, d, start, step, close).items():
            series.setdefault(key, [0] * (order + 1))[d] = len(members)
    return {key: tuple(counts) for key, counts in series.items()}


def _class_members(n: int, j: int, k: int, order: int, method: str) -> tuple[int, ...]:
    """How many members of class (j, k) have d residue-0 nodes, d = 0..order, by `_census`.

    The class is read off the named route's end keys as `sweep_series`
    reads it off the sweep's.
    """
    check_rank(n)
    j %= n
    sums = _census(n, order, *_route(n, j, method))
    return sums.get(tuple(sorted((k % n, (j - k) % n))), (0,) * (order + 1))


def _labels(counts) -> tuple[int, ...]:
    """The residues of a level-2 weight's L-coefficients, each as often as its coefficient."""
    return tuple(i for i, c in enumerate(counts) for _ in range(c))


def _paths_route(n: int, j: int) -> tuple:
    """`in_path_set`'s block rule, read as runs: the state is (lam, rho), from lam = L(j).

    A block first raises lam at (v - rho) mod n, the raise the block above
    left pending (for the first block, L(lambda_1 mod n)), then lowers it at
    (v - rho - a) mod n, and is cut if that coefficient is 0.  The end
    raises lam at -rho; the class is the end point lam = L(k) + L(j - k).
    """
    lam = [0] * n
    lam[j] += 1

    def step(state, v, a):
        lam, rho = state
        lam = list(lam)
        lam[(v - rho) % n] += 1
        low = (v - rho - a) % n
        if not lam[low]:
            return None
        lam[low] -= 1
        return tuple(lam), (rho + a) % n

    def close(state):
        lam, rho = state
        lam = list(lam)
        lam[-rho % n] += 1
        return _labels(lam)

    return (tuple(lam), 0), step, close


def _fow_route(n: int, j: int | None) -> tuple:
    """The chain congruence on consecutive blocks: the state is (after, x, rho).

    `after` is (v + a) mod n of the last block, and j before the first: the
    first block needs a ≡ v - j (mod n), and each later one
    a ≡ v - (v_prev + a_prev), which is a_i + v_i - v_{i+1} + a_{i+1} ≡ 0.
    x is (v - R) mod n of the last block, R the rows above it.  The
    congruence telescopes the residue content, so the class is read off the
    end: its labels are x and -l mod n, l the row count.  The start's x is
    j, so the empty partition reads (0, j), the class (j, 0).

    With j None the first block's length is free; the step reads only
    `after` and rho of a state, so a route with a middle field of its own
    (`jantzen_seitz`'s chi route) steps through it.
    """

    def step(state, v, a):
        after, _, rho = state
        if after is not None and (v - after - a) % n:
            return None
        return (v + a) % n, (v - rho) % n, (rho + a) % n

    def close(state):
        _, x, rho = state
        return tuple(sorted((x, -rho % n)))

    return (j, j, 0), step, close


def _crystal_route(n: int, j: int) -> tuple:
    """The eps-profile, one signature step per block: the state is (eps_j, plus, rho).

    `plus` counts the surviving "+" per residue.  A block's first row puts
    its addable node's "+" at (v - rho) mod n; its last row's removable
    node, settled by the smaller part below, puts a "-" at
    (v - rho - a) mod n, which cancels a "+" of that residue, or else
    raises eps_j from 0, or is cut: a "-" that no "+" above cancels stays,
    so a settled eps only grows, and it must end at e_j.  The end adds the
    empty row's "+" at -rho, giving phi; phi - eps is the weight
    L(k) + L(j - k) - L(j), so the labels are those of phi + (1 - eps_j) e_j
    (the empty partition, eps = 0 and phi = e_0, is class (j, 0)).
    """

    def step(state, v, a):
        eps, plus, rho = state
        plus = list(plus)
        plus[(v - rho) % n] += 1
        x = (v - rho - a) % n
        if plus[x]:
            plus[x] -= 1
        elif x == j and not eps:
            eps = 1
        else:
            return None
        return eps, tuple(plus), (rho + a) % n

    def close(state):
        eps, plus, rho = state
        phi = list(plus)
        phi[-rho % n] += 1
        phi[j] += 1 - eps
        return _labels(phi)

    return (0, (0,) * n, 0), step, close


def _route(n: int, j: int, method: str) -> tuple:
    """The (start, step, close) of the route "paths", "fow" or "crystal" for index j."""
    # Looked up per call, so that a rebinding of a route's global name takes effect.
    routes = {"paths": _paths_route, "fow": _fow_route, "crystal": _crystal_route}
    if method not in routes:
        raise ValueError(f"unknown sweep method {method!r}; expected one of {tuple(routes)}")
    return routes[method](n, j)


def sweep_series(n: int, j: int, order: int, method: str) -> dict[int, tuple[int, ...]]:
    """The series of every class (j, k), k = 0..n-1, by one block sweep of the named route.

    `method` is "paths", "fow" or "crystal"; each route's (start, step,
    close) reads its own test, block by block.  k and (j - k) mod n name the
    same class and get the same series.
    """
    check_rank(n)
    check_order(order)
    j %= n
    sums = _sweep(n, order, *_route(n, j, method))
    series = {}
    for k in range(n):
        pair = tuple(sorted((k, (j - k) % n)))
        series[k] = tuple(sums[pair][1]) if pair in sums else (0,) * (order + 1)
    return series


def branching_series(n: int, j: int, k: int, order: int, method: str) -> tuple[int, ...]:
    """Coefficients of b(j, k) up to q^order by the named route.

    "paths", "fow" and "crystal" read the class from one block sweep of
    their route over every class of j (`sweep_series`); "fermionic"
    evaluates the lattice sum.
    """
    check_rank(n)
    check_order(order)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    j %= n
    k %= n
    if method == "fermionic":
        s, t = sorted((k, (j - k) % n))
        return fermionic_series(n, s, t, order)
    return sweep_series(n, j, order, method)[k]


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
