"""n-cores, n-weights, and block dimensions via beta numbers on an abacus.

With L beads, the beta numbers of a partition are the first-column hook
lengths beta_i = part_i + (L - i), a strictly decreasing set.  Sliding every
bead to the top of its runner (position mod n) yields the n-core; the result
does not depend on L.

The residue content fixes the n-core and the n-weight (Nakayama's
conjecture; James & Kerber 1981, 2.7), so the n-regular partitions of one
content -- one block -- are generated directly by a pruned walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .partitions import Partition, as_partition, check_rank, exponent_form, residue_counts


@dataclass(frozen=True)
class AbacusDisplay:
    n: int
    beta: tuple[int, ...]

    def __post_init__(self):
        for a, b in zip(self.beta, self.beta[1:]):
            if a <= b:
                raise ValueError("beta numbers must be strictly decreasing")
        if self.beta and self.beta[-1] < 0:
            raise ValueError("beta numbers must be nonnegative")


def default_bead_count(p: Partition, n: int) -> int:
    """max(len(p), 1) rounded up to a multiple of n."""
    base = max(len(p), 1)
    return base + (-base) % n


def abacus_display(p: Partition, n: int, beads: int | None = None) -> AbacusDisplay:
    check_rank(n)
    if beads is None:
        beads = default_bead_count(p, n)
    if beads < len(p):
        raise ValueError(f"need at least {len(p)} beads, got {beads}")
    padded = list(p) + [0] * (beads - len(p))
    return AbacusDisplay(n, tuple(padded[i - 1] + beads - i for i in range(1, beads + 1)))


def _partition_from_beta(beta) -> Partition:
    beta = sorted(beta, reverse=True)
    count = len(beta)
    parts = [b - (count - i) for i, b in enumerate(beta, start=1)]
    return as_partition([part for part in parts if part > 0])


def n_core(p: Partition, n: int, beads: int | None = None) -> Partition:
    """The partition left after sliding all abacus beads up their runners.

    Equivalently: remove rim n-hooks until none remain.
    """
    display = abacus_display(p, n, beads)
    runner_counts = [0] * n
    for b in display.beta:
        runner_counts[b % n] += 1
    pushed = [r + q * n for r in range(n) for q in range(runner_counts[r])]
    return _partition_from_beta(pushed)


def n_weight(p: Partition, n: int) -> int:
    """Number of rim n-hooks removed in passing to the n-core."""
    diff = sum(p) - sum(n_core(p, n))
    assert diff % n == 0
    return diff // n


def is_n_core(p: Partition, n: int) -> bool:
    return n_core(p, n) == p


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


def _add_row(rem: list[int], r: int, a: int, sign: int) -> None:
    """Add `sign` times the content of a part a in 0-based row r to `rem`."""
    n = len(rem)
    full, extra = divmod(a, n)
    start = -r % n
    for x in range(n):
        rem[x] += sign * full
    for t in range(extra):
        rem[(start + t) % n] += sign


def regular_partitions_with_content(n: int, counts) -> Iterator[Partition]:
    """The n-regular partitions with residue content `counts`, decreasing lex.

    `counts[r]` is the number of residue-r nodes, as in `residue_counts`.
    A depth-first walk places one row at a time, largest part first, with
    parts below n-fold repetition.  It tracks the content still to place;
    a row's part is capped where a residue count would go negative.  A
    branch is cut when the content left for the rows below cannot be the
    content of any partition: rows from row r on see the content rotated
    by r, so by `core_size_of_content` the test is
    sum_r (c_r - c_{r+1})^2 <= 2 c_{-r mod n}, and the sum of squares
    is kept up to date as the part shrinks.  Every content that passes
    has an n-regular member (every such weight is a weight of L(L0)), so
    the cut is exact up to the bound on the largest part, which is cut by
    size: an n-regular partition with largest part a has at most
    (n - 1) a (a + 1) / 2 nodes.
    """
    check_rank(n)
    rem = list(counts)
    if len(rem) != n:
        raise ValueError(f"expected {n} residue counts, got {len(rem)}")
    left = sum(rem)
    if min(rem) < 0 or core_size_of_content(rem) > left:
        return
    if not left:
        yield ()
        return
    cap = n - 1
    parts: list[int] = []  # placed rows; the last one is the candidate
    runs: list[int] = []  # length of the run of equal parts ending at each row
    spread = 0
    prev, run = left, 0  # the part and run of the row above the one to open
    while True:
        # Open row r with the largest part that its run, the nodes left and
        # the content allow: residue x runs out at the (rem[x] + 1)-th use.
        r = len(parts)
        start = -r % n
        a = min(
            left,
            prev if run < cap else prev - 1,
            min(n * rem[x] + (x - start) % n for x in range(n)),
        )
        fresh = a > 0 and 2 * left <= cap * a * (a + 1)
        if fresh:
            _add_row(rem, r, a, -1)
            spread = _spread(rem)
            left -= a
            parts.append(a)
            runs.append(run + 1 if a == prev else 1)
        while parts:
            r = len(parts) - 1
            if fresh and spread <= 2 * rem[(-r - 1) % n]:
                if left:
                    break
                yield tuple(parts)
            # Shrink row r by one node, or drop the row once no smaller
            # part can hold the nodes left.
            a = parts[r]
            x = (a - 1 - r) % n
            spread += 2 * (2 * rem[x] - rem[x - 1] - rem[(x + 1) % n] + 1)
            rem[x] += 1
            left += 1
            a -= 1
            if a and 2 * (left + a) <= cap * a * (a + 1):
                parts[r] = a
                runs[r] = 1
                fresh = True
                continue
            if a:
                _add_row(rem, r, a, 1)
                spread = _spread(rem)
                left += a
            parts.pop()
            runs.pop()
            fresh = False
        else:
            return
        prev, run = parts[-1], runs[-1]


def block_dimension(n: int, m: int, mu: Partition) -> int:
    """Number of n-regular partitions of m whose n-core is mu.

    They are the n-regular partitions of content
    residue_counts(mu) + w (1, ..., 1) with w = (m - |mu|) / n.
    """
    check_rank(n)
    w, r = divmod(m - sum(mu), n)
    if w < 0 or r or not is_n_core(mu, n):
        return 0
    counts = [c + w for c in residue_counts(mu, n)]
    return sum(1 for _ in regular_partitions_with_content(n, counts))


def is_rectangle_le_n(mu: Partition, n: int) -> tuple[int, int] | None:
    """(k, l) if mu is the rectangle (k^l) with k + l <= n, else None.

    The empty partition counts as the degenerate rectangle (0, 0).
    """
    if not mu:
        return (0, 0)
    ef = exponent_form(mu)
    if len(ef) != 1:
        return None
    k, l = ef[0]
    return (k, l) if k + l <= n else None
