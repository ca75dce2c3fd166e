"""Integer partitions, Young diagrams, and residue (colour) statistics.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the empty partition.  Rows and columns of the Young diagram
are 1-based, and the node in row i, column j carries the residue
(j - i) mod n.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

Partition = tuple[int, ...]

ADDABLE = "addable"
REMOVABLE = "removable"


class Node(NamedTuple):
    """A diagram node: 1-based row and column plus its residue mod n."""

    row: int
    col: int
    residue: int


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


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram: part j is the length of column j."""
    if not p:
        return ()
    return tuple(sum(1 for part in p if part >= j) for j in range(1, p[0] + 1))


def exponent_form(p: Partition) -> tuple[tuple[int, int], ...]:
    """Runs of equal parts as (part, multiplicity) pairs, parts strictly decreasing."""
    out: list[tuple[int, int]] = []
    for part in p:
        if out and out[-1][0] == part:
            out[-1] = (part, out[-1][1] + 1)
        else:
            out.append((part, 1))
    return tuple(out)


def from_exponent_form(pairs) -> Partition:
    """Expand (part, multiplicity) pairs back into a partition tuple."""
    parts: list[int] = []
    for part, mult in pairs:
        if mult <= 0:
            raise ValueError(f"multiplicities must be positive, got {mult}")
        parts.extend([part] * mult)
    return as_partition(parts)


def check_rank(n: int) -> None:
    """The one rank check: every function that takes n rejects n < 2 through it."""
    if n < 2:
        raise ValueError("n must be at least 2")


def is_n_regular(p: Partition, n: int) -> bool:
    """True iff no part is repeated n or more times."""
    check_rank(n)
    return all(mult < n for _, mult in exponent_form(p))


def residue_counts(p: Partition, n: int) -> tuple[int, ...]:
    """Number of nodes of each residue 0..n-1 (the colour charge census).

    Row i contributes residues (1-i) mod n, (2-i) mod n, ... along its parts.
    """
    check_rank(n)
    counts = [0] * n
    for row, part in enumerate(p, start=1):
        full, rem = divmod(part, n)
        if full:
            for i in range(n):
                counts[i] += full
        start = (1 - row) % n
        for t in range(rem):
            counts[(start + t) % n] += 1
    return tuple(counts)


def energy(p: Partition, n: int) -> int:
    """Number of residue-0 nodes."""
    return residue_counts(p, n)[0]


def boundary_nodes(p: Partition, n: int, i: int) -> list[tuple[Node, str]]:
    """Addable and removable nodes of residue i, ordered by increasing row.

    A node is addable (removable) when adding (removing) it leaves a valid
    partition.  Each row holds at most one node of a fixed residue, so the
    row order is total; the crystal signature rule depends on it.
    """
    if not 0 <= i < n:
        raise ValueError(f"residue {i} out of range for n={n}")
    out: list[tuple[Node, str]] = []
    rows = len(p)
    for row in range(1, rows + 2):
        cur = p[row - 1] if row <= rows else 0
        below = p[row] if row < rows else 0
        if cur > below and (cur - row) % n == i:
            out.append((Node(row, cur, i), REMOVABLE))
        above = p[row - 2] if row >= 2 else None
        if (row == 1 or above > cur) and (cur + 1 - row) % n == i:
            out.append((Node(row, cur + 1, i), ADDABLE))
    return out


def add_node(p: Partition, node: Node) -> Partition:
    """Partition with `node` added; ValueError if the node is not addable."""
    parts = list(p)
    if node.row == len(parts) + 1:
        if node.col != 1:
            raise ValueError(f"cannot add {node} to {p}")
        parts.append(1)
    elif 1 <= node.row <= len(parts) and node.col == parts[node.row - 1] + 1:
        parts[node.row - 1] += 1
    else:
        raise ValueError(f"cannot add {node} to {p}")
    return as_partition(parts)


def remove_node(p: Partition, node: Node) -> Partition:
    """Partition with `node` removed; ValueError if the node is not removable."""
    parts = list(p)
    if not (1 <= node.row <= len(parts) and node.col == parts[node.row - 1]):
        raise ValueError(f"cannot remove {node} from {p}")
    parts[node.row - 1] -= 1
    if parts[node.row - 1] == 0:
        parts.pop(node.row - 1)
    return as_partition(parts)


def partitions_of(m: int, regular: int | None = None) -> Iterator[Partition]:
    """All partitions of m, in decreasing lexicographic order.

    With `regular=n`, only n-regular partitions are yielded.  The order is
    the enumeration contract: serialized outputs depend on it.
    """
    if m < 0:
        return
    if m == 0:
        yield ()
        return
    a = [m]
    while True:
        if regular is None or _multiplicities_below(a, regular):
            yield tuple(a)
        j = len(a) - 1
        while j >= 0 and a[j] == 1:
            j -= 1
        if j < 0:
            return
        v = a[j] - 1
        rem = len(a) - j
        a = a[:j] + [v]
        while rem > 0:
            c = min(v, rem)
            a.append(c)
            rem -= c


def _multiplicities_below(parts, n: int) -> bool:
    run = 0
    prev = None
    for part in parts:
        run = run + 1 if part == prev else 1
        if run >= n:
            return False
        prev = part
    return True


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
