"""Crystal operators on partitions (Fock space at q = 0) and the component of ∅.

Signature rule: list the addable (+) and removable (-) i-nodes in increasing
row order and repeatedly cancel adjacent "+-" pairs.  The reduced word has
the shape -^a +^b; then eps_i = a, phi_i = b, the raising operator removes
the node of the bottom-most surviving "-", and the lowering operator adds
the node of the top-most surviving "+".  This is the unique reading of the
good-node rule under which the component of the empty partition is exactly
the set of n-regular partitions.

The operators and statistics come from one integer scan, `_signatures`, that
reads the rows once and reduces the words of all n residues together: row r
with part c has a removable node of residue (c - r) mod n when c exceeds the
part below, and an addable node of residue (c + 1 - r) mod n when r = 1 or
the part above exceeds c.  Per residue it keeps a stack of the rows of the
surviving "+" signs; a "-" cancels the newest of them, or else survives,
adding one to eps and becoming the good removable row.  The word form, node
by node, is kept in `tests/oracles.py` as the readable reference the tests
compare the scan against.

The public operators and statistics validate p with `as_partition` at
entry, and the operators edit the good row that the scan finds, which
keeps the tuple a partition.  The component of ∅ comes from one walk,
`_component_layers`, which scans each vertex once and yields it layer by
layer with that scan and its lowering targets.  `build_component` packages
the walk into a `CrystalGraph`, and the verify suite reads it directly,
keeping no graph.  A vertex's Jantzen-Seitz mark comes from the eps vector
of its scan, the eps-profile side of the theorem, so this module needs
nothing from the chain-congruence side.  Nor does it weigh: a vertex's
weight is a function of its residue content, which the verify suite and the
CLI read when they need it.  `CrystalGraph` is a plain class; each graph
owns its lists and dicts.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator

from .cores import CUT_ROW
from .partitions import (
    Partition,
    as_partition,
    check_rank,
    check_residue,
    check_size,
    format_partition,
)


def _signatures(p: Partition, n: int) -> tuple[list[int], list[list[int]], list[int]]:
    """(eps, plus, good) for every residue from one scan of the rows.

    eps[r] counts the surviving "-" of the r-signature, plus[r] lists the
    rows of its surviving "+" top to bottom (so phi_r = len(plus[r])), and
    good[r] is the row of its bottom-most surviving "-", or 0 if none.
    """
    return _scan(p + (0, 0), n)


def _scan(rows, n: int) -> tuple[list[int], list[list[int]], list[int]]:
    """`_signatures` of the boundary nodes in every row of `rows` but the last.

    Each of those rows is read with the row below it, which settles its
    removable node; the last row serves only as the lower neighbour.
    """
    eps = [0] * n
    plus: list[list[int]] = [[] for _ in range(n)]
    good = [0] * n
    above = rows[0] + 1
    row = 0
    for cur, below in zip(rows, rows[1:]):
        row += 1
        if cur > below:
            r = (cur - row) % n
            if plus[r]:
                plus[r].pop()
            else:
                eps[r] += 1
                good[r] = row
        if above > cur:
            plus[(cur + 1 - row) % n].append(row)
        above = cur
    return eps, plus, good


def eps_phi(p: Partition, n: int, i: int) -> tuple[int, int]:
    """(eps_i, phi_i): counts of - and + in the reduced signature."""
    check_residue(n, i)
    eps, plus, _ = _signatures(as_partition(p), n)
    return eps[i], len(plus[i])


def epsilon_vector(p: Partition, n: int) -> tuple[int, ...]:
    check_rank(n)
    return tuple(_signatures(as_partition(p), n)[0])


def eps_index(p: Partition, n: int) -> int | None:
    """The unique j with eps(p) = e_j (the j-th unit vector), else None.

    The eps-profile counterpart of the chain congruence's fow_index: by
    the same convention it returns 0 for the empty partition.
    """
    check_rank(n)
    if not p:
        return 0
    eps = epsilon_vector(p, n)
    return eps.index(1) if sum(eps) == 1 else None


def eps_prefix(n: int, j: int) -> Callable:
    """Carry the eps of the rows above a candidate row; falsy once no completion can reach e_j.

    Returns the content walk's prefix test prefix(v, v1, run, r, above),
    bound to n and j, whose arguments are checked here.  Its window holds
    the candidate part v, the part v1 of the row above, the length of that
    row's run so far, the candidate's row index r mod n, and `above`, this
    test's value for the row above (None for the first row).  The rows
    above the candidate have their lower neighbours placed, so their
    removable nodes are settled, and a surviving "-" is cancelled only by a
    "+" above it.  Their eps vector is therefore a lower bound for the eps
    vector of every partition that begins with them.

    It runs one step of `_scan`.  Its value for a row is (eps_j, plus,
    settles): the eps vector of the settled rows, which is eps_j e_j on
    every prefix that passes, their count of surviving "+" per residue, and
    the bitmask of the residues whose "-" they can absorb, those with a
    surviving "+" and j while eps_j is 0.  The first row settles nothing.
    Each later candidate settles the row above it (row r, counted from 1),
    whose removable node, there when v1 > v, cancels a "+" of its residue
    or else raises eps, and whose addable node, there when it starts its
    run (run == 1), adds a "+".  Inside a run neither is there, and the
    value is `above` itself.  The removable node's residue x = (v1 - r) mod n
    does not depend on v, so when it would raise eps past e_j every v < v1
    fails alike and the test returns `CUT_ROW`.

    The look-ahead: the run through the candidate, of length L so far,
    ends within its next n - 1 - L rows, so its "-" lands on a residue
    (v - r - 1 - t) mod n with t < n - L, and no row before its end settles
    a node.  When `settles` holds none of those residues, no completion
    reaches e_j and the candidate alone is cut, with None; the next row
    step or `eps_close` would read the same node against the same counts.
    (The run's addable node is on none of those residues.)  The test reads
    v1 only through v == v1, v < v1 and v1 mod n, and for v < v1, where
    L = 1, it reads run only as run == 1, as the contract asks.
    """
    check_residue(n, j)
    # ends[x][L]: the residues x - 1 - t, t < n - L, as a bitmask; none
    # for L = n, a run the walk never offers.
    ends = [
        [sum(1 << (x - 1 - t) % n for t in range(n - L)) for L in range(n + 1)] for x in range(n)
    ]
    first = (0, (0,) * n, 1 << j)

    def prefix(v, v1, run, r, above):
        if above is None:
            value, length = first, 1
        elif v == v1 and run != 1:
            value, length = above, run + 1
        else:
            eps, plus, settles = above
            plus = list(plus)
            length = 2 if v == v1 else 1
            if v1 > v:
                x = (v1 - r) % n
                if plus[x]:
                    plus[x] -= 1
                    if not plus[x] and (x != j or eps):
                        settles ^= 1 << x
                elif x != j or eps:
                    return CUT_ROW  # x does not depend on v: every v < v1 fails
                else:
                    eps = 1
                    settles ^= 1 << j
            if run == 1:
                x = (v1 + 1 - r) % n
                plus[x] += 1
                settles |= 1 << x
            value = eps, tuple(plus), settles
        return value if value[2] & ends[(v - r) % n][length] else None

    return prefix


def eps_close(n: int, j: int) -> Callable:
    """Whether the last row of a walked partition leaves eps = e_j.

    Returns the content walk's closing test close(v, r, value), bound to n
    and j, whose arguments are checked here.  The empty row below the last
    row (index r mod n from 0, part v) settles its removable node.  `value`
    is the `eps_prefix` value for that row; the node cancels a surviving "+"
    of its residue, leaving eps as it was, or else raises eps_j from 0.
    Either way eps must end at e_j.
    """
    check_residue(n, j)

    def close(v, r, value):
        eps, plus, _ = value
        x = (v - r - 1) % n
        return eps == 1 if plus[x] else x == j and not eps

    return close


def e_tilde(p: Partition, n: int, i: int) -> Partition | None:
    """Remove the good removable i-node (bottom-most surviving -), or None."""
    check_residue(n, i)
    p = as_partition(p)
    row = _signatures(p, n)[2][i]
    if not row:
        return None
    return _remove_good(p, row)


def f_tilde(p: Partition, n: int, i: int) -> Partition | None:
    """Add the good addable i-node (top-most surviving +), or None."""
    check_residue(n, i)
    p = as_partition(p)
    rows = _signatures(p, n)[1][i]
    if not rows:
        return None
    return _add_good(p, rows[0])


def _remove_good(p: Partition, row: int) -> Partition:
    """p with the last node of `row` removed, the row dropped if it empties.

    The node must be removable, as a good one is, so the result is a partition.
    """
    part = p[row - 1] - 1
    return p[: row - 1] + ((part,) if part else ()) + p[row:]


def _add_good(p: Partition, row: int) -> Partition:
    """p with a node added at the end of `row`, which may open below the last row.

    The node must be addable, as a good one is, so the result is a partition.
    """
    if row > len(p):
        return p + (1,)
    return p[: row - 1] + (p[row - 1] + 1,) + p[row:]


class CrystalGraph:
    """The connected component of ∅ under the lowering operators, size-truncated.

    Vertices are listed layer by layer (by partition size, decreasing
    lexicographic within a layer); edges (p, i, q) mean the i-lowering
    operator sends p to q.  `eps` holds each vertex's eps vector, and `js`
    marks the Jantzen-Seitz vertices by their eps-profile: at most one
    nonzero eps_i, equal to 1.  The graph holds no weights; `weight_of(v, n)`
    reads a vertex's weight, the pair (lam, delta), from its residue
    content.  A new graph is empty and owns its lists and dicts.
    """

    vertices: list[Partition]
    edges: list[tuple[Partition, int, Partition]]
    eps: dict[Partition, tuple[int, ...]]
    js: dict[Partition, bool]

    def __init__(self):
        self.vertices = []
        self.edges = []
        self.eps = {}
        self.js = {}

    def counts_by_size(self) -> Counter[int]:
        return Counter(map(sum, self.vertices))

    def to_dot(self) -> str:
        """DOT rendering; vertex labels carry a "*" suffix on Jantzen-Seitz vertices."""
        lines = ["digraph crystal {", "  rankdir=TB;"]
        for v in self.vertices:
            name = format_partition(v)
            label = name + ("*" if self.js[v] else "")
            lines.append(f'  "{name}" [label="{label}"];')
        for src, i, dst in self.edges:
            lines.append(
                f'  "{format_partition(src)}" -> "{format_partition(dst)}" [label="{i}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "vertices": [
                {"partition": list(v), "eps": list(self.eps[v]), "js": self.js[v]}
                for v in self.vertices
            ],
            "edges": [
                {"from": format_partition(src), "i": i, "to": format_partition(dst)}
                for src, i, dst in self.edges
            ],
        }


def _component_layers(n: int, max_size: int) -> Iterator[list[tuple]]:
    """The component of ∅ under the lowering operators, one layer per size up to max_size.

    A layer lists its vertices in decreasing lexicographic order, each as
    (v, scan, targets): scan is v's one `_signatures` scan, and targets[i]
    is f~_i v, the next layer's vertex that the good addable i-node gives
    (None where phi_i is 0).  The last layer's targets, past the size
    bound, are not computed: its entries carry None in place of the list.
    Unchecked; its callers check n and max_size.
    """
    layer: list[Partition] = [()]
    for size in range(max_size + 1):
        found: list[tuple] = []
        nxt: set[Partition] = set()
        for v in layer:
            scan = _signatures(v, n)
            targets = None
            if size < max_size:
                # Every residue's good addable row is its top-most surviving "+".
                targets = [_add_good(v, rows[0]) if rows else None for rows in scan[1]]
                nxt.update(targets)
            found.append((v, scan, targets))
        yield found
        nxt.discard(None)
        layer = sorted(nxt, reverse=True)


def build_component(n: int, max_size: int) -> CrystalGraph:
    """Breadth-first closure of {∅} under all lowering operators, up to max_size.

    The graph packages `_component_layers`, which scans each vertex once;
    that scan gives its eps annotation, its Jantzen-Seitz mark and its
    out-edges, and no vertex is weighed.  Every vertex is n-regular, and a
    nonempty partition has some eps_i >= 1, so the eps-profile test (at
    most one nonzero eps_i, equal to 1) reads sum(eps) <= 1.
    """
    check_size(max_size)
    check_rank(n)
    graph = CrystalGraph()
    for layer in _component_layers(n, max_size):
        for v, (eps, _, _), targets in layer:
            graph.vertices.append(v)
            graph.eps[v] = tuple(eps)
            graph.js[v] = sum(eps) <= 1
            if targets:
                graph.edges.extend((v, i, w) for i, w in enumerate(targets) if w)
    return graph
