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
from collections.abc import Iterator

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
