"""Crystal operators on partitions (Fock space at q = 0) and the component of ∅.

Signature rule: list the addable (+) and removable (-) i-nodes in increasing
row order and repeatedly cancel adjacent "+-" pairs.  The reduced word has
the shape -^a +^b; then eps_i = a, phi_i = b, the raising operator removes
the node of the bottom-most surviving "-", and the lowering operator adds
the node of the top-most surviving "+".  This is the unique reading of the
good-node rule under which the component of the empty partition is exactly
the set of n-regular partitions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .partitions import (
    ADDABLE,
    Node,
    Partition,
    add_node,
    boundary_nodes,
    format_partition,
    remove_node,
)
from .weights import AffineWeight, weight_of

PLUS = "+"
MINUS = "-"


@dataclass(frozen=True)
class SignatureWord:
    """Raw and reduced +/- words of addable/removable i-nodes, in row order."""

    raw: tuple[tuple[Node, str], ...]
    reduced: tuple[tuple[Node, str], ...]

    def raw_text(self) -> str:
        return "".join(sign for _, sign in self.raw)

    def reduced_text(self) -> str:
        return "".join(sign for _, sign in self.reduced)


def i_signature(p: Partition, n: int, i: int) -> SignatureWord:
    """The i-signature of p: boundary i-nodes as signs, then "+-" cancellation."""
    raw = tuple(
        (node, PLUS if kind == ADDABLE else MINUS)
        for node, kind in boundary_nodes(p, n, i)
    )
    stack: list[tuple[Node, str]] = []
    for node, sign in raw:
        if sign == MINUS and stack and stack[-1][1] == PLUS:
            stack.pop()
        else:
            stack.append((node, sign))
    return SignatureWord(raw, tuple(stack))


def eps_phi(p: Partition, n: int, i: int) -> tuple[int, int]:
    """(eps_i, phi_i): counts of - and + in the reduced signature."""
    reduced = i_signature(p, n, i).reduced
    eps = sum(1 for _, sign in reduced if sign == MINUS)
    return eps, len(reduced) - eps


def epsilon_vector(p: Partition, n: int) -> tuple[int, ...]:
    return tuple(eps_phi(p, n, i)[0] for i in range(n))


def eps_index(p: Partition, n: int) -> int | None:
    """The unique j with eps(p) = e_j (the j-th unit vector), else None.

    The eps-profile counterpart of the chain congruence's fow_index: by
    the same convention it returns 0 for the empty partition.
    """
    if not p:
        return 0
    eps = epsilon_vector(p, n)
    return eps.index(1) if sum(eps) == 1 else None


def phi_vector(p: Partition, n: int) -> tuple[int, ...]:
    return tuple(eps_phi(p, n, i)[1] for i in range(n))


def e_tilde(p: Partition, n: int, i: int) -> Partition | None:
    """Remove the good removable i-node (bottom-most surviving -), or None."""
    reduced = i_signature(p, n, i).reduced
    minuses = [node for node, sign in reduced if sign == MINUS]
    if not minuses:
        return None
    return remove_node(p, minuses[-1])


def f_tilde(p: Partition, n: int, i: int) -> Partition | None:
    """Add the good addable i-node (top-most surviving +), or None."""
    reduced = i_signature(p, n, i).reduced
    pluses = [node for node, sign in reduced if sign == PLUS]
    if not pluses:
        return None
    return add_node(p, pluses[0])


@dataclass
class CrystalGraph:
    """The connected component of ∅ under the lowering operators, size-truncated.

    Vertices are listed layer by layer (by partition size, decreasing
    lexicographic within a layer); edges (p, i, q) mean the i-lowering
    operator sends p to q.
    """

    n: int
    max_size: int
    vertices: list[Partition] = field(default_factory=list)
    edges: list[tuple[Partition, int, Partition]] = field(default_factory=list)
    eps: dict[Partition, tuple[int, ...]] = field(default_factory=dict)
    wt: dict[Partition, AffineWeight] = field(default_factory=dict)
    js: dict[Partition, bool] = field(default_factory=dict)

    def counts_by_size(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for v in self.vertices:
            out[sum(v)] = out.get(sum(v), 0) + 1
        return out

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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


def build_component(n: int, max_size: int) -> CrystalGraph:
    """Breadth-first closure of {∅} under all lowering operators, up to max_size."""
    from .jantzen_seitz import is_js  # deferred: jantzen_seitz imports this module

    if max_size < 0:
        raise ValueError("max_size must be nonnegative")
    graph = CrystalGraph(n, max_size)

    def annotate(v: Partition):
        graph.vertices.append(v)
        graph.eps[v] = epsilon_vector(v, n)
        graph.wt[v] = weight_of(v, n)
        graph.js[v] = is_js(v, n)

    annotate(())
    layer: list[Partition] = [()]
    for _ in range(max_size):
        targets: set[Partition] = set()
        for v in layer:
            for i in range(n):
                w = f_tilde(v, n, i)
                if w is None:
                    continue
                graph.edges.append((v, i, w))
                targets.add(w)
        layer = sorted(targets, reverse=True)
        for w in layer:
            annotate(w)
    return graph
