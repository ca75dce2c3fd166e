"""Level-graded weight arithmetic for affine sl(n).

Weights are integer vectors over the fundamental weights L0..L(n-1) plus a
delta coefficient.  The simple root alpha_i expands as
-L(i-1) + 2*L(i) - L(i+1) (indices mod n), picking up +delta exactly when
i = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import Partition, as_partition, check_rank, residue_counts


@dataclass(frozen=True)
class AffineWeight:
    n: int
    lam: tuple[int, ...]
    delta: int = 0

    def __post_init__(self):
        check_rank(self.n)
        if len(self.lam) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(self.lam)}")

    def __sub__(self, other: "AffineWeight") -> "AffineWeight":
        if self.n != other.n:
            raise ValueError(f"mixed ranks: n={self.n} vs n={other.n}")
        return AffineWeight(
            self.n,
            tuple(a - b for a, b in zip(self.lam, other.lam)),
            self.delta - other.delta,
        )

    def __str__(self) -> str:
        pos = [(c, f"L{i}") for i, c in enumerate(self.lam) if c > 0]
        neg = [(-c, f"L{i}") for i, c in enumerate(self.lam) if c < 0]
        if self.delta > 0:
            pos.append((self.delta, "d"))
        elif self.delta < 0:
            neg.append((-self.delta, "d"))
        if not pos and not neg:
            return "0"

        def term(coeff, name):
            return name if coeff == 1 else f"{coeff}*{name}"

        text = " + ".join(term(c, s) for c, s in pos) if pos else ""
        for c, s in neg:
            text += (" - " if text else "-") + term(c, s)
        return text


def simple_root(n: int, i: int) -> AffineWeight:
    """alpha_i = -L(i-1) + 2*L(i) - L(i+1) (+ delta for i = 0)."""
    check_rank(n)
    i %= n
    lam = [0] * n
    lam[(i - 1) % n] -= 1
    lam[i] += 2
    lam[(i + 1) % n] -= 1
    return AffineWeight(n, tuple(lam), 1 if i == 0 else 0)


def weight_of(p: Partition, n: int) -> AffineWeight:
    """L0 minus one simple root per node, grouped by residue.

    The delta coefficient comes out as minus the number of residue-0 nodes.
    p is validated by `as_partition` first, so malformed input raises.
    """
    m = residue_counts(as_partition(p), n)
    lam = [0] * n
    lam[0] = 1
    for i, mi in enumerate(m):
        if mi:
            lam[(i - 1) % n] += mi
            lam[i] -= 2 * mi
            lam[(i + 1) % n] += mi
    return AffineWeight(n, tuple(lam), -m[0])
