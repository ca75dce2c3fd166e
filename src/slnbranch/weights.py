"""Level-graded weight arithmetic for affine sl(n).

Weights are integer vectors over the fundamental weights L0..L(n-1) plus a
delta coefficient.  The simple root alpha_i expands as
-L(i-1) + 2*L(i) - L(i+1) (indices mod n), picking up +delta exactly when
i = 0.  Dominance reads the L-coefficients only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import Partition, check_rank, residue_counts


@dataclass(frozen=True)
class AffineWeight:
    n: int
    lam: tuple[int, ...]
    delta: int = 0

    def __post_init__(self):
        check_rank(self.n)
        if len(self.lam) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(self.lam)}")

    @property
    def level(self) -> int:
        return sum(self.lam)

    def _check_same_n(self, other: "AffineWeight"):
        if self.n != other.n:
            raise ValueError(f"mixed ranks: n={self.n} vs n={other.n}")

    def __add__(self, other: "AffineWeight") -> "AffineWeight":
        self._check_same_n(other)
        return AffineWeight(
            self.n,
            tuple(a + b for a, b in zip(self.lam, other.lam)),
            self.delta + other.delta,
        )

    def __sub__(self, other: "AffineWeight") -> "AffineWeight":
        return self + (-other)

    def __neg__(self) -> "AffineWeight":
        return AffineWeight(self.n, tuple(-a for a in self.lam), -self.delta)

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


def fundamental(n: int, i: int) -> AffineWeight:
    """The fundamental weight L(i mod n)."""
    check_rank(n)
    lam = [0] * n
    lam[i % n] = 1
    return AffineWeight(n, tuple(lam))


def simple_root(n: int, i: int) -> AffineWeight:
    """alpha_i = -L(i-1) + 2*L(i) - L(i+1) (+ delta for i = 0)."""
    check_rank(n)
    i %= n
    lam = [0] * n
    lam[(i - 1) % n] -= 1
    lam[i] += 2
    lam[(i + 1) % n] -= 1
    return AffineWeight(n, tuple(lam), 1 if i == 0 else 0)


def epsilon_step(n: int, i: int) -> AffineWeight:
    """Classical part of the path step: L(i+1) - L(i), indices mod n."""
    check_rank(n)
    i %= n
    lam = [0] * n
    lam[(i + 1) % n] += 1
    lam[i] -= 1
    return AffineWeight(n, tuple(lam))


def weight_of(p: Partition, n: int) -> AffineWeight:
    """L0 minus one simple root per node, grouped by residue.

    The delta coefficient comes out as minus the number of residue-0 nodes.
    """
    m = residue_counts(p, n)
    lam = [0] * n
    lam[0] = 1
    for i, mi in enumerate(m):
        if mi:
            lam[(i - 1) % n] += mi
            lam[i] -= 2 * mi
            lam[(i + 1) % n] += mi
    return AffineWeight(n, tuple(lam), -m[0])


def is_dominant(w: AffineWeight) -> bool:
    """True iff all L-coefficients are nonnegative (delta ignored)."""
    return all(c >= 0 for c in w.lam)


def equal_mod_delta(u: AffineWeight, v: AffineWeight) -> bool:
    """True iff the L-coefficient vectors agree (delta coefficients ignored)."""
    u._check_same_n(v)
    return u.lam == v.lam
