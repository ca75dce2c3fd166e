"""Level-graded weights of affine sl(n), read from residue contents.

Weights are integer vectors over the fundamental weights L0..L(n-1) plus a
delta coefficient.  The simple root alpha_i expands as
-L(i-1) + 2*L(i) - L(i+1) (indices mod n), picking up +delta exactly when
i = 0, and a partition with m_r nodes of residue r has the weight
L0 - sum_r m_r alpha_r.  `weight_coefficients` reads the L coefficients of
that weight off the content m, so a caller that needs only coefficients
builds no weight object.  An `AffineWeight` is a plain slotted class (no
dataclass, which would load `inspect` on every CLI start): its fields
cannot be reassigned, and it is compared and hashed by value.
"""

from __future__ import annotations

from .partitions import Partition, as_partition, check_rank, residue_counts


class AffineWeight:
    """sum_i lam[i] L_i + delta d at rank n: immutable, compared and hashed by value."""

    __slots__ = ("n", "lam", "delta")
    n: int
    lam: tuple[int, ...]
    delta: int

    def __init__(self, n: int, lam: tuple[int, ...], delta: int = 0):
        check_rank(n)
        if len(lam) != n:
            raise ValueError(f"expected {n} coefficients, got {len(lam)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "delta", delta)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an AffineWeight")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.lam, self.delta) == (other.n, other.lam, other.delta)

    def __hash__(self) -> int:
        return hash((self.n, self.lam, self.delta))

    def __repr__(self) -> str:
        return f"AffineWeight(n={self.n!r}, lam={self.lam!r}, delta={self.delta!r})"

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


def weight_coefficients(m: tuple[int, ...]) -> tuple[int, ...]:
    """The L0..L(n-1) coefficients of L0 - sum_r m_r alpha_r, for a content m of length n.

    The L_i coefficient is delta_{i0} - 2 m_i + m_{i-1} + m_{i+1}, indices
    mod n: alpha_r puts 2 on L_r and -1 on L_{r-1} and L_{r+1}.
    """
    n = len(m)
    return tuple((i == 0) - 2 * m[i] + m[i - 1] + m[(i + 1) % n] for i in range(n))


def weight_of(p: Partition, n: int) -> AffineWeight:
    """L0 minus one simple root per node, grouped by residue.

    The delta coefficient comes out as minus the number of residue-0 nodes.
    p is validated by `as_partition` first, so malformed input raises.
    """
    m = residue_counts(as_partition(p), n)
    return AffineWeight(n, weight_coefficients(m), -m[0])
