"""Level-graded weights of affine sl(n), read from residue contents.

A weight is the pair (lam, delta): integer coefficients over the
fundamental weights L0..L(n-1), and a delta coefficient.  The simple root
alpha_i expands as -L(i-1) + 2*L(i) - L(i+1) (indices mod n), picking up
+delta exactly when i = 0, and a partition with m_r nodes of residue r has
the weight L0 - sum_r m_r alpha_r.  `weight_coefficients` reads the L
coefficients of that weight off the content m, `weight_of` pairs them with
the delta coefficient, and `format_weight` renders a pair as text.
"""

from __future__ import annotations

from .partitions import Partition, as_partition, residue_counts


def weight_coefficients(m: tuple[int, ...]) -> tuple[int, ...]:
    """The L0..L(n-1) coefficients of L0 - sum_r m_r alpha_r, for a content m of length n.

    The L_i coefficient is delta_{i0} - 2 m_i + m_{i-1} + m_{i+1}, indices
    mod n: alpha_r puts 2 on L_r and -1 on L_{r-1} and L_{r+1}.
    """
    n = len(m)
    return tuple((i == 0) - 2 * m[i] + m[i - 1] + m[(i + 1) % n] for i in range(n))


def weight_of(p: Partition, n: int) -> tuple[tuple[int, ...], int]:
    """L0 minus one simple root per node, grouped by residue, as (lam, delta).

    The delta coefficient comes out as minus the number of residue-0 nodes.
    p is validated by `as_partition` first, so malformed input raises.
    """
    m = residue_counts(as_partition(p), n)
    return weight_coefficients(m), -m[0]


def format_weight(weight: tuple[tuple[int, ...], int]) -> str:
    """A (lam, delta) pair as text: positive terms first, e.g. "2*L0 + L2 - L1 - 3*d"."""
    lam, delta = weight
    pos = [(c, f"L{i}") for i, c in enumerate(lam) if c > 0]
    neg = [(-c, f"L{i}") for i, c in enumerate(lam) if c < 0]
    if delta > 0:
        pos.append((delta, "d"))
    elif delta < 0:
        neg.append((-delta, "d"))
    if not pos and not neg:
        return "0"

    def term(coeff, name):
        return name if coeff == 1 else f"{coeff}*{name}"

    text = " + ".join(term(c, s) for c, s in pos)
    for c, s in neg:
        text += (" - " if text else "-") + term(c, s)
    return text
