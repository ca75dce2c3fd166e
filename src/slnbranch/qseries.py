"""The quadratic-form lattice evaluation of the branching series.

`fermionic_series` and `lattice_sum` return the coefficients c_0..c_order
as a tuple of exact integers, the shape of every series in the package.
The lattice sum adds its terms into one coefficient list.  Each term
q^Q / prod((q)_{m_i}) starts as the list [1, 0, ..., 0] of length
order - Q + 1, and every factor 1/(q)_{m_i} divides it in place by
(1 - q^i) for i = 1..m_i: c_d += c_{d-i}, d ascending, O(order) per i.
`inv_pochhammer` expands 1/(q)_k by the same division and returns it as
a `TruncatedSeries`, whose order is the index of its last coefficient and
which multiplies two series to the lower order; the lattice sum builds
neither.  The sum runs over
nonnegative integer vectors m of length n-1 subject to the congruence
t + sum(i * m_i) ≡ 0 (mod n); each admissible vector contributes
q^Q(m) / prod((q)_{m_i}) with

    Q(m) = m^T C^{-1} m - m^T C^{-1} e_{s-t+n} + s*t/n

where C is the (n-1)x(n-1) Cartan matrix of sl(n) and e_n = 0.

The walk evaluates the integer form n*Q(m) = m^T B m - beta.m + s*t, where
B = n*C^{-1} has entries n*min(i,j) - i*j and beta is B's column at s-t+n
(zero when s = t).  It fixes m_1, m_2, ... depth first, keeping the partial
form, the congruence residue and each unfixed coordinate's linear
coefficient lin_j up to date.  Every entry of B is positive, so the cross
terms among unfixed coordinates are nonnegative and coordinate j alone
lowers the form by at most lin_j^2 / (4 B_jj) when lin_j < 0.  A branch is
pruned when the partial form minus these drops exceeds n*order.  Past the
vertex of B_kk x^2 + lin_k x that bound only grows with m_k (raising m_k
raises every later lin_j), so the loop over m_k stops at the first such x
that is pruned.  The last weight n-1 is -1 mod n, so the residue fixes
m_{n-1} mod n and the innermost loop steps by n.  Each admissible exponent
must come out a nonnegative integer, and anything else is raised as a hard
error rather than rounded.

`QuadraticFormData(n, s, t)`, a plain slotted class, checks the class and
holds n, s, t, B and beta for the walk's final check of each vector.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction

from .partitions import check_order, check_rank


class TruncatedSeries:
    """A power series: exact integer coefficients c_0..c_order, truncated past the last."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        self.order = len(self.coeffs) - 1
        check_order(self.order)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        out = [0] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if a == 0:
                continue
            for j in range(order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(out)


def _divide_by_pochhammer(c: list, k: int):
    """Divide the series c by (q)_k = (1-q)(1-q^2)...(1-q^k) in place."""
    top = len(c)
    for i in range(1, k + 1):
        for d in range(i, top):
            c[d] += c[d - i]


def inv_pochhammer(k: int, order: int) -> TruncatedSeries:
    """Expansion of 1 / ((1-q)(1-q^2)...(1-q^k)) to the given order."""
    check_order(order)
    if k < 0:
        raise ValueError("k must be nonnegative")
    c = [0] * (order + 1)
    c[0] = 1
    _divide_by_pochhammer(c, k)
    return TruncatedSeries(c)


def scaled_inverse_cartan(n: int) -> tuple[tuple[int, ...], ...]:
    """n times the inverse sl(n) Cartan matrix: entry (i,j) = n*min(i,j) - ij.

    Each entry equals min(i,j) * (n - max(i,j)), a positive integer.
    """
    check_rank(n)
    return tuple(
        tuple(n * min(i, j) - i * j for j in range(1, n)) for i in range(1, n)
    )


class QuadraticFormData:
    """The quadratic exponent data for a target class L(s) + L(t), s <= t.

    `scaled_inverse` is B = n*C^{-1} and `beta` its column at u = s-t+n
    (all zeros when u = n), so n*Q(m) = m^T B m - beta.m + s*t in integers.
    The constructor checks the class and derives B and beta from it.
    """

    __slots__ = ("n", "s", "t", "scaled_inverse", "beta")
    n: int
    s: int
    t: int
    scaled_inverse: tuple[tuple[int, ...], ...]
    beta: tuple[int, ...]

    def __init__(self, n: int, s: int, t: int):
        check_rank(n)
        if not 0 <= s <= t < n:
            raise ValueError(f"need 0 <= s <= t < n, got s={s}, t={t}, n={n}")
        self.n = n
        self.s = s
        self.t = t
        self.scaled_inverse = scaled_inverse_cartan(n)
        u = s - t + n
        self.beta = tuple(row[u - 1] if u < n else 0 for row in self.scaled_inverse)

    def exponent(self, m) -> Fraction:
        """Q(m): the integer form n*Q(m) divided by n; integral on admissible vectors."""
        scaled = self.scaled_inverse
        value = self.s * self.t
        for i, mi in enumerate(m):
            if mi:
                row = scaled[i]
                value += mi * (
                    sum(row[j] * mj for j, mj in enumerate(m) if mj) - self.beta[i]
                )
        return Fraction(value, self.n)

    def admissible(self, m) -> bool:
        return (self.t + sum((i + 1) * mi for i, mi in enumerate(m))) % self.n == 0


def canonical_pair(n: int, s: int, t: int) -> tuple[int, int]:
    """Fold (s, t) into the domain s + t <= n via the index reflection.

    The classes L(s)+L(t) and L(n-t)+L(n-s) carry equal branching series
    (the diagram symmetry fixing node 0 exchanges them), and the lattice
    formula's constant term s*t/n is normalized for the folded domain: on
    the raw pair with s + t > n it overshoots the series by q^(s+t-n).
    """
    check_rank(n)
    if not 0 <= s <= t < n:
        raise ValueError(f"need 0 <= s <= t < n, got s={s}, t={t}, n={n}")
    return (n - t, n - s) if s + t > n else (s, t)


def lattice_points(
    n: int, s: int, t: int, order: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Admissible vectors with exponent <= order, as (m, Q) pairs.

    A pruned depth-first walk over the coordinates in the integer form n*Q
    (see the module docstring); the yield order is that of the walk.  The
    pair (s, t) is folded into the domain s + t <= n first (see
    canonical_pair).  Raises ArithmeticError if a reached vector fails the
    congruence or its exponent is not an integer in 0..order (a convention
    bug, never expected).
    """
    s, t = canonical_pair(n, s, t)
    check_order(order)
    qf = QuadraticFormData(n, s, t)
    scaled, limit, last = qf.scaled_inverse, n * order, n - 2

    def walk(k, m, form, residue, lin):
        # form: n*Q restricted to the fixed coordinates m; residue: the value
        # m_last must take mod n; lin[j]: linear coefficient of coordinate k + j.
        row, lk = scaled[k], lin[0]
        bkk = row[k]
        if k == last:
            x = residue
            while True:
                value = form + x * (bkk * x + lk)
                if value <= limit:
                    yield m + (x,)
                elif 2 * bkk * x + lk >= 0:
                    return
                x += n
        x = 0
        while True:
            child_form = form + x * (bkk * x + lk)
            child_lin = tuple(c + 2 * row[j] * x for j, c in enumerate(lin[1:], k + 1))
            bound = child_form - sum(
                c * c // (4 * scaled[j][j])
                for j, c in enumerate(child_lin, k + 1)
                if c < 0
            )
            if bound <= limit:
                yield from walk(
                    k + 1, m + (x,), child_form, (residue + (k + 1) * x) % n, child_lin
                )
            elif 2 * bkk * x + lk >= 0:
                return
            x += 1

    for m in walk(0, (), s * t, t, tuple(-b for b in qf.beta)):
        q = qf.exponent(m)
        if not qf.admissible(m) or q.denominator != 1 or not 0 <= q <= order:
            raise ArithmeticError(
                f"lattice walk reached {m} with exponent {q}; expected an "
                f"admissible vector with an integer exponent in 0..{order} "
                f"(n={n}, s={s}, t={t})"
            )
        yield m, int(q)


def lattice_sum(points, order: int) -> tuple[int, ...]:
    """Coefficients of sum q^Q / prod((q)_{m_i}) over (m, Q) pairs, to the given order.

    A pair with Q > order adds nothing below q^order and is skipped; a
    negative Q, or a negative coordinate in a pair that is not skipped,
    raises ValueError.
    """
    check_order(order)
    total = [0] * (order + 1)
    for m, q in points:
        if q < 0:
            raise ValueError(f"exponent must be nonnegative, got Q={q} at m={m}")
        if q > order:
            continue
        term = [0] * (order + 1 - q)
        term[0] = 1
        for mi in m:
            if mi < 0:
                raise ValueError(f"coordinates must be nonnegative, got m={m}")
            _divide_by_pochhammer(term, mi)
        for d, c in enumerate(term, q):
            total[d] += c
    return tuple(total)


def fermionic_series(n: int, s: int, t: int, order: int) -> tuple[int, ...]:
    """Coefficients of the lattice-sum evaluation of the branching series for L(s) + L(t).

    Pair with the enumeration methods via j = (s + t) mod n.  Pairs with
    s + t > n are folded through the index reflection before evaluating
    (canonical_pair); the resulting coefficients grade by the count of
    residue-0 nodes, matching the enumeration methods exactly.
    """
    return lattice_sum(lattice_points(n, s, t, order), order)
