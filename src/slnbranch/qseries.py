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
(zero when s = t).  One recursive call per coordinate fixes m_1, m_2, ...
depth first, keeping the partial form, the congruence residue and each
unfixed coordinate's linear coefficient lin_j up to date.  Every entry of B
is positive, so the cross terms among unfixed coordinates are nonnegative
and coordinate j alone lowers the form by at most lin_j^2 / (4 B_jj) when
lin_j < 0.  A branch is pruned when the partial form minus these drops
exceeds n*order.  Past the vertex of B_kk x^2 + lin_k x that bound only
grows with m_k (raising m_k raises every later lin_j), so the loop over m_k
stops at the first such x that is pruned.  The last weight n-1 is -1 mod n,
so the residue fixes m_{n-1} mod n and the innermost loop steps by n.  The
walk appends each admitted vector, with the form it reached there, to one
list.

Each listed vector is then certified in partial-sum coordinates, with
integers only.  Let y_k = sum_{a>=k} m_a, N = sum_k y_k = sum_a a*m_a and
u = s-t+n.  Since sum_{a,b} min(a,b) m_a m_b = sum_k y_k^2 and
beta.m = n*sum_{k<=u} y_k - u*N,

    n*Q(m) = n*sum_k y_k^2 - N^2 - n*sum_{k<=u} y_k + u*N + s*t,

O(n) steps per vector.  The vector must satisfy t + N ≡ 0 (mod n), and this
value must equal the walk's own form (read in the B basis), be divisible by
n and give 0 <= Q <= order; anything else is raised as a hard error rather
than rounded.

`QuadraticFormData(n, s, t)`, a plain slotted class, checks the class and
holds n, s, t, B and beta; `scaled_exponent` is the partial-sum reading of
n*Q, the one implementation of the form outside the walk.
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

    def scaled_exponent(self, m) -> int:
        """n*Q(m) in partial sums y_k = m_k + ... + m_{n-1}, for any vector m:

        n*sum y_k^2 - N^2 - n*sum_{k<=u} y_k + u*N + s*t, N = sum y_k, u = s-t+n.
        """
        n, u = self.n, self.s - self.t + self.n
        y = total = squares = above = 0  # above: the sum of y_k over k > u
        for k in range(len(m), 0, -1):
            y += m[k - 1]
            total += y
            squares += y * y
            if k > u:
                above += y
        return n * (squares - total + above) - total * total + u * total + self.s * self.t

    def exponent(self, m) -> Fraction:
        """Q(m) = n*Q(m) / n; integral on admissible vectors."""
        return Fraction(self.scaled_exponent(m), self.n)

    def admissible(self, m) -> bool:
        """Whether t + N ≡ 0 (mod n), N = sum_a a*m_a read as the sum of the y_k."""
        y = total = 0
        for mk in reversed(m):
            y += mk
            total += y
        return (self.t + total) % self.n == 0


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

    A pruned depth-first walk in the B basis of the integer form n*Q lists
    the vectors; each is then certified by the partial-sum form
    `QuadraticFormData.scaled_exponent` (see the module docstring) and
    yielded in walk order.  The pair (s, t) is folded into the domain
    s + t <= n first (see canonical_pair).  Raises ArithmeticError if a
    listed vector fails the congruence, or its partial-sum form differs
    from the walk's, is not a multiple of n, or gives an exponent outside
    0..order (a convention bug, never expected).
    """
    s, t = canonical_pair(n, s, t)
    check_order(order)
    qf = QuadraticFormData(n, s, t)
    scaled, limit, last = qf.scaled_inverse, n * order, n - 2
    diag = [scaled[k][k] for k in range(n - 1)]
    # Raising m_k by one raises lin of coordinate j > k by 2 B_kj; coordinate
    # j's drop is lin_j^2 // (4 B_jj).
    steps = [[2 * b for b in scaled[k][k + 1 :]] for k in range(n - 1)]
    quads = [[4 * b for b in diag[k + 1 :]] for k in range(n - 1)]
    found = []

    def walk(k, m, form, residue, lin):
        # form: n*Q restricted to the fixed coordinates m; residue: the value
        # m_last must take mod n; lin[j]: linear coefficient of coordinate k + j.
        # In the loop over x = m_k, residue and child_lin are the child's.
        bkk, lk = diag[k], lin[0]
        if k == last:
            x = residue
            while True:
                value = form + x * (bkk * x + lk)
                if value <= limit:
                    found.append((m + (x,), value))
                elif 2 * bkk * x + lk >= 0:
                    return
                x += n
        step, quad, weight = steps[k], quads[k], k + 1
        child_lin = lin[1:]
        x = 0
        while True:
            child_form = form + x * (bkk * x + lk)
            drop = 0
            for c, q in zip(child_lin, quad):
                if c < 0:
                    drop += c * c // q
            if child_form - drop <= limit:
                walk(k + 1, m + (x,), child_form, residue, child_lin)
            elif 2 * bkk * x + lk >= 0:
                return
            x += 1
            residue = (residue + weight) % n
            child_lin = [c + d for c, d in zip(child_lin, step)]

    walk(0, (), s * t, t, [-b for b in qf.beta])
    for m, form in found:
        value = qf.scaled_exponent(m)
        if not qf.admissible(m) or value != form or value % n or not 0 <= value <= limit:
            raise ArithmeticError(
                f"lattice walk reached {m} with n*Q {form}, and its partial sums "
                f"read n*Q {value}; expected an admissible vector with equal forms "
                f"and an integer exponent in 0..{order} (n={n}, s={s}, t={t})"
            )
        yield m, value // n


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
