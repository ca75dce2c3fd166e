"""Paths, the chain-congruence membership test, and branching coefficients.

The branching function b(j, k) attached to the pair L(j) ⊗ L0 and the target
class L(k) + L(j-k) is computed by counting partitions: the coefficient of
q^d counts members of the weight class with d residue-0 nodes.  Three
independent membership tests are provided (path dominance, the chain
congruence, and the crystal eps-profile); a fourth evaluation route lives in
the qseries module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

from .partitions import (
    Partition,
    conjugate,
    exponent_form,
    is_n_regular,
    partitions_of,
    residue_counts,
)
from .report import VerificationReport
from .weights import AffineWeight, epsilon_step, fundamental, weight_of

METHODS = ("paths", "fow", "crystal", "fermionic")


@dataclass(frozen=True)
class PathCoordinates:
    """The weight path p_0..p_{lambda_1} of a partition (classical parts only).

    Delta components of path coordinates carry no information used here and
    are fixed to zero.
    """

    n: int
    j: int
    coords: tuple[AffineWeight, ...]


@dataclass(frozen=True)
class BranchingSeries:
    n: int
    j: int
    k: int
    method: str
    coeffs: tuple[int, ...]


def path_of(p: Partition, n: int, j: int) -> PathCoordinates:
    """Walk the path recursion down from p_{lambda_1} = L(j) + L(lambda_1 mod n).

    Each step subtracts the epsilon-step whose index is read off the
    conjugate column lengths: p_{k-1} = p_k - eps((k - 1 - conj_k) mod n).
    """
    j %= n
    lam1 = p[0] if p else 0
    conj = conjugate(p)
    top = fundamental(n, j) + fundamental(n, lam1 % n)
    coords = [top]
    for k in range(lam1, 0, -1):
        coords.append(coords[-1] - epsilon_step(n, k - 1 - conj[k - 1]))
    coords.reverse()
    return PathCoordinates(n, j, tuple(coords))


def in_path_set(p: Partition, n: int, j: int) -> bool:
    """True iff p is n-regular and every path coordinate is dominant.

    Paths are only defined on n-regular partitions; dominance of all
    coordinates is then the membership test for the path set of L(j) ⊗ L0.
    """
    if not is_n_regular(p, n):
        return False
    if not p:
        return True
    j %= n
    conj = conjugate(p)
    lam = [0] * n
    lam[j] += 1
    lam[p[0] % n] += 1
    for k in range(p[0], 0, -1):
        e = (k - 1 - conj[k - 1]) % n
        lam[(e + 1) % n] -= 1
        lam[e] += 1
        if lam[(e + 1) % n] < 0:
            return False
    return True


def fow_index(p: Partition, n: int) -> int | None:
    """The unique j such that p passes the chain congruence test, else None.

    A nonempty n-regular partition with exponent form ((v1,a1),..,(vr,ar))
    passes when r = 1 or a_i + v_i - v_{i+1} + a_{i+1} ≡ 0 (mod n) for all
    consecutive pairs; then j = (v1 - a1) mod n.  The empty partition
    belongs to every j's membership set; by convention this returns 0 for it
    (see in_fow).
    """
    if not is_n_regular(p, n):
        return None
    ef = exponent_form(p)
    if not ef:
        return 0
    for (v1, a1), (v2, a2) in zip(ef, ef[1:]):
        if (a1 + v1 - v2 + a2) % n:
            return None
    return (ef[0][0] - ef[0][1]) % n


def in_fow(p: Partition, n: int, j: int) -> bool:
    """Membership of p in the chain-congruence set for index j.

    The empty partition is a member for every j (its path is trivially
    dominant for every j), matching the constant terms of the branching
    functions b(j, 0).
    """
    if not p:
        return is_n_regular(p, n)
    return fow_index(p, n) == j % n


def fow_k(p: Partition, n: int) -> int | None:
    """The class label k with wt(p) = L(k) + L(j-k) - L(j), smaller of the pair."""
    j = fow_index(p, n)
    if j is None:
        return None
    w = weight_of(p, n)
    for k in range(n):
        target = fundamental(n, k) + fundamental(n, j - k) - fundamental(n, j)
        if w.lam == target.lam:
            return k
    raise ArithmeticError(f"no class label found for {p} with n={n}")


def class_residue_counts(n: int, j: int, k: int, d: int) -> tuple[int, ...] | None:
    """Residue counts forced on weight-class (j, k) members with d zero-nodes.

    Writing the class condition as a cyclic second-difference equation in the
    counts m_0..m_{n-1}, the class pins m up to a constant shift and the
    energy pins the shift (m_0 = d).  Members of the class at energy d all
    share this census; None when it has a negative entry (no partitions).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    j %= n
    k %= n
    b = [0] * n
    b[0] += 1
    b[j] += 1
    b[k] -= 1
    b[(j - k) % n] -= 1
    prefix = []
    acc = 0
    for r in range(1, n):
        acc += b[r]
        prefix.append(acc)
    total = sum(prefix)
    if total % n:
        raise ArithmeticError(f"class (j={j}, k={k}) has no integral census for n={n}")
    g = total // n
    base = [0]
    for r in range(n - 1):
        base.append(base[-1] + g)
        g -= b[r + 1]
    counts = tuple(m + d for m in base)
    return counts if min(counts) >= 0 else None


@lru_cache(maxsize=None)
def _census(n: int, size: int) -> dict[tuple[int, ...], tuple[Partition, ...]]:
    """n-regular partitions of `size`, bucketed by residue counts."""
    buckets: dict[tuple[int, ...], list[Partition]] = {}
    for p in partitions_of(size, regular=n):
        buckets.setdefault(residue_counts(p, n), []).append(p)
    return {c: tuple(v) for c, v in buckets.items()}


def _class_members(n: int, j: int, k: int, d: int) -> tuple[Partition, ...]:
    counts = class_residue_counts(n, j, k, d)
    if counts is None:
        return ()
    return _census(n, sum(counts)).get(counts, ())


def _crystal_member(p: Partition, n: int, j: int) -> bool:
    """Eps-profile membership for index j; class members are n-regular already."""
    from .crystal import eps_index  # deferred: keep module layers acyclic

    return not p or eps_index(p, n) == j


def branching_series(n: int, j: int, k: int, order: int, method: str) -> BranchingSeries:
    """Coefficients of b(j, k) up to q^order by the named route.

    "paths", "fow" and "crystal" count the class members passing that
    route's membership test; "fermionic" evaluates the lattice sum.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    j %= n
    k %= n
    if method == "fermionic":
        from .qseries import fermionic_series

        s, t = sorted((k, (j - k) % n))
        coeffs = tuple(fermionic_series(n, s, t, order).coeffs)
        return BranchingSeries(n, j, k, method, coeffs)
    # Looked up per call, not held in a module-level table, so that a
    # rebinding of a predicate's global name takes effect here.
    member = {"paths": in_path_set, "fow": in_fow, "crystal": _crystal_member}[method]
    coeffs = tuple(
        sum(1 for p in _class_members(n, j, k, d) if member(p, n, j))
        for d in range(order + 1)
    )
    return BranchingSeries(n, j, k, method, coeffs)


def verify_fow_theorem(n: int, max_size: int) -> VerificationReport:
    """Check path-dominance membership against the chain congruence.

    Runs over every n-regular partition up to max_size and every index j,
    recording any partition on which the two tests disagree.
    """
    report = VerificationReport(suite=f"fow(n={n}, max_size={max_size})")
    start = time.perf_counter()
    for size in range(max_size + 1):
        for p in partitions_of(size, regular=n):
            for j in range(n):
                report.cases += 1
                by_path = in_path_set(p, n, j)
                by_chain = in_fow(p, n, j)
                if by_path != by_chain:
                    report.record(partition=list(p), j=j, paths=by_path, chain=by_chain)
    report.seconds = time.perf_counter() - start
    return report
