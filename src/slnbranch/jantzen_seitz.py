"""Partitions whose restriction stays irreducible, graded by core and weight.

Membership has two equivalent characterizations implemented independently:
the chain congruence on the exponent form, and the crystal eps-profile
(at most one nonzero eps_i, equal to 1).  The generating series chi counts
members with a fixed n-core by n-weight, and can be evaluated either by
direct enumeration or through branching functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .branching import branching_series, fow_index, fow_k
from .cores import (
    is_n_core,
    is_rectangle_le_n,
    n_core,
    n_weight,
    regular_partitions_with_content,
)
from .crystal import eps_index
from .partitions import Partition, energy, is_n_regular, partitions_of, residue_counts
from .report import VerificationReport


@dataclass(frozen=True)
class JsRecord:
    """Classification data of a member partition.

    Invariant: weight = energy - min(k, l) where (k, l) is the core rectangle.
    """

    partition: Partition
    j: int
    k: int
    core: Partition
    weight: int
    energy: int


def is_js(p: Partition, n: int) -> bool:
    """Chain-congruence test: r <= 1, or every consecutive-pair sum ≡ 0 mod n.

    Only n-regular partitions qualify; the empty partition does.
    """
    return fow_index(p, n) is not None


def is_js_by_crystal(p: Partition, n: int) -> bool:
    """Eps-profile test: at most one nonzero eps_i, and that one equals 1."""
    return is_n_regular(p, n) and eps_index(p, n) is not None


def js_record(p: Partition, n: int) -> JsRecord | None:
    """Full classification of a member partition, or None for non-members."""
    j = fow_index(p, n)
    if j is None:
        return None
    return JsRecord(
        partition=p,
        j=j,
        k=fow_k(p, n),
        core=n_core(p, n),
        weight=n_weight(p, n),
        energy=energy(p, n),
    )


def js_set(n: int, mu: Partition, d: int) -> list[Partition]:
    """All member partitions with n-core mu and n-weight d, descending lex order.

    By Nakayama's conjecture they are the members among the n-regular
    partitions of content residue_counts(mu) + d (1, ..., 1).
    """
    if not is_n_core(mu, n):
        raise ValueError(f"{mu} is not an n-core for n={n}")
    if d < 0:
        return []
    counts = [c + d for c in residue_counts(mu, n)]
    return [p for p in regular_partitions_with_content(n, counts) if is_js(p, n)]


def chi_direct(n: int, mu: Partition, order: int) -> tuple[int, ...]:
    """Generating-series coefficients of the member count by n-weight."""
    return tuple(len(js_set(n, mu, d)) for d in range(order + 1))


def chi_by_branching(
    n: int, mu: Partition, order: int, method: str = "fow"
) -> tuple[int, ...]:
    """chi via branching functions.

    For a rectangular core (k^l) with k, l >= 1 and k + l <= n the series is
    the (j, k) = ((k-l) mod n, k) branching function shifted down by
    min(k, l); for the empty core it is the sum over j of the b(j, 0) series
    minus (n - 1) at order zero.  Any other core is rejected: no member
    partition has one.
    """
    rect = is_rectangle_le_n(mu, n)
    if rect is None:
        raise ValueError(
            f"core {mu} is not a rectangle (k^l) with k+l <= {n}; "
            "no partition passing the chain congruence has such a core"
        )
    k, l = rect
    if k == 0:
        coeffs = [0] * (order + 1)
        for j in range(n):
            series = branching_series(n, j, 0, order, method).coeffs
            for d in range(order + 1):
                coeffs[d] += series[d]
        coeffs[0] -= n - 1
        return tuple(coeffs)
    s = min(k, l)
    series = branching_series(n, (k - l) % n, k, order + s, method).coeffs
    if any(series[:s]):
        raise ArithmeticError(
            f"branching series for core {mu} has nonzero terms below the shift {s}"
        )
    return tuple(series[s : s + order + 1])


def verify_rectangle_cores(n: int, max_size: int) -> VerificationReport:
    """Check every member partition's core is a rectangle (k^l) with k+l <= n."""
    report = VerificationReport(suite=f"rectangle-cores(n={n}, max_size={max_size})")
    start = time.perf_counter()
    for size in range(max_size + 1):
        for p in partitions_of(size, regular=n):
            if not is_js(p, n):
                continue
            report.cases += 1
            core = n_core(p, n)
            if is_rectangle_le_n(core, n) is None:
                report.record(partition=list(p), core=list(core))
    report.seconds = time.perf_counter() - start
    return report
