"""Bundled cross-verification suites behind the CLI `verify` subcommand."""

from __future__ import annotations

import time

from .branching import METHODS, branching_series, verify_fow_theorem
from .cores import (
    block_dimension,
    is_n_core,
    n_core,
    n_weight,
)
from .crystal import build_component, e_tilde, eps_phi, f_tilde
from .jantzen_seitz import (
    chi_by_branching,
    chi_direct,
    is_js,
    is_js_by_crystal,
    verify_rectangle_cores,
)
from .partitions import check_rank, partitions_of
from .report import VerificationReport
from .weights import simple_root, weight_of

# Suite name -> runner(n, max_size, order), in declaration order.  The
# lambdas look each suite up by its global name when run, so a rebinding of
# that name takes effect.
_RUNNERS = {
    "fow": lambda n, max_size, order: verify_fow_theorem(n, max_size),
    "methods": lambda n, max_size, order: verify_methods(n, order),
    "js": lambda n, max_size, order: verify_js(n, max_size, order),
    "cores": lambda n, max_size, order: verify_cores(n, max_size),
    "crystal": lambda n, max_size, order: verify_crystal(n, max_size),
}
SUITES = tuple(_RUNNERS)


def _canonical_classes(n: int):
    """One (j, k) per distinct target class; k and (j-k) mod n label the same one."""
    for j in range(n):
        for k in range(n):
            if k <= (j - k) % n:
                yield j, k


def verify_methods(n: int, order: int) -> VerificationReport:
    """All four evaluation routes agree on every class up to the given order."""
    check_rank(n)
    report = VerificationReport(suite=f"methods(n={n}, order={order})")
    start = time.perf_counter()
    for j, k in _canonical_classes(n):
        rows = {
            method: branching_series(n, j, k, order, method).coeffs
            for method in METHODS
        }
        report.cases += 1
        if len(set(rows.values())) != 1:
            report.record(j=j, k=k, **{m: list(c) for m, c in rows.items()})
    report.seconds = time.perf_counter() - start
    return report


def verify_js(n: int, max_size: int, order: int) -> VerificationReport:
    """Chain congruence vs eps-profile, chi agreement, and rectangle cores."""
    check_rank(n)
    report = VerificationReport(suite=f"js(n={n}, max_size={max_size}, order={order})")
    start = time.perf_counter()
    for size in range(max_size + 1):
        for p in partitions_of(size, regular=n):
            report.cases += 1
            chain = is_js(p, n)
            profile = is_js_by_crystal(p, n)
            if chain != profile:
                report.record(partition=list(p), chain=chain, profile=profile)
    cores = [()] + [
        (k,) * l for k in range(1, n) for l in range(1, n - k + 1)
    ]
    for mu in cores:
        report.cases += 1
        direct = chi_direct(n, mu, order)
        via_branching = chi_by_branching(n, mu, order)
        if direct != via_branching:
            report.record(core=list(mu), direct=list(direct), branching=list(via_branching))
    rect = verify_rectangle_cores(n, max_size)
    report.cases += rect.cases
    report.failures.extend(rect.failures)
    report.seconds = time.perf_counter() - start
    return report


def verify_cores(n: int, max_size: int) -> VerificationReport:
    """Abacus consistency: size split, idempotence, bead-count invariance, block sums."""
    check_rank(n)
    report = VerificationReport(suite=f"cores(n={n}, max_size={max_size})")
    start = time.perf_counter()
    for size in range(max_size + 1):
        for p in partitions_of(size):
            report.cases += 1
            core = n_core(p, n)
            ok = (
                sum(p) == sum(core) + n * n_weight(p, n)
                and n_core(core, n) == core
                and all(
                    n_core(p, n, beads) == core
                    for beads in (max(len(p), 1), max(len(p), 1) + 1, max(len(p), 1) + n)
                )
            )
            if not ok:
                report.record(partition=list(p), core=list(core))
    for m in range(max_size + 1):
        report.cases += 1
        regular_count = sum(1 for _ in partitions_of(m, regular=n))
        total = 0
        for c in range(m % n, m + 1, n):
            for mu in partitions_of(c):
                if is_n_core(mu, n):
                    total += block_dimension(n, m, mu)
        if total != regular_count:
            report.record(m=m, block_sum=total, regular=regular_count)
    report.seconds = time.perf_counter() - start
    return report


def verify_crystal(n: int, max_size: int) -> VerificationReport:
    """Operator inverses, statistics/weight compatibility, and vertex counts."""
    check_rank(n)
    report = VerificationReport(suite=f"crystal(n={n}, max_size={max_size})")
    start = time.perf_counter()
    graph = build_component(n, max_size)
    counts = graph.counts_by_size()
    for size in range(max_size + 1):
        report.cases += 1
        expected = sum(1 for _ in partitions_of(size, regular=n))
        if counts.get(size, 0) != expected:
            report.record(size=size, vertices=counts.get(size, 0), regular=expected)
    for p in graph.vertices:
        for i in range(n):
            report.cases += 1
            eps_i, phi_i = eps_phi(p, n, i)
            problems = []
            if phi_i - eps_i != graph.wt[p].lam[i]:
                problems.append("phi - eps is not the weight coefficient")
            up = e_tilde(p, n, i)
            if (up is None) != (eps_i == 0):
                problems.append("eps does not match raising support")
            if up is not None and f_tilde(up, n, i) != p:
                problems.append("lowering does not invert raising")
            down = f_tilde(p, n, i)
            if (down is None) != (phi_i == 0):
                problems.append("phi does not match lowering support")
            if down is not None:
                if e_tilde(down, n, i) != p:
                    problems.append("raising does not invert lowering")
                if weight_of(down, n) != graph.wt[p] - simple_root(n, i):
                    problems.append("edge does not shift weight by the simple root")
                e2, p2 = eps_phi(down, n, i)
                if (e2, p2) != (eps_i + 1, phi_i - 1):
                    problems.append("statistics do not step by one along the edge")
            if problems:
                report.record(partition=list(p), i=i, problems=problems)
    report.seconds = time.perf_counter() - start
    return report


def run_suites(names, n: int, max_size: int, order: int) -> list[VerificationReport]:
    """Run the requested suites in the order given; unknown names fail first."""
    names = list(names)
    for name in names:
        if name not in _RUNNERS:
            raise ValueError(f"unknown suite {name!r}; expected one of {SUITES}")
    return [_RUNNERS[name](n, max_size, order) for name in names]
