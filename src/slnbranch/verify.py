"""Bundled cross-verification suites behind the CLI `verify` subcommand."""

from __future__ import annotations

from collections import Counter

from .branching import METHODS, branching_series, sweep_series, verify_fow_theorem
from .cores import (
    _bead_count,
    _n_weight,
    _pushed_partition,
    _runners,
    block_content,
    block_series,
    n_core,
)
from .crystal import _add_good, _component_layers, _remove_good, _signatures
from .jantzen_seitz import (
    _chi_sweep,
    _rectangle_cores,
    chi_by_branching,
    is_js,
    is_js_by_crystal,
    verify_rectangle_cores,
)
from .partitions import check_rank, check_size, partitions_up_to, residue_counts
from .report import VerificationReport
from .weights import weight_coefficients

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


def verify_methods(n: int, order: int) -> VerificationReport:
    """All four evaluation routes agree on every class up to the given order.

    The paths, fow and crystal routes each run one block sweep per j and
    read every k from it; the fermionic route sums its lattice per class.
    A failure names first_d, the first power of q at which the routes part.
    """
    check_rank(n)
    with VerificationReport(suite=f"methods(n={n}, order={order})") as report:
        for j in range(n):
            sweeps = {m: sweep_series(n, j, order, m) for m in METHODS if m != "fermionic"}
            # One k per distinct target class; k and (j - k) mod n label the same one.
            for k in range(n):
                if k > (j - k) % n:
                    continue
                rows = {
                    method: sweeps[method][k]
                    if method in sweeps
                    else branching_series(n, j, k, order, method)
                    for method in METHODS
                }
                report.cases += 1
                if len(set(rows.values())) != 1:
                    report.record(
                        j=j, k=k, first_d=_first_d(rows), **{m: list(c) for m, c in rows.items()}
                    )
    return report


def _first_d(rows: dict) -> int:
    """The first power of q at which the series in `rows` part.

    A series that stops short parts from the rest where it stops, so series
    that agree on their common prefix part at the shortest one's length.
    """
    return next(
        (d for d, terms in enumerate(zip(*rows.values())) if len(set(terms)) > 1),
        min(map(len, rows.values())),
    )


def _regular_counts(n: int, max_size: int) -> list[int]:
    """The number of n-regular partitions of each size up to max_size, by Glaisher's product.

    Partitions with no part repeated n or more times are equinumerous with
    those with no part divisible by n, whose generating function is
    prod_{n does not divide k} 1/(1 - q^k): one integer pass per allowed
    part, with no partition enumerated.
    """
    counts = [1] + [0] * max_size
    for k in range(1, max_size + 1):
        if k % n:
            for s in range(k, max_size + 1):
                counts[s] += counts[s - k]
    return counts


def verify_js(n: int, max_size: int, order: int) -> VerificationReport:
    """Chain congruence vs eps-profile, chi agreement, and rectangle cores."""
    check_rank(n)
    check_size(max_size)
    with VerificationReport(suite=f"js(n={n}, max_size={max_size}, order={order})") as report:
        members = []
        for p in partitions_up_to(max_size, regular=n):
            report.cases += 1
            chain = is_js(p, n)
            profile = is_js_by_crystal(p, n)
            if chain != profile:
                report.record(partition=list(p), chain=chain, profile=profile)
            if chain:
                members.append(p)
        cores = _rectangle_cores(n)
        # One block sweep holds the direct chi of every core.
        chis = _chi_sweep(n, [block_content(n, mu) for mu in cores], order)
        for mu, direct in zip(cores, chis):
            report.cases += 1
            via_branching = chi_by_branching(n, mu, order)
            if direct != via_branching:
                report.record(core=list(mu), direct=list(direct), branching=list(via_branching))
        rect = verify_rectangle_cores(n, members)
        report.cases += rect.cases
        report.failures.extend(rect.failures)
    return report


def verify_cores(n: int, max_size: int) -> VerificationReport:
    """Abacus consistency: size split, idempotence, bead-count invariance, block sums.

    Every core is read as `n_core` reads it, the push of the runner counts
    of the partition's abacus, at the default bead count and at L, L + 1
    and L + n beads (L = max(len(p), 1)), less whichever of these is the
    default.  The push depends on the runner counts alone, so it is made
    once per distinct runner vector, through a dict made here and dropped
    on return; `n_core` itself is asked only for idempotence, once per core.
    The n-weight is read by the unvalidated kernel `_n_weight`, since every
    partition of the sweep is well formed and n is checked here.
    """
    check_rank(n)
    check_size(max_size)
    with VerificationReport(suite=f"cores(n={n}, max_size={max_size})") as report:
        pushed: dict = {}

        def core_at(p, beads):
            runners = tuple(_runners(p, n, beads))
            core = pushed.get(runners)
            if core is None:
                core = pushed[runners] = _pushed_partition(runners)
            return core

        # Idempotence depends on the core alone: asked once per distinct core.
        idempotent: dict = {}

        def is_fixed(core):
            fixed = idempotent.get(core)
            if fixed is None:
                fixed = idempotent[core] = n_core(core, n) == core
            return fixed

        for p in partitions_up_to(max_size):
            report.cases += 1
            rows, default = max(len(p), 1), _bead_count(p, n)
            core = core_at(p, default)
            ok = (
                sum(p) == sum(core) + n * _n_weight(p, n)
                and is_fixed(core)
                and all(
                    core_at(p, beads) == core
                    for beads in (rows, rows + 1, rows + n)
                    if beads != default
                )
            )
            if not ok:
                report.record(partition=list(p), core=list(core))
        # Every block from one call: coefficient w counts size |mu| + n w.
        blocks = Counter()
        for mu, series in block_series(n, max_size).items():
            for w, count in enumerate(series):
                blocks[sum(mu) + n * w] += count
        regular = _regular_counts(n, max_size)
        for m in range(max_size + 1):
            report.cases += 1
            if blocks[m] != regular[m]:
                report.record(m=m, block_sum=blocks[m], regular=regular[m])
    return report


def verify_crystal(n: int, max_size: int) -> VerificationReport:
    """Vertex counts, operator inverses, and statistics/weight compatibility.

    The suite reads the component of ∅ layer by layer from the walk that
    `build_component` packages, and keeps no graph.  Each layer's vertex
    count is checked against the number of n-regular partitions of its
    size, so the count still checks the code that builds graphs.  Each
    vertex's `_signatures` scan is the one the walk made; the suite scans
    only the edge targets past the size bound itself.

    Weights are compared in residue-content coordinates: the weight of a
    content m is L0 - sum_r m_r alpha_r, so phi_i - eps_i is checked against
    its L_i coefficient, `weight_coefficients(m)[i]`, and an i-edge against
    m(target) = m(p) + e_i, which holds exactly when the weight drops by
    alpha_i, the simple roots being independent.  Every content comes from
    its own `residue_counts` call, and no weight is derived along an edge.
    A vertex is checked once the walk has given the layer below it; its
    failures are kept until the walk ends, so the size counts' failures
    come first.
    """
    check_rank(n)
    check_size(max_size)
    with VerificationReport(suite=f"crystal(n={n}, max_size={max_size})") as report:
        regular = _regular_counts(n, max_size)
        vertex_failures: list[dict] = []

        def scan(layer: dict, q):
            # A partition missing from its layer's dict, as an edge target
            # past the size bound is, is scanned here.
            found = layer.get(q)
            if found is None:
                found = layer[q] = (*_signatures(q, n), residue_counts(q, n))
            return found

        def check(vertices: list, above: dict, level: dict, below: dict):
            # One scan and one content per partition, kept for the sizes
            # s - 1, s and s + 1 around the vertex layer s.
            for p, _, targets in vertices:
                eps, plus, good, m = level[p]
                lam = weight_coefficients(m)
                for i in range(n):
                    report.cases += 1
                    eps_i, phi_i = eps[i], len(plus[i])
                    problems = []
                    if phi_i - eps_i != lam[i]:
                        problems.append("phi - eps is not the weight coefficient")
                    # No support checks: good[i] is set exactly when eps_i > 0, and
                    # phi_i is len(plus[i]), both read from this one scan.
                    if good[i]:
                        up = _remove_good(p, good[i])
                        rows = scan(above, up)[1][i]
                        if not rows or _add_good(up, rows[0]) != p:
                            problems.append("lowering does not invert raising")
                    if plus[i]:
                        down = targets[i] if targets else _add_good(p, plus[i][0])
                        eps2, plus2, good2, m2 = scan(below, down)
                        if not good2[i] or _remove_good(down, good2[i]) != p:
                            problems.append("raising does not invert lowering")
                        if m2 != m[:i] + (m[i] + 1,) + m[i + 1 :]:
                            problems.append("edge does not shift weight by the simple root")
                        if (eps2[i], len(plus2[i])) != (eps_i + 1, phi_i - 1):
                            problems.append("statistics do not step by one along the edge")
                    if problems:
                        vertex_failures.append({"partition": list(p), "i": i, "problems": problems})

        above: dict = {}
        level: dict = {}
        vertices: list = []
        for size, layer in enumerate(_component_layers(n, max_size)):
            report.cases += 1
            if len(layer) != regular[size]:
                report.record(size=size, vertices=len(layer), regular=regular[size])
            below = {v: (*found, residue_counts(v, n)) for v, found, _ in layer}
            check(vertices, above, level, below)
            above, level, vertices = level, below, layer
        check(vertices, above, level, {})
        report.failures.extend(vertex_failures)
    return report


def run_suites(names, n: int, max_size: int, order: int) -> list[VerificationReport]:
    """Run the requested suites in the order given; unknown names fail first."""
    names = list(names)
    for name in names:
        if name not in _RUNNERS:
            raise ValueError(f"unknown suite {name!r}; expected one of {SUITES}")
    return [_RUNNERS[name](n, max_size, order) for name in names]
