"""Each verify suite reports a failure when the mathematics it checks is broken.

The suites read their helpers through `verify`'s module globals, so a
monkeypatched helper stands in for a defect in the code under check.
"""

import time
from collections import Counter

import pytest

from slnbranch import crystal, verify
from slnbranch.cores import _bead_count, n_cores
from slnbranch.crystal import build_component, f_tilde
from slnbranch.partitions import partitions_up_to
from slnbranch.report import VerificationReport
from oracles import abacus_core


def test_report_times_its_block():
    with VerificationReport(suite="timed") as report:
        time.sleep(0.001)
        report.cases += 1
    assert report.seconds > 0
    assert report.to_dict() == {
        "suite": "timed",
        "cases": 1,
        "failures": [],
        "seconds": round(report.seconds, 3),
        "ok": True,
    }


def test_new_reports_start_empty_and_share_no_list():
    a, b = VerificationReport("a"), VerificationReport(suite="b")
    assert (a.suite, a.cases, a.failures, a.seconds, a.ok) == ("a", 0, [], 0.0, True)
    assert a.failures is not b.failures
    a.record(partition=[1])
    assert b.failures == [] and b.ok
    assert a.to_dict() == {
        "suite": "a",
        "cases": 0,
        "failures": [{"partition": [1]}],
        "seconds": 0.0,
        "ok": False,
    }
    assert a.summary() == "suite a: 0 cases, 1 FAILURES (0.00s)"


def test_js_reports_a_flipped_profile(monkeypatch):
    real = verify.is_js_by_crystal

    def flipped(p, n):
        return real(p, n) != (p == (2, 1))

    assert verify.verify_js(3, 6, 2).ok
    monkeypatch.setattr(verify, "is_js_by_crystal", flipped)
    report = verify.verify_js(3, 6, 2)
    assert report.failures == [{"partition": [2, 1], "chain": True, "profile": False}]


def test_cores_reports_an_off_by_one_block(monkeypatch):
    real = verify.block_series

    def off_by_one(n, max_size):
        blocks = real(n, max_size)
        blocks[(1,)] = tuple(c + 1 for c in blocks[(1,)])
        return blocks

    assert verify.verify_cores(3, 8).ok
    monkeypatch.setattr(verify, "block_series", off_by_one)
    report = verify.verify_cores(3, 8)
    assert not report.ok
    assert all("block_sum" in failure for failure in report.failures)
    # Block (1) of H_m exists for m = 1, 4, 7.
    assert [failure["m"] for failure in report.failures] == [1, 4, 7]


def test_cores_counts_each_block_in_one_series(monkeypatch):
    # One call counts every block, one series per n-core up to the bound.
    real = verify.block_series
    calls = []

    def counted(n, max_size):
        blocks = real(n, max_size)
        calls.append((n, max_size, sorted(blocks)))
        return blocks

    monkeypatch.setattr(verify, "block_series", counted)
    assert verify.verify_cores(4, 22).ok
    assert calls == [(4, 22, sorted(n_cores(4, 22)))]
    assert len(calls[0][2]) == 82


@pytest.mark.parametrize("name", ["fow", "js", "cores", "crystal"])
def test_sweep_rejects_a_negative_max_size(name):
    # A sweep over no partition would pass with 0 cases.
    with pytest.raises(ValueError) as info:
        verify.run_suites([name], 3, -1, 2)
    assert str(info.value) == "max_size must be nonnegative"


def corrupt_content(monkeypatch, target, calls=None):
    """verify reads target's residue content with one more residue-0 node.

    That is the content of the weight wt - alpha_0: the suite weighs a
    partition only through its content.
    """
    real = verify.residue_counts

    def corrupted(p, n):
        if calls is not None:
            calls[p] += 1
        m = real(p, n)
        return (m[0] + 1,) + m[1:] if p == target else m

    monkeypatch.setattr(verify, "residue_counts", corrupted)


def test_crystal_reports_a_corrupted_weight(monkeypatch):
    assert verify.verify_crystal(3, 5).ok
    corrupt_content(monkeypatch, (2, 1))
    report = verify.verify_crystal(3, 5)
    assert not report.ok
    flagged = {
        (tuple(failure["partition"]), failure["i"])
        for failure in report.failures
        if "phi - eps is not the weight coefficient" in failure["problems"]
    }
    # alpha_0 = 2 L0 - L1 - L2 (mod delta) moves every coefficient at n = 3.
    assert flagged == {((2, 1), 0), ((2, 1), 1), ((2, 1), 2)}


def test_crystal_reports_a_corrupted_edge_target(monkeypatch):
    target = (2, 1)
    corrupt_content(monkeypatch, target)
    report = verify.verify_crystal(3, 5)
    flagged = {
        (tuple(failure["partition"]), failure["i"])
        for failure in report.failures
        if "edge does not shift weight by the simple root" in failure["problems"]
    }
    # Every edge into the target and every edge out of it: f~_1 (1, 1) = (2, 1).
    edges = build_component(3, 5).edges
    expected = {(src, i) for src, i, dst in edges if target in (src, dst)}
    assert ((1, 1), 1) in expected
    assert flagged == expected


def test_cores_asks_idempotence_once_per_core(monkeypatch):
    real = verify.n_core
    calls = Counter()

    def counted(p, n):
        calls[p] += 1
        return real(p, n)

    monkeypatch.setattr(verify, "n_core", counted)
    assert verify.verify_cores(4, 22).ok
    cores = set(n_cores(4, 22))
    # Every core the sweep reads is a push; `n_core` is asked once per core,
    # for idempotence only.
    assert len(cores) == 82
    assert calls == Counter({core: 1 for core in cores})


def test_cores_records_every_partition_of_a_core_that_moves(monkeypatch):
    real = verify.n_core
    mu = (1,)

    def moved(p, n):
        return (1, 1) if p == mu else real(p, n)

    assert verify.verify_cores(3, 8).ok
    monkeypatch.setattr(verify, "n_core", moved)
    report = verify.verify_cores(3, 8)
    # n_core is asked only whether mu is fixed, once, yet every partition of
    # its block fails; each is recorded with the core its abacus pushes to.
    block = [list(p) for p in partitions_up_to(8) if abacus_core(p, 3) == mu]
    assert len(block) > 2
    assert report.failures == [{"partition": p, "core": [1]} for p in block]


def corrupt_runners(monkeypatch, hit):
    """verify's runner pass moves one bead on to the next runner where hit(p, beads).

    The bead count is unchanged, and on a fixed count distinct runner
    vectors push to distinct cores, so every corrupted read is a wrong core.
    """
    real = verify._runners

    def corrupted(p, n, beads):
        runners = real(p, n, beads)
        if hit(p, beads):
            top = runners.index(max(runners))
            runners[top] -= 1
            runners[(top + 1) % n] += 1
        return runners

    monkeypatch.setattr(verify, "_runners", corrupted)


def test_cores_records_a_core_that_depends_on_the_bead_count(monkeypatch):
    def explicit_multiple(p, beads):
        return beads != _bead_count(p, 3) and beads % 3 == 0

    corrupt_runners(monkeypatch, explicit_multiple)
    report = verify.verify_cores(3, 8)
    # The bead counts tried are b, b + 1 and b + 3, with b = max(len(p), 1),
    # less the default count (b rounded up to a multiple of 3) the core was
    # read at, so a multiple of 3 is tried only when b is one.
    flagged = [list(p) for p in partitions_up_to(8) if max(len(p), 1) % 3 == 0]
    assert [failure["partition"] for failure in report.failures] == flagged
    assert all(
        failure["core"] == list(abacus_core(tuple(failure["partition"]), 3))
        for failure in report.failures
    )


def test_cores_skips_the_default_bead_count(monkeypatch):
    real = verify._runners
    reads = Counter()

    def counted(p, n, beads):
        reads[p, beads] += 1
        return real(p, n, beads)

    monkeypatch.setattr(verify, "_runners", counted)
    report = verify.verify_cores(4, 22)
    assert report.ok
    sweep = list(partitions_up_to(22))
    assert report.cases == len(sweep) + 23
    # Each count is read once: the default one for every partition, and the
    # explicit ones, never the default, which one of b, b + 1, b + 4
    # (b = max(len(p), 1)) is when b = 0 or 3 mod 4.
    assert sum(reads.values()) == len(reads)
    explicit = {(p, beads) for p, beads in reads if beads != _bead_count(p, 4)}
    assert len(reads) - len(explicit) == len(sweep)
    skipped = sum(max(len(p), 1) % 4 in (0, 3) for p in sweep)
    assert 3 * len(sweep) - len(explicit) == skipped > 2000


@pytest.mark.parametrize(
    "offset, target",
    [(0, (3, 2)), (1, (4,)), (3, (3, 2)), (3, (2, 1, 1))],
)
def test_cores_flags_a_core_corrupted_at_one_explicit_bead_count(monkeypatch, offset, target):
    corrupt_runners(monkeypatch, lambda p, beads: p == target and beads == max(len(p), 1) + offset)
    report = verify.verify_cores(3, 8)
    assert report.failures == [{"partition": list(target), "core": list(abacus_core(target, 3))}]


def record_pushes(monkeypatch):
    """Record verify's runner reads, (p, beads) -> runner vector, and its pushes.

    The pushes are a Counter of runner vectors and a dict of what each pushed to.
    """
    real_runners, real_push = verify._runners, verify._pushed_partition
    reads, pushes, pushed = {}, Counter(), {}

    def runners(p, n, beads):
        found = reads[p, beads] = real_runners(p, n, beads)
        return found

    def push(runners):
        pushes[tuple(runners)] += 1
        core = pushed[tuple(runners)] = real_push(runners)
        return core

    monkeypatch.setattr(verify, "_runners", runners)
    monkeypatch.setattr(verify, "_pushed_partition", push)
    return reads, pushes, pushed


@pytest.mark.parametrize("n, max_size", [(3, 12), (5, 14)])
def test_cores_pushes_each_runner_vector_once(monkeypatch, n, max_size):
    reads, pushes, pushed = record_pushes(monkeypatch)
    assert verify.verify_cores(n, max_size).ok
    sweep = list(partitions_up_to(max_size))
    assert {p for p, _ in reads} == set(sweep) and len(reads) > 3 * len(sweep)
    vectors = {tuple(runners) for runners in reads.values()}
    assert set(pushes) == vectors and set(pushes.values()) == {1}
    assert len(vectors) < len(reads) / 3
    # Every core the sweep reads, at every bead count, is the oracle's.
    for (p, beads), runners in reads.items():
        assert pushed[tuple(runners)] == abacus_core(p, n), (p, beads)


def test_cores_flags_the_partitions_read_at_a_corrupted_push(monkeypatch):
    reads, _, _ = record_pushes(monkeypatch)
    assert verify.verify_cores(3, 10).ok
    vector = (2, 1, 3)
    at_vector = [(p, beads) for (p, beads), runners in reads.items() if tuple(runners) == vector]
    # The vector is read at the default bead count of some partitions and at
    # an explicit one of others.
    assert {beads == _bead_count(p, 3) for p, beads in at_vector} == {True, False}
    real = verify._pushed_partition  # the recorder, which pushes as the suite does

    def corrupted(runners):
        core = real(runners)
        return core + (1,) if tuple(runners) == vector else core

    monkeypatch.setattr(verify, "_pushed_partition", corrupted)
    report = verify.verify_cores(3, 10)
    read_there = {p for p, _ in at_vector}
    flagged = [list(p) for p in partitions_up_to(10) if p in read_there]
    assert len(flagged) > 2
    assert [failure["partition"] for failure in report.failures] == flagged


def test_cores_records_a_broken_size_split(monkeypatch):
    # The suite reads n-weights through the unvalidated kernel.
    real = verify._n_weight

    def off_by_one(p, n):
        return real(p, n) + (p == (3, 2))

    monkeypatch.setattr(verify, "_n_weight", off_by_one)
    report = verify.verify_cores(3, 8)
    assert report.failures == [{"partition": [3, 2], "core": [1, 1]}]


def test_crystal_reports_a_corrupted_target_past_the_size_bound(monkeypatch):
    target = (3, 2, 1)  # size 6, one past the bound
    calls = Counter()
    assert verify.verify_crystal(4, 5).ok
    corrupt_content(monkeypatch, target, calls)
    report = verify.verify_crystal(4, 5)
    flagged = {
        (tuple(failure["partition"]), failure["i"])
        for failure in report.failures
        if failure["problems"] == ["edge does not shift weight by the simple root"]
    }
    graph = build_component(4, 5)
    top = [p for p in graph.vertices if sum(p) == 5]
    expected = {(p, i) for p in top for i in range(4) if f_tilde(p, 4, i) == target}
    assert expected == {((3, 2), 2), ((3, 1, 1), 0)}
    assert flagged == expected and len(report.failures) == len(expected)
    # Each content is read once, kept in its layer's cache: the vertices and
    # the targets of the edges out of the top layer.
    past = {f_tilde(p, 4, i) for p in top for i in range(4)} - {None}
    assert set(calls) == set(graph.vertices) | past
    assert set(calls.values()) == {1}


def count_scans(monkeypatch) -> Counter:
    """Count `crystal._scan` calls by the partition scanned."""
    real = crystal._scan
    calls = Counter()

    def counted(rows, n):
        calls[rows[:-2]] += 1  # `_signatures` pads the rows with two zeros
        return real(rows, n)

    monkeypatch.setattr(crystal, "_scan", counted)
    return calls


def test_crystal_scans_each_partition_once(monkeypatch):
    graph = build_component(4, 22)
    top = [p for p in graph.vertices if sum(p) == 22]
    past = {f_tilde(p, 4, i) for p in top for i in range(4)} - {None}
    calls = count_scans(monkeypatch)
    assert verify.verify_crystal(4, 22).ok
    # The walk scans every vertex; the suite scans only the edge targets
    # past the size bound itself.
    assert set(calls) == set(graph.vertices) | past
    assert sum(calls.values()) == len(calls) == 2999


def test_build_component_scans_each_vertex_once(monkeypatch):
    calls = count_scans(monkeypatch)
    graph = build_component(4, 22)
    assert calls == Counter(graph.vertices)
    assert len(graph.vertices) == len(set(graph.vertices))


@pytest.mark.parametrize("n", range(2, 8))
def test_regular_counts_match_the_enumeration(n):
    listed = Counter(map(sum, partitions_up_to(24, regular=n)))
    for m in range(25):
        assert verify._regular_counts(n, m) == [listed[s] for s in range(m + 1)]


def bump_regular_count(monkeypatch, size):
    real = verify._regular_counts

    def off_by_one(n, max_size):
        return [c + (m == size) for m, c in enumerate(real(n, max_size))]

    monkeypatch.setattr(verify, "_regular_counts", off_by_one)


def test_cores_and_crystal_flag_exactly_the_miscounted_size(monkeypatch):
    bump_regular_count(monkeypatch, 7)
    [cores, crystal_report] = verify.run_suites(["cores", "crystal"], 3, 10, 2)
    assert [failure["m"] for failure in cores.failures] == [7]
    assert cores.failures[0]["regular"] == cores.failures[0]["block_sum"] + 1
    assert crystal_report.failures == [{"size": 7, "vertices": 9, "regular": 10}]


def test_crystal_records_size_counts_before_vertices(monkeypatch):
    # A vertex failure at size 2 is found before the size-5 count is read,
    # yet is recorded after it, as when the suite counted a built graph.
    corrupt_content(monkeypatch, (2, 1))
    bump_regular_count(monkeypatch, 5)
    report = verify.verify_crystal(3, 6)
    assert report.failures[0] == {"size": 5, "vertices": 5, "regular": 6}
    rest = report.failures[1:]
    assert rest and all(set(failure) == {"partition", "i", "problems"} for failure in rest)
    assert min(sum(failure["partition"]) for failure in rest) < 5


def test_methods_names_the_first_power_where_the_routes_part(monkeypatch):
    real = verify.sweep_series

    def bumped(n, j, order, method):
        sweep = real(n, j, order, method)
        if method == "fow" and j == 1:
            sweep[0] = tuple(c + (d in (3, 5)) for d, c in enumerate(sweep[0]))
        return sweep

    assert verify.verify_methods(3, 6).ok
    monkeypatch.setattr(verify, "sweep_series", bumped)
    report = verify.verify_methods(3, 6)
    [failure] = report.failures
    assert list(failure)[:3] == ["j", "k", "first_d"]
    assert (failure["j"], failure["k"], failure["first_d"]) == (1, 0, 3)
    assert failure["fow"][3] == failure["paths"][3] + 1
    assert failure["fow"][:3] == failure["paths"][:3]


def test_methods_names_where_a_short_series_stops(monkeypatch):
    real = verify.sweep_series

    def truncated(n, j, order, method):
        sweep = real(n, j, order, method)
        if method == "fow" and j == 1:
            sweep[0] = sweep[0][:4]
        return sweep

    monkeypatch.setattr(verify, "sweep_series", truncated)
    report = verify.verify_methods(3, 6)
    # The series agree on their common prefix, so they part where the short one ends.
    [failure] = report.failures
    assert (failure["j"], failure["k"], failure["first_d"]) == (1, 0, 4)
    assert failure["fow"] == failure["paths"][:4]


def test_the_benchmark_sweep_keeps_its_case_counts():
    # `verify --suite all --n 4 --max-size 22 --order 7`, suite by suite.
    reports = verify.run_suites(verify.SUITES, 4, 22, 7)
    assert [(r.suite, r.cases, r.ok) for r in reports] == [
        ("fow(n=4, max_size=22)", 9628, True),
        ("methods(n=4, order=7)", 10, True),
        ("js(n=4, max_size=22, order=7)", 2632, True),
        ("cores(n=4, max_size=22)", 4531, True),
        ("crystal(n=4, max_size=22)", 9651, True),
    ]


def test_js_records_a_chi_route_that_parts(monkeypatch):
    # The suite reads every rectangle core's direct chi from one sweep.
    real = verify._chi_sweep
    calls = []

    def bumped(n, contents, order):
        calls.append(contents)
        chis = real(n, contents, order)
        # (1) is the second core the suite reads, after the empty core.
        return [chis[0], chis[1][:-1] + (chis[1][-1] + 1,), *chis[2:]]

    monkeypatch.setattr(verify, "_chi_sweep", bumped)
    report = verify.verify_js(3, 6, 4)
    assert [failure["core"] for failure in report.failures] == [[1]]
    assert len(calls) == 1 and len(calls[0]) == 4
