"""Each verify suite reports a failure when the mathematics it checks is broken.

The suites read their helpers through `verify`'s module globals, so a
monkeypatched helper stands in for a defect in the code under check.
"""

import time
from collections import Counter

import pytest

from slnbranch import verify
from slnbranch.cores import n_cores
from slnbranch.report import VerificationReport
from slnbranch.weights import simple_root


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

    def off_by_one(n, mu, order):
        return tuple(c + (mu == (1,)) for c in real(n, mu, order))

    assert verify.verify_cores(3, 8).ok
    monkeypatch.setattr(verify, "block_series", off_by_one)
    report = verify.verify_cores(3, 8)
    assert not report.ok
    assert all("block_sum" in failure for failure in report.failures)
    # Block (1) of H_m exists for m = 1, 4, 7.
    assert [failure["m"] for failure in report.failures] == [1, 4, 7]


def test_cores_counts_each_block_in_one_series(monkeypatch):
    real = verify.block_series
    calls = Counter()

    def counted(n, mu, order):
        calls[mu] += 1
        return real(n, mu, order)

    monkeypatch.setattr(verify, "block_series", counted)
    assert verify.verify_cores(4, 22).ok
    assert sorted(calls) == sorted(n_cores(4, 22))
    assert len(calls) == 82 and set(calls.values()) == {1}


@pytest.mark.parametrize("name", ["fow", "js", "cores", "crystal"])
def test_sweep_rejects_a_negative_max_size(name):
    # A sweep over no partition would pass with 0 cases.
    with pytest.raises(ValueError) as info:
        verify.run_suites([name], 3, -1, 2)
    assert str(info.value) == "max_size must be nonnegative"


def test_crystal_reports_a_corrupted_weight(monkeypatch):
    real = verify.build_component

    def corrupted(n, max_size):
        graph = real(n, max_size)
        graph.wt[(2, 1)] = graph.wt[(2, 1)] - simple_root(n, 0)
        return graph

    assert verify.verify_crystal(3, 5).ok
    monkeypatch.setattr(verify, "build_component", corrupted)
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
    real = verify.build_component
    target = (2, 1)

    def corrupted(n, max_size):
        graph = real(n, max_size)
        graph.wt[target] = graph.wt[target] - simple_root(n, 0)
        return graph

    monkeypatch.setattr(verify, "build_component", corrupted)
    report = verify.verify_crystal(3, 5)
    flagged = {
        (tuple(failure["partition"]), failure["i"])
        for failure in report.failures
        if "edge does not shift weight by the simple root" in failure["problems"]
    }
    # Every edge into the target and every edge out of it: f~_1 (1, 1) = (2, 1).
    edges = real(3, 5).edges
    expected = {(src, i) for src, i, dst in edges if target in (src, dst)}
    assert ((1, 1), 1) in expected
    assert flagged == expected
