"""The frontier harness `bench/frontier.py`, on points small enough for the suite."""

import importlib.util
import shutil
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "bench" / "frontier.py"
spec = importlib.util.spec_from_file_location("frontier", PATH)
frontier = importlib.util.module_from_spec(spec)
spec.loader.exec_module(frontier)


def test_class_point_times_every_route_in_fresh_interpreters():
    point = frontier.class_point(3, 4, 2, 60.0)
    assert point["kind"] == "class" and (point["n"], point["order"]) == (3, 4)
    assert point["agree"] is True
    assert set(point["routes"]) == set(frontier.ROUTES)
    for record in point["routes"].values():
        assert record["timed_out"] is False and record["runs"] == 2
        assert record["seconds"] >= 0 and "series" not in record


def test_every_class_point_reads_the_methods_report():
    point = frontier.every_class_point(3, 4, 1, 60.0)
    assert point["agree"] is True
    assert point["routes"]["all"]["cases"] == 6


def test_chi_point_times_both_chi_routes_on_every_rectangle_core():
    point = frontier.chi_point(3, 4, 1, 60.0)
    assert point["kind"] == "chi" and (point["n"], point["order"]) == (3, 4)
    assert point["agree"] is True
    assert set(point["routes"]) == set(frontier.CHI_ROUTES)
    for record in point["routes"].values():
        assert record["timed_out"] is False and "series" not in record


def test_chi_routes_return_one_series_per_rectangle_core():
    # The empty core and (1), (2), (1, 1) at n = 3, as chi_direct counts them.
    record = frontier.run_once(3, 2, "chi-direct", 60.0)
    assert record["series"] == [[1, 2, 5], [1, 2, 2], [1, 1, 2], [1, 1, 2]]


def test_a_run_past_the_limit_is_recorded_as_timed_out_once():
    record = frontier.measure(3, 4, "paths", 5, 0.001)
    assert record == {"timed_out": True, "limit_s": 0.001}


def _other_tree(tmp_path):
    """A second checkout: a copy of this tree's package under tmp_path."""
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(frontier.ROOT / "src", tmp_path / "src", ignore=skip)
    return tmp_path


def test_against_pairs_each_route_with_the_other_tree(tmp_path):
    point = frontier.class_point(3, 4, 2, 60.0, _other_tree(tmp_path))
    assert point["agree"] is True
    for record in point["routes"].values():
        assert record["timed_out"] is False and record["runs"] == 2
        assert record["against_seconds"] > 0 and record["same_result"] is True
        low, high = record["ratio_range"]
        assert 0 < low <= record["ratio"] <= high
        assert 0 <= record["wins"] <= record["runs"]


def _fake_runs(monkeypatch, result_of):
    """Replace `run_once` by `result_of(tree)`; returns the trees in the order they ran."""
    trees = []

    def run_once(n, order, route, limit, core="-", tree=frontier.ROOT):
        trees.append(tree)
        return result_of(tree)

    monkeypatch.setattr(frontier, "run_once", run_once)
    return trees


def test_each_tree_goes_first_in_half_the_pairs(tmp_path, monkeypatch):
    def result_of(tree):
        return {"seconds": 1.0 if tree == frontier.ROOT else 2.0, "vmhwm_kib": None, "series": [1]}

    trees = _fake_runs(monkeypatch, result_of)
    record = frontier.measure(3, 4, "paths", 4, 60.0, tmp_path)
    here, there = frontier.ROOT, tmp_path
    assert trees == [here, there, there, here, here, there, there, here]
    assert record["seconds"] == 1.0 and record["against_seconds"] == 2.0
    assert record["ratio"] == 0.5 and record["ratio_range"] == [0.5, 0.5]
    assert record["wins"] == 4 and record["same_result"] is True


def test_a_result_that_differs_between_the_trees_disagrees(tmp_path, monkeypatch):
    def result_of(tree):
        mine = tree == frontier.ROOT
        return {"seconds": 1.0, "vmhwm_kib": None, "series": [1, 2 if mine else 3]}

    _fake_runs(monkeypatch, result_of)
    point = frontier.class_point(3, 4, 2, 60.0, tmp_path)
    assert point["agree"] is False
    assert all(r["same_result"] is False for r in point["routes"].values())
    # Equal times are a tie, which this tree does not win.
    assert all(r["wins"] == 0 for r in point["routes"].values())
    # Without a second tree the routes agree with each other.
    assert frontier.class_point(3, 4, 2, 60.0)["agree"] is True


def test_a_report_that_differs_between_the_trees_disagrees(tmp_path, monkeypatch):
    def result_of(tree):
        cases = 76 if tree == frontier.ROOT else 75
        return {"seconds": 1.0, "vmhwm_kib": None, "ok": True, "cases": cases}

    _fake_runs(monkeypatch, result_of)
    assert frontier.cores_point(3, 8, 2, 60.0, tmp_path)["agree"] is False
    assert frontier.cores_point(3, 8, 2, 60.0)["agree"] is True


@pytest.mark.parametrize("slow", ["here", "there"])
def test_a_timeout_on_either_tree_is_recorded_once(tmp_path, monkeypatch, slow):
    slow_tree = frontier.ROOT if slow == "here" else tmp_path

    def result_of(tree):
        return None if tree == slow_tree else {"seconds": 1.0, "vmhwm_kib": None, "series": [1]}

    trees = _fake_runs(monkeypatch, result_of)
    record = frontier.measure(3, 4, "paths", 6, 20.0, tmp_path)
    assert record == {"timed_out": True, "limit_s": 20.0}
    assert trees[-1] == slow_tree and len(trees) <= 2


def test_against_a_tree_with_no_package_exits_2_naming_the_path(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        frontier.main(["--against", str(tmp_path)])
    assert exit_info.value.code == 2
    assert str(tmp_path / "src" / "slnbranch" / "__init__.py") in capsys.readouterr().err


def test_cores_point_reads_the_cores_report():
    point = frontier.cores_point(3, 8, 1, 60.0)
    assert point["kind"] == "cores" and (point["n"], point["max_size"]) == (3, 8)
    assert "order" not in point and point["agree"] is True
    assert point["routes"]["all"]["cases"] == 76 and "ok" not in point["routes"]["all"]


def test_js_point_lists_the_block_that_chi_direct_counts():
    # js_set(3, (), 2) lists (6), (5,1), (4,1,1), (3,3), (3,2,1).
    point = frontier.js_point(3, (), 2, 1, 60.0)
    assert point["kind"] == "js" and (point["n"], point["core"], point["weight"]) == (3, [], 2)
    assert point["agree"] is True and "order" not in point
    record = point["routes"]["js_set"]
    assert record["members"] == 5 and "expected" not in record
    assert frontier._where(frontier.js_point(3, (2,), 1, 1, 60.0)) == "js (3,[2],1)"
