"""The frontier harness `bench/frontier.py`, on points small enough for the suite."""

import importlib.util
from pathlib import Path

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


def test_against_prints_ratios_and_names_timeouts():
    old = {
        "reference_s": 2.0,
        "points": [
            {
                "kind": "class", "n": 4, "order": 100, "agree": True,
                "routes": {
                    "paths": {"timed_out": False, "seconds": 0.5},
                    "fow": {"timed_out": True, "limit_s": 20.0},
                },
            }
        ],
    }
    new = {
        "reference_s": 1.0,
        "points": [
            {
                "kind": "class", "n": 4, "order": 100, "agree": True,
                "routes": {
                    "paths": {"timed_out": False, "seconds": 0.25},
                    "fow": {"timed_out": False, "seconds": 0.125},
                },
            },
            {"kind": "class", "n": 5, "order": 9, "agree": True, "routes": {}},
            {
                "kind": "cores", "n": 4, "max_size": 100, "agree": True,
                "routes": {"all": {"timed_out": False, "seconds": 0.5}},
            },
        ],
    }
    # Points match on kind and coordinates, so the cores (4,100) point has no counterpart.
    assert frontier.compare(new, old) == [
        "reference kernel new/old: 0.50",
        "class (4,100) agree=True: paths 0.500 -> 0.250 x0.500, fow timeout -> 0.125",
    ]


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
