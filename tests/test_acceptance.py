"""Acceptance gate: one test per criterion, each at its stated scale and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

import time
from collections import Counter

from slnbranch import (
    branching_series,
    build_component,
    chi_by_branching,
    chi_direct,
    e_tilde,
    eps_phi,
    f_tilde,
    fermionic_series,
    format_partition,
    is_js,
    is_js_by_crystal,
    is_rectangle_le_n,
    js_set,
    lattice_points,
    n_core,
    partitions_up_to,
    run_suites,
    verify_fow_theorem,
    weight_of,
)

from oracles import simple_root, weight_difference

# the six n=3 tables: (j, k) -> coefficients, and the fermionic (s, t) labels
BRANCHING_TABLES = {
    (0, 0): ((0, 0), (1, 0, 1)),
    (0, 1): ((1, 2), (0, 1, 2, 2)),
    (1, 0): ((0, 1), (1, 1, 2)),
    (1, 2): ((2, 2), (0, 1, 1, 2)),
    (2, 0): ((0, 2), (1, 1, 2)),
    (2, 1): ((1, 1), (0, 1, 1, 2)),
}

CHI_TABLES = {
    (): (1, 2, 5),
    (1,): (1, 2, 2),
    (2,): (1, 1, 2),
    (1, 1): (1, 1, 2),
}

JS_SETS = {
    ((), 0): {()},
    ((), 1): {(3,), (2, 1)},
    ((), 2): {(6,), (5, 1), (3, 3), (4, 1, 1), (3, 2, 1)},
    ((1,), 0): {(1,)},
    ((1,), 1): {(4,), (2, 2)},
    ((1,), 2): {(7,), (4, 3)},
    ((2,), 0): {(2,)},
    ((2,), 1): {(5,)},
    ((2,), 2): {(8,), (3, 3, 1, 1)},
    ((1, 1), 0): {(1, 1)},
    ((1, 1), 1): {(3, 2)},
    ((1, 1), 2): {(6, 2), (4, 4)},
}


def _stamp(number, name, start, limit):
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s (limit {limit}s)"
    print(f"ACCEPTANCE {number} [{name}]: PASS ({elapsed:.2f}s < {limit}s)")


def test_criterion_1_branching_tables_four_methods():
    start = time.perf_counter()
    for (j, k), ((s, t), expected) in BRANCHING_TABLES.items():
        order = len(expected) - 1
        for method in ("paths", "fow", "crystal", "fermionic"):
            got = branching_series(3, j, k, order, method)
            assert got == expected, (j, k, method, got, expected)
        assert fermionic_series(3, s, t, order) == expected
    _stamp(1, "six branching tables x four methods", start, 5)


def test_criterion_2_chi_tables_both_methods():
    start = time.perf_counter()
    for mu, expected in CHI_TABLES.items():
        assert chi_direct(3, mu, 2) == expected, mu
        assert chi_by_branching(3, mu, 2) == expected, mu
    _stamp(2, "four chi tables x two methods", start, 5)


def test_criterion_3_twelve_js_sets():
    start = time.perf_counter()
    for (mu, d), expected in JS_SETS.items():
        got = js_set(3, mu, d)
        assert len(got) == len(expected)
        assert set(got) == expected, (mu, d, got)
    _stamp(3, "twelve graded member sets", start, 5)


def test_criterion_4_path_set_equals_chain_set():
    start = time.perf_counter()
    for n in (2, 3, 4, 5, 6):
        report = verify_fow_theorem(n, 24)
        assert report.failures == [], (n, report.failures[:3])
    _stamp(4, "path set == chain set, size <= 24, n in 2..6", start, 60)


def test_criterion_5_lattice_sum_matches_enumeration_to_order_8():
    start = time.perf_counter()
    for n in (2, 3, 4, 5):
        for s in range(n):
            for t in range(s, n):
                # lattice_points raises on any non-integral admissible exponent
                for _, q in lattice_points(n, s, t, 8):
                    assert isinstance(q, int) and q >= 0
                fermionic = fermionic_series(n, s, t, 8)
                enumerated = branching_series(n, (s + t) % n, s, 8, "fow")
                assert fermionic == enumerated, (n, s, t, fermionic, enumerated)
    _stamp(5, "lattice sum == enumeration, order 8, n in 2..5", start, 60)


def test_criterion_5b_four_routes_agree_beyond_n5():
    start = time.perf_counter()
    for n, order in ((6, 5), (7, 4), (8, 4)):
        (report,) = run_suites(["methods"], n, 0, order)
        assert report.ok and report.cases > 0, (n, order, report.failures[:3])
    _stamp("5b", "four routes agree at (n, order) = (6,5), (7,4), (8,4)", start, 30)


def test_criterion_6_chain_equals_eps_profile():
    start = time.perf_counter()
    for n in (2, 3, 4):
        for p in partitions_up_to(14, regular=n):
            assert is_js(p, n) == is_js_by_crystal(p, n), (n, p)
    _stamp(6, "chain test == eps-profile test, size <= 14, n in 2..4", start, 60)


def test_criterion_7_member_cores_are_small_rectangles():
    start = time.perf_counter()
    for n in (2, 3, 4, 5):
        for p in partitions_up_to(14, regular=n):
            if is_js(p, n):
                assert is_rectangle_le_n(n_core(p, n), n) is not None, (n, p)
    _stamp(7, "member cores are rectangles with k+l <= n, size <= 14", start, 30)


def test_criterion_8_crystal_axioms_and_figure_surrogate():
    start = time.perf_counter()
    for n in (2, 3):
        graph = build_component(n, 10)
        counts = graph.counts_by_size()
        regular = Counter(map(sum, partitions_up_to(10, regular=n)))
        for m in range(11):
            assert counts.get(m, 0) == regular[m]
        for p in graph.vertices:
            w = weight_of(p, n)
            for i in range(n):
                eps, phi = eps_phi(p, n, i)
                assert phi - eps == w[0][i]
                down = f_tilde(p, n, i)
                assert (down is None) == (phi == 0)
                if down is not None:
                    assert e_tilde(down, n, i) == p
                    assert weight_of(down, n) == weight_difference(w, simple_root(n, i))
                    assert eps_phi(down, n, i) == (eps + 1, phi - 1)
                up = e_tilde(p, n, i)
                assert (up is None) == (eps == 0)
                if up is not None:
                    assert f_tilde(up, n, i) == p
    graph = build_component(3, 8)
    dot = graph.to_dot()
    starred = set()
    for line in dot.splitlines():
        if "[label=" in line and "->" not in line:
            name, label = line.split('"')[1], line.split('"')[3]
            if label.endswith("*"):
                starred.add(name)
    expected = {format_partition(p) for p in graph.vertices if is_js(p, 3)}
    assert starred == expected
    _stamp(8, "crystal axioms (n=2,3; size 10) and starred DOT export", start, 30)


def test_criterion_9_four_routes_agree_at_the_frontier():
    start = time.perf_counter()
    frontier = (
        (4, 20), (5, 16), (6, 12), (4, 24), (5, 20), (4, 36), (5, 28), (6, 22), (3, 45),
        (4, 60), (5, 48), (6, 40), (7, 30), (8, 24), (4, 80), (5, 60), (6, 48), (7, 40),
        (8, 32), (4, 100), (5, 72), (6, 60), (7, 48), (8, 40), (9, 30), (10, 24),
    )
    for n, order in frontier:
        rows = {
            method: branching_series(n, 1, 0, order, method)
            for method in ("paths", "fow", "crystal", "fermionic")
        }
        assert len(set(rows.values())) == 1, (n, order, rows)
    for n, order in ((4, 200), (6, 100), (8, 60), (10, 40), (12, 30), (16, 20)):
        for j in range(n):
            for k in range(n):
                if k > (j - k) % n:
                    continue
                rows = {
                    method: branching_series(n, j, k, order, method)
                    for method in ("paths", "fow", "crystal", "fermionic")
                }
                assert len(set(rows.values())) == 1, (n, order, j, k, rows)
    _stamp(
        9,
        "four routes agree on class (1,0) at (4,20), (5,16), (6,12), (4,24), (5,20), "
        "(4,36), (5,28), (6,22), (3,45), (4,60), (5,48), (6,40), (7,30), (8,24), (4,80), "
        "(5,60), (6,48), (7,40), (8,32), (4,100), (5,72), (6,60), (7,48), (8,40), (9,30), "
        "(10,24), and on every class at (4,200), (6,100), (8,60), (10,40), (12,30), (16,20)",
        start,
        30,
    )


def test_criterion_9b_paths_equal_fermionic_at_high_order():
    start = time.perf_counter()
    for n, order in ((4, 30), (5, 24), (6, 18), (3, 200), (4, 160)):
        for j in range(n):
            for k in range(n):
                if k > (j - k) % n:
                    continue
                paths = branching_series(n, j, k, order, "paths")
                fermionic = branching_series(n, j, k, order, "fermionic")
                assert paths == fermionic, (n, j, k, paths, fermionic)
    _stamp(
        "9b",
        "paths == fermionic on every class at (4,30), (5,24), (6,18), (3,200), (4,160)",
        start,
        30,
    )


def test_criterion_10_chi_direct_equals_chi_by_branching_on_every_rectangle_core():
    start = time.perf_counter()
    for n, order in ((3, 30), (4, 21), (5, 15), (4, 40), (6, 24), (8, 14), (10, 10)):
        cores = [()] + [(k,) * l for k in range(1, n) for l in range(1, n - k + 1)]
        for mu in cores:
            direct = chi_direct(n, mu, order)
            assert direct == chi_by_branching(n, mu, order), (n, mu, direct)
    _stamp(
        10,
        "chi_direct == chi_by_branching on every rectangle core (k^l), k+l <= n, and the "
        "empty core at (3,30), (4,21), (5,15), (4,40), (6,24), (8,14), (10,10)",
        start,
        30,
    )
