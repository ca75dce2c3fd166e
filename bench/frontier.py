"""Frontier harness: how far in (n, order) each branching route reaches.

    python3 bench/frontier.py                  # writes BENCH_frontier.json
    python3 bench/frontier.py --against TREE   # ... each run paired with TREE's

Five kinds of point, each measured in fresh interpreters that import the
package from `src/` next to this folder:

- "class": `branching_series(n, 1, 0, order, route)` for each of the four
  routes on the class (1, 0);
- "every-class": `verify_methods(n, order)`, all four routes on every class;
- "chi": both chi routes on every rectangle core (k^l), k + l <= n, and
  the empty core: "direct" is one `_chi_sweep` over all of them, as
  `verify_js` runs it, and "branching" is `chi_by_branching` per core;
- "cores": `verify_cores(n, max_size)`, the abacus checks and the block
  sums of every n-core; its record names max_size where the others name
  the order;
- "js": `js_set(n, core, weight)`, the members of one block listed; its
  record names the core and the weight.

Each (point, route) runs RUNS times, each in a new process, and the record
keeps the median of the call's process time (CPU seconds around the call
alone, not interpreter start-up) and the largest `VmHWM`, the peak
resident set read from /proc/self/status (None where that file is
missing).  A run still going after LIMIT_S wall seconds is stopped; the
(point, route) is then recorded as timed out and not repeated.  A class
or chi point's routes agree when every route that finished returned the
same series; an every-class or cores point agrees when the report has no
failure; a js point agrees when it lists as many members as `chi_direct`
counts.

The host's speed drifts between runs by up to ~1.8x: on identical code
the class (1,0) fermionic route at (6,200) read 0.140, 0.139 and 0.252 s
in three runs minutes apart, and every class at (10,60) 1.82, 2.62 and
1.93 s.  So seconds from different runs do not compare; only the paired
ratios of `--against` do.  `--against TREE` names a second checkout,
such as a `git archive` of the parent, and makes each run one of a pair:
this tree and TREE run back to back in fresh interpreters, TREE's from
`TREE/src`, and the tree that goes first alternates, so each goes first in
half the pairs.  Each record then also holds TREE's median
(`against_seconds`), the median and range of the per-pair ratios, this
tree's time over TREE's (`ratio`, `ratio_range`), and how many pairs this
tree ran faster (`wins`); a point agrees only if both trees returned the
same results (`same_result`).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROUTES = ("paths", "fow", "crystal", "fermionic")

# Criterion 9's 26 points, then the points past them that the frontier
# tables have quoted.
CLASS_POINTS = (
    (4, 20), (5, 16), (6, 12), (4, 24), (5, 20), (4, 36), (5, 28), (6, 22), (3, 45),
    (4, 60), (5, 48), (6, 40), (7, 30), (8, 24), (4, 80), (5, 60), (6, 48), (7, 40),
    (8, 32), (4, 100), (5, 72), (6, 60), (7, 48), (8, 40), (9, 30), (10, 24),
    (3, 200), (4, 160), (4, 400), (6, 200), (10, 100),
)
# The last two are points where the lattice walk, not its sum, sets the time.
EVERY_CLASS_POINTS = (
    (4, 24), (6, 16), (4, 60), (6, 40), (4, 200), (6, 100), (8, 60), (10, 40),
    (10, 60), (16, 20),
)
CHI_POINTS = ((3, 60), (4, 40), (6, 24), (8, 14), (10, 10))
CHI_ROUTES = ("direct", "branching")
CORES_POINTS = ((4, 36), (6, 28), (8, 24), (10, 30))
# The last four: the non-rectangle 2-core (30, 29, ..., 1) of size 465
# and the 3-core (4, 2), which no member has, and two blocks past n = 10.
JS_POINTS = (
    (2, (), 50), (3, (), 30), (4, (), 20), (5, (), 12), (3, (2,), 25),
    (2, tuple(range(30, 0, -1)), 0), (3, (4, 2), 12), (10, (), 7), (12, (4, 4, 4), 5),
)
# Repeats on one host move by up to ~1.8x from run to run, so each time is
# a median of six, and only --against's paired ratios compare across runs;
# six pairs, an even count so that each tree goes first in as many pairs
# as the other.
RUNS = 6
LIMIT_S = 20.0
OUT = ROOT / "BENCH_frontier.json"

# The child prints one JSON line: the call's process time, VmHWM in KiB,
# and what the call returned, reduced to something comparable.  Its second
# argument is the order, max_size for the cores suite, or the weight for
# js_set, whose core is the fourth.
_CHILD = """
import json, sys, time
n, order, route = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
if route == "js":
    from slnbranch import chi_direct, js_set, parse_partition
    mu = parse_partition(sys.argv[4])
    start = time.process_time()
    members = js_set(n, mu, order)
    seconds = time.process_time() - start
    result = {"members": len(members), "expected": chi_direct(n, mu, order)[order]}
elif route in ("every-class", "cores"):
    from slnbranch import verify_cores, verify_methods
    suite = verify_methods if route == "every-class" else verify_cores
    start = time.process_time()
    report = suite(n, order)
    seconds = time.process_time() - start
    result = {"ok": report.ok, "cases": report.cases}
elif route.startswith("chi-"):
    from slnbranch import chi_by_branching
    from slnbranch.cores import block_content
    from slnbranch.jantzen_seitz import _chi_sweep, _rectangle_cores
    cores = _rectangle_cores(n)
    start = time.process_time()
    if route == "chi-direct":
        series = _chi_sweep(n, [block_content(n, mu) for mu in cores], order)
    else:
        series = [chi_by_branching(n, mu, order) for mu in cores]
    seconds = time.process_time() - start
    result = {"series": [list(chi) for chi in series]}
else:
    from slnbranch import branching_series
    start = time.process_time()
    series = branching_series(n, 1, 0, order, route)
    seconds = time.process_time() - start
    result = {"series": list(series)}
try:
    with open("/proc/self/status") as status:
        hwm = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    hwm = None
print(json.dumps({"seconds": seconds, "vmhwm_kib": hwm, **result}))
"""


def run_once(
    n: int, order: int, route: str, limit: float, core: str = "-", tree: Path = ROOT
) -> dict | None:
    """One fresh-interpreter run of a route on the package of `tree`; None on timeout.

    `route` is a class route, "every-class" (`verify_methods`), "cores"
    (`verify_cores`, with `order` as max_size), "chi-direct" /
    "chi-branching" (one chi route on every rectangle core), or "js"
    (`js_set` of `core`, partition text, with `order` as the weight).
    """
    args = [sys.executable, "-c", _CHILD, str(n), str(order), route, core]
    path = str(tree / "src") + os.pathsep + os.environ.get("PYTHONPATH", "")
    env = dict(os.environ, PYTHONPATH=path)
    try:
        done = subprocess.run(
            args, cwd=tree, env=env, capture_output=True, text=True, timeout=limit, check=True
        )
    except subprocess.TimeoutExpired:
        return None
    return json.loads(done.stdout.splitlines()[-1])


def measure(
    n: int, order: int, route: str, runs: int, limit: float, against=None, core: str = "-"
) -> dict:
    """The median process time and peak VmHWM of `runs` runs, or pairs with the tree `against`.

    Timed out at the first slow run of either tree.
    """
    trees = [ROOT] if against is None else [ROOT, against]
    sides = range(len(trees))
    results = [[] for _ in trees]
    for i in range(runs):
        for t in reversed(sides) if i % 2 else sides:
            result = run_once(n, order, route, limit, core, trees[t])
            if result is None:
                return {"timed_out": True, "limit_s": limit}
            results[t].append(result)
    mine = results[0]
    hwms = [r["vmhwm_kib"] for r in mine if r["vmhwm_kib"] is not None]
    record = {
        "timed_out": False,
        "runs": runs,
        "seconds": statistics.median(r["seconds"] for r in mine),
        "vmhwm_kib": max(hwms) if hwms else None,
    }
    # Every run of a tree computes the same thing; the first stands for them all.
    outcome = _outcome(mine[0])
    if against is not None:
        theirs = results[1]
        ratios = [a["seconds"] / b["seconds"] for a, b in zip(mine, theirs)]
        record.update(
            against_seconds=statistics.median(r["seconds"] for r in theirs),
            ratio=statistics.median(ratios),
            ratio_range=[min(ratios), max(ratios)],
            wins=sum(r < 1 for r in ratios),
            same_result=_outcome(theirs[0]) == outcome,
        )
    record.update(outcome)
    return record


def _outcome(result: dict) -> dict:
    """What a run returned, without its time and memory."""
    return {k: v for k, v in result.items() if k not in ("seconds", "vmhwm_kib")}


def _agreeing_point(kind: str, n: int, order: int, routes: dict) -> dict:
    """A point whose routes agree when every one that finished returned the same series."""
    finished = [r["series"] for r in routes.values() if not r["timed_out"]]
    for record in routes.values():
        record.pop("series", None)
    agree = all(series == finished[0] for series in finished)
    return _point(kind, n, {"order": order}, agree, routes)


def _point(kind: str, n: int, where: dict, agree, routes: dict) -> dict:
    """A point's record, which agrees only where no route's result differs from the other tree's."""
    if agree is not None:
        agree = agree and all(r.get("same_result", True) for r in routes.values())
    return {"kind": kind, "n": n, **where, "agree": agree, "routes": routes}


def class_point(n: int, order: int, runs: int, limit: float, against=None) -> dict:
    routes = {route: measure(n, order, route, runs, limit, against) for route in ROUTES}
    return _agreeing_point("class", n, order, routes)


def chi_point(n: int, order: int, runs: int, limit: float, against=None) -> dict:
    routes = {r: measure(n, order, "chi-" + r, runs, limit, against) for r in CHI_ROUTES}
    return _agreeing_point("chi", n, order, routes)


def every_class_point(n: int, order: int, runs: int, limit: float, against=None) -> dict:
    record = measure(n, order, "every-class", runs, limit, against)
    return _report_point("every-class", n, {"order": order}, record)


def cores_point(n: int, max_size: int, runs: int, limit: float, against=None) -> dict:
    record = measure(n, max_size, "cores", runs, limit, against)
    return _report_point("cores", n, {"max_size": max_size}, record)


def js_point(n: int, core: tuple, weight: int, runs: int, limit: float, against=None) -> dict:
    """`js_set` on one block, which agrees when it lists `chi_direct`'s count."""
    text = ",".join(map(str, core)) or "-"
    record = measure(n, weight, "js", runs, limit, against, text)
    agree = None if record["timed_out"] else record.pop("expected") == record["members"]
    where = {"core": list(core), "weight": weight}
    return _point("js", n, where, agree, {"js_set": record})


def _report_point(kind: str, n: int, where: dict, record: dict) -> dict:
    """A point of one verify suite, which agrees when its report has no failure."""
    agree = None if record["timed_out"] else record.pop("ok")
    return _point(kind, n, where, agree, {"all": record})


def run(runs: int, limit: float, against=None) -> dict:
    """Every point; one progress line per point on stderr."""
    points = []
    grids = (
        (class_point, CLASS_POINTS),
        (every_class_point, EVERY_CLASS_POINTS),
        (chi_point, CHI_POINTS),
        (cores_point, CORES_POINTS),
    )
    for make, grid in grids:
        for n, order in grid:
            point = make(n, order, runs, limit, against)
            points.append(point)
            print(_line(point), file=sys.stderr, flush=True)
    for n, core, weight in JS_POINTS:
        point = js_point(n, core, weight, runs, limit, against)
        points.append(point)
        print(_line(point), file=sys.stderr, flush=True)
    return {"python": sys.version.split()[0], "runs": runs, "limit_s": limit, "points": points}


def _line(point: dict) -> str:
    return f"{_where(point)} agree={point['agree']} " + " ".join(
        f"{route}={_time(r)}" for route, r in point["routes"].items()
    )


def _time(record: dict) -> str:
    """A record's median, and its median pair ratio where it was paired."""
    if record["timed_out"]:
        return "timeout"
    paired = f"(x{record['ratio']:.2f})" if "ratio" in record else ""
    return f"{record['seconds']:.3f}{paired}"


def _where(point: dict) -> str:
    """The point's kind and coordinates, e.g. "class (4,100)" or "js (3,[2],25)"."""
    if point["kind"] == "js":
        core = ",".join(map(str, point["core"]))
        return f"js ({point['n']},[{core}],{point['weight']})"
    return f"{point['kind']} ({point['n']},{point.get('order', point.get('max_size'))})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, help="a second checkout to pair each run with")
    args = parser.parse_args(argv)
    # The child puts only TREE/src on its path, so a tree with no package
    # there would import the installed one and pair this tree with itself.
    if args.against is not None:
        package = args.against / "src" / "slnbranch" / "__init__.py"
        if not package.is_file():
            parser.error(f"--against: no package at {package}")
        args.against = args.against.resolve()
    result = run(RUNS, LIMIT_S, args.against)
    OUT.write_text(json.dumps(result, indent=1) + "\n")
    return 0 if all(p["agree"] is not False for p in result["points"]) else 1


if __name__ == "__main__":
    sys.exit(main())
