"""Frontier harness: how far in (n, order) each branching route reaches.

    python3 bench/frontier.py                       # writes BENCH_frontier.json
    python3 bench/frontier.py --against OLD.json    # ... then prints new/old ratios

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

The host's speed drifts by 10-30% between runs, so the reference kernel of
`perfbench/refkernel.py` (imported read-only, never changed) runs three
times in fresh interpreters before the points and three times after; its
median process time is recorded beside them.  `--against` prints each
time's ratio to the earlier file's, and the ratio of the two kernel times,
by which a host-speed change alone would move every ratio.
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
EVERY_CLASS_POINTS = ((4, 24), (6, 16), (4, 60), (6, 40), (4, 200), (6, 100), (8, 60), (10, 40))
CHI_POINTS = ((3, 60), (4, 40), (6, 24), (8, 14), (10, 10))
CHI_ROUTES = ("direct", "branching")
CORES_POINTS = ((4, 36), (6, 28), (8, 24), (10, 30))
# The last four: the non-rectangle 2-core (30, 29, ..., 1) of size 465
# and the 3-core (4, 2), which no member has, and two blocks past n = 10.
JS_POINTS = (
    (2, (), 50), (3, (), 30), (4, (), 20), (5, (), 12), (3, (2,), 25),
    (2, tuple(range(30, 0, -1)), 0), (3, (4, 2), 12), (10, (), 7), (12, (4, 4, 4), 5),
)
# Repeats on one host move by 10-30%, so each time is a median of five.
RUNS = 5
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
    from slnbranch.jantzen_seitz import _chi_sweep
    cores = [()] + [(k,) * l for k in range(1, n) for l in range(1, n - k + 1)]
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


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_once(n: int, order: int, route: str, limit: float, core: str = "-") -> dict | None:
    """One fresh-interpreter run of a route; None on timeout.

    `route` is a class route, "every-class" (`verify_methods`), "cores"
    (`verify_cores`, with `order` as max_size), "chi-direct" /
    "chi-branching" (one chi route on every rectangle core), or "js"
    (`js_set` of `core`, partition text, with `order` as the weight).
    """
    args = [sys.executable, "-c", _CHILD, str(n), str(order), route, core]
    try:
        done = subprocess.run(
            args, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=limit, check=True
        )
    except subprocess.TimeoutExpired:
        return None
    return json.loads(done.stdout.splitlines()[-1])


def measure(n: int, order: int, route: str, runs: int, limit: float, core: str = "-") -> dict:
    """The median process time and peak VmHWM of `runs` runs; timed out at the first slow one."""
    results = []
    for _ in range(runs):
        result = run_once(n, order, route, limit, core)
        if result is None:
            return {"timed_out": True, "limit_s": limit}
        results.append(result)
    hwms = [r["vmhwm_kib"] for r in results if r["vmhwm_kib"] is not None]
    record = {
        "timed_out": False,
        "runs": runs,
        "seconds": statistics.median(r["seconds"] for r in results),
        "vmhwm_kib": max(hwms) if hwms else None,
    }
    # Every run computes the same thing; the first stands for them all.
    record.update({k: v for k, v in results[0].items() if k not in ("seconds", "vmhwm_kib")})
    return record


def reference_seconds() -> float:
    """The reference kernel's process time, in a fresh interpreter."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "import refkernel\n"
        "start = time.process_time()\n"
        "refkernel.kernel()\n"
        "print(time.process_time() - start)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.split()[-1])


def _agreeing_point(kind: str, n: int, order: int, routes: dict) -> dict:
    """A point whose routes agree when every one that finished returned the same series."""
    finished = [r["series"] for r in routes.values() if not r["timed_out"]]
    for record in routes.values():
        record.pop("series", None)
    agree = all(series == finished[0] for series in finished)
    return {"kind": kind, "n": n, "order": order, "agree": agree, "routes": routes}


def class_point(n: int, order: int, runs: int, limit: float) -> dict:
    routes = {route: measure(n, order, route, runs, limit) for route in ROUTES}
    return _agreeing_point("class", n, order, routes)


def chi_point(n: int, order: int, runs: int, limit: float) -> dict:
    routes = {route: measure(n, order, "chi-" + route, runs, limit) for route in CHI_ROUTES}
    return _agreeing_point("chi", n, order, routes)


def every_class_point(n: int, order: int, runs: int, limit: float) -> dict:
    record = measure(n, order, "every-class", runs, limit)
    return _report_point("every-class", n, {"order": order}, record)


def cores_point(n: int, max_size: int, runs: int, limit: float) -> dict:
    record = measure(n, max_size, "cores", runs, limit)
    return _report_point("cores", n, {"max_size": max_size}, record)


def js_point(n: int, core: tuple, weight: int, runs: int, limit: float) -> dict:
    """`js_set` on one block, which agrees when it lists `chi_direct`'s count."""
    text = ",".join(map(str, core)) or "-"
    record = measure(n, weight, "js", runs, limit, text)
    agree = None if record["timed_out"] else record.pop("expected") == record["members"]
    where = {"core": list(core), "weight": weight}
    return {"kind": "js", "n": n, **where, "agree": agree, "routes": {"js_set": record}}


def _report_point(kind: str, n: int, where: dict, record: dict) -> dict:
    """A point of one verify suite, which agrees when its report has no failure."""
    agree = None if record["timed_out"] else record.pop("ok")
    return {"kind": kind, "n": n, **where, "agree": agree, "routes": {"all": record}}


def run(runs: int, limit: float) -> dict:
    """Every point, bracketed by the reference kernel; one progress line per point on stderr."""
    before = [reference_seconds() for _ in range(3)]
    points = []
    grids = (
        (class_point, CLASS_POINTS),
        (every_class_point, EVERY_CLASS_POINTS),
        (chi_point, CHI_POINTS),
        (cores_point, CORES_POINTS),
    )
    for make, grid in grids:
        for n, order in grid:
            point = make(n, order, runs, limit)
            points.append(point)
            print(_line(point), file=sys.stderr, flush=True)
    for n, core, weight in JS_POINTS:
        point = js_point(n, core, weight, runs, limit)
        points.append(point)
        print(_line(point), file=sys.stderr, flush=True)
    after = [reference_seconds() for _ in range(3)]
    return {
        "python": sys.version.split()[0],
        "runs": runs,
        "limit_s": limit,
        "reference_s": statistics.median(before + after),
        "points": points,
    }


def _line(point: dict) -> str:
    times = " ".join(
        f"{route}={'timeout' if r['timed_out'] else format(r['seconds'], '.3f')}"
        for route, r in point["routes"].items()
    )
    return f"{_where(point)} agree={point['agree']} {times}"


def _where(point: dict) -> str:
    """The point's kind and coordinates, e.g. "class (4,100)" or "js (3,[2],25)"."""
    if point["kind"] == "js":
        core = ",".join(map(str, point["core"]))
        return f"js ({point['n']},[{core}],{point['weight']})"
    return f"{point['kind']} ({point['n']},{point.get('order', point.get('max_size'))})"


def compare(new: dict, old: dict) -> list[str]:
    """One line per point and route: new/old process time, with timeouts named."""
    lines = [f"reference kernel new/old: {new['reference_s'] / old['reference_s']:.2f}"]
    earlier = {_where(p): p for p in old["points"]}
    for point in new["points"]:
        base = earlier.get(_where(point))
        if base is None:
            continue
        cells = []
        for route, record in point["routes"].items():
            was = base["routes"].get(route)
            if was is None:
                continue
            now_s = "timeout" if record["timed_out"] else f"{record['seconds']:.3f}"
            was_s = "timeout" if was["timed_out"] else f"{was['seconds']:.3f}"
            ratio = ""
            if not (record["timed_out"] or was["timed_out"]) and was["seconds"] > 0:
                ratio = f" x{record['seconds'] / was['seconds']:.3f}"
            cells.append(f"{route} {was_s} -> {now_s}{ratio}")
        lines.append(f"{_where(point)} agree={point['agree']}: " + ", ".join(cells))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, help="an earlier file to print ratios against")
    args = parser.parse_args(argv)
    old = json.loads(args.against.read_text()) if args.against else None
    result = run(RUNS, LIMIT_S)
    OUT.write_text(json.dumps(result, indent=1) + "\n")
    if old is not None:
        print("\n".join(compare(result, old)))
    return 0 if all(p["agree"] is not False for p in result["points"]) else 1


if __name__ == "__main__":
    sys.exit(main())
