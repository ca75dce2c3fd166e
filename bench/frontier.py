"""Frontier harness: how far in (n, order) each branching route reaches.

    python3 bench/frontier.py                       # writes BENCH_frontier.json
    python3 bench/frontier.py --against OLD.json    # ... then prints new/old ratios

Two kinds of point, each measured in fresh interpreters that import the
package from `src/` next to this folder:

- "class": `branching_series(n, 1, 0, order, route)` for each of the four
  routes on the class (1, 0);
- "every-class": `verify_methods(n, order)`, all four routes on every class.

Each (point, route) runs RUNS times, each in a new process, and the record
keeps the median of the call's process time (CPU seconds around the call
alone, not interpreter start-up) and the largest `VmHWM`, the peak
resident set read from /proc/self/status (None where that file is
missing).  A run still going after LIMIT_S wall seconds is stopped; the
(point, route) is then recorded as timed out and not repeated.  A class
point's routes agree when every route that finished returned the same
series; an every-class point agrees when the report has no failure.

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
# Repeats on one host move by 10-30%, so each time is a median of five.
RUNS = 5
LIMIT_S = 20.0
OUT = ROOT / "BENCH_frontier.json"

# The child prints one JSON line: the call's process time, VmHWM in KiB,
# and what the call returned, reduced to something comparable.
_CHILD = """
import json, sys, time
n, order, route = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
if route == "every-class":
    from slnbranch import verify_methods
    start = time.process_time()
    report = verify_methods(n, order)
    seconds = time.process_time() - start
    result = {"ok": report.ok, "cases": report.cases}
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


def run_once(n: int, order: int, route: str, limit: float) -> dict | None:
    """One fresh-interpreter run of a route ("every-class": verify_methods); None on timeout."""
    args = [sys.executable, "-c", _CHILD, str(n), str(order), route]
    try:
        done = subprocess.run(
            args, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=limit, check=True
        )
    except subprocess.TimeoutExpired:
        return None
    return json.loads(done.stdout.splitlines()[-1])


def measure(n: int, order: int, route: str, runs: int, limit: float) -> dict:
    """The median process time and peak VmHWM of `runs` runs; timed out at the first slow one."""
    results = []
    for _ in range(runs):
        result = run_once(n, order, route, limit)
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


def class_point(n: int, order: int, runs: int, limit: float) -> dict:
    routes = {route: measure(n, order, route, runs, limit) for route in ROUTES}
    finished = [r["series"] for r in routes.values() if not r["timed_out"]]
    for record in routes.values():
        record.pop("series", None)
    agree = all(series == finished[0] for series in finished)
    return {"kind": "class", "n": n, "order": order, "agree": agree, "routes": routes}


def every_class_point(n: int, order: int, runs: int, limit: float) -> dict:
    record = measure(n, order, "every-class", runs, limit)
    agree = None if record["timed_out"] else record.pop("ok")
    return {
        "kind": "every-class", "n": n, "order": order, "agree": agree, "routes": {"all": record}
    }


def run(runs: int, limit: float) -> dict:
    """Every point, bracketed by the reference kernel; one progress line per point on stderr."""
    before = [reference_seconds() for _ in range(3)]
    points = []
    for make, grid in ((class_point, CLASS_POINTS), (every_class_point, EVERY_CLASS_POINTS)):
        for n, order in grid:
            point = make(n, order, runs, limit)
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
    return f"{point['kind']} ({point['n']},{point['order']}) agree={point['agree']} {times}"


def compare(new: dict, old: dict) -> list[str]:
    """One line per point and route: new/old process time, with timeouts named."""
    lines = [f"reference kernel new/old: {new['reference_s'] / old['reference_s']:.2f}"]
    earlier = {(p["kind"], p["n"], p["order"]): p for p in old["points"]}
    for point in new["points"]:
        key = (point["kind"], point["n"], point["order"])
        base = earlier.get(key)
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
        lines.append(f"{key[0]} ({key[1]},{key[2]}) agree={point['agree']}: " + ", ".join(cells))
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
