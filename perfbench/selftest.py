"""Fast self-test of the benchmark harness on tiny inputs (n = 3, order 4).

    python3 perfbench/selftest.py

Runs each tiny workload untraced and traced through the same code as
run.py and checks that:

- every end-to-end and per-layer metric named in BENCHMARK.json is emitted,
  and no sample fails;
- traced stdout equals untraced stdout byte for byte (verify reports carry
  their own wall time in `seconds`, which differs between any two runs, so
  those fields are zeroed first);
- a deliberately corrupted pinned value makes every sample count as failed
  (ops_failed_frac = 1, correct = false).

Prints one line per check and exits 0 when all pass.
"""

from __future__ import annotations

import copy
import re
import sys

import run

TINY = {
    "tiny-branching": {
        "argv": ["branching", "--n", "3", "--j", "1", "--k", "0", "--order", "4", "--method", "all"],
        "expect": {
            "n": 3, "j": 1, "k": 0, "order": 4,
            "methods": {m: [1, 1, 2, 3, 5] for m in ("paths", "fow", "crystal", "fermionic")},
            "verdict": "AGREE",
        },
    },
    "tiny-fermionic": {
        "argv": ["fermionic", "--n", "3", "--s", "0", "--t", "1", "--order", "4"],
        "expect": {"n": 3, "s": 0, "t": 1, "order": 4, "coeffs": [1, 1, 2, 3, 5], "lattice_points": 3},
    },
    "tiny-verify": {
        "argv": ["verify", "--suite", "all", "--n", "3", "--max-size", "6", "--order", "4"],
        "expect": [
            {"suite": "fow(n=3, max_size=6)", "cases": 66, "ok": True},
            {"suite": "methods(n=3, order=4)", "cases": 6, "ok": True},
            {"suite": "js(n=3, max_size=6, order=4)", "cases": 41, "ok": True},
            {"suite": "cores(n=3, max_size=6)", "cases": 37, "ok": True},
            {"suite": "crystal(n=3, max_size=6)", "cases": 73, "ok": True},
        ],
    },
}

_SECONDS = re.compile(r'"seconds":[0-9.eE+-]+')


def _comparable(stdout: str) -> str:
    return _SECONDS.sub('"seconds":0', stdout)


def main() -> int:
    spec = run.load_spec()
    checks: list[tuple[str, bool]] = []
    for name, workload in TINY.items():
        for trace in (False, True):
            samples = run.measure(name, workload, seed=0, seconds=0, trace=trace, min_units=2)
            result, _ = run.summarize(samples, trace, spec)
            group = spec["per_layer" if trace else "end_to_end"]
            names = [m["name"] for m in group]
            checks.append((f"{name} trace={int(trace)}: all {len(names)} metrics emitted",
                           sorted(result["metrics"]) == sorted(names)))
            checks.append((f"{name} trace={int(trace)}: {result['attempted']} samples, none failed",
                           result["correct"] and result["failed"] == 0))
            if trace:
                plain = {s.stdout for s in samples if not s.traced}
                traced = {s.stdout for s in samples if s.traced}
                if name == "tiny-verify":
                    plain = {_comparable(s) for s in plain}
                    traced = {_comparable(s) for s in traced}
                checks.append((f"{name}: traced stdout identical to untraced",
                               len(plain) == 1 and plain == traced))

    corrupted = copy.deepcopy(TINY["tiny-fermionic"])
    corrupted["expect"]["coeffs"][2] += 1
    samples = run.measure("tiny-corrupted", corrupted, seed=0, seconds=0, trace=False, min_units=2)
    result, lines = run.summarize(samples, False, spec)
    checks.append(("corrupted pinned value: every sample counted as failed",
                   not result["correct"] and result["failed"] == result["attempted"] == 2))
    checks.append(("corrupted pinned value: ops_failed_frac reported as 1",
                   any(line.startswith("ops_failed_frac") and " 1 (" in line for line in lines)))

    for label, ok in checks:
        print(("PASS " if ok else "FAIL ") + label)
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
