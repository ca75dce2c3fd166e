"""slnbranch benchmark: CLI workloads, each sample in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of perfbench/workloads.json through the public CLI entry
`slnbranch.cli.main(argv)` as a closed loop with one client: the next sample
starts when the previous one has ended.  Every sample is a fresh interpreter
(child.py) because `branching._census` is an unbounded lru_cache; repeats in
one process would time a warm cache that no CLI user sees.  Every sample's
output is checked against the values pinned at the seed commit; a nonzero
exit, an exception or a mismatch counts as a failed sample.

With --trace 0 the last stdout line reports the end-to-end metrics of
BENCHMARK.json (medians over samples).  The host's speed for Python work
changes by 20-40% within seconds and drifts over minutes, so a raw time
says more about the host than about slnbranch.  Each untraced sample is
therefore bracketed by runs of a fixed reference kernel (refkernel.py, one
before the first sample and one after each), and wall_s, cpu_s and setup_s
are the sample's times divided by the mean kernel time on either side of it,
times REF_NOMINAL_S: seconds on a host where the kernel takes REF_NOMINAL_S.
The raw medians are printed above the last line.  With --trace 1 traced and untraced
samples alternate, the seed choosing which of each pair runs first, and the
line reports the per-layer metrics: counts and self times from the traced
samples' spans, the verify suites' own seconds from the untraced samples,
and the tracing overhead (median over pairs of traced over untraced wall
time, minus 1).  The inputs are fixed and the math is deterministic, so the
seed only orders samples.  The lines above the last print each metric with
its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MIN_UNITS = 3  # samples (pairs when tracing) measured even past --seconds
HARD_LIMIT_S = 150.0  # start no sample after this, so a run ends within 180 s
# Reported times are scaled to a host on which refkernel.py takes this long;
# it is about the kernel's time on an idle core of the 2-core host the
# benchmark was defined on.
REF_NOMINAL_S = 0.5
MODULES = [module.split(".", 1)[1] for module in tracer.TARGETS]


@dataclass
class Sample:
    traced: bool
    error: str | None  # why the sample failed; None when it passed every check
    wall_s: float | None = None
    cpu_s: float | None = None
    setup_s: float | None = None
    peak_rss_mib: float | None = None
    stdout: str = ""
    layers: dict | None = None  # tracer.derive() of a traced sample
    ref_wall_s: float | None = None  # mean reference kernel times either side
    ref_cpu_s: float | None = None


def load_workloads() -> dict:
    with open(BENCH / "workloads.json") as fh:
        return json.load(fh)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _child_env() -> dict:
    """The caller's environment with src/ on the path and bytecode caching on.

    An installed CLI imports from cached bytecode, so the warm-up import
    writes it and setup_s never includes compiling slnbranch.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _matches(expected, actual) -> bool:
    """True when `actual` holds every key and item of `expected` with equal values."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            key in actual and _matches(value, actual[key]) for key, value in expected.items()
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(_matches(e, a) for e, a in zip(expected, actual))
        )
    return expected == actual


def check(expect, record: dict) -> str | None:
    """Why a child's record fails the workload's checks, or None if it passes."""
    if record["error"]:
        return "exception: " + record["error"].strip().splitlines()[-1]
    if record["rc"] != 0:
        return f"exit code {record['rc']}"
    try:
        data = json.loads(record["stdout"])
    except ValueError:
        return "stdout is not JSON"
    if not _matches(expect, data):
        return "output differs from the pinned values"
    return None


def run_sample(name: str, workload: dict, sample_id: int, traced: bool, timeout: float) -> Sample:
    spans = OUT / f"{name}.spans"
    cmd = [sys.executable, str(BENCH / "child.py"), str(sample_id),
           str(spans) if traced else "-", *workload["argv"]]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Sample(traced, f"timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        return Sample(traced, f"child exited {proc.returncode}: {err.strip()[-300:]}")
    try:
        record = json.loads(out.splitlines()[-1])
    except (ValueError, IndexError):
        return Sample(traced, "child printed no record")
    sample = Sample(
        traced,
        check(workload["expect"], record),
        wall_s=record["end"] - record["start"],
        cpu_s=record["cpu_s"],
        setup_s=record["imported"] - spawned,
        peak_rss_mib=record["peak_rss_kib"] / 1024,
        stdout=record["stdout"],
    )
    if traced and record["error"] is None:
        sample.layers = tracer.derive(str(spans))
    return sample


def run_reference() -> dict:
    """One run of the reference kernel in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(BENCH / "refkernel.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def measure(name: str, workload: dict, seed: int, seconds: float, trace: bool,
            min_units: int = MIN_UNITS) -> list[Sample]:
    """Closed loop: one sample (or traced/untraced pair) at a time until `seconds`.

    A unit is started only when the median unit duration so far still fits
    in the budget, after the first `min_units`.  Untraced, each unit ends
    with a reference kernel run, and one more runs before the first unit.
    """
    rng = random.Random(seed)
    if trace:
        OUT.mkdir(exist_ok=True)
    # Writes slnbranch's bytecode; a failing import shows as failed samples.
    subprocess.run([sys.executable, "-c", "import slnbranch.cli"], cwd=ROOT,
                   env=_child_env(), capture_output=True, timeout=120)
    samples: list[Sample] = []
    durations: list[float] = []
    start = time.monotonic()
    before = None if trace else run_reference()
    while True:
        now = time.monotonic()
        if len(durations) >= min_units and (
            now + statistics.median(durations) > start + seconds
            or now - start > HARD_LIMIT_S
        ):
            break
        order = [True, False] if trace else [False]
        rng.shuffle(order)
        for traced in order:
            timeout = max(10.0, 170.0 - (time.monotonic() - start))
            samples.append(run_sample(name, workload, len(samples), traced, timeout))
        if not trace:
            after = run_reference()
            samples[-1].ref_wall_s = (before["wall_s"] + after["wall_s"]) / 2
            samples[-1].ref_cpu_s = (before["cpu_s"] + after["cpu_s"]) / 2
            before = after
        durations.append(time.monotonic() - now)
    return samples


def _median(values, pick=statistics.median) -> float:
    values = [v for v in values if v is not None]
    return pick(values) if values else 0.0


def _timed(samples: list[Sample]) -> list[Sample]:
    """Passing samples, or every sample with timings when none passed."""
    good = [s for s in samples if s.error is None]
    return good or [s for s in samples if s.wall_s is not None]


def _at_reference(value: float | None, reference: float) -> float | None:
    return None if value is None else value / reference * REF_NOMINAL_S


def end_to_end_values(samples: list[Sample]) -> dict[str, float]:
    pool = _timed(samples)
    return {
        "wall_s": _median(_at_reference(s.wall_s, s.ref_wall_s) for s in pool),
        "cpu_s": _median(_at_reference(s.cpu_s, s.ref_cpu_s) for s in pool),
        "setup_s": _median(_at_reference(s.setup_s, s.ref_wall_s) for s in pool),
        "peak_rss_mib": _median(s.peak_rss_mib for s in pool),
    }


def _verify_seconds(stdout: str) -> dict[str, float]:
    """verify.<suite>_s from a verify run's JSON reports; empty for other commands."""
    try:
        reports = json.loads(stdout)
    except ValueError:
        return {}
    if not isinstance(reports, list):
        return {}
    return {f"verify.{r['suite'].split('(')[0]}_s": r["seconds"] for r in reports}


# Per-layer metrics read straight off one span name: metric -> (span, field).
SPAN_FIELDS = {
    "partitions.partitions_of.yielded": ("partitions.partitions_of", "yields"),
    "partitions.partitions_of.self_s": ("partitions.partitions_of", "self_s"),
    "partitions.residue_counts.calls": ("partitions.residue_counts", "calls"),
    "partitions.residue_counts.self_s": ("partitions.residue_counts", "self_s"),
    "branching.in_path_set.calls": ("branching.in_path_set", "calls"),
    "branching.in_path_set.self_s": ("branching.in_path_set", "self_s"),
    "branching.in_fow.calls": ("branching.in_fow", "calls"),
    "branching.in_fow.self_s": ("branching.in_fow", "self_s"),
    "branching.branching_series.self_s": ("branching.branching_series", "self_s"),
    "qseries.lattice.visited": ("qseries.QuadraticFormData.admissible", "calls"),
    "qseries.lattice.exponent_evals": ("qseries.QuadraticFormData.exponent", "calls"),
    "qseries.lattice.admitted": ("qseries.lattice_points", "yields"),
    "qseries.lattice_points.calls": ("qseries.lattice_points", "calls"),
    "qseries.lattice_points.self_s": ("qseries.lattice_points", "self_s"),
    "qseries.exponent.self_s": ("qseries.QuadraticFormData.exponent", "self_s"),
    "qseries.inv_pochhammer.calls": ("qseries.inv_pochhammer", "calls"),
    "qseries.inv_pochhammer.self_s": ("qseries.inv_pochhammer", "self_s"),
    "qseries.series_mul.calls": ("qseries.TruncatedSeries.__mul__", "calls"),
    "qseries.series_mul.self_s": ("qseries.TruncatedSeries.__mul__", "self_s"),
    "crystal.eps_phi.calls": ("crystal.eps_phi", "calls"),
    "crystal.eps_phi.self_s": ("crystal.eps_phi", "self_s"),
    "crystal.epsilon_vector.calls": ("crystal.epsilon_vector", "calls"),
    "crystal.epsilon_vector.self_s": ("crystal.epsilon_vector", "self_s"),
    "crystal.f_tilde.calls": ("crystal.f_tilde", "calls"),
    "crystal.e_tilde.calls": ("crystal.e_tilde", "calls"),
    "crystal.build_component.self_s": ("crystal.build_component", "self_s"),
    "cores.n_core.calls": ("cores.n_core", "calls"),
    "cores.n_core.self_s": ("cores.n_core", "self_s"),
    "jantzen_seitz.is_js.calls": ("jantzen_seitz.is_js", "calls"),
    "jantzen_seitz.is_js.self_s": ("jantzen_seitz.is_js", "self_s"),
    "jantzen_seitz.is_js_by_crystal.calls": ("jantzen_seitz.is_js_by_crystal", "calls"),
    "jantzen_seitz.is_js_by_crystal.self_s": ("jantzen_seitz.is_js_by_crystal", "self_s"),
    "jantzen_seitz.js_set.self_s": ("jantzen_seitz.js_set", "self_s"),
    "jantzen_seitz.chi_by_branching.self_s": ("jantzen_seitz.chi_by_branching", "self_s"),
    "weights.weight_of.calls": ("weights.weight_of", "calls"),
    "weights.weight_of.self_s": ("weights.weight_of", "self_s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}
VERIFY_SUITES = ("fow", "methods", "js", "cores", "crystal")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_values(layers: dict) -> dict[str, float]:
    """Per-layer metrics of one traced sample, except verify.* and trace.*."""
    by_name, by_edge = layers["by_name"], layers["by_edge"]
    values = {metric: by_name[span][field] for metric, (span, field) in SPAN_FIELDS.items()}
    # Partitions handed to the fow membership test from a class bucket, per
    # partition enumerated to fill a residue census.
    hits = by_edge.get(("branching.in_fow", "branching.branching_series"), {}).get("calls", 0)
    census = by_edge.get(("partitions.partitions_of", "branching._census"), {}).get("yields", 0)
    values["branching.bucket_hit_ratio"] = _ratio(hits, census)
    values["qseries.lattice.admit_ratio"] = _ratio(
        values["qseries.lattice.admitted"], values["qseries.lattice.visited"]
    )
    return values


def per_layer_values(samples: list[Sample]) -> dict[str, float]:
    pool = _timed(samples)
    traced = [s for s in pool if s.traced and s.layers]
    plain = [s for s in pool if not s.traced]
    per_sample = [layer_values(s.layers) for s in traced]
    keys = [*SPAN_FIELDS, "branching.bucket_hit_ratio", "qseries.lattice.admit_ratio"]
    # median_low keeps counts whole and every time a value some sample measured.
    values = {key: _median((v[key] for v in per_sample), statistics.median_low) for key in keys}
    suites = [_verify_seconds(s.stdout) for s in plain]
    for suite in VERIFY_SUITES:
        key = f"verify.{suite}_s"
        values[key] = _median(v.get(key, 0.0) for v in suites)
    # measure() appends each traced/untraced pair together; the two samples
    # of a pair ran back to back, so their ratio cancels slow host phases.
    ratios = [
        a.wall_s / b.wall_s if a.traced else b.wall_s / a.wall_s
        for a, b in zip(samples[0::2], samples[1::2])
        if a.error is None and b.error is None
    ]
    values["trace.overhead_frac"] = _median(ratios) - 1.0 if ratios else 0.0
    return values


def module_self_times(samples: list[Sample]) -> dict[str, float]:
    """Median per-sample self time summed over each module's traced spans."""
    traced = [s for s in _timed(samples) if s.traced and s.layers]
    totals = {module: [] for module in MODULES}
    for s in traced:
        for module in MODULES:
            totals[module].append(sum(
                entry["self_s"] for span, entry in s.layers["by_name"].items()
                if span.split(".", 1)[0] == module
            ))
    return {module: _median(v) for module, v in totals.items()}


def summarize(samples: list[Sample], trace: bool, spec: dict) -> tuple[dict, list[str]]:
    """The result object (last stdout line) and the human-readable lines above it."""
    failed = [s for s in samples if s.error is not None]
    group = spec["per_layer"] if trace else spec["end_to_end"]
    values = per_layer_values(samples) if trace else end_to_end_values(samples)
    wanted = {m["name"] for m in group}
    if set(values) != wanted:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ wanted)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group}
    pool = _timed(samples)
    lines = []
    for m in group:
        lines.append(f"{m['name']:40s} {values[m['name']]:.6g} {m['unit']}")
    lines.append(f"{'ops_failed_frac':40s} {len(failed) / len(samples):.6g} "
                 f"({len(failed)} of {len(samples)} samples failed)")
    lines.append(f"samples: {len(pool)} timed ({sum(s.traced for s in pool)} traced)")
    for s in failed[:3]:
        lines.append(f"failed sample: {s.error}")
    if not trace:
        raw = ", ".join(f"{field} {_median(getattr(s, field) for s in pool):.4g} s"
                        for field in ("wall_s", "cpu_s", "setup_s"))
        lines.append(f"raw medians: {raw}; reference kernel "
                     f"{_median(s.ref_wall_s for s in pool):.4g} s (scaled to {REF_NOMINAL_S} s)")
    if trace:
        wall = _median(s.wall_s for s in pool if s.traced)
        modules = module_self_times(samples)
        shares = ", ".join(f"{k} {_ratio(v, wall):.0%}" for k, v in modules.items() if v)
        lines.append(f"self time share of traced wall {wall:.4g} s: {shares}")
    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "slnbranch" / "cli.py").is_file():
        print(f"error: no slnbranch sources under {SRC}", file=sys.stderr)
        return 2
    workloads = load_workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    samples = measure(args.workload, workload, args.seed, args.seconds, bool(args.trace))
    result, lines = summarize(samples, bool(args.trace), load_spec())
    print(f"workload {args.workload}: slnbranch {' '.join(workload['argv'])} "
          f"(seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
