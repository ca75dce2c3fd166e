"""One benchmark sample: a fresh interpreter that runs `slnbranch.cli.main(argv)`.

    python3 perfbench/child.py SAMPLE_ID SPANS_PATH ARG...

SPANS_PATH is "-" for an untraced sample; otherwise the functions listed in
tracer.TARGETS are wrapped before `main` runs and the spans are written
there when it returns.  The CLI's stdout is captured in memory, and the
child prints one JSON record instead: exit code, captured stdout, any
exception, the monotonic clock after `import slnbranch.cli` and around
`main`, the CPU seconds of `main`, and the peak RSS.  `src/` must be on
PYTHONPATH.
"""

import sys
import time

import slnbranch.cli

IMPORTED = time.monotonic()

import io  # noqa: E402  (after the timed import on purpose)
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run(sample_id: int, spans_path: str, argv: list[str]) -> dict:
    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer(sample_id)
        tracer.install()
    captured = io.StringIO()
    real_stdout = sys.stdout
    rc, error = None, None
    sys.stdout = captured
    cpu0 = _cpu_seconds()
    start = time.monotonic()
    try:
        rc = slnbranch.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        error = traceback.format_exc()
    finally:
        end = time.monotonic()
        cpu1 = _cpu_seconds()
        sys.stdout = real_stdout
    if tracer is not None:
        tracer.write(spans_path)
    return {
        "rc": rc,
        "error": error,
        "stdout": captured.getvalue(),
        "imported": IMPORTED,
        "start": start,
        "end": end,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


if __name__ == "__main__":
    record = run(int(sys.argv[1]), sys.argv[2], sys.argv[3:])
    sys.stdout.write(json.dumps(record) + "\n")
