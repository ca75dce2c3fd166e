"""Verification report record shared by the library check suites and the CLI.

A plain class, as every class in the package is: the `dataclasses` module
would pull `inspect` (and with it `ast`, `dis` and `tokenize`) into every
CLI start.
"""

from __future__ import annotations

import time


class VerificationReport:
    """Cases and failures of one suite; used as a context manager, it times its block.

    A new report has no cases, its own empty failure list and zero seconds.
    """

    suite: str
    cases: int
    failures: list[dict]
    seconds: float

    def __init__(self, suite: str):
        self.suite = suite
        self.cases = 0
        self.failures = []
        self.seconds = 0.0

    def __enter__(self) -> "VerificationReport":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, **details):
        self.failures.append(details)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "failures": self.failures,
            "seconds": round(self.seconds, 3),
            "ok": self.ok,
        }

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} FAILURES"
        return f"suite {self.suite}: {self.cases} cases, {status} ({self.seconds:.2f}s)"
