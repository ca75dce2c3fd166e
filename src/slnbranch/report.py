"""Verification report record shared by the library check suites and the CLI."""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    """Cases and failures of one suite; used as a context manager, it times its block."""

    suite: str
    cases: int = 0
    failures: list[dict] = field(default_factory=list)
    seconds: float = 0.0

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
