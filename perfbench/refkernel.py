"""Reference kernel: fixed pure-Python work that measures the host's speed.

    python3 perfbench/refkernel.py

Prints one JSON record: the kernel's wall seconds, CPU seconds and a
checksum of its result.  The kernel imports nothing from slnbranch and never
changes, so its time tracks only how fast the host runs Python right now.
run.py runs it in a fresh interpreter before the first sample and after
every sample, and divides each sample's times by the mean of the kernel
times on either side of it.  The work is of the same kind as slnbranch's:
a recursive partition generator, residue counting into dicts, and
`Fraction` arithmetic.
"""

import json
import resource
import time
from fractions import Fraction


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _residues(partition: tuple, e: int) -> tuple:
    counts: dict[int, int] = {}
    for row, length in enumerate(partition):
        for col in range(length):
            residue = (col - row) % e
            counts[residue] = counts.get(residue, 0) + 1
    return tuple(sorted(counts.items()))


def kernel() -> int:
    buckets: dict[tuple, int] = {}
    for n in range(20, 33):
        for partition in _partitions(n, n):
            key = _residues(partition, 4)
            buckets[key] = buckets.get(key, 0) + 1
    series = [Fraction(0)] * 40
    for a in range(1, 400):
        for b in range(1, 30):
            series[(a * b) % 40] += Fraction(a, b)
    return len(buckets) + sum(buckets.values()) + series[7].numerator % 1000003


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


if __name__ == "__main__":
    cpu0, start = _cpu_seconds(), time.monotonic()
    checksum = kernel()
    end, cpu1 = time.monotonic(), _cpu_seconds()
    print(json.dumps({"wall_s": end - start, "cpu_s": cpu1 - cpu0, "checksum": checksum}))
