"""
Cores, weights, and block dimensions
====================================

Walks a few partitions through the abacus, then tabulates block dimensions:
for each 3-core mu and size m, the number of 3-regular partitions of m with
core mu, read from one `block_series` call that counts every block up to
size M (coefficient w of a core's series counts size |mu| + 3w).  Row sums
recover the count of all 3-regular partitions of m.
"""

from collections import Counter

from slnbranch import (
    abacus_display,
    block_series,
    format_partition,
    n_core,
    n_weight,
    partitions_up_to,
)

N, M = 3, 8

for p in [(8,), (6, 2), (3, 3, 1, 1), (5, 4, 1)]:
    beta = abacus_display(p, N)
    core = n_core(p, N)
    print(
        f"{format_partition(p):10s} beta={beta}  "
        f"core={format_partition(core)}  weight={n_weight(p, N)}"
    )

print("\nblock dimensions (rows: m, columns: cores):")
# A partition of m has a core of size at most m, so the cores up to M give every column.
blocks = block_series(N, M)
cores = list(blocks)
header = " ".join(f"{format_partition(mu):>6s}" for mu in cores)
print(f"m={'':2s} {header}   total  regular")
regular = Counter(map(sum, partitions_up_to(M, regular=N)))
by_size = {
    mu: {sum(mu) + N * w: d for w, d in enumerate(series)} for mu, series in blocks.items()
}
for m in range(M + 1):
    row = [by_size[mu].get(m, 0) for mu in cores]
    cells = " ".join(f"{d:6d}" for d in row)
    print(f"{m:4d} {cells}  {sum(row):6d} {regular[m]:8d}")
