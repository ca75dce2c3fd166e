"""
Branching coefficients by four independent routes
==================================================

Each level-2 target class L(k) + L(j-k) in L(j) (x) L0 has a coefficient
series; this script evaluates the six n = 3 classes by path enumeration,
the chain congruence, crystal eps-profiles, and the quadratic-form lattice
sum, and prints the agreement table.
"""

from slnbranch import branching_series

N = 3
CLASSES = [(0, 0), (0, 1), (1, 0), (1, 2), (2, 0), (2, 1)]
METHODS = ("paths", "fow", "crystal", "fermionic")

for j, k in CLASSES:
    print(f"n={N}  target L{k} + L{(j - k) % N} inside L{j} (x) L0")
    rows = {m: branching_series(N, j, k, 6, m) for m in METHODS}
    for method, coeffs in rows.items():
        print(f"  {method:9s} {coeffs}")
    verdict = "AGREE" if len(set(rows.values())) == 1 else "DISAGREE"
    print(f"  -> {verdict}\n")
