"""
Inside the lattice sum
======================

Shows the admissible lattice vectors behind one fermionic evaluation: the
integer form n*Q the walk runs on, the exponent of each admitted vector, and
how the per-vector terms q^Q / prod (q)_{m_i} assemble the coefficient series.
"""

from slnbranch import (
    QuadraticFormData,
    fermionic_series,
    lattice_points,
    lattice_sum,
)

N, S, T, ORDER = 3, 1, 2, 6

qf = QuadraticFormData(N, S, T)
print(f"n={N}, class L{S} + L{T}, order {ORDER}")
print(f"n*C^-1 = {qf.scaled_inverse}, beta = {qf.beta}")

for m, q in lattice_points(N, S, T, ORDER):
    factors = " ".join(f"1/(q)_{mi}" for mi in m if mi) or "1"
    print(f"  m={m}  Q={q}  term: q^{q} * {factors}")
    print(f"          -> {lattice_sum([(m, q)], ORDER)}")

print(f"total: {fermionic_series(N, S, T, ORDER)}")
