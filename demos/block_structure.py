"""
Block structure of the signed table
===================================

In the fixed label order (|mu| ascending), the signed multiplicity
matrix is lower unitriangular and its diagonal blocks are Kronecker
products of plain p-Kostka matrices at smaller degrees: the |mu| = s
block equals K_s (x) K_{n-sp}.  This script checks that at degree 6,
p = 3, where the blocks are K6, K3 and K2 (x) K0, with the same check
that `skostka verify --suite blocks` runs.

Degree 6 takes a few seconds; lower the degree for a quicker run.
"""

from skostka import checks
from skostka.modrep import DirectEngine

n, p = 6, 3
records = checks.blocks(n, p, DirectEngine(p))
for record in records:
    print(f"[{'FAIL' if record.failures else 'pass'}] {record.name}")
assert not any(record.failures for record in records)
print(f"the signed matrix at degree {n}, p = {p} has the predicted block structure")
