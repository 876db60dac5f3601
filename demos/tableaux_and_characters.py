"""
Signed tableaux and ordinary characters
=======================================

The ordinary character of M(alpha|beta) is a sum of Specht characters
whose multiplicities count signed semistandard tableaux: fill the shape
with r "unprimed" colours weighted by alpha (rows weakly increase,
columns strictly) and s "primed" colours weighted by beta (rows strict,
columns weak).  Two independent computations of those multiplicities
are compared here, and both classical Kostka specializations drop out.
"""

from skostka import checks
from skostka.tabx import char_vector, pieri_expand, signed_tableaux

ab = ((2, 1), (2,))

# list the actual fillings for one shape: 1,2 unprimed and 1' primed
shape = (3, 2)
r = len(ab[0])
print(f"signed tableaux of shape {shape} and type {ab}:")
for grid in signed_tableaux(shape, ab):
    rows = [
        " ".join(str(x + 1) if x < r else f"{x - r + 1}'" for x in row)
        for row in grid
    ]
    print("   " + " / ".join(rows))

# the full character: tableau counts vs iterated Pieri expansion
counts = char_vector(ab)
pieri = pieri_expand(ab)
print(f"\ncharacter of M{ab}:")
for lam in sorted(counts, reverse=True):
    print(f"  shape {lam}: {counts[lam]}")
print("the h*e Pieri expansion gives the same counts:", counts == pieri)

# the Pieri rule at every pair of degree 5, and the two specializations:
# no primed colours gives plain Kostka numbers, no unprimed colours the
# conjugate ones; and the shape alpha plus a column of |beta| boxes has
# exactly one filling. The same check runs in `skostka verify --suite
# tableaux`.
records = checks.tableaux([5])
for record in records:
    print(f"[{'FAIL' if record.failures else 'pass'}] {record.name}")
assert not any(record.failures for record in records)
