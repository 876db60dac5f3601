"""
Reproducing the degree-6 reference table
========================================

The package ships the 16 x 16 table of signed p-Kostka numbers at n = 6,
p = 3 as a data file.  This script rebuilds the whole table from scratch
with the module-theoretic engine and compares the two, entry for entry.

Building the degree-6 registry splits only 9 of the 16 row modules, the
largest M(3,1,1,1) of dimension 120; every row's multiplicities are one
exact solve of its species, so the table prints in well under a second.
The comparison is the check that `skostka verify --suite fixtures` runs.
"""

from skostka import checks
from skostka.cli import format_label, load_fixture
from skostka.modrep import DirectEngine, assemble_matrix

engine = DirectEngine(3)

print("decomposing the sixteen modules M(lam|3*mu) at degree 6 ...")
labels, matrix = assemble_matrix(6, 3, signed=True, engine=engine)

# pretty-print the table with its row labels
names = [format_label(x, 3) for x in labels]
width = max(len(s) for s in names)
for name, row in zip(names, matrix):
    cells = " ".join(f"{v:1d}" if v else "." for v in row)
    print(f"{name:>{width}}  {cells}")

# compare against the packaged reference; the matrix is lower
# unitriangular in the fixed label order
records = checks.fixtures(load_fixture(), names, matrix)
records.append(checks.blocks(6, 3, engine)[0])
print()
for record in records:
    print(f"[{'FAIL' if record.failures else 'pass'}] {record.name}")
assert not any(record.failures for record in records)
print("every entry matches the packaged reference table")
