"""
When are two signed permutation modules isomorphic?
===================================================

M(alpha|beta) and M(gamma|delta) are isomorphic exactly when alpha and
gamma agree after deleting trailing 1-parts, and likewise beta and
delta.  The combinatorial predicate is checked here against honest
module arithmetic over GF(3): build both modules and compare their
species, the Brauer characters of their Brauer quotients, which decide
isomorphism between summands of signed permutation modules.
"""

from skostka import checks
from skostka.combinat import enumerate_p2
from skostka.modrep import build_module, modules_isomorphic
from skostka.tabx import canonical_label

p, n = 3, 4

# group the degree-4 pairs into predicted classes
classes = {}
for ab in enumerate_p2(n):
    classes.setdefault(canonical_label(ab), []).append(ab)
print(f"{len(list(enumerate_p2(n)))} pairs at degree {n} fall into "
      f"{len(classes)} classes:")
for key in sorted(classes):
    members = ", ".join(f"({a}|{b})" for a, b in classes[key])
    print(f"  {members}")

# certify the predictions on the modules themselves, with the check
# that `skostka verify --suite iso` runs
records = checks.iso([n], [], p)
print()
for record in records:
    print(f"[{'FAIL' if record.failures else 'pass'}] {record.name}")
assert not any(record.failures for record in records)
pairs = records[0].counts["modules"]
print(f"module arithmetic confirms all {pairs} pairwise verdicts")

# a positive and a negative example in detail
a, b = ((2, 1), (1,)), ((2, 1, 1), ())
ma, mb = build_module(a, p), build_module(b, p)
print(f"\nM{a} ~ M{b}: {modules_isomorphic(ma, mb)} "
      "(the single primed letter moves across)")
c, d = ((4,), ()), ((), (4,))
mc, md = build_module(c, p), build_module(d, p)
print(f"M{c} ~ M{d}: {modules_isomorphic(mc, md)} "
      "(trivial against sign: both dimension 1, never isomorphic)")
