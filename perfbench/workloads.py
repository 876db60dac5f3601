"""The benchmark workloads: their inputs, the timed calls and the checks.

Each workload is a class with three steps. The constructor runs before
the clock starts and does only what a user pays once per process (the
imports, engine construction, the input lists). `run` is the timed
region: the calls into skostka and nothing else. `check` runs after the
clock stops and compares every output with a published table, a
combinatorial criterion or a theorem the output must satisfy; it returns
the number of operations attempted and the number that came out wrong.

The degree is a parameter so that the benchmark's own tests can run each
check at a tiny size; the benchmark itself always uses the degrees below.
"""

import json
import os
from pathlib import Path

P = 3
MATRIX_N = 6
ISO_N = 5
PRINCIPAL_N = 12

# The published degree-6 table ships inside the package; it is read as a
# plain file so the check does not go through the CLI code it is checking.
PUBLISHED_TABLE = Path("src/skostka/data/kpm_signed_n6_p3.json")


def check_matrix(obj, reference):
    """(attempted, wrong) for a `matrix --format json` result.

    Entry for entry against the reference table, in the reference's label
    order; an entry also counts as wrong when it breaks lower
    unitriangularity. A wrong label list makes every entry wrong.
    """
    labels = reference["labels"]
    ref = reference["matrix"]
    k = len(labels)
    attempted = k * k
    if obj is None or obj.get("labels") != labels:
        return attempted, attempted
    got = obj.get("matrix")
    if not isinstance(got, list) or len(got) != k:
        return attempted, attempted
    wrong = 0
    for i in range(k):
        row = got[i] if isinstance(got[i], list) and len(got[i]) == k else [None] * k
        for j in range(k):
            triangular = (row[j] == 1) if i == j else (j < i or row[j] == 0)
            if row[j] != ref[i][j] or not triangular:
                wrong += 1
    return attempted, wrong


def check_iso(pairs, questions, verdicts):
    """(attempted, wrong): each verdict against the combinatorial
    criterion `tabx.iso_equivalent` (equal after stripping trailing 1s)."""
    from skostka.tabx import iso_equivalent

    wrong = sum(
        1
        for (i, j), v in zip(questions, verdicts)
        if v != iso_equivalent(pairs[i], pairs[j])
    )
    wrong += len(questions) - len(verdicts)
    return len(questions), wrong


def check_principal(pairs, labels, p, entries, principal):
    """(attempted, wrong) against the principal-block theorem.

    entries[a][x] is signed_kostka((alpha|beta)_a, label_x) and
    principal[a] is principal_part_formula((alpha|beta)_a). For
    |beta| = p|mu| the entry must equal the formula's product
    k_{alpha,lam} * k_{beta,p*mu} (absent keys mean 0); otherwise it must
    be 0. A formula key outside the label list is one more wrong value.
    """
    attempted = len(pairs) * len(labels)
    wrong = 0
    label_set = set(labels)
    for a, (alpha, beta) in enumerate(pairs):
        row = entries[a] if a < len(entries) else None
        formula = principal[a] if a < len(principal) else None
        if row is None or formula is None:
            wrong += len(labels)
            continue
        wrong += sum(1 for x in formula if x not in label_set)
        for x, got in zip(labels, row):
            if sum(beta) == p * sum(x[1]):
                want = formula.get(x, 0)
            else:
                want = 0
            if got != want:
                wrong += 1
        wrong += len(labels) - len(row)
    return attempted, wrong


class Matrix6:
    """`skostka matrix --n 6 --p 3 --signed --engine direct --format json`
    through `cli.main`, with an empty cache directory."""

    name = "matrix6_p3"
    min_rounds = 1

    def __init__(self, seed, workdir, n=MATRIX_N):
        from skostka import cli

        self.cli = cli
        self.out_path = Path(workdir) / "matrix.json"
        self.argv = [
            "matrix", "--n", str(n), "--p", str(P), "--signed",
            "--engine", "direct", "--format", "json", "--seed", str(seed),
            "--cache-dir", str(Path(workdir) / "cache"), "--out", str(self.out_path),
        ]

    def run(self):
        return self.cli.main(self.argv)

    def check(self, status):
        reference = json.loads(PUBLISHED_TABLE.read_text())
        obj = None
        if status == 0 and self.out_path.exists():
            obj = json.loads(self.out_path.read_text())
        return check_matrix(obj, reference)


class Iso5:
    """`modules_isomorphic` on every unordered pair of the degree-5
    modules at p = 3, the modules built inside the timed region."""

    name = "iso5_p3"
    min_rounds = 2

    def __init__(self, seed, workdir, n=ISO_N):
        from skostka import modrep
        from skostka.combinat import enumerate_p2

        self.modrep = modrep
        self.pairs = enumerate_p2(n)
        k = len(self.pairs)
        self.questions = [(i, j) for i in range(k) for j in range(i, k)]
        # Question q draws its intertwiners from seed 1000 * seed + q. A
        # seed shared by all questions would decide once for the whole round
        # whether the isomorphic dimension-120 pairs draw only singular
        # intertwiners and fall to leaf matching; a seed per question makes
        # every round carry its share of that slow case.
        assert len(self.questions) < 1000
        self.seeds = [1000 * seed + q for q in range(len(self.questions))]

    def run(self):
        build, iso = self.modrep.build_module, self.modrep.modules_isomorphic
        mods = [build(ab, P) for ab in self.pairs]
        return [
            iso(mods[i], mods[j], seed=s) for (i, j), s in zip(self.questions, self.seeds)
        ]

    def check(self, verdicts):
        return check_iso(self.pairs, self.questions, verdicts)


class Principal12:
    """Every (alpha|beta) of degree 12 against every label with empty
    zeroth digit at p = 3, by `signed_kostka` and by
    `principal_part_formula`, on one direct-engine oracle."""

    name = "principal12_p3"
    min_rounds = 1

    def __init__(self, seed, workdir, n=PRINCIPAL_N):
        from skostka import modrep, reduction
        from skostka.combinat import digit, enumerate_p2, enumerate_p2p

        self.reduction = reduction
        self.pairs = enumerate_p2(n)
        self.labels = [x for x in enumerate_p2p(n, P) if digit(x[0], P, 0) == ()]
        self.engine = modrep.DirectEngine(P, seed)

    def run(self):
        sk = self.reduction.signed_kostka
        formula = self.reduction.principal_part_formula
        entries, principal = [], []
        for ab in self.pairs:
            principal.append(formula(ab, P, self.engine))
            entries.append([sk(ab, x, self.engine) for x in self.labels])
        return entries, principal

    def check(self, result):
        entries, principal = result
        return check_principal(self.pairs, self.labels, P, entries, principal)


WORKLOADS = {w.name: w for w in (Matrix6, Iso5, Principal12)}


def program_present():
    """Whether the checkout holds the skostka sources the benchmark runs."""
    return os.path.isfile("src/skostka/__init__.py") and PUBLISHED_TABLE.is_file()
