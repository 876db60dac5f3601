"""Consistency checks shared by `skostka verify` and the acceptance gate.

Each check takes its scope as arguments (module pairs, labels or
degrees, the prime, the engine, or a computed table to compare) and
returns Record tuples: a name, the failing cases (empty when the check
holds) and a Counter of the cases examined, by kind. The command line
prints one line per record over a small scope; the acceptance gate runs
the same functions over wider scopes and asserts that no record has a
failing case.
"""

from collections import Counter, namedtuple

import numpy as np

from . import modrep, reduction, tabx
from .combinat import (
    admits_horizontal_cut,
    conjugate,
    digit,
    enumerate_p2,
    partitions_of,
    scale,
    size,
)

Record = namedtuple("Record", "name failures counts")


def format_part(seq):
    return ",".join(str(x) for x in seq) if seq else "-"


def format_pair(ab):
    return format_part(ab[0]) + "|" + format_part(ab[1])


def format_label(label, p):
    """Label string "lam|p*mu" with "-" for an empty side."""
    lam, mu = label
    return format_pair((lam, scale(p, mu)))


def _differing_cells(got, want):
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [("shape", got.shape, want.shape)]
    return [tuple(int(i) for i in ij) for ij in np.argwhere(got != want)]


def fixtures(ref, strings, matrix):
    """Label strings and a matrix against the packaged reference table."""
    order = [] if strings == ref["labels"] else [("labels", strings)]
    cells = _differing_cells(matrix, ref["matrix"])
    return [
        Record("reference label order", order, Counter(labels=len(strings))),
        Record("reference matrix entries", cells, Counter(entries=np.size(matrix))),
    ]


def cross_engine(pairs, labels, engine):
    """The reduction engine against the direct decomposition, per pair;
    each failure is (label, direct value, reduction value)."""
    out = []
    for ab in pairs:
        dec = engine.decompose(ab)
        sk = reduction.signed_kostka
        cells = [(x, dec.get(x, 0), sk(ab, x, engine)) for x in labels]
        bad = [cell for cell in cells if cell[1] != cell[2]]
        name = f"cross-engine row {format_pair(ab)}"
        out.append(Record(name, bad, Counter(entries=len(labels))))
    return out


def blocks(n, p, engine):
    """The signed degree-n matrix is lower unitriangular, and the labels
    with |mu| = s form a contiguous diagonal block equal to the plain
    Kronecker product K_s (x) K_(n - ps)."""

    def plain(m):
        return modrep.assemble_matrix(m, p, signed=False, engine=engine)[1]

    labels, mat = modrep.assemble_matrix(n, p, signed=True, engine=engine)
    unitriangular = (np.diag(mat) == 1).all() and not np.triu(mat, 1).any()
    bad = [] if unitriangular else ["not lower unitriangular"]
    out = [Record("lower unitriangular", bad, Counter(entries=mat.size))]
    start = 0
    for s in range(n // p + 1):
        group = [i for i, (lam, mu) in enumerate(labels) if size(mu) == s]
        bad = []
        if group != list(range(start, start + len(group))):
            bad.append("labels are not contiguous")
        start += len(group)
        if s == n // p and start != len(labels):
            bad.append("label groups do not cover the matrix")
        want = np.kron(plain(s), plain(n - s * p))
        bad += _differing_cells(mat[np.ix_(group, group)], want)
        name = f"diagonal block |mu|={s} is the plain Kronecker product"
        out.append(Record(name, bad, Counter(entries=want.size)))
    return out


def vertices(n, p, engine):
    """Each class (lam|p mu) of the degree-n registry, n < p^2, has a
    nonzero Brauer quotient at Q_k, the group of k disjoint p-cycles,
    exactly when k <= |mu| + |lam(1)|: its vertex is then Q_(|mu| +
    |lam(1)|), a Sylow subgroup of a Young subgroup (Donkin, Proc. LMS
    83, 2001), which ties each label to its species."""
    classes = engine.registry_for(n)
    bad = []
    for (lam, mu), species in classes.items():
        depth = size(mu) + size(digit(lam, p, 1))
        dims = [rank for rank, _ in species[1:]]
        if [d > 0 for d in dims] != [k <= depth for k in range(1, n // p + 1)]:
            bad.append(((lam, mu), dims))
    name = "Brauer quotients of each class match its label's vertex"
    return [Record(name, bad, Counter(classes=len(classes)))]


def rowcut(pairs, labels, p, engine):
    """rowcut_lower_bound never exceeds the multiplicity, and equals it
    when |beta| = p|mu|, as does product_formula, on every admissible
    pair of cuts."""
    out = []
    for ab in pairs:
        alpha, beta = ab
        n = size(alpha) + size(beta)
        bad = []
        counts = Counter()
        for x in labels:
            lam, mu = x
            pmu = scale(p, mu)
            value = reduction.signed_kostka(ab, x, engine)
            split = size(beta) == p * size(mu)
            for r in range(n + 1):
                if not admits_horizontal_cut(alpha, lam, r):
                    continue
                for s in range(n + 1):
                    if not admits_horizontal_cut(beta, pmu, s):
                        continue
                    cut = (ab, x, r, s)
                    bound = reduction.rowcut_lower_bound(*cut, engine)
                    if bound > value:
                        bad.append(("bound", x, r, s))
                    if split and bound != value:
                        bad.append(("equality", x, r, s))
                    if split and reduction.product_formula(*cut, engine) != value:
                        bad.append(("product", x, r, s))
                    counts["bound"] += 1
                    counts["equality"] += split
                    counts["product"] += split
        out.append(Record(f"row cuts for ({format_pair(ab)})", bad, counts))
    return out


IDENTITIES = {
    "twist": "sign twist keeps the multiplicity",
    "factor": "Mullineux factor where |alpha| = |lam| - |lam(0)|",
    "witness": "nonzero witness where |beta| = p|mu|",
    "vanishing": "both engines vanish where lam(0) is empty and |beta| != p|mu|",
    "principal": "principal part formula",
}


def identities(pairs, labels, p, engine):
    """The paper's identities for the multiplicity k of each label in
    each pair, one record for each identity with a case in scope: k is
    kept by the sign twist; equals the Mullineux factor where |alpha| =
    |lam| - |lam(0)|; is positive exactly when nonzero_witness holds
    where |beta| = p|mu|; vanishes in both engines and by vanishing_check
    where lam(0) is empty and |beta| != p|mu|. When p divides the
    degree, principal_part_formula gives the positive k with lam(0)
    empty; labels must then be every label of that degree."""
    sk = reduction.signed_kostka
    bad = {kind: [] for kind in IDENTITIES}
    counts = Counter()
    for ab in pairs:
        alpha, beta = ab
        principal = {}
        for x in labels:
            lam, mu = x
            k = sk(ab, x, engine)
            lam0 = digit(lam, p, 0)
            split = size(beta) == p * size(mu)
            twist = sk((beta, alpha), reduction.sign_twist_label(x, p), engine)
            holds = {"twist": twist == k}
            if size(alpha) == size(lam) - size(lam0):
                holds["factor"] = reduction.mullineux_factor(ab, x, engine) == k
            if split:
                holds["witness"] = reduction.nonzero_witness(ab, x, p) == (k > 0)
            elif lam0 == ():
                holds["vanishing"] = (
                    k == 0
                    and engine.decompose(ab).get(x, 0) == 0
                    and reduction.vanishing_check(ab, x, p)
                )
            if split and lam0 == () and k:
                principal[x] = k
            for kind, ok in holds.items():
                counts[kind] += 1
                if not ok:
                    bad[kind].append((ab, x))
        if (size(alpha) + size(beta)) % p == 0:
            counts["principal"] += 1
            if reduction.principal_part_formula(ab, p, engine) != principal:
                bad["principal"].append(ab)
    return [
        Record(name, bad[kind], Counter({kind: counts[kind]}))
        for kind, name in IDENTITIES.items()
        if counts[kind]
    ]


def iso(class_degrees, char_degrees, p):
    """Combinatorial iso classes against module isomorphism over GF(p)
    at each class degree; character vectors constant on the classes at
    each char degree."""
    out = []
    for m in class_degrees:
        pairs = enumerate_p2(m)
        mods = [modrep.build_module(ab, p) for ab in pairs]
        bad = []
        for i, ab in enumerate(pairs):
            for j in range(i, len(pairs)):
                want = tabx.iso_equivalent(ab, pairs[j])
                got = modrep.modules_isomorphic(mods[i], mods[j])
                if got != want:
                    bad.append((ab, pairs[j], "module", got, "tableaux", want))
        name = f"classification at degree {m} matches the module level"
        k = len(pairs)
        out.append(Record(name, bad, Counter(modules=k * (k + 1) // 2)))
    for m in char_degrees:
        pairs = enumerate_p2(m)
        chars = {ab: tabx.char_vector(ab) for ab in pairs}
        equal = [(a, b) for a in pairs for b in pairs if tabx.iso_equivalent(a, b)]
        bad = [(a, b) for a, b in equal if chars[a] != chars[b]]
        name = "equivalent pairs share the character vector"
        out.append(Record(name, bad, Counter(characters=len(pairs) ** 2)))
    return out


def tableaux(degrees):
    """Signed tableaux counts against the Pieri rule, the one-column
    completion and plain Kostka numbers; three records per degree."""
    count, kostka = tabx.count_signed_ssyt, tabx.kostka_number
    out = []
    for m in degrees:
        pairs = enumerate_p2(m)
        pieri = [ab for ab in pairs if tabx.char_vector(ab) != tabx.pieri_expand(ab)]
        one = [ab for ab in pairs if count(ab[0] + (1,) * size(ab[1]), ab) != 1]
        parts = partitions_of(m)
        plain = []
        for lam in parts:
            for alpha in parts:
                if count(lam, (alpha, ())) != kostka(lam, alpha):
                    plain.append(("plain", lam, alpha))
                if count(lam, ((), alpha)) != kostka(conjugate(lam), alpha):
                    plain.append(("conjugate", lam, alpha))
        names = (
            f"character vector equals the Pieri expansion at degree {m}",
            "single tableau for the one-column completion",
            "plain and conjugate Kostka specializations",
        )
        cases = (len(pairs), len(pairs), 2 * len(parts) ** 2)
        for name, bad, k in zip(names, (pieri, one, plain), cases):
            out.append(Record(name, bad, Counter(cases=k)))
    return out
