"""Acceptance gate: one numbered check per shipped guarantee.

Each test prints a single "criterion N: PASS/FAIL" line (run with
pytest -s to see them all; a failing criterion shows its line plus the
offending cases).  Checks with a runtime budget fail when the budget is
exceeded even if every value is correct.

Criteria 2, 4 and 7-10 run the shared checks of skostka.checks, the
code behind `skostka verify`, over wider scopes. The direct engine
instances are the ones the command line uses, so the expensive degree-6
registries are built once and shared across checks.
"""

import itertools
import json
import time
from collections import Counter

from skostka import checks, cli, reduction
from skostka.combinat import (
    admits_horizontal_cut,
    bottom_cut,
    cmp_total,
    digit,
    dominates,
    dominates_pair,
    enumerate_p2,
    enumerate_p2p,
    is_p_restricted,
    mullineux,
    p_adic_expansion,
    partitions_of,
    pointwise_add,
    pointwise_sub,
    scale,
    size,
    top_cut,
    total_key,
    wp,
)

P = 3


def engine(p=P):
    return cli.direct_engine(p)


def report(num, failures, detail, elapsed=None, budget=None):
    failures = list(failures)
    if budget is not None and elapsed is not None and elapsed > budget:
        failures.append(f"runtime {elapsed:.1f}s exceeds the {budget}s budget")
    status = "PASS" if not failures else "FAIL"
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"criterion {num}: {status} {detail}{stamp}")
    assert not failures, (f"criterion {num}", failures[:10])


def failing(records):
    """Every failing case of the shared check records, with its name."""
    return [(r.name, case) for r in records for case in r.failures]


def tally(records):
    """The cases the records examined, summed by kind."""
    return sum((r.counts for r in records), Counter())


# --- 1: the packaged reference matrix ----------------------------------------


def test_criterion_01_reference_matrix(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "kpm.json"
    code = cli.main(
        [
            "matrix", "--n", "6", "--p", "3", "--signed",
            "--engine", "direct", "--format", "json",
            "--cache-dir", str(tmp_path), "--out", str(out),
        ]
    )
    got = json.loads(out.read_text())
    ref = cli.load_fixture()
    bad = []
    if code != 0:
        bad.append(f"exit code {code}")
    if got["labels"] != ref["labels"]:
        bad.append("row/column label order differs from the reference")
    if got["matrix"] != ref["matrix"]:
        diffs = [
            (i, j)
            for i in range(len(ref["matrix"]))
            for j in range(len(ref["matrix"]))
            if got["matrix"][i][j] != ref["matrix"][i][j]
        ]
        bad.append(f"entries differ at {diffs[:5]}")
    report(
        1, bad,
        "matrix --n 6 --p 3 --signed --engine direct reproduces the "
        "16x16 reference table entry for entry",
        time.perf_counter() - t0, budget=300,
    )


# --- 2: the two engines agree everywhere at degree 6 --------------------------


def test_criterion_02_cross_engine_agreement():
    t0 = time.perf_counter()
    pairs = enumerate_p2(6)
    labels = enumerate_p2p(6, P)
    records = checks.cross_engine(pairs, labels, engine())
    report(
        2, failing(records),
        f"reduction equals direct decomposition on {len(pairs)} pairs "
        f"x {len(labels)} labels",
        time.perf_counter() - t0, budget=600,
    )


# --- 3: the worked entry -------------------------------------------------------


def test_criterion_03_worked_entry(capsys):
    t0 = time.perf_counter()
    code = cli.main(
        [
            "entry", "--p", "3", "--alpha", "1,1,1", "--beta", "6,3,3",
            "--lambda", "2,2,1,1", "--mu", "2,1", "--method", "reduction",
        ]
    )
    printed = capsys.readouterr().out.strip()
    supp = reduction.enumerate_lambda_supp(
        ((1, 1, 1), (6, 3, 3)), ((2, 2, 1, 1), (2, 1)), P
    )
    bad = []
    if code != 0:
        bad.append(f"exit code {code}")
    if printed != "9":
        bad.append(f"printed {printed!r}, wanted '9'")
    if len(supp) != 3:
        bad.append(f"support set has {len(supp)} tuples, wanted 3")
    report(
        3, bad,
        "entry (1,1,1|6,3,3) vs (2,2,1,1|6,3) prints 9 from a "
        "3-element support set",
        time.perf_counter() - t0, budget=60,
    )


# --- 4: unitriangular shape with plain Kronecker blocks -----------------------


def test_criterion_04_block_structure():
    t0 = time.perf_counter()
    report(
        4, failing(checks.blocks(6, P, engine())),
        "signed matrix at degree 6 is lower unitriangular with diagonal "
        "blocks K6, K3, K2 (x) K0",
        time.perf_counter() - t0,
    )


# --- 5: product, factor, and sign-twist identities ----------------------------


def test_criterion_05_product_and_factor_formulas():
    t0 = time.perf_counter()
    eng = engine()
    pairs = enumerate_p2(6)
    labels = enumerate_p2p(6, P)
    bad = []
    counts = {"twist": 0, "product": 0, "factor": 0, "witness": 0}
    for alpha, beta in pairs:
        ab = (alpha, beta)
        for x in labels:
            lam, mu = x
            k = reduction.signed_kostka(ab, x, eng)
            tw = reduction.sign_twist_label(x, P)
            if reduction.signed_kostka((beta, alpha), tw, eng) != k:
                bad.append(("twist", ab, x))
            counts["twist"] += 1
            lam0 = digit(lam, P, 0)
            if size(alpha) == size(lam) - size(lam0):
                if reduction.mullineux_factor(ab, x, eng) != k:
                    bad.append(("factor", ab, x))
                counts["factor"] += 1
            if size(beta) != P * size(mu):
                continue
            if reduction.nonzero_witness(ab, x, P) != (k > 0):
                bad.append(("witness", ab, x))
            counts["witness"] += 1
            pmu = scale(P, mu)
            for r in range(7):
                if not admits_horizontal_cut(alpha, lam, r):
                    continue
                for s in range(7):
                    if not admits_horizontal_cut(beta, pmu, s):
                        continue
                    if reduction.product_formula(ab, x, r, s, eng) != k:
                        bad.append(("product", ab, x, r, s))
                    counts["product"] += 1
        principal = reduction.principal_part_formula(ab, P, oracle=eng)
        want = {}
        for x in labels:
            if digit(x[0], P, 0) != () or P * size(x[1]) != size(beta):
                continue
            k = reduction.signed_kostka(ab, x, eng)
            if k:
                want[x] = k
        if principal != want:
            bad.append(("principal", ab))
    detail = ", ".join(f"{v} {k} checks" for k, v in sorted(counts.items()))
    report(5, bad, detail, time.perf_counter() - t0)


# --- 6: vanishing off the matching size ---------------------------------------


def test_criterion_06_vanishing():
    t0 = time.perf_counter()
    eng = engine()
    pairs = enumerate_p2(6)
    labels = [x for x in enumerate_p2p(6, P) if digit(x[0], P, 0) == ()]
    bad = []
    checks = 0
    for x in labels:
        for alpha, beta in pairs:
            if size(beta) == P * size(x[1]):
                continue
            ab = (alpha, beta)
            if reduction.signed_kostka(ab, x, eng) != 0:
                bad.append(("reduction", ab, x))
            if eng.decompose(ab).get(x, 0) != 0:
                bad.append(("direct", ab, x))
            if not reduction.vanishing_check(ab, x, P):
                bad.append(("predicate", ab, x))
            checks += 1
    report(
        6, bad,
        f"both engines vanish on {checks} empty-zeroth-digit cases "
        f"with |beta| != p|mu| ({len(labels)} labels)",
        time.perf_counter() - t0,
    )


# --- 7: row cuts bound from below ----------------------------------------------


def test_criterion_07_row_cut_inequality():
    t0 = time.perf_counter()
    records = checks.rowcut(enumerate_p2(6), enumerate_p2p(6, P), P, engine())
    counts = tally(records)
    report(
        7, failing(records),
        f"rowcut_lower_bound <= value on {counts['bound']} admissible cuts, "
        f"equality on the {counts['equality']} split cases",
        time.perf_counter() - t0,
    )


# --- 8: isomorphism classification ---------------------------------------------


def test_criterion_08_isomorphism_classification():
    t0 = time.perf_counter()
    records = checks.iso(range(6), range(9), P)
    report(
        8, failing(records),
        f"combinatorial classes match module isomorphism on "
        f"{tally(records)['modules']} pairs (n <= 5) and characters are "
        f"constant on classes up to degree 8",
        time.perf_counter() - t0, budget=600,
    )


# --- 9: tableaux oracles ---------------------------------------------------------


def test_criterion_09_tableaux_oracles():
    t0 = time.perf_counter()
    report(
        9, failing(checks.tableaux(range(9))),
        "char_vector = pieri_expand, unit one-column counts, and both "
        "Kostka specializations up to degree 8",
        time.perf_counter() - t0, budget=120,
    )


# --- 10: the same story at p = 5 -------------------------------------------------


def test_criterion_10_second_prime():
    t0 = time.perf_counter()
    eng = engine(5)
    labels = enumerate_p2p(6, 5)
    bad = [] if len(labels) == 12 else [f"{len(labels)} labels, wanted 12"]
    records = checks.blocks(6, 5, eng)
    records += checks.cross_engine(enumerate_p2(6), labels, eng)
    report(
        10, bad + failing(records),
        "p=5 matrix is unitriangular with blocks K6, K1 and the engines "
        "agree on every degree-6 entry",
        time.perf_counter() - t0,
    )


# --- 11: exhaustive combinatorial property suites --------------------------------


def compositions_into(n, m):
    if m == 0:
        return [()] if n == 0 else []
    out = []
    for cuts in itertools.combinations(range(1, n), m - 1):
        pts = (0,) + cuts + (n,)
        out.append(tuple(pts[i + 1] - pts[i] for i in range(m)))
    return out


def rectangle_top(seq, r, b):
    cut = list(top_cut(seq, r)) + [0] * (r - len(top_cut(seq, r)))
    vals = [v - b for v in cut]
    if any(v < 0 for v in vals):
        return None
    return tuple(vals)


def admissible_cut_data(alpha, lam, r):
    if not admits_horizontal_cut(alpha, lam, r):
        return None
    b = lam[r] if r < len(lam) else 0
    a_top = rectangle_top(alpha, r, b)
    l_top = rectangle_top(lam, r, b)
    if a_top is None or l_top is None:
        return None
    return a_top, wp(l_top)


def suite_padic_roundtrip():
    for p in (3, 5, 7):
        for n in range(13):
            for lam in partitions_of(n):
                digs = p_adic_expansion(lam, p)
                total = ()
                for i, d in enumerate(digs):
                    if d != () and not is_p_restricted(d, p):
                        return f"digit {d} of {lam} is not {p}-restricted"
                    total = pointwise_add(total, scale(p**i, d))
                if wp(total) != lam:
                    return f"round trip fails at {lam}, p={p}"
    return None


def suite_cut_digits():
    for p in (3, 5):
        for n in range(11):
            for lam in partitions_of(n):
                digs = p_adic_expansion(lam, p)
                for r in range(5):
                    bot_digs = p_adic_expansion(wp(bottom_cut(lam, r)), p)
                    for i in range(max(len(digs), len(bot_digs))):
                        di = digs[i] if i < len(digs) else ()
                        bi = bot_digs[i] if i < len(bot_digs) else ()
                        if wp(bottom_cut(di, r)) != bi:
                            return f"bottom digit fails at {lam}, r={r}, p={p}"
                    b = lam[r] if r < len(lam) else 0
                    top = wp(
                        pointwise_sub(top_cut(lam, r), (b,) * min(r, len(lam)))
                    )
                    top_digs = p_adic_expansion(top, p)
                    for i in range(max(len(digs), len(top_digs))):
                        di = digs[i] if i < len(digs) else ()
                        bi = di[r] if r < len(di) else 0
                        want = wp(
                            pointwise_sub(
                                top_cut(di, r), (bi,) * min(r, len(di))
                            )
                        )
                        got = top_digs[i] if i < len(top_digs) else ()
                        if want != got:
                            return f"top digit fails at {lam}, r={r}, p={p}"
    return None


def suite_dominant_block():
    for n in range(1, 9):
        for lam in partitions_of(n):
            for k in range(1, len(lam) + 1):
                lam_k = lam[k - 1]
                for m in range(1, k + 1):
                    for gamma in compositions_into(n, m):
                        if dominates(lam, wp(gamma)):
                            if not all(g >= lam_k for g in gamma):
                                return f"block bound fails at {lam}, {gamma}"
    return None


def suite_mullineux_involution():
    for p in (3, 5):
        for n in range(11):
            for lam in partitions_of(n):
                if not is_p_restricted(lam, p):
                    continue
                img = mullineux(lam, p)
                if not (img == () or is_p_restricted(img, p)):
                    return f"image {img} of {lam} is not restricted, p={p}"
                if sum(img) != n or mullineux(img, p) != lam:
                    return f"involution fails at {lam}, p={p}"
    return None


def suite_order_refinement():
    for n in range(9):
        labels = enumerate_p2p(n, P)
        for x in labels:
            for y in labels:
                if x == y:
                    continue
                a = (x[0], scale(P, x[1]))
                b = (y[0], scale(P, y[1]))
                try:
                    dom = dominates_pair(a, b)
                except ValueError:
                    continue
                if dom and not total_key(x) < total_key(y):
                    return f"order does not refine dominance at {x}, {y}"
                if dom and cmp_total(x, y) != -1:
                    return f"cmp_total disagrees at {x}, {y}"
    return None


def suite_phi_bijection():
    for n in range(7):
        for ab in enumerate_p2(n):
            alpha, beta = ab
            for x in enumerate_p2p(n, P):
                lam, mu = x
                if size(beta) != P * size(mu):
                    continue
                supp = reduction.enumerate_lambda_supp(ab, x, P)
                left = reduction.enumerate_lambda_supp((alpha, ()), (lam, ()), P)
                right = reduction.enumerate_lambda_supp(
                    (beta, ()), (scale(P, mu), ()), P
                )
                if len(supp) != len(left) * len(right):
                    return f"cardinality fails at {ab}, {x}"
                images = set()
                for t in supp:
                    a, b = reduction.phi_split(t, ab, x, P)
                    if a not in left or b not in right:
                        return f"image escapes at {ab}, {x}"
                    images.add((a, b))
                if len(images) != len(supp):
                    return f"split is not injective at {ab}, {x}"
    return None


def suite_iota_injective():
    for n in range(7):
        for ab in enumerate_p2(n):
            alpha, beta = ab
            for x in enumerate_p2p(n, P):
                lam, mu = x
                pmu = scale(P, mu)
                for r in range(len(alpha) + 2):
                    top_a = admissible_cut_data(alpha, lam, r)
                    if top_a is None:
                        continue
                    for s in range(len(beta) + 2):
                        top_b = admissible_cut_data(beta, pmu, s)
                        if top_b is None:
                            continue
                        g1 = reduction.enumerate_lambda_supp(
                            (top_a[0], ()), (top_a[1], ()), P
                        )
                        g2 = reduction.enumerate_lambda_supp(
                            (top_b[0], ()), (top_b[1], ()), P
                        )
                        g3 = reduction.enumerate_lambda_supp(
                            (bottom_cut(alpha, r), bottom_cut(beta, s)),
                            (bottom_cut(lam, r), bottom_cut(mu, s)),
                            P,
                        )
                        g4 = reduction.enumerate_lambda_supp(ab, x, P)
                        images = set()
                        for u in g3:
                            for sv in g1:
                                for tv in g2:
                                    img = reduction.iota_embed(
                                        sv, tv, u, ab, x, r, s, P
                                    )
                                    if img not in g4:
                                        return f"image escapes at {ab}, {x}"
                                    images.add(img)
                        if len(images) != len(g1) * len(g2) * len(g3):
                            return f"embedding collides at {ab}, {x}, r={r}, s={s}"
    return None


def test_criterion_11_property_suites():
    t0 = time.perf_counter()
    suites = {
        "p-adic round trip (n <= 12, p in 3,5,7)": suite_padic_roundtrip,
        "cut digits (n <= 10, r <= 4)": suite_cut_digits,
        "dominant block (n <= 8)": suite_dominant_block,
        "Mullineux involution (n <= 10, p in 3,5)": suite_mullineux_involution,
        "order refines dominance (n <= 8)": suite_order_refinement,
        "phi cardinality (n <= 6)": suite_phi_bijection,
        "iota injectivity (n <= 6)": suite_iota_injective,
    }
    bad = []
    for name, run in suites.items():
        failure = run()
        if failure is not None:
            bad.append(f"{name}: {failure}")
    report(
        11, bad,
        f"{len(suites)} exhaustive combinatorial suites",
        time.perf_counter() - t0, budget=300,
    )
