"""Acceptance gate: one numbered check per shipped guarantee.

Each test prints a single "criterion N: PASS/FAIL" line (run with
pytest -s to see them all; a failing criterion shows its line plus the
offending cases).  Checks with a runtime budget fail when the budget is
exceeded even if every value is correct.

Criteria 1, 2 and 4-10 run the shared checks of skostka.checks, the
code behind `skostka verify`, over wider scopes; criterion 11 runs the
exhaustive sweeps of tests/sweeps.py, which tier-1 tests also call. The
direct engine instances are the ones the command line uses, so the
expensive degree-6 registries are built once and shared across checks.
"""

import functools
import json
import time
from collections import Counter

from skostka import checks, cli, reduction
from skostka.combinat import enumerate_p2, enumerate_p2p

import sweeps

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


def short(counts, **floors):
    """The kinds that examined fewer cases than their floor."""
    return [f"{counts[k]} {k} cases, wanted {v}" for k, v in floors.items()
            if counts[k] < v]


# --- 1: the packaged reference matrix ----------------------------------------


def test_criterion_01_reference_matrix(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "kpm.json"
    argv = "matrix --n 6 --p 3 --signed --engine direct --format json".split()
    code = cli.main(argv + ["--cache-dir", str(tmp_path), "--out", str(out)])
    got = json.loads(out.read_text())
    bad = [f"exit code {code}"] if code else []
    records = checks.fixtures(cli.load_fixture(), got["labels"], got["matrix"])
    report(
        1, bad + failing(records),
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
    records = checks.blocks(6, P, engine()) + checks.vertices(6, P, engine())
    report(
        4, failing(records),
        "signed matrix at degree 6 is lower unitriangular with diagonal "
        "blocks K6, K3, K2 (x) K0, and each class's Brauer quotients "
        "match its label's vertex",
        time.perf_counter() - t0,
    )


# --- 5: sign-twist, factor, witness and principal-part identities -----------


@functools.cache
def identity_records():
    """checks.identities on every degree-6 pair and label, shared by
    criteria 5 and 6."""
    return checks.identities(enumerate_p2(6), enumerate_p2p(6, P), P, engine())


def test_criterion_05_product_and_factor_formulas():
    # the product formula is compared in the row-cut loop, criterion 7
    t0 = time.perf_counter()
    records = [r for r in identity_records() if "vanishing" not in r.counts]
    counts = tally(records)
    bad = short(counts, twist=1040, factor=170, witness=170, principal=65)
    detail = ", ".join(f"{v} {k} checks" for k, v in sorted(counts.items()))
    report(5, bad + failing(records), detail, time.perf_counter() - t0)


# --- 6: vanishing off the matching size ---------------------------------------


def test_criterion_06_vanishing():
    t0 = time.perf_counter()
    records = [r for r in identity_records() if "vanishing" in r.counts]
    counts = tally(records)
    report(
        6, short(counts, vanishing=272) + failing(records),
        f"both engines vanish on {counts['vanishing']} "
        f"empty-zeroth-digit cases with |beta| != p|mu|",
        time.perf_counter() - t0,
    )


# --- 7: row cuts bound from below, and the product formula -------------------


def test_criterion_07_row_cut_inequality():
    t0 = time.perf_counter()
    records = checks.rowcut(enumerate_p2(6), enumerate_p2p(6, P), P, engine())
    counts = tally(records)
    report(
        7, short(counts, bound=6676, product=5469) + failing(records),
        f"rowcut_lower_bound <= value on {counts['bound']} admissible cuts; "
        f"it and the product formula equal it on the {counts['product']} "
        f"split cases",
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
    records = checks.blocks(6, 5, eng) + checks.vertices(6, 5, eng)
    records += checks.cross_engine(enumerate_p2(6), labels, eng)
    report(
        10, bad + failing(records),
        "p=5 matrix is unitriangular with blocks K6, K1, each class's "
        "Brauer quotients match its label's vertex, and the engines "
        "agree on every degree-6 entry",
        time.perf_counter() - t0,
    )


# --- 11: exhaustive property suites ----------------------------------------------


def regular_module_degree_eight():
    return sweeps.regular_module(((3, 8, 8), (5, 8, 8), (7, 8, 8)))


def test_criterion_11_property_suites():
    t0 = time.perf_counter()
    suites = (
        sweeps.padic_roundtrip,
        sweeps.cut_digits,
        sweeps.dominant_block,
        sweeps.mullineux_involution,
        sweeps.order_refinement,
        sweeps.phi_bijection,
        sweeps.iota_injective,
        regular_module_degree_eight,
    )
    bad = [f"{run.__name__}: {failure}" for run in suites if (failure := run())]
    report(
        11, bad,
        f"{len(suites)} exhaustive suites, the regular module at degree 8 "
        "against Specht Gram ranks included",
        time.perf_counter() - t0, budget=300,
    )
