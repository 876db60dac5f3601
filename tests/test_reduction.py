"""Structural tests for the level-tuple enumeration and the formulas.

Base multiplicities come from DictOracle tables holding a handful of
published values, so everything here checks the combinatorial layer
independently of the module-theoretic engine.
"""

import pytest

from skostka import reduction
from skostka.combinat import (
    check_odd_prime,
    digit,
    dominates,
    dominates_pair,
    enumerate_p2,
    enumerate_p2p,
    is_p_restricted,
    p_adic_expansion,
    partitions_of,
    rho_of,
    scale,
    size,
    wp,
)
from skostka.reduction import (
    enumerate_lambda,
    enumerate_lambda_supp,
    iota_embed,
    kostka,
    mullineux_factor,
    nonzero_witness,
    phi_split,
    principal_part_formula,
    product_formula,
    rowcut_lower_bound,
    sign_twist_label,
    signed_kostka,
    vanishing_check,
)

import sweeps


def steinberg_sum(ab, x, oracle):
    """The reduction sum taken over the full level-tuple set.

    Factors are evaluated as zero on any size or dominance failure; the
    result equals signed_kostka(ab, x), which sums over the supported
    subset only.
    """
    p = oracle.p
    alpha, beta = tuple(ab[0]), tuple(ab[1])
    lam, mu = tuple(x[0]), tuple(x[1])
    counts = rho_of(lam, mu, p)
    lam_digits = p_adic_expansion(lam, p)
    mu_digits = p_adic_expansion(mu, p)
    lam0 = lam_digits[0] if lam_digits else ()

    def base(gd, dd, target):
        if sum(gd) + sum(dd) != size(target):
            return 0
        g, d = wp(gd), wp(dd)
        if not dominates_pair((target, ()), (g, d)):
            return 0
        return oracle.projective_signed((g, d), target)

    def plain(gd, target):
        if sum(gd) != size(target):
            return 0
        g = wp(gd)
        if size(target) and not dominates(target, g):
            return 0
        return oracle.projective_signed((g, ()), target)

    total = 0
    for gam, dlt in enumerate_lambda((alpha, beta), counts, p):
        term = base(gam[0], dlt[0], lam0) if counts else 1
        for i in range(1, len(counts)):
            if term == 0:
                break
            li = lam_digits[i] if i < len(lam_digits) else ()
            mi = mu_digits[i - 1] if i - 1 < len(mu_digits) else ()
            term *= plain(gam[i], li)
            if term:
                term *= plain(dlt[i], mi)
        total += term
    return total


class DictOracle:
    """Oracle backed by an explicit table of base multiplicities.

    values maps ((alpha, beta), lam0) with both sides wp-normalized to an
    integer. Intended for tests against published values.
    """

    def __init__(self, p, values):
        check_odd_prime(p)
        self.p = p
        self.values = dict(values)

    def projective_signed(self, ab, lam0):
        alpha, beta = wp(ab[0]), wp(ab[1])
        lam0 = tuple(lam0)
        if not is_p_restricted(lam0, self.p) and lam0 != ():
            raise ValueError("base label must be p-restricted")
        if size(alpha) + size(beta) != size(lam0):
            return 0
        if not dominates_pair((lam0, ()), (alpha, beta)):
            return 0
        if alpha == lam0 and beta == ():
            return 1
        return self.values[((alpha, beta), lam0)]


def test_empty_lambda_set_is_singleton():
    assert enumerate_lambda(((), ()), (), 3) == [((), ())]


def test_forced_single_tuple():
    assert enumerate_lambda(((1,), ()), (1,), 3) == [(((1,),), ((),))]


def test_lambda_size_mismatch():
    with pytest.raises(ValueError):
        enumerate_lambda(((2,), ()), (1,), 3)
    with pytest.raises(ValueError):
        enumerate_lambda_supp(((2,), ()), ((1,), ()), 3)


def test_example_support_set():
    ab = ((1, 1, 1), (6, 3, 3))
    x = ((2, 2, 1, 1), (2, 1))
    full = enumerate_lambda(ab, rho_of(x[0], x[1], 3), 3)
    supp = enumerate_lambda_supp(ab, x, 3)
    assert len(supp) == 3
    assert all(t in full for t in supp)
    gam = ((1, 1, 1), (0, 0, 0))
    deltas = {
        ((3, 0, 0), (1, 1, 1)),
        ((0, 3, 0), (2, 0, 1)),
        ((0, 0, 3), (2, 1, 0)),
    }
    assert {t[0] for t in supp} == {gam}
    assert {t[1] for t in supp} == deltas


def test_example_value_nine():
    oracle = DictOracle(
        3,
        {
            (((1, 1, 1), (3,)), (2, 2, 1, 1)): 3,
            (((1, 1, 1), ()), (2, 1)): 1,
        },
    )
    assert signed_kostka(((1, 1, 1), (6, 3, 3)), ((2, 2, 1, 1), (2, 1)), oracle) == 9
    assert steinberg_sum(((1, 1, 1), (6, 3, 3)), ((2, 2, 1, 1), (2, 1)), oracle) == 9


def test_empty_zero_digit_forces_empty_level_zero():
    for n in range(7):
        for ab in enumerate_p2(n):
            for lam, mu in enumerate_p2p(n, 3):
                if digit(lam, 3, 0) != ():
                    continue
                for gam, dlt in enumerate_lambda_supp(ab, (lam, mu), 3):
                    if gam:
                        assert not any(gam[0])
                    if dlt:
                        assert not any(dlt[0])


def test_restricted_diagonal_tuple():
    out = enumerate_lambda_supp(((2, 1), ()), ((2, 1), ()), 3)
    assert out == [(((2, 1),), ((),))]


def test_dominance_failure_empties_support():
    assert enumerate_lambda_supp(((3,), ()), ((2, 1), ()), 3) == []
    oracle = DictOracle(3, {})
    assert signed_kostka(((3,), ()), ((2, 1), ()), oracle) == 0
    assert steinberg_sum(((3,), ()), ((2, 1), ()), oracle) == 0


def test_diagonal_is_one_without_table():
    oracle = DictOracle(3, {})
    for n in range(9):
        for lam in partitions_of(n):
            assert kostka(lam, lam, oracle) == 1
    for n in range(7):
        for lam, mu in enumerate_p2p(n, 3):
            assert signed_kostka((lam, scale(3, mu)), (lam, mu), oracle) == 1


def test_unrestricted_column_vanishing():
    oracle = DictOracle(3, {})
    assert signed_kostka(((5, 1), ()), ((6,), ()), oracle) == 0
    assert kostka((1,) * 6, (6,), oracle) == 0
    assert kostka((1,) * 6, (3, 3), oracle) == 0


def test_base_values_pass_through():
    oracle = DictOracle(
        3,
        {
            (((1, 1, 1, 1, 1, 1), ()), (4, 2)): 9,
            (((2, 1, 1, 1, 1), ()), (3, 1, 1, 1)): 3,
        },
    )
    assert kostka((1, 1, 1, 1, 1, 1), (4, 2), oracle) == 9
    assert kostka((2, 1, 1, 1, 1), (3, 1, 1, 1), oracle) == 3


def test_phi_bijection_exhaustive():
    assert sweeps.phi_bijection() is None


def test_phi_requires_matching_sizes():
    with pytest.raises(ValueError):
        phi_split((((),), ((),)), ((), (1,)), ((1,), ()), 3)


def test_iota_injective_exhaustive():
    assert sweeps.iota_injective() is None


def test_iota_identity_at_zero_cuts():
    p = 3
    alpha, beta = (2, 1), (3,)
    lam, mu = (2, 1), (1,)
    g3 = enumerate_lambda_supp((alpha, beta), (lam, mu), p)
    empty = ((), ())
    for u in g3:
        assert iota_embed(empty, empty, u, (alpha, beta), (lam, mu), 0, 0, p) == u


def test_iota_rejects_bad_cut():
    with pytest.raises(ValueError):
        iota_embed(((), ()), ((), ()), (((),), ((),)),
                   ((2, 1), ()), ((3,), ()), 1, 0, 3)


def test_product_formula_trivial_cases():
    oracle = DictOracle(3, {(((1, 1, 1), ()), (2, 1)): 1})
    assert product_formula(((1, 1, 1), (3,)), ((2, 1), (1,)), 0, 0, oracle) == 1
    assert product_formula(((3,), (3,)), ((3,), (1,)), 0, 0, oracle) == 1
    with pytest.raises(ValueError):
        product_formula(((3,), (3,)), ((3, 3), ()), 0, 0, oracle)
    with pytest.raises(ValueError):
        product_formula(((2, 1), (3,)), ((3,), (1,)), 1, 0, oracle)


def test_mullineux_factor_examples():
    oracle = DictOracle(3, {})
    assert mullineux_factor(((3,), (3,)), ((3,), (1,)), oracle) == 1
    for lam in partitions_of(6):
        lam0 = digit(lam, 3, 0)
        if size(lam) - size(lam0) != 3:
            continue
        for alpha in partitions_of(3):
            assert mullineux_factor((alpha, (3,)), (lam, ()), oracle) == 0
    with pytest.raises(ValueError):
        mullineux_factor(((2, 1), (3,)), ((2, 2, 1, 1), ()), oracle)


def test_sign_twist_label_involution():
    p = 3
    for n in range(7):
        for lam, mu in enumerate_p2p(n, p):
            twisted = sign_twist_label((lam, mu), p)
            assert twisted in enumerate_p2p(n, p)
            assert sign_twist_label(twisted, p) == (lam, mu)


def test_principal_part_examples():
    oracle = DictOracle(3, {})
    assert principal_part_formula(((3,), (3,)), 3, oracle) == {((3,), (1,)): 1}
    assert principal_part_formula(((2, 1), (3,)), 3, oracle) == {}
    assert principal_part_formula(((1, 1, 1), (3,)), 3, oracle) == {}
    assert principal_part_formula(((1,) * 6, ()), 3, oracle) == {}
    # no cache keeps a failure: a bad degree or prime raises every time
    for _ in range(2):
        with pytest.raises(ValueError):
            principal_part_formula(((4,), ()), 3, oracle)
        with pytest.raises(ValueError):
            principal_part_formula(((3,), (3,)), 9, oracle)


def test_vanishing_check_examples():
    assert vanishing_check(((2, 1), (3,)), ((6,), ()), 3)
    assert vanishing_check(((), (3, 3)), ((3,), (1,)), 3)
    assert vanishing_check(((3,), (3,)), ((3,), (1,)), 3)
    with pytest.raises(ValueError):
        vanishing_check(((3,), (3,)), ((3, 2, 1), ()), 3)


def test_vanishing_exhaustive_small():
    p = 3
    for n in range(7):
        for ab in enumerate_p2(n):
            for lam, mu in enumerate_p2p(n, p):
                if digit(lam, p, 0) != ():
                    continue
                assert vanishing_check(ab, (lam, mu), p), (ab, lam, mu)


def test_vanishing_check_enumerates(monkeypatch):
    """vanishing_check asks enumerate_lambda_supp even where the size bound
    of signed_kostka already says 0, so the identity it checks is not
    decided by that bound."""
    ab, x = ((3,), (3,)), ((6,), ())
    assert digit(x[0], 3, 0) == () and size(ab[1]) != 3 * size(x[1])
    assert vanishing_check(ab, x, 3)
    dummy = ((((0,),), ((0,),)),)
    monkeypatch.setattr(reduction, "enumerate_lambda_supp", lambda ab, x, p: [dummy])
    assert not vanishing_check(ab, x, 3)


def outside_size_bound(ab, x, p):
    """The early-out condition of signed_kostka: |beta| - p|mu| is not in
    [0, |lam(0)|]."""
    return not 0 <= size(ab[1]) - p * size(x[1]) <= size(digit(x[0], p, 0))


def test_size_bound_only_skips_empty_supports():
    fired = 0
    for p in (3, 5):
        for n in range(10):
            for ab in enumerate_p2(n):
                for x in enumerate_p2p(n, p):
                    if outside_size_bound(ab, x, p):
                        fired += 1
                        assert enumerate_lambda_supp(ab, x, p) == [], (p, ab, x)
    assert fired == 11270


def outside_residue_bound(ab, x, p):
    """The second early-out of signed_kostka: the residues mod p of beta,
    or of alpha, sum to more than |dlt^(0)| = |beta| - p|mu|, or than
    |gam^(0)| = |lam(0)| - |dlt^(0)|."""
    d0 = size(ab[1]) - p * size(x[1])
    g0 = size(digit(x[0], p, 0)) - d0
    return sum(v % p for v in ab[1]) > d0 or sum(v % p for v in ab[0]) > g0


def test_residue_bound_only_skips_empty_supports():
    fired = 0
    for p in (3, 5):
        for n in range(10):
            for ab in enumerate_p2(n):
                for x in enumerate_p2p(n, p):
                    if x[1] == () and is_p_restricted(x[0], p):
                        continue
                    if outside_size_bound(ab, x, p):
                        continue
                    if outside_residue_bound(ab, x, p):
                        fired += 1
                        assert enumerate_lambda_supp(ab, x, p) == [], (p, ab, x)
    assert fired == 5548


class PositiveOracle:
    """Every base multiplicity is positive, so a nonempty supported set
    always gives a positive sum."""

    def __init__(self, p):
        self.p = p

    def projective_signed(self, ab, lam0):
        return 1 + len(ab[0]) + 2 * len(ab[1]) + size(lam0)


def support_sum(ab, x, oracle):
    """signed_kostka's sum over enumerate_lambda_supp, with no size bound."""
    p = oracle.p
    lam, mu = x
    if mu == () and is_p_restricted(lam, p):
        return oracle.projective_signed(ab, lam)
    lam_digits = p_adic_expansion(lam, p)
    mu_digits = p_adic_expansion(mu, p)
    total = 0
    for gam, dlt in enumerate_lambda_supp(ab, x, p):
        term = oracle.projective_signed((wp(gam[0]), wp(dlt[0])), digit(lam, p, 0))
        for i in range(1, len(gam)):
            li = lam_digits[i] if i < len(lam_digits) else ()
            mi = mu_digits[i - 1] if i - 1 < len(mu_digits) else ()
            term *= oracle.projective_signed((wp(gam[i]), ()), li)
            term *= oracle.projective_signed((wp(dlt[i]), ()), mi)
        total += term
    return total


def test_signed_kostka_is_the_support_sum():
    oracle = PositiveOracle(3)
    nonzero = 0
    for n in range(8):
        for ab in enumerate_p2(n):
            for x in enumerate_p2p(n, 3):
                want = support_sum(ab, x, oracle)
                assert signed_kostka(ab, x, oracle) == want, (ab, x)
                nonzero += want != 0
    assert nonzero > 0


@pytest.mark.parametrize(
    "ab, x, p",
    [
        (((2, -1), (1,)), ((2,), ()), 3),  # a negative entry
        (((2, 1), (1,)), ((2, 1), ()), 3),  # a size mismatch
        (((2, 1), (1,)), ((1, 3), ()), 3),  # lam is not a partition
        (((2, 1), (1,)), ((0, 1), (1,)), 3),  # nor here, with mu nonempty
        (((2, 1), (1,)), ((1,), (0, 1)), 3),  # mu is not a partition
        (((2,), (2,)), ((1, 1, 1, 1), ()), 2),  # p = 2
    ],
)
def test_bad_input_raises_on_every_call(ab, x, p):
    # the row and label tables are lru_caches, which store no exception
    oracle = PositiveOracle(p)
    for _ in range(2):
        with pytest.raises(ValueError):
            signed_kostka(ab, x, oracle)


def scrambled(seq):
    """seq reversed with zeros spliced in, so wp(scrambled(seq)) == seq."""
    out = [0]
    for v in reversed(seq):
        out += [v, 0]
    return tuple(out)


def test_unnormalised_rows_match_normalised_rows():
    cold, warm = PositiveOracle(3), PositiveOracle(3)
    for n in range(7):
        for alpha, beta in enumerate_p2(n):
            raw = (scrambled(alpha), list(scrambled(beta)))
            for x in enumerate_p2p(n, 3):
                want = signed_kostka((alpha, beta), x, warm)
                assert signed_kostka(raw, x, cold) == want, (alpha, beta, x)
                assert signed_kostka(raw, x, warm) == want, (alpha, beta, x)


def memo_size(oracle):
    return len(vars(oracle).get("_skostka_memo", {}))


def test_bounded_zeros_add_no_memo_entry():
    """An entry that the size or residue bound zeroes adds nothing to the
    memo and every other entry adds its value; a warm pass returns what
    the cold pass did and adds nothing. Degree <= 9 at p = 3 and 5."""
    for p in (3, 5):
        oracle, cold = PositiveOracle(p), {}
        for n in range(10):
            for ab in enumerate_p2(n):
                for x in enumerate_p2p(n, p):
                    before = memo_size(oracle)
                    cold[ab, x] = signed_kostka(ab, x, oracle)
                    base = x[1] == () and is_p_restricted(x[0], p)
                    bounded = not base and (
                        outside_size_bound(ab, x, p) or outside_residue_bound(ab, x, p)
                    )
                    assert memo_size(oracle) - before == (not bounded), (p, ab, x)
                    assert not bounded or cold[ab, x] == 0, (p, ab, x)
        before = memo_size(oracle)
        for (ab, x), want in cold.items():
            assert signed_kostka(ab, x, oracle) == want, (p, ab, x)
        assert memo_size(oracle) == before


def test_nonzero_witness_matches_support():
    p = 3
    for n in range(7):
        for alpha, beta in enumerate_p2(n):
            for lam, mu in enumerate_p2p(n, p):
                if size(beta) != p * size(mu):
                    continue
                has = bool(enumerate_lambda_supp((alpha, beta), (lam, mu), p))
                assert nonzero_witness((alpha, beta), (lam, mu), p) == has


def test_rowcut_zero_cut_matches_split():
    oracle = DictOracle(
        3,
        {
            (((1, 1, 1), ()), (2, 1)): 1,
        },
    )
    val = rowcut_lower_bound(((1, 1, 1), (3,)), ((2, 1), (1,)), 0, 0, oracle)
    assert val == signed_kostka(((1, 1, 1), (3,)), ((2, 1), (1,)), oracle) == 1
