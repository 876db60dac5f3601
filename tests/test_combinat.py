import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skostka.combinat import (
    admits_horizontal_cut,
    bottom_cut,
    check_odd_prime,
    conjugate,
    digit,
    dominates,
    dominates_pair,
    enumerate_p2,
    enumerate_p2p,
    is_p_regular,
    is_p_restricted,
    is_partition,
    mullineux,
    p_adic_expansion,
    partitions_of,
    pointwise_add,
    pointwise_sub,
    rho_of,
    scale,
    top_cut,
    total_key,
    wp,
)

import sweeps

# --- independent oracles ----------------------------------------------------


def padic_families_bruteforce(lam, p):
    """Every family of p-restricted digits summing to lam, by exhaustion."""
    n = sum(lam)
    if n == 0:
        return [()]
    levels = []
    i = 0
    while p**i <= n:
        levels.append(p**i)
        i += 1
    families = []

    def rec(level, remaining_sizes, chosen):
        if level == len(levels):
            total = ()
            for i, d in enumerate(chosen):
                total = pointwise_add(total, scale(p**i, d))
            if wp(total) == tuple(lam):
                families.append(tuple(chosen))
            return
        for s in range(n // levels[level] + 1):
            for d in partitions_of(s):
                if is_p_restricted(d, p):
                    rec(level + 1, remaining_sizes, chosen + [d])

    rec(0, n, [])
    return families


def rim_hooks(lam, p):
    """All partitions obtained from lam by removing one rim p-hook."""
    out = []
    L = len(lam)
    beta = [lam[i] + (L - 1 - i) for i in range(L)]
    for i, b in enumerate(beta):
        if b - p >= 0 and (b - p) not in beta:
            nb = sorted(beta[:i] + [b - p] + beta[i + 1 :], reverse=True)
            mu = wp([nb[j] - (L - 1 - j) for j in range(L)])
            out.append(mu)
    return out


def p_core_bruteforce(lam, p):
    cur = tuple(lam)
    while True:
        nxt = rim_hooks(cur, p)
        if not nxt:
            return cur
        cur = nxt[0]


# --- basic ops ---------------------------------------------------------------


def test_wp_and_concat():
    assert wp((0, 3, 1, 3)) == (3, 3, 1)
    assert wp(()) == ()
    # a # b, the juxtaposition of two partitions, re-sorted
    assert wp((3, 1) + (2, 2)) == (3, 2, 2, 1)
    with pytest.raises(ValueError):
        wp((1, -1))


def test_pointwise():
    assert pointwise_add((2, 1), (1, 1, 1)) == (3, 2, 1)
    assert pointwise_sub((3, 2, 1), (1, 1)) == (2, 1, 1)
    with pytest.raises(ValueError):
        pointwise_sub((1,), (2,))


def test_conjugate():
    assert conjugate((4, 2)) == (2, 2, 1, 1)
    assert conjugate(()) == ()
    for lam in partitions_of(7):
        assert conjugate(conjugate(lam)) == lam


def test_dominates_examples():
    assert dominates((4, 2), (3, 3))
    assert not dominates((3, 3), (4, 2))
    assert dominates((2, 2, 1, 1), (2, 2, 1, 1))
    with pytest.raises(ValueError):
        dominates((3,), (2, 2))


def test_dominates_pair_examples():
    # ((2,2,1,1)|()) dominates ((1,1,1)|(3)) : conditions (a) and (b)
    assert dominates_pair(((2, 2, 1, 1), ()), ((1, 1, 1), (3,)))
    assert not dominates_pair(((1, 1, 1), (3,)), ((2, 2, 1, 1), ()))
    with pytest.raises(ValueError):
        dominates_pair(((2,), ()), ((2, 1), ()))


def test_dominance_vs_dictionary():
    for n in range(2, 9):
        for a in partitions_of(n):
            for b in partitions_of(n):
                if dominates(a, b) and a != b:
                    assert a > b  # dictionary order refines dominance


# --- p-adic expansion --------------------------------------------------------


def test_padic_fixed_examples():
    assert p_adic_expansion((2, 2, 1, 1), 3) == [(2, 2, 1, 1)]
    assert p_adic_expansion((6, 3), 3) == [(), (2, 1)]
    assert p_adic_expansion((4, 1, 1), 3) == [(1, 1, 1), (1,)]
    assert p_adic_expansion((), 3) == []
    assert digit((6,), 3, 0) == ()
    assert digit((6,), 3, 1) == (2,)
    assert digit((6,), 3, 5) == ()


def test_p_adic_expansion_returns_a_new_list():
    digs = p_adic_expansion((4, 1, 1), 3)
    digs[0] = ()
    digs.append((7,))
    assert p_adic_expansion((4, 1, 1), 3) == [(1, 1, 1), (1,)]
    assert p_adic_expansion([4, 1, 1], 3) == [(1, 1, 1), (1,)]
    # the input checks run on every call, not once per key
    with pytest.raises(ValueError):
        p_adic_expansion((4, 1, 1), 9)
    with pytest.raises(ValueError):
        p_adic_expansion((1, 4, 1), 3)


def test_padic_uniqueness_bruteforce():
    for n in range(0, 9):
        for lam in partitions_of(n):
            fams = padic_families_bruteforce(lam, 3)
            assert len(fams) == 1, (lam, fams)
            digs = p_adic_expansion(lam, 3)
            got = tuple(digs) + ((),) * (len(fams[0]) - len(digs))
            assert got == fams[0]


def test_padic_roundtrip_exhaustive():
    assert sweeps.padic_roundtrip() is None


def test_restricted_reading():
    # standard reading: consecutive differences bounded by p-1
    assert is_p_restricted((2, 2, 1, 1), 3)
    assert not is_p_restricted((3, 3), 3)
    assert not is_p_restricted((6,), 3)
    assert is_p_restricted((3, 1, 1, 1), 3)
    assert is_p_restricted((), 3)


def test_rho_of():
    assert rho_of((2, 2, 1, 1), (2, 1), 3) == (6, 3)
    assert rho_of((6,), (), 3) == (0, 2)
    assert rho_of((), (), 3) == ()


# --- cuts --------------------------------------------------------------------


def test_cuts():
    assert top_cut((5, 3, 1), 2) == (5, 3)
    assert bottom_cut((5, 3, 1), 2) == (1,)
    assert top_cut((5, 3, 1), 0) == ()
    assert bottom_cut((5, 3, 1), 0) == (5, 3, 1)
    assert top_cut((2, 1), 4) == (2, 1)
    assert bottom_cut((2, 1), 4) == ()
    assert admits_horizontal_cut((4, 2), (4, 1, 1), 1)
    assert not admits_horizontal_cut((4, 2), (3, 3), 1)
    with pytest.raises(ValueError):
        top_cut((2, 1), -1)


def test_digit_cut_lemma():
    assert sweeps.cut_digits() is None


def test_dominant_block_lemma():
    assert sweeps.dominant_block() is None


# --- p-core ------------------------------------------------------------------


def test_core_vs_digit_predicate_disagree():
    # (4,1,1) at p=3: empty 3-core but nonempty zeroth digit
    lam = (4, 1, 1)
    assert p_core_bruteforce(lam, 3) == ()
    assert digit(lam, 3, 0) == (1, 1, 1) != ()


# --- Mullineux ---------------------------------------------------------------


def test_mullineux_fixed_values():
    assert mullineux((), 3) == ()
    assert mullineux((1,), 3) == (1,)
    assert mullineux((2,), 3) == (1, 1)
    assert mullineux((1, 1), 3) == (2,)
    assert mullineux((2, 1), 3) == (1, 1, 1)
    assert mullineux((1, 1, 1), 3) == (2, 1)
    assert mullineux((4, 2), 3) == (2, 2, 1, 1)
    assert mullineux((2, 2, 1, 1), 3) == (4, 2)


def test_mullineux_rejects_unrestricted():
    with pytest.raises(ValueError):
        mullineux((3,), 3)
    with pytest.raises(ValueError):
        mullineux((6, 3), 3)


def test_mullineux_involution():
    assert sweeps.mullineux_involution() is None


def test_mullineux_large_p_is_conjugation():
    for p, nmax in ((7, 6), (11, 10)):
        for n in range(0, nmax + 1):
            for lam in partitions_of(n):
                if is_p_restricted(lam, p):
                    assert mullineux(lam, p) == conjugate(lam)


def test_p_regular():
    assert is_p_regular((2, 2), 3)
    assert not is_p_regular((1, 1, 1), 3)


# --- enumeration and the total order ----------------------------------------


def test_partitions_of_order():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert partitions_of(0) == ((),)
    assert len(partitions_of(12)) == 77


def test_enumerate_p2p_published_order():
    # row order of the published n=6, p=3 matrix
    want = [
        ((6,), ()),
        ((5, 1), ()),
        ((4, 2), ()),
        ((4, 1, 1), ()),
        ((3, 3), ()),
        ((3, 2, 1), ()),
        ((3, 1, 1, 1), ()),
        ((2, 2, 2), ()),
        ((2, 2, 1, 1), ()),
        ((2, 1, 1, 1, 1), ()),
        ((1, 1, 1, 1, 1, 1), ()),
        ((3,), (1,)),
        ((2, 1), (1,)),
        ((1, 1, 1), (1,)),
        ((), (2,)),
        ((), (1, 1)),
    ]
    assert enumerate_p2p(6, 3) == want


def test_enumerate_p2p_sizes():
    assert len(enumerate_p2p(6, 5)) == 12
    assert len(enumerate_p2p(8, 3)) == 22 + 7 + 4
    assert enumerate_p2p(0, 3) == [((), ())]


def test_enumerate_p2p_returns_a_new_list():
    labels = enumerate_p2p(6, 3)
    want = list(labels)
    labels.reverse()
    labels.append(None)
    assert enumerate_p2p(6, 3) == want


def test_prime_checks_remember_only_good_primes():
    """check_odd_prime and enumerate_p2p cache their answers, but a bad p
    raises on every call, also after a good one."""
    check_odd_prime(3)
    enumerate_p2p(6, 3)
    for _ in range(2):
        for bad in (9, 2, 1):
            with pytest.raises(ValueError):
                check_odd_prime(bad)
            with pytest.raises(ValueError):
                enumerate_p2p(6, bad)


def test_enumerate_p2():
    pairs = enumerate_p2(6)
    assert len(pairs) == 65
    assert len(set(pairs)) == 65
    assert all(sum(a) + sum(b) == 6 for a, b in pairs)
    assert pairs[0] == ((6,), ())
    pairs2 = enumerate_p2(2)
    assert pairs2 == [((2,), ()), ((1, 1), ()), ((1,), (1,)), ((), (2,)), ((), (1, 1))]


def test_total_order_refines_dominance():
    assert sweeps.order_refinement() is None


def test_total_key_order():
    assert total_key(((6,), ())) < total_key(((5, 1), ()))
    assert total_key(((), (2,))) < total_key(((), (1, 1)))
    assert total_key(((3,), (1,))) == total_key(((3,), (1,)))
    assert total_key(((), (1, 1))) > total_key(((1, 1, 1), (1,)))


# --- hypothesis properties --------------------------------------------------

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def partitions(max_part=12, max_len=12):
    """Partitions as sorted lists of positive parts."""
    return st.lists(st.integers(1, max_part), max_size=max_len).map(
        lambda parts: tuple(sorted(parts, reverse=True))
    )


@PROPERTY
@given(lam=partitions(max_part=60, max_len=20), p=st.sampled_from([3, 5, 7, 11]))
def test_p_adic_digits_recombine_and_are_restricted(lam, p):
    digs = p_adic_expansion(lam, p)
    total = ()
    for i, d in enumerate(digs):
        assert is_partition(d) and is_p_restricted(d, p)
        total = pointwise_add(total, scale(p**i, d))
    assert wp(total) == lam
    # trailing empty digits are trimmed
    assert not digs or digs[-1] != ()


@PROPERTY
@given(
    mu=partitions(max_part=7, max_len=7).filter(lambda mu: sum(mu) <= 16),
    p=st.sampled_from([3, 5]),
)
def test_mullineux_involution_on_p_regular(mu, p):
    """On a p-regular mu the map, carried over by conjugation, returns
    mu after two steps and keeps its size; on the p-restricted conjugate
    the public map does the same."""
    # keep at most p - 1 copies of each part: a p-regular partition
    mu = tuple(sorted(
        (v for v in set(mu) for _ in range(min(mu.count(v), p - 1))), reverse=True
    ))
    lam = conjugate(mu)
    img = mullineux(lam, p)
    assert sum(img) == sum(lam)
    assert is_p_restricted(img, p)
    assert mullineux(img, p) == lam
    reg = conjugate(img)
    assert is_p_regular(reg, p) and sum(reg) == sum(mu)
    assert conjugate(mullineux(conjugate(reg), p)) == mu


@PROPERTY
@given(
    a=partitions(max_part=6, max_len=10),
    b=partitions(max_part=6, max_len=10),
    mu=partitions(max_part=3, max_len=3),
)
def test_dominance_implies_total_order(a, b, mu):
    """A label dominating another of the same size and mu comes first in
    the total order."""
    if sum(a) != sum(b):
        # move the difference onto the first part of the smaller one
        d = sum(a) - sum(b)
        if d > 0:
            b = ((b[0] if b else 0) + d,) + b[1:]
        else:
            a = ((a[0] if a else 0) - d,) + a[1:]
    if a != b and dominates(a, b):
        assert total_key((a, mu)) < total_key((b, mu))
    if a != b and dominates(b, a):
        assert total_key((b, mu)) < total_key((a, mu))
