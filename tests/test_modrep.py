"""Tests for the module-theoretic decomposition engine."""

import functools
import random
import types
from math import factorial, gcd

import numpy as np
import pytest

from skostka import checks, cli, gfp, modrep, reduction, tabx
from skostka.combinat import (
    enumerate_p2,
    enumerate_p2p,
    is_p_restricted,
    label_rows,
    sign_twist_label,
    total_key,
    wp,
)

import sweeps
from test_hom_oracle import dense_element

P = 3


def engine(p=P):
    """The CLI's seed-0 engine, so the test files share one registry sweep."""
    return cli.direct_engine(p)


def generator_matrix(m, i):
    """The dense matrix of generator i acting on the basis words of m."""
    a = np.zeros((m.dim, m.dim), dtype=np.int64)
    a[m.perms[i], np.arange(m.dim)] = m.signs[i] % m.p
    return a


# ---------------------------------------------------------------------------
# module construction


def test_module_dimensions():
    assert modrep.module_dimension(((2, 1), (3,))) == 60
    assert modrep.build_module(((2, 1), (3,)), P).dim == 60
    for n in range(1, 5):
        m = modrep.build_module(((1,) * n, ()), P)
        assert m.dim == factorial(n)
    assert modrep.build_module(((6,), ()), P).dim == 1
    m = modrep.build_module(((), ()), P)
    assert m.dim == 1 and m.n == 0


def test_sign_conventions():
    # two positions of one c-part swap to the same word with sign +1,
    # two positions of one d-part with sign -1, distinct parts just swap
    m = modrep.build_module(((2,), (2,)), P)
    words = list(m.words)
    j = words.index((0, 0, 1, 1))
    assert m.perms[0][j] == j and m.signs[0][j] == 1
    assert m.perms[2][j] == j and m.signs[2][j] == -1
    k = m.perms[1][j]
    assert words[k] == (0, 1, 0, 1) and m.signs[1][j] == 1


def test_same_d_block_transposition_negates():
    m = modrep.build_module(((), (3,)), P)
    assert m.dim == 1
    for i in range(2):
        a = generator_matrix(m, i)
        assert a.tolist() == [[P - 1]]


def test_generator_relations_exhaustive():
    def compose(m, a, b):
        return modrep._compose_words(a[0], a[1], b[0], b[1])

    for n in range(2, 5):
        for ab in enumerate_p2(n):
            m = modrep.build_module(ab, P)
            gens = [(m.perms[i], m.signs[i]) for i in range(n - 1)]
            for i, g in enumerate(gens):
                sq = compose(m, g, g)
                assert (sq[0] == np.arange(m.dim)).all()
                assert (sq[1] % P == 1).all()
            for i in range(n - 2):
                lhs = compose(m, gens[i], compose(m, gens[i + 1], gens[i]))
                rhs = compose(m, gens[i + 1], compose(m, gens[i], gens[i + 1]))
                assert (lhs[0] == rhs[0]).all()
                assert ((lhs[1] - rhs[1]) % P == 0).all()
            for i in range(n - 1):
                for j in range(i + 2, n - 1):
                    lhs = compose(m, gens[i], gens[j])
                    rhs = compose(m, gens[j], gens[i])
                    assert (lhs[0] == rhs[0]).all()
                    assert ((lhs[1] - rhs[1]) % P == 0).all()


def test_generator_matrix_matches_word_encoding():
    m = modrep.build_module(((2, 1), (1,)), P)
    for i in range(m.n - 1):
        a = generator_matrix(m, i)
        for j in range(m.dim):
            col = np.zeros(m.dim, dtype=np.int64)
            col[m.perms[i][j]] = m.signs[i][j] % P
            assert (a[:, j] == col).all()


def test_dimension_cap():
    # M(1^7) has dimension 5040, over the cap, and is refused before any
    # basis word is built; the message names the module, its dimension
    # and the cap
    with pytest.raises(modrep.DimensionCapError) as info:
        modrep.build_module(((1,) * 7, ()), P)
    msg = str(info.value)
    assert "M((1, 1, 1, 1, 1, 1, 1), ())" in msg
    assert "5040" in msg and str(modrep.DIM_CAP) in msg


def test_even_prime_rejected():
    with pytest.raises(ValueError):
        modrep.build_module(((1, 1), ()), 2)
    with pytest.raises(ValueError):
        modrep.DirectEngine(2)


def test_prime_above_cap_refused():
    """Products of inner dimension DIM_CAP stay exact in float64 exactly
    up to PRIME_CAP; a larger prime is refused before any work."""
    from sympy import nextprime, prevprime

    cap = modrep.PRIME_CAP
    assert modrep.DIM_CAP * (cap - 1) ** 2 < 2**53 <= modrep.DIM_CAP * cap**2
    assert (cap - 1) * cap**2 < 2**63
    largest = prevprime(cap + 1)
    # the float64 rung at the largest prime: semisimple, so M(2,1) is
    # the sum of its two Specht modules
    assert gfp.product_dtype(3, largest) is np.float64
    assert modrep.DirectEngine(largest).decompose(((2, 1), ())) == {
        ((3,), ()): 1,
        ((2, 1), ()): 1,
    }
    small = modrep.build_module(((1, 1), ()), P)
    for p in (nextprime(cap), 1000000007):
        with pytest.raises(ValueError, match="exact range"):
            modrep.DirectEngine(p)
        with pytest.raises(ValueError, match="exact range"):
            modrep.build_module(((1, 1), ()), p)
        with pytest.raises(ValueError, match="exact range"):
            modrep.assemble_matrix(2, p)
        forged = modrep.SignedPermModule(
            small.ab, p, small.words, small.perms, small.signs
        )
        with pytest.raises(ValueError, match="exact range"):
            modrep.modules_isomorphic(forged, forged)


# ---------------------------------------------------------------------------
# hom spaces


def test_hom_dimension_fixtures():
    m11 = modrep.build_module(((1, 1), ()), P)
    m20 = modrep.build_module(((2,), ()), P)
    md = modrep.build_module(((1,), (1,)), P)
    assert modrep.HomBasis(m11, m11).num == 2
    assert modrep.HomBasis(m11, m20).num == 1
    assert modrep.HomBasis(md, md).num == 2


def test_hom_basis_elements_intertwine():
    m = modrep.build_module(((2, 1), ()), P)
    n_mod = modrep.build_module(((1, 1), (1,)), P)
    hom = modrep.HomBasis(m, n_mod)
    assert hom.num
    for e in np.eye(hom.num, dtype=np.int64):
        x = dense_element(hom, e, P)
        for g in range(m.n - 1):
            a = generator_matrix(m, g)
            b = generator_matrix(n_mod, g)
            assert (gfp.matmul(x, a, P) == gfp.matmul(b, x, P)).all()


def mackey_hom_dim(ab, cd):
    """Independent Hom dimension count via double-coset matrices.

    Counts nonnegative integer matrices with typed row margins from ab
    and typed column margins from cd, where any cell pairing a c-part
    with a d-part may hold at most 1. Each such matrix is one surviving
    orbit of basis-vector pairs.
    """
    rows = [(s, 0) for s in ab[0]] + [(s, 1) for s in ab[1]]
    cols = [(s, 0) for s in cd[0]] + [(s, 1) for s in cd[1]]
    memo = {}

    def fill_row(i, rem):
        if i == len(rows):
            return 1 if not any(rem) else 0
        key = (i, rem)
        if key in memo:
            return memo[key]
        target, rtype = rows[i]

        def cells(j, left, rem_list):
            if j == len(cols):
                return fill_row(i + 1, tuple(rem_list)) if left == 0 else 0
            total = 0
            cap = min(left, rem_list[j])
            if rtype != cols[j][1]:
                cap = min(cap, 1)
            for v in range(cap + 1):
                rem_list[j] -= v
                total += cells(j + 1, left - v, rem_list)
                rem_list[j] += v
            return total

        out = cells(0, target, list(rem))
        memo[key] = out
        return out

    return fill_row(0, tuple(s for s, _ in cols))


def test_hom_dim_against_double_coset_count():
    for n in range(0, 5):
        mods = {ab: modrep.build_module(ab, P) for ab in enumerate_p2(n)}
        for ab, m in mods.items():
            for cd, n_mod in mods.items():
                want = mackey_hom_dim(ab, cd)
                assert modrep.HomBasis(m, n_mod).num == want, (ab, cd)
    picks = [(((3, 1), (1,)), ((2, 1), (2,))), (((2, 2), (1,)), ((1, 1, 1), (2,)))]
    for ab, cd in picks:
        m = modrep.build_module(ab, P)
        n_mod = modrep.build_module(cd, P)
        assert modrep.HomBasis(m, n_mod).num == mackey_hom_dim(ab, cd)


def hom_dim_kernel(m, n_mod):
    """Hom dimension by the naive commutant linear system.

    Independent of the orbit bookkeeping: intersects, generator by
    generator, the coefficient kernels of X -> B_g X - X A_g on the
    running solution basis. Quadratic memory in dim m * dim n_mod, so
    meant for small cross-checks only.
    """
    p = m.p
    da, db = m.dim, n_mod.dim
    basis = np.eye(da * db, dtype=np.int64)
    for g in range(len(m.perms)):
        a_g, b_g = generator_matrix(m, g), generator_matrix(n_mod, g)
        mats = basis.reshape(-1, db, da)
        images = np.stack(
            [(gfp.matmul(b_g, x, p) - gfp.matmul(x, a_g, p)) % p for x in mats]
        ).reshape(len(basis), -1)
        null = gfp.nullspace(images.T, p)
        if len(null) == 0:
            return 0
        basis = gfp.matmul(null, basis, p)
    return len(basis)


def test_hom_dim_against_naive_kernel():
    pairs = [
        (((2, 1), ()), ((2, 1), ())),
        (((2, 1), ()), ((1, 1, 1), ())),
        (((1, 1), (1,)), ((1,), (2,))),
        (((2,), (2,)), ((2,), (2,))),
        (((1, 1), (2,)), ((2, 1), (1,))),
    ]
    for ab, cd in pairs:
        m = modrep.build_module(ab, P)
        n_mod = modrep.build_module(cd, P)
        assert modrep.HomBasis(m, n_mod).num == hom_dim_kernel(m, n_mod)


def test_orbit_keys_fit_int64_within_cap():
    """Every pair of modules of one degree <= 10 within DIM_CAP keys its
    Hom orbits below 2^63; the largest key range is End(M(4,1^4)), five
    colours whose table entries are below 5."""
    largest, cap = 0, modrep.DIM_CAP
    for n in range(11):
        mods = [ab for ab in enumerate_p2(n) if modrep.module_dimension(ab) <= cap]
        for ab in mods:
            for cd in mods:
                base, digits = modrep._key_digits(ab, cd)
                largest = max(largest, base**digits)
    assert largest == 5**25 < 2**63


def test_orbit_key_overflow_raises(monkeypatch):
    """Past the cap, M(5,1^4) would key End with 25 digits in base 6,
    beyond int64: the labelling raises instead of wrapping."""
    monkeypatch.setattr(modrep, "DIM_CAP", 3024)
    m = modrep.build_module(((5, 1, 1, 1, 1), ()), P)
    assert modrep._key_digits(m.ab, m.ab) == (6, 25) and 6**25 >= 2**63
    with pytest.raises(OverflowError, match="beyond int64"):
        modrep.HomBasis(m, m)


# ---------------------------------------------------------------------------
# minimal polynomials and factorization


def test_matrix_minpoly():
    z = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 2]], dtype=np.int64)
    m = modrep.matrix_minpoly(z, [0, 1, 1], P)
    # (x-1)^2 (x-2) = x^3 - 4x^2 + 5x - 2 = x^3 + 2x^2 + 2x + 1 mod 3
    assert m == [1, 2, 2, 1]
    factors = modrep._factor_poly(m, P)
    assert sorted((len(f) - 1, mult) for f, mult in factors) == [(1, 1), (1, 2)]
    # only the Krylov space of the start: e_0 is an eigenvector, 0 has none
    assert modrep.matrix_minpoly(z, [1, 0, 0], P) == [2, 1]
    assert modrep.matrix_minpoly(z, [0, 0, 0], P) == [1]
    nil = np.zeros((4, 4), dtype=np.int64)
    nil[0, 1] = nil[1, 2] = 1
    m2 = modrep.matrix_minpoly(nil, [0, 0, 1, 0], P)
    assert m2 == [0, 0, 0, 1]


# ---------------------------------------------------------------------------
# Fitting leaves


def fitting_leaves(ab, p, seed=0):
    """(module, leaves of decompose_summands) for M(ab)."""
    m = modrep.build_module(ab, p)
    return m, modrep.decompose_summands(m, random.Random(seed))


def test_leaf_summand_equivariance():
    # every leaf with an idempotent is a summand: as a dense matrix, e is
    # idempotent, of rank the leaf's dimension, and commutes with each
    # generator, A_g e = e A_g; a whole leaf holds none
    split = whole = 0
    for p in (3, 5):
        for n in range(5):
            for ab in enumerate_p2(n):
                m, leaves = fitting_leaves(ab, p)
                assert sum(s.dim for s in leaves) == m.dim
                for s in leaves:
                    if s.whole:
                        assert s.e is None and s.dim == m.dim
                        whole += 1
                        continue
                    e = dense_element(m.end, s.e, p)
                    assert (gfp.matmul(e, e, p) == e).all(), (p, ab)
                    assert gfp.rank(e, p) == s.dim, (p, ab)
                    for g in range(len(m.perms)):
                        a = generator_matrix(m, g)
                        assert (gfp.matmul(a, e, p) == gfp.matmul(e, a, p)).all()
                    split += 1
    assert split > 50 and whole > 0


@pytest.mark.parametrize("p", (3, 5))
def test_whole_modules_hold_no_maps(p, monkeypatch):
    """After the degree-6 sweep, the whole summand of every module it
    built, one per split row, holds no idempotent, takes its dimension
    from the module and has the species counted from its label; the
    engine keeps none of those modules."""
    real = modrep.build_module
    built = []

    def spy(ab, q):
        built.append(real(ab, q))
        return built[-1]

    monkeypatch.setattr(modrep, "build_module", spy)
    eng = modrep.DirectEngine(p)
    eng.registry_for(6)
    built = [m for m in built if m.n == 6]
    assert len(built) == {3: 9, 5: 6}[p]
    assert not eng.modules
    for m in built:
        s = modrep.Summand(m)
        assert s.whole and s.e is None, (p, m.ab)
        assert s.dim == m.dim
        assert s.species() == modrep._whole_species(m.ab, p), (p, m.ab)


def float64_product(a, b, p):
    """The product before the dtype ladder: both operands in float64."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape[-1] * (p - 1) ** 2 < 2**53
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)


@pytest.mark.parametrize("p", (3, 5))
@pytest.mark.parametrize("ab", [((1,) * 5, ()), ((2, 1, 1, 1), ())])
def test_leaves_bit_identical_with_float64_products(ab, p, monkeypatch):
    """Products in float32 give every leaf the bytes that products in
    float64 give it: the same draws, splits and idempotents."""

    def leaf_bytes():
        _, leaves = fitting_leaves(ab, p, seed=11)
        return [(s.e.dtype, s.e.shape, s.e.tobytes(), s.dim) for s in leaves]

    assert gfp.product_dtype(modrep.module_dimension(ab), p) is np.float32
    want = leaf_bytes()
    monkeypatch.setattr(gfp, "_product", float64_product)
    got = leaf_bytes()
    assert got == want and len(want) > 2


def test_split_integrity_error_names_module_and_node(monkeypatch):
    """An IntegrityError inside the splitting tree says which module and
    which node: planted on every node below the whole module."""
    m = modrep.build_module(((2, 1, 1), ()), P)
    real = modrep._split_once
    seen = []

    def planted(end, r, left, q, z, p):
        if not np.array_equal(r, end.one):
            seen.append(modrep.Summand(m, r, left).dim)
            raise modrep.IntegrityError("planted fault")
        return real(end, r, left, q, z, p)

    monkeypatch.setattr(modrep, "_split_once", planted)
    with pytest.raises(modrep.IntegrityError) as info:
        modrep.decompose_summands(m, random.Random(0))
    msg = str(info.value)
    assert seen and f"dimension {seen[-1]} of M((2, 1, 1), ())" in msg
    assert msg.endswith("planted fault")


def test_whole_module_never_multiplies_by_identity(monkeypatch):
    """The root of the splitting tree is the whole module, whose draws
    take no product with its identity: its left multiplication, the
    identity matrix of End(M), is never formed."""
    m = modrep.build_module(((1,) * 4, ()), P)
    eye = np.eye(m.end.num, dtype=np.int64)
    real, real_left = gfp.matmul, modrep.HomBasis.left
    operands, lefts = [], []

    def spy(a, b, p):
        operands.extend((np.asarray(a), np.asarray(b)))
        return real(a, b, p)

    def spy_left(end, a, q, rows=None):
        lefts.append(a)
        return real_left(end, a, q, rows)

    monkeypatch.setattr(gfp, "matmul", spy)
    monkeypatch.setattr(modrep.HomBasis, "left", spy_left)
    leaves = modrep.decompose_summands(m, random.Random(0))
    assert len(leaves) > 1 and operands and lefts
    assert not any(np.array_equal(a, m.end.one) for a in lefts)
    assert not any(x.shape == eye.shape and (x == eye).all() for x in operands)


# ---------------------------------------------------------------------------
# isomorphism testing


def test_modules_isomorphic_reflexive():
    m = modrep.build_module(((2, 1), ()), P)
    assert modrep.modules_isomorphic(m, m)


def test_modules_isomorphic_shared_class_across_parents():
    s42 = {s.dim: s for s in fitting_leaves(((4, 2), ()), P)[1]}
    s411 = {s.dim: s for s in fitting_leaves(((4, 1, 1), ()), P)[1]}
    assert sorted(s42) == [6, 9] and sorted(s411) == [6, 9, 15]
    assert s42[6].fingerprint() == s411[6].fingerprint()
    assert modrep.modules_isomorphic(s42[6], s411[6])
    assert modrep.modules_isomorphic(s42[9], s411[9])
    assert not modrep.modules_isomorphic(s42[6], s42[9])


def test_modules_isomorphic_trivial_vs_sign():
    triv = modrep.build_module(((4,), ()), P)
    sgn = modrep.build_module(((), (4,)), P)
    assert triv.dim == 1 and sgn.dim == 1
    assert not modrep.modules_isomorphic(triv, sgn)


def test_fingerprint_reject_needs_no_hom(monkeypatch):
    """Equal dimensions, unequal fingerprints: False before any Hom
    space is labelled."""
    u = modrep.build_module(((4, 1), ()), 3)
    v = modrep.build_module(((), (4, 1)), 3)
    assert u.dim == v.dim
    assert modrep._as_summand(u).fingerprint() != modrep._as_summand(v).fingerprint()

    def refuse(*args):
        raise AssertionError("Hom labelled after a fingerprint mismatch")

    monkeypatch.setattr(modrep, "HomBasis", refuse)
    assert not modrep.modules_isomorphic(u, v)


@pytest.mark.parametrize("p", (3, 5))
def test_fingerprint_separates_whole_modules(p):
    """Over every module of degree <= 6, equal fingerprints exactly when
    the modules are isomorphic."""
    for n in range(0, 7):
        pairs = enumerate_p2(n)
        fps = [
            modrep._as_summand(modrep.build_module(ab, p)).fingerprint()
            for ab in pairs
        ]
        for i, ab in enumerate(pairs):
            for j in range(i, len(pairs)):
                want = tabx.iso_equivalent(ab, pairs[j])
                assert (fps[i] == fps[j]) == want, (p, ab, pairs[j])


@pytest.mark.parametrize("p", (3, 5))
def test_fingerprint_routes_agree(p):
    """The lifted-trace and rank routes of a proper summand agree with the
    count from the label of the whole module: each module of degree <= 4
    is also taken as the summand of the idempotent 1, not marked whole."""
    for n in range(2, 5):
        for ab in enumerate_p2(n):
            m = modrep.build_module(ab, p)
            if m.dim == 1:
                continue
            s = modrep.Summand(m, m.end.one)
            assert not s.whole and s.dim == m.dim
            assert s.species() == modrep._as_summand(m).species(), ab


def test_whole_fingerprint_computed_once_per_module(monkeypatch):
    """modules_isomorphic takes each module as its whole summand, whose
    fingerprint and species are counted from the label once per label,
    one count per Q_k, with no word or generator table read, and do not
    keep the module alive."""
    import gc
    import weakref

    calls = []
    counted = modrep._counted.__wrapped__
    monkeypatch.setattr(
        modrep,
        "_counted",
        functools.lru_cache()(lambda *args: calls.append(1) or counted(*args)),
    )
    mods = [modrep.build_module(ab, P) for ab in enumerate_p2(4)]
    for m in mods:
        m.words = m.perms = m.signs = None  # the tables the count must not read
    # every module is isomorphic to itself, so each reaches its species
    for u in mods:
        for v in mods:
            modrep.modules_isomorphic(u, v)
    assert len(calls) == (4 // P + 1) * len(mods)
    ref = weakref.ref(mods[0])
    del mods, u, v, m
    gc.collect()
    assert ref() is None


def test_fingerprint_rejects_shared_summand_pair(monkeypatch):
    """M(3,1,1) and M(1,1|3) share dimension 20 and their traces mod 3,
    but not their fixed points: False with no Hom and no species."""
    u = modrep.build_module(((3, 1, 1), ()), P)
    v = modrep.build_module(((1, 1), (3,)), P)
    assert u.dim == v.dim == 20

    def refuse(*args):
        raise AssertionError("reached past the fingerprint")

    monkeypatch.setattr(modrep, "HomBasis", refuse)
    monkeypatch.setattr(modrep.Summand, "species", refuse)
    assert not modrep.modules_isomorphic(u, v)


def test_quotient_species_answers_false(monkeypatch):
    """With the fingerprint cut down to the dimension, the same pair
    reaches the species, which answers False: at Q_1 the multiplier
    x -> 2x of AGL(1, 3) is a transposition, which fixes the block of
    d-colour of M(1,1|3) with sign -1 and that of c-colour of M(3,1,1)
    with sign +1."""
    u = modrep.build_module(((3, 1, 1), ()), P)
    v = modrep.build_module(((1, 1), (3,)), P)
    real = modrep.Summand.species
    calls = []

    def species(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(modrep.Summand, "fingerprint", lambda self: (self.dim, ()))
    monkeypatch.setattr(modrep.Summand, "species", species)
    assert not modrep.modules_isomorphic(u, v)
    assert len(calls) == 2


def test_module_freed_after_quotient_species(monkeypatch):
    """The species that a question counts, kept per label, do not keep
    the modules alive once the caller drops them."""
    import gc
    import weakref

    u = modrep.build_module(((3, 1, 1), ()), P)
    v = modrep.build_module(((1, 1), (3,)), P)
    monkeypatch.setattr(modrep.Summand, "fingerprint", lambda self: (self.dim, ()))
    assert not modrep.modules_isomorphic(u, v)
    refs = [weakref.ref(u), weakref.ref(v)]
    del u, v
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_negative_seed_refused(monkeypatch):
    m = modrep.build_module(((2, 1), ()), P)

    def refuse(*args):
        raise AssertionError("work done before the seed was checked")

    monkeypatch.setattr(modrep, "HomBasis", refuse)
    monkeypatch.setattr(modrep.Summand, "fingerprint", refuse)
    with pytest.raises(ValueError, match="non-negative"):
        modrep.modules_isomorphic(m, m, seed=-1)
    with pytest.raises(ValueError, match="non-negative"):
        modrep.DirectEngine(P, seed=-1)


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_full_module_classification_matches_part_counts(seed, monkeypatch):
    """Every pair of degree <= 6 at p = 3 and 5 against the part-count
    criterion, with no Hom labelled and no random number drawn: the
    dimension, the fingerprint and the species decide every pair.

    Degree 5 holds the non-isomorphic pairs sharing a summand, such as
    M(3,1,1) and M(1,1|3) at p = 3, which the fixed-point fingerprint
    tells apart; test_quotient_species_answers_false has the species tell
    that pair apart too.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("an iso question reached a Hom or a random draw")

    questions = 0
    for p in (3, 5):
        for n in range(0, 7):
            pairs = enumerate_p2(n)
            mods = {ab: modrep.build_module(ab, p) for ab in pairs}
            with monkeypatch.context() as m:
                m.setattr(modrep, "HomBasis", refuse)
                m.setattr(modrep, "random", types.SimpleNamespace(Random=refuse))
                for i, ab in enumerate(pairs):
                    for cd in pairs[i:]:
                        want = tabx.iso_equivalent(ab, cd)
                        got = modrep.modules_isomorphic(mods[ab], mods[cd], seed=seed)
                        assert got == want, (p, ab, cd, seed)
                        questions += 1
    assert questions == 2 * sum(
        len(enumerate_p2(n)) * (len(enumerate_p2(n)) + 1) // 2 for n in range(7)
    )


# sha256 of the flattened class species of degree <= 6 at p = 3 and 5,
# 71 classes, keyed "p:label"; engine seeds 0 and 2 give the same value
CLASS_SPECIES_SHA256 = "afc1a5bc3be1985b47a88e45b03f8aa9539e323751a1e5f99f2df5f260fbaaf2"


def test_class_species_pinned():
    """The class species of every degree <= 6 keep their values: no
    change to how a species is stored or computed may move one of its
    integers. The products behind them run on float32 BLAS, so this
    also runs on one BLAS thread in CI."""
    import hashlib
    import json

    species = {
        f"{p}:{checks.format_label(label, p)}": modrep._flat(sp).tolist()
        for p in (3, 5)
        for n in range(7)
        for label, sp in engine(p).registry_for(n).items()
    }
    assert len(species) == 71
    text = json.dumps(species, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CLASS_SPECIES_SHA256


@pytest.mark.parametrize("p", (3, 5))
def test_species_add_over_decompositions(p):
    """The species of every degree-6 module, read off its built
    generator tables, is the sum, over the engine's labelled
    decomposition, of multiplicity times class species."""
    eng = engine(p)
    species = eng.registry_for(6)
    for ab in enumerate_p2(6):
        want = modrep._flat(built_species(modrep.build_module(ab, p)))
        got = sum(
            m * modrep._flat(species[label])
            for label, m in eng.decompose(ab).items()
        )
        assert np.array_equal(got, want), (p, ab)


def monomial_fixed_dim(perm, sign):
    """dim ker(g - 1) for the monomial action g: e_j -> sign[j] e_perm[j].

    Each cycle of perm spans a g-invariant block, on which g to the
    cycle length is the product of the signs around the cycle: +1 fixes
    one line, and -1 fixes nothing as p is odd. So the answer is the
    number of cycles whose sign product is +1. Every point walks its
    cycle once, keeping the running sign product and the smallest point
    passed; a cycle is counted at its smallest point.
    """
    idx = np.arange(len(perm))
    cur, prod, low = perm, sign, perm
    closed = np.where(cur == idx, prod, 0)
    while not closed.all():
        prod = prod * sign[cur]
        cur = perm[cur]
        low = np.minimum(low, cur)
        closed = np.where((closed == 0) & (cur == idx), prod, closed)
    return int(np.count_nonzero((low == idx) & (closed == 1)))


def built_species(m):
    """The species of the whole built module m from its generator
    tables: per k, the Q_k-fixed words X, and per word s the +1 cycles
    of the monomial action of s on them."""
    out = []
    for k in range(m.n // m.p + 1):
        X, where = m.quotients[k]
        fixed = []
        for word in modrep._normalizer_words(m.n, m.p, k):
            perm, sign = modrep._word_action(m, word)
            fixed.append(monomial_fixed_dim(where[perm[X]], sign[X]))
        out.append((len(X), tuple(fixed)))
    return tuple(out)


def counted_against_built(p):
    """(modules, mismatches) over every canonical module of degree <= 7
    within the cap: the counted species against the built one."""
    keys = {modrep._canonical_pair(ab) for n in range(8) for ab in enumerate_p2(n)}
    keys = [key for key in keys if modrep.module_dimension(key) <= modrep.DIM_CAP]
    wrong = [
        key
        for key in sorted(keys)
        if modrep._whole_species(key, p) != built_species(modrep.build_module(key, p))
    ]
    return len(keys), wrong


def fresh_counts(monkeypatch):
    """Fresh copies of the count caches, so that a planted fault reaches
    every count and no count made by the true code is reused."""
    for name in ("_counted", "_colourings"):
        fresh = functools.lru_cache()(getattr(modrep, name).__wrapped__)
        monkeypatch.setattr(modrep, name, fresh)


def plant_unsigned_orbits(monkeypatch):
    """The planted wrong sign: every d-coloured orbit counted +1."""
    real = modrep._orbit_shapes

    def unsigned(*args):
        types, tallies = real(*args)
        return tuple(tuple((m, 1) for m, _ in shape) for shape in types), tallies

    fresh_counts(monkeypatch)
    monkeypatch.setattr(modrep, "_orbit_shapes", unsigned)


def test_counted_species_equal_built_species(monkeypatch):
    """The species counted from the label equals the one read off the
    built generator tables on all 218 canonical modules of degree <= 7
    within the cap at p = 3 and 5; with a planted wrong sign, every
    d-coloured orbit counted +1, the count is caught."""
    total = 0
    for p in (3, 5):
        size, wrong = counted_against_built(p)
        assert wrong == [], p
        total += size
    assert total == 218
    plant_unsigned_orbits(monkeypatch)
    assert counted_against_built(3)[1]


def test_sign_twins_of_counted_species(monkeypatch):
    """M(beta|alpha) is M(alpha|beta) (x) sgn, so on each of the 2,861
    pairs (alpha|beta) of degree 1..8 at p = 3 and 1..10 at p = 5 and 7
    the species counted for the twin is the sign twist of the one
    counted for the pair, with no module built. Two planted faults are
    each caught: a count memo keyed without r, the number of c-colours,
    and every d-coloured orbit counted +1."""
    assert sweeps.sign_twins() is None
    with monkeypatch.context() as plant:
        fresh_counts(plant)
        count, memo = modrep._colourings.__wrapped__, {}

        def keyed_without_r(content, r, shape):
            if (content, shape) not in memo:
                memo[content, shape] = count(content, r, shape)
            return memo[content, shape]

        plant.setattr(modrep, "_colourings", keyed_without_r)
        assert sweeps.sign_twins()
    with monkeypatch.context() as plant:
        plant_unsigned_orbits(plant)
        assert sweeps.sign_twins()



def test_regular_module_against_gram_ranks():
    """[M(1^n) : Y(lam|empty)] is dim D^lam', the Gram rank of the
    standard polytabloids of shape lam', for lam p-restricted and 0 for
    every other label, at degree <= 7 for p = 3, 5 and 7. Two planted
    faults are each caught at degree 6, p = 3: one Gram rank off by one,
    and one class species of the registry perturbed, the first class of
    the regular row less the second, so that the row's solve moves the
    first class's multiplicity onto the second."""
    assert sweeps.regular_module() is None

    def off_by_one(mu, p):
        return sweeps.gram_rank(mu, p) + (mu == (3, 2, 1))

    assert sweeps.regular_module(((3, 6, 6),), rank=off_by_one)

    def perturbed(p):
        engine = modrep.DirectEngine(p)
        known = engine.registry_for(6)
        first, second = sorted(engine.decompose(((1,) * 6, ())), key=total_key)[:2]
        known[first] = tuple(
            (a - b, tuple(x - y for x, y in zip(f, g)))
            for (a, f), (b, g) in zip(known[first], known[second])
        )
        engine.decomps.clear()
        return engine

    assert sweeps.regular_module(((3, 6, 6),), engine=perturbed)

def word_perm(word, n):
    """The permutation of the n points that the generator-index word
    multiplies out to, as a list."""
    perm = list(range(n))
    for i in word:
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return perm


def perm_order(perm):
    order, seen = 1, set()
    for x in range(len(perm)):
        length = 0
        while x not in seen:
            seen.add(x)
            x = perm[x]
            length += 1
        if length:
            order = order * length // gcd(order, length)
    return order


@pytest.mark.parametrize(
    ("n", "p", "k", "classes"), [(6, 3, 1, 4), (6, 3, 2, 5), (6, 5, 1, 4)]
)
def test_normalizer_words(n, p, k, classes):
    """One word per p-regular class of N(Q_k): each permutation maps the
    first k blocks of p points to blocks, affinely, so it normalizes
    Q_k, and has order prime to p."""
    words = modrep._normalizer_words(n, p, k)
    assert len(words) == classes == len(set(words))
    for word in words:
        perm = word_perm(word, n)
        assert perm_order(perm) % p, (n, p, k, word)
        for b in range(k):
            image = [perm[b * p + x] for x in range(p)]
            target = image[0] // p
            assert target < k and all(y // p == target for y in image), word
            shift = [(y - image[0]) % p for y in image]
            assert all(shift[x] == shift[1] * x % p for x in range(p)), word


# ---------------------------------------------------------------------------
# labelled decomposition


def test_decompose_published_rows():
    eng = engine()
    # M(1,1) is the trivial plus the sign module; M(2,1) is indecomposable
    assert eng.decompose(((1, 1), ())) == {((2,), ()): 1, ((1, 1), ()): 1}
    assert eng.decompose(((2, 1), ())) == {((2, 1), ()): 1}
    assert eng.decompose(((1, 1, 1), ())) == {((2, 1), ()): 1, ((1, 1, 1), ()): 1}
    assert eng.decompose(((4, 2), ())) == {((5, 1), ()): 1, ((4, 2), ()): 1}
    assert eng.decompose(((6,), ())) == {((6,), ()): 1}
    assert eng.decompose(((2, 1), (3,))) == {
        ((3, 1, 1, 1), ()): 1,
        ((2, 2, 1, 1), ()): 1,
        ((2, 1), (1,)): 1,
    }


def test_projective_signed_values():
    eng = engine()
    assert eng.projective_signed(((1, 1, 1), (3,)), (2, 2, 1, 1)) == 3
    assert eng.projective_signed(((1, 1, 1), ()), (2, 1)) == 1
    assert eng.projective_signed(((2, 2), ()), (2, 2)) == 1


def test_krull_schmidt_dimension_fill():
    eng = engine()
    for n in range(0, 5):
        for ab in enumerate_p2(n):
            dec = eng.decompose(ab)
            classes = {l: sp[0][0] for l, sp in eng.registry_for(n).items()}
            total = sum(m * classes[l] for l, m in dec.items())
            assert total == modrep.module_dimension((wp(ab[0]), wp(ab[1])))


def test_assemble_matrix_small_unitriangular():
    for n in range(0, 5):
        labels, mat = modrep.assemble_matrix(n, P, signed=True, engine=engine())
        assert len(labels) == mat.shape[0] == mat.shape[1]
        assert checks.blocks(n, P, engine())[0].failures == []


def test_assemble_matrix_plain_matches_labels():
    labels, _ = modrep.assemble_matrix(4, P, signed=False, engine=engine())
    assert all(mu == () for _, mu in labels)
    # the |mu| = 0 diagonal block of the signed matrix is the plain one
    assert checks.blocks(4, P, engine())[1].failures == []


def test_cross_engine_agreement_small():
    for n in range(0, 5):
        records = checks.cross_engine(enumerate_p2(n), enumerate_p2p(n, P), engine())
        assert [r.failures for r in records if r.failures] == []


def test_sign_twist_relabelling():
    eng = engine()
    for n in range(0, 5):
        for ab in enumerate_p2(n):
            dec = eng.decompose(ab)
            twisted = eng.decompose((ab[1], ab[0]))
            relabel = {
                reduction.sign_twist_label(x, P): m for x, m in dec.items()
            }
            assert twisted == relabel, ab


def test_decomposition_determinism():
    a, b, c = (
        modrep.DirectEngine(P, seed=seed).decompose(((2, 1, 1), ()))
        for seed in (0, 0, 7)
    )
    assert a == b == c


@pytest.mark.parametrize("p", (3, 5))
def test_decomposition_seed_sweep(p):
    # the random splitting draws must not change the labelled answer
    pairs = [ab for n in range(6) for ab in enumerate_p2(n)]
    first = None
    for seed in range(5):
        eng = modrep.DirectEngine(p, seed=seed)
        decs = {ab: eng.decompose(ab) for ab in pairs}
        if first is None:
            first = decs
        for ab in pairs:
            assert decs[ab] == first[ab], (p, seed, ab)


@pytest.mark.parametrize("p", (3, 5))
def test_sweep_records_label_rows(p, monkeypatch):
    """The registry sweep records each label row's decomposition, so
    decompose answers a label row with no split and no iso draw."""
    eng = modrep.DirectEngine(p)
    eng.registry_for(5)

    def refuse(*args, **kwargs):
        raise AssertionError("a label row was split or matched again")

    monkeypatch.setattr(modrep, "decompose_summands", refuse)
    labels, rows = label_rows(5, p)
    for i, (label, row) in enumerate(zip(labels, rows)):
        dec = eng.decompose(row)
        assert dec[label] == 1, (p, label)
        assert all(labels.index(x) < i for x in dec if x != label), (p, label)


def is_projective_label(label, p):
    return label[1] == () and is_p_restricted(label[0], p)


def test_early_acceptance_needs_a_registered_species(monkeypatch):
    """In the degree-6 sweep at p = 3, every node accepted without a
    split has the species of a class whose row comes before its own, by
    unitriangularity, though the known set also holds the twins of the
    split classes."""
    eng = modrep.DirectEngine(P)
    real = modrep.decompose_summands
    seen = []

    def spy(module, rng, known=frozenset()):
        leaves = real(module, rng, known=known)
        seen.append((module.ab, set(known), leaves))
        return leaves

    monkeypatch.setattr(modrep, "decompose_summands", spy)
    classes = eng.registry_for(6)
    labels, rows = label_rows(6, P)
    row_of = {modrep._canonical_pair(row): i for i, row in enumerate(rows)}
    accepted = 0
    for ab, known, leaves in seen:
        earlier = {classes[label] for label in labels[: row_of[ab]]}
        assert earlier <= known, ab
        for leaf in leaves:
            if leaf.species() in known:
                accepted += 1
                assert leaf.species() in earlier, ab
    # all but the new leaf of each split row, one per summand
    assert accepted == sum(sum(eng.decompose(ab).values()) - 1 for ab, _, _ in seen)
    assert accepted > 10


def twin_rows(n, p):
    """Per label row of degree n, whether its class is the sign twin of
    a class whose row comes earlier."""
    labels, _ = label_rows(n, p)
    return [labels.index(sign_twist_label(x, p)) < i for i, x in enumerate(labels)]


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize(("p", "split"), [(3, 9), (5, 6)])
def test_sweep_splits_only_rows_without_an_earlier_twin(p, split, seed, monkeypatch):
    """The degree-6 sweep splits exactly the rows whose class has no
    earlier sign twin, 9 of 16 at p = 3 and 6 of 12 at p = 5, and
    builds End only for those of them above dimension 1. M(1^6) is never
    split."""
    real_split, real_end = modrep.decompose_summands, modrep.HomBasis
    splits, ends = [], []

    def spy_split(module, rng, **kwargs):
        splits.append(module.ab)
        return real_split(module, rng, **kwargs)

    def spy_end(m, n_mod):
        ends.append(m.ab)
        return real_end(m, n_mod)

    monkeypatch.setattr(modrep, "decompose_summands", spy_split)
    monkeypatch.setattr(modrep, "HomBasis", spy_end)
    modrep.DirectEngine(p, seed=seed).registry_for(6)
    _, rows = label_rows(6, p)
    want = [
        modrep._canonical_pair(row)
        for row, twin in zip(rows, twin_rows(6, p))
        if not twin
    ]
    assert len(want) == split and splits == want
    assert ends == [key for key in want if modrep.module_dimension(key) > 1]
    assert ((1,) * 6, ()) not in splits


@pytest.mark.parametrize(("p", "split"), [(3, 9), (5, 6)])
def test_sweep_builds_only_the_rows_it_splits(p, split, monkeypatch):
    """The degree-6 sweep builds a module only for a row it splits, 9 of
    16 at p = 3 and 6 of 12 at p = 5, none of dimension over 120; the
    rows it solves, M(1^6) of dimension 720 among them, are counted from
    their labels."""
    real = modrep.build_module
    dims = []

    def spy(ab, p):
        dims.append(modrep.module_dimension(ab))
        return real(ab, p)

    monkeypatch.setattr(modrep, "build_module", spy)
    modrep.DirectEngine(p).registry_for(6)
    assert len(dims) == split and max(dims) <= 120


@pytest.mark.parametrize("p", (3, 5))
def test_decompose_outside_label_rows_only_solves(p, monkeypatch):
    """After the sweeps, every module of degree <= 6 outside the label
    rows is decomposed with no End, no split and no random draw, and
    its multiplicities agree with the reduction engine."""
    eng = modrep.DirectEngine(p, seed=3)
    for n in range(7):
        eng.registry_for(n)

    def refuse(*args, **kwargs):
        raise AssertionError("a module outside the label rows was split")

    monkeypatch.setattr(modrep.SignedPermModule, "end", property(refuse))
    monkeypatch.setattr(modrep, "decompose_summands", refuse)
    monkeypatch.setattr(modrep, "random", types.SimpleNamespace(Random=refuse))
    solved = 0
    for n in range(7):
        labels, rows = label_rows(n, p)
        row_keys = {modrep._canonical_pair(row) for row in rows}
        for ab in enumerate_p2(n):
            if modrep._canonical_pair(ab) in row_keys:
                continue
            dec = eng.decompose(ab)
            for x in labels:
                assert dec.get(x, 0) == reduction.signed_kostka(ab, x, eng), (p, ab, x)
            solved += 1
    assert solved == {3: 48, 5: 61}[p]


@pytest.mark.parametrize("p", (3, 5))
def test_solved_rows_agree_with_a_split(p):
    """An independent check of the twisted species: each row that the
    sweep solves, split with the earlier classes known, leaves exactly
    one leaf of no known species, and that leaf has the species the
    registry holds for the row's class."""
    eng = engine(p)
    checked = 0
    for n in range(7):
        classes = eng.registry_for(n)
        labels, rows = label_rows(n, p)
        for i, twin in enumerate(twin_rows(n, p)):
            if not twin:
                continue
            known = {classes[label] for label in labels[:i]}
            m = modrep.build_module(rows[i], p)
            leaves = modrep.decompose_summands(m, random.Random(i), known=known)
            new = [leaf for leaf in leaves if leaf.species() not in known]
            assert len(new) == 1, (p, labels[i])
            assert new[0].species() == classes[labels[i]], (p, labels[i])
            checked += 1
    assert checked == {3: 17, 5: 14}[p]


@pytest.mark.parametrize("p", (3, 5))
def test_vertices_agree_with_labels(p):
    """checks.vertices passes on every class of degree <= 6, and the
    Brauer quotient at one p-cycle vanishes, so the class is projective,
    exactly for the labels (lam, ()) with lam p-restricted."""
    eng = engine(p)
    for n in range(7):
        assert checks.vertices(n, p, eng)[0].failures == [], (p, n)
        for label, species in eng.registry_for(n).items():
            q1 = species[1][0] if len(species) > 1 else 0
            assert (q1 == 0) == is_projective_label(label, p), (p, label)


def unflat_species(vec, like):
    """The integer vector vec in the shape of the species like, one
    (rank, fixed dims) entry per k."""
    vec, out, i = [int(v) for v in vec], [], 0
    for _, fixed in like:
        out.append((vec[i], tuple(vec[i + 1 : i + 1 + len(fixed)])))
        i += 1 + len(fixed)
    return tuple(out)


def plant_species(monkeypatch, ab, change):
    """The counted species of the whole module M(ab), which the solve
    reads, as change(flat species) in the nested form."""
    real = modrep._whole_species

    def species(key, p):
        out = real(key, p)
        if key == ab:
            out = unflat_species(change(modrep._flat(out)), out)
        return out

    monkeypatch.setattr(modrep, "_whole_species", species)


def test_solve_error_names_key_and_seed(monkeypatch):
    """A sweep row that does not hold its own class once stops the
    sweep, naming the label, the module and the engine seed: M(1,1,1),
    given twice its species, holds Y(1,1,1) twice."""
    plant_species(monkeypatch, ((1, 1, 1), ()), lambda v: 2 * v)
    with pytest.raises(modrep.IntegrityError, match="its class once") as info:
        modrep.DirectEngine(P, seed=7).decompose(((2, 1), ()))
    want = "sweep at label ((1, 1, 1), ()), M((1, 1, 1), ()) at engine seed 7"
    assert want in str(info.value)


def test_sweep_row_without_one_new_class_is_loud(monkeypatch):
    """A sweep row with two leaves of no earlier class stops the sweep,
    naming the label, the module and the seed: with every split summand
    its own species, the trivial summand of M(3,1) at p = 3 matches
    nothing."""
    real = modrep.Summand.species
    monkeypatch.setattr(
        modrep.Summand, "species", lambda self: real(self) if self.whole else id(self)
    )
    eng = modrep.DirectEngine(P, seed=5)
    with pytest.raises(modrep.IntegrityError, match="exactly one new class") as info:
        eng.registry_for(4)
    want = "sweep at label ((3, 1), ()), M((3, 1), ()) at engine seed 5"
    assert want in str(info.value)


def test_wrong_twin_is_loud(monkeypatch):
    """A twin label naming a wrong earlier class stops the sweep, naming
    the label, the module and the seed: Y(3,1) twisted by the sign is
    Y(2,1,1), not the trivial module."""
    real = modrep.sign_twist_label
    monkeypatch.setattr(
        modrep,
        "sign_twist_label",
        lambda x, p: ((4,), ()) if x == ((3, 1), ()) else real(x, p),
    )
    with pytest.raises(modrep.IntegrityError, match=r"\(x\) sgn is not") as info:
        modrep.DirectEngine(P, seed=2).registry_for(4)
    want = "sweep at label ((3, 1), ()), M((3, 1), ()) at engine seed 2"
    assert want in str(info.value)


def test_unmatched_summand_is_loud(monkeypatch):
    """A module outside the label rows whose species needs a negative
    multiplicity fails the solve, naming the module and the seed; so do
    linearly dependent class species, even where rounding the
    least-squares answer would reproduce the module: with Y(2,2) given
    the species of Y(2,1,1), the two multiplicities 2 and 0 in M(1,1|2)
    come out as 1 and 1."""
    eng = modrep.DirectEngine(P, seed=6)
    classes = eng.registry_for(4)
    trivial = modrep._flat(classes[((4,), ())])
    y31 = modrep._flat(classes[((3, 1), ())])
    plant_species(monkeypatch, ((), (4,)), lambda v: y31 - trivial)
    with pytest.raises(modrep.IntegrityError, match="no non-negative") as info:
        eng.decompose(((), (4,)))
    assert "M((), (4,)) at engine seed 6" in str(info.value)
    classes[((2, 2), ())] = classes[((2, 1, 1), ())]
    with pytest.raises(modrep.IntegrityError, match=r"rank 5\)") as info:
        eng.decompose(((), (2, 1, 1)))
    assert "M((1, 1), (2,)) at engine seed 6" in str(info.value)


@pytest.mark.parametrize("p", (3, 5))
def test_perturbed_species_fails_the_solve(p, monkeypatch):
    """One more in any one coordinate of the species of M(1,1,1|2) makes
    it no non-negative integer combination of the class species."""
    ab = ((1, 1, 1), (2,))
    eng = modrep.DirectEngine(p, seed=4)
    eng.registry_for(5)
    size = len(modrep._flat(modrep._whole_species(ab, p)))
    for j in range(size):
        with monkeypatch.context() as m:
            plant_species(m, ab, lambda v: v + np.eye(size, dtype=np.int64)[j])
            with pytest.raises(modrep.IntegrityError, match="no non-negative") as info:
                eng.decompose(ab)
        assert f"M{ab} at engine seed 4" in str(info.value), (p, j)
    assert eng.decompose(ab) == modrep.DirectEngine(p).decompose(ab)


def test_swapped_labels_fail_the_vertex_check():
    """Swapping the labels (3) and (2,1) in a copy of the degree-3
    registry at p = 3 fails checks.vertices: the trivial module, of
    vertex Q_1, would carry the projective label (2,1), and the
    projective class the label (3)."""
    classes = dict(engine().registry_for(3))
    a, b = ((3,), ()), ((2, 1), ())
    classes[a], classes[b] = classes[b], classes[a]
    planted = types.SimpleNamespace(registry_for=lambda n: classes)
    failures = checks.vertices(3, P, planted)[0].failures
    assert sorted(label for label, _ in failures) == [((2, 1), ()), ((3,), ())]


def test_end_has_one_home():
    """On the diagonal the engine's Hom basis is the module's End(M),
    also when reached through a non-canonical pair."""
    eng = modrep.DirectEngine(P)
    key = ((2, 1, 1), ())
    assert eng.hom(((2, 1), (1,)), key) is eng.module(key).end
    assert eng.hom(key, key) is eng.module(key).end


def test_composition_input_normalized():
    eng = engine()
    assert eng.decompose(((1, 2), (1,))) == eng.decompose(((2, 1), (1,)))


def test_class_representative_dims():
    """The registry holds one species per label, led by the class's
    dimension: M(3,1) is the trivial module plus the 3-dimensional
    Y(3,1), as 3 does not divide 4."""
    reps = {label: sp[0][0] for label, sp in engine().registry_for(4).items()}
    assert sorted(reps) == sorted(enumerate_p2p(4, P))
    assert reps[((4,), ())] == 1 and reps[((3, 1), ())] == 3
    assert all(d >= 1 for d in reps.values())
