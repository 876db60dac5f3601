"""The Hom-orbit bases of HomBasis against a scipy reference.

The reference below is an earlier construction, kept as the oracle:
scipy's connected components of the two-layer cell graph give each cell
a basis element orbit[cell] (-1 when forced to zero) and a sign
coeff[cell] in {+1, -1, 0}, and an element is (vals[orbit] * coeff) % p.
The module reads the same orbits off contingency tables in closed form
and labels any cell on demand with one signed gather index
(HomBasis.at). Every label and every element, each basis element
included, must agree with the reference bit for bit, and the pointwise
labels with the grid's. The engine gathers no dense element; the tests
gather theirs with dense_element.
"""

import random

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from skostka import modrep
from skostka.combinat import enumerate_p2

PRIMES = (3, 5, 7)
MAX_DEGREE = 4


def ref_hom_orbits(m, n_mod):
    dn, dm = n_mod.dim, m.dim
    cells = dn * dm
    if not m.perms:
        orbit = np.arange(cells, dtype=np.int64)
        return orbit, np.ones(cells, dtype=np.int64), cells
    base = np.arange(cells, dtype=np.int64)
    src = []
    dst = []
    for g in range(len(m.perms)):
        image = (n_mod.perms[g][:, None] * dm + m.perms[g][None, :]).ravel()
        sg = (n_mod.signs[g][:, None] * m.signs[g][None, :]).ravel()
        flip = (sg < 0).astype(np.int64) * cells
        src.append(base)
        dst.append(image + flip)
        src.append(base + cells)
        dst.append(image + (cells - flip))
    src = np.concatenate(src)
    dst = np.concatenate(dst)
    graph = sparse.coo_matrix(
        (np.ones(len(src), dtype=np.int8), (src, dst)),
        shape=(2 * cells, 2 * cells),
    )
    _, comp = connected_components(graph, directed=False)
    cp = comp[:cells].astype(np.int64)
    cm = comp[cells:].astype(np.int64)
    ncomp = int(comp.max()) + 1
    mirror = np.empty(ncomp, dtype=np.int64)
    mirror[cp] = cm
    mirror[cm] = cp
    ids = np.arange(ncomp)
    keep = ids[ids < mirror]
    remap = np.full(ncomp, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    direct = remap[cp]
    via_mirror = remap[mirror[cp]]
    orbit = np.where(direct >= 0, direct, via_mirror)
    coeff = np.where(direct >= 0, 1, np.where(via_mirror >= 0, -1, 0)).astype(
        np.int64
    )
    return orbit, coeff, len(keep)


def ref_element(orbit, coeff, shape, coeffs, p):
    vals = np.concatenate((np.asarray(coeffs, dtype=np.int64) % p, [0]))
    flat = vals[orbit] * coeff
    return (flat % p).reshape(shape)


def dense_element(hom, coeffs, p):
    """The dense element of the Hom space with these coefficients mod p:
    its gather table at the labels of every cell."""
    rows, cols = map(np.arange, hom.shape)
    return hom.table(coeffs, p)[hom.at(rows, cols, grid=True)]


def module_pairs():
    for n in range(MAX_DEGREE + 1):
        labels = enumerate_p2(n)
        for ab in labels:
            for cd in labels:
                yield ab, cd


@pytest.mark.parametrize("p", PRIMES)
def test_hom_encoding_against_orbit_coeff(p):
    rng = np.random.default_rng(p)
    mods = {}
    forced_zero = 0
    signed_pairs = 0
    for ab, cd in module_pairs():
        for key in (ab, cd):
            if key not in mods:
                mods[key] = modrep.build_module(key, p)
        m, n_mod = mods[ab], mods[cd]
        hom = modrep.HomBasis(m, n_mod)
        orbit, coeff, num = ref_hom_orbits(m, n_mod)
        shape = (n_mod.dim, m.dim)
        assert hom.num == num and hom.shape == shape, (ab, cd)
        forced_zero += bool((coeff == 0).any())
        signed_pairs += bool(ab[1] or cd[1])
        # unreduced coefficients too: the table reduces them itself
        draws = [rng.integers(0, p, num), rng.integers(-3 * p, 3 * p, num)]
        draws += [np.full(num, p - 1), np.zeros(num, dtype=np.int64)]
        for coeffs in draws:
            got = dense_element(hom, coeffs, p)
            want = ref_element(orbit, coeff, shape, coeffs, p)
            assert np.array_equal(got, want), (ab, cd, coeffs)
        for i, e in enumerate(np.eye(num, dtype=np.int64)):
            got = dense_element(hom, e, p)
            want = ref_element(orbit, coeff, shape, e, p)
            assert np.array_equal(got, want), (ab, cd, i)
    assert signed_pairs > 0 and forced_zero > 0


def test_forced_zero_cell_example():
    # a transposition fixes the one word of M(2|-) with sign +1 and the one
    # word of M(-|2) with sign -1, so the single cell of Hom is forced to zero
    triv = modrep.build_module(((2,), ()), 3)
    sgn = modrep.build_module(((), (2,)), 3)
    orbit, coeff, num = ref_hom_orbits(triv, sgn)
    assert num == 0 and coeff.tolist() == [0]
    hom = modrep.HomBasis(triv, sgn)
    assert hom.num == 0 and dense_element(hom, [], 3).tolist() == [[0]]


def test_sample_matches_reference_draw():
    p = 3
    m = modrep.build_module(((2, 1), (1,)), p)
    hom = modrep.HomBasis(m, m)
    orbit, coeff, num = ref_hom_orbits(m, m)
    got = hom.sample(random.Random(11), p)
    draw = random.Random(11)
    coeffs = np.array([draw.randrange(p) for _ in range(num)])
    assert got.tolist() == coeffs.tolist()
    want = ref_element(orbit, coeff, hom.shape, coeffs, p)
    assert np.array_equal(dense_element(hom, got, p), want)


def ref_index(orbit, coeff, num):
    return np.where(coeff == 1, orbit, np.where(coeff == -1, num + orbit, 2 * num))


def assert_index_matches(m, n_mod):
    """The labels of HomBasis.at over the full grid are the reference's."""
    hom = modrep.HomBasis(m, n_mod)
    orbit, coeff, num = ref_hom_orbits(m, n_mod)
    assert hom.num == num and hom.shape == (n_mod.dim, m.dim)
    index = hom.at(np.arange(n_mod.dim), np.arange(m.dim), grid=True)
    assert index.dtype == np.intp and index.shape == hom.shape
    assert np.array_equal(index.ravel(), ref_index(orbit, coeff, num))


def test_end_index_degree_five():
    for ab in enumerate_p2(5):
        m = modrep.build_module(ab, 3)
        assert_index_matches(m, m)


def test_cross_index_degree_five():
    """Every ordered pair of distinct degree-5 modules."""
    mods = [modrep.build_module(ab, 3) for ab in enumerate_p2(5)]
    for m in mods:
        for n_mod in mods:
            if m is not n_mod:
                assert_index_matches(m, n_mod)


def test_end_index_degree_six():
    """End of every degree-6 module but M(1^6), which the next test takes."""
    for ab in enumerate_p2(6):
        if ab != ((1,) * 6, ()):
            m = modrep.build_module(ab, 3)
            assert_index_matches(m, m)


def test_end_index_regular_degree_six():
    """End(M(1^6)): 720^2 cells over the full grid, the widest orbits of
    degree six. The engine never labels them: the sweep counts M(1^6)
    from its label and never splits it."""
    m = modrep.build_module(((1,) * 6, ()), 3)
    assert_index_matches(m, m)


def test_cross_index_degree_six():
    m = modrep.build_module(((1,) * 6, ()), 3)
    n_mod = modrep.build_module(((1, 1, 1, 1), (2,)), 3)
    assert_index_matches(m, n_mod)
    assert_index_matches(n_mod, m)


def assert_pointwise_matches(hom, rng, perms=()):
    """HomBasis.at on cell lists gives the grid's entries there: on a
    stack of random cells, and on the rows against a stack of maps of the
    rows to the columns, as trace_rows asks for (u, s^j u); the given
    perms, and random permutations for an End, random maps otherwise."""
    rows, cols = map(np.arange, hom.shape)
    grid = hom.at(rows, cols, grid=True)
    u, v = rng.integers(0, len(rows), (3, 40)), rng.integers(0, len(cols), (3, 40))
    assert np.array_equal(hom.at(u, v), grid[u, v])
    end = len(rows) == len(cols)
    maps = [rng.permutation(cols) if end else rng.choice(cols, len(rows)) for _ in range(3)]
    maps = np.array([*perms, *maps])
    assert np.array_equal(hom.at(rows, maps), grid[rows, maps])


@pytest.mark.parametrize("p", PRIMES)
def test_pointwise_labels_match_the_grid(p):
    """End of every module of degree <= 5 against the generator actions,
    and Hom of every ordered pair of distinct modules of one degree <= 5."""
    rng = np.random.default_rng(p)
    for n in range(6):
        mods = [modrep.build_module(ab, p) for ab in enumerate_p2(n)]
        for m in mods:
            for n_mod in mods:
                hom = modrep.HomBasis(m, n_mod)
                assert_pointwise_matches(hom, rng, m.perms if m is n_mod else ())
