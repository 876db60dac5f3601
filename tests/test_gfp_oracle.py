"""The blocked GF(p) elimination against the unblocked pivot loop, and
products against Python integers.

The reference functions below are the column-by-column elimination and
the loops built on it, kept as the oracle: the reduced row echelon form
is unique, so every result must agree with them bit for bit. Products
are checked on each side of every boundary of the dtype ladder.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skostka import gfp

PRIMES = (3, 5, 7)
W = gfp.PANEL


def ref_rref(a, p):
    a = np.asarray(a, dtype=np.int64) % p
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        rows = np.nonzero(a[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            a[rows] = (a[rows] - np.outer(a[rows, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, tuple(pivots)


def ref_nullspace(a, p):
    n = np.asarray(a).shape[1]
    r, pivots = ref_rref(a, p)
    free = [c for c in range(n) if c not in set(pivots)]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for row, pc in enumerate(pivots):
            basis[k, pc] = (-r[row, c]) % p
        lead = np.nonzero(basis[k])[0][0]
        basis[k] = (basis[k] * pow(int(basis[k, lead]), p - 2, p)) % p
    return basis


def ref_inverse(a, p):
    n = a.shape[0]
    r, pivots = ref_rref(np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1), p)
    if any(c >= n for c in pivots):
        return None
    return r[:, n:]


def same(x, y):
    if x is None or y is None:
        return x is None and y is None
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype == np.int64 and x.shape == y.shape and np.array_equal(x, y)


def check_all(a, p):
    """Every elimination entry point of gfp against the reference."""
    a = np.asarray(a, dtype=np.int64)
    m, n = a.shape
    r, piv = gfp.rref(a, p)
    r0, piv0 = ref_rref(a, p)
    assert piv == piv0
    assert same(r, r0)
    assert gfp.rank(a, p) == len(piv0)
    assert same(gfp.nullspace(a, p), ref_nullspace(a, p))
    k = min(m, n)
    sq = a[:k, :k] % p
    assert same(gfp.inverse(sq, p), ref_inverse(sq, p))


def random_matrix(rng, p, m, n, kind):
    if kind == "dense":
        return rng.integers(0, p, size=(m, n))
    if kind == "thin":
        # rank at most k: a product of thin factors
        k = int(rng.integers(0, 2 * W))
        return rng.integers(0, p, size=(m, k)) @ rng.integers(0, p, size=(k, n))
    if kind == "signs":
        return rng.choice([0] * 12 + [1, -1], size=(m, n))
    raise ValueError(kind)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    p=st.sampled_from(PRIMES),
    m=st.integers(0, 3 * W),
    n=st.integers(0, 6 * W),
    kind=st.sampled_from(["dense", "thin", "signs"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_shapes_match_reference(p, m, n, kind, seed):
    rng = np.random.default_rng(seed)
    check_all(random_matrix(rng, p, m, n, kind), p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize(
    "n",
    [W - 1, W, W + 1, 2 * W - 1, 2 * W, 2 * W + 1, 3 * W, 5 * W + 3],
)
def test_widths_around_the_panel(p, n):
    rng = np.random.default_rng([p, n])
    for m, kind in [(1, "dense"), (W // 2 + 1, "signs"), (2 * W + 5, "thin"), (2 * W + 5, "dense")]:
        check_all(random_matrix(rng, p, m, n, kind), p)


@pytest.mark.parametrize("p", PRIMES)
def test_empty_tall_and_wide(p):
    rng = np.random.default_rng(p)
    for m, n in [(0, 0), (0, 7), (7, 0), (0, 3 * W), (3 * W, 0), (5, 4 * W), (4 * W, 5)]:
        check_all(random_matrix(rng, p, m, n, "dense"), p)
        check_all(np.zeros((m, n), dtype=np.int64), p)
    r, piv = gfp.rref(np.zeros((0, 9), dtype=np.int64), p)
    assert r.shape == (0, 9) and piv == ()
    assert gfp.nullspace(np.zeros((3, 0), dtype=np.int64), p).shape == (0, 0)


@pytest.mark.parametrize("p", PRIMES)
def test_sparse_hom_span_shape(p):
    """Full-rank 120 x 14400 sign matrices of density 0.8%, the shape of
    a Hom basis between two modules of dimension 120 with its elements
    flattened into rows: once scattered, once with a leading identity
    block whose rows are shuffled."""
    rng = np.random.default_rng(p)
    m, n = 120, 14400
    scattered = rng.choice([1, -1], size=(m, n)) * (rng.random((m, n)) < 0.008)
    led = scattered.copy()
    led[:, :m] = np.eye(m, dtype=np.int64)
    for a in (scattered, led[rng.permutation(m)]):
        r, piv = gfp.rref(a, p)
        r0, piv0 = ref_rref(a, p)
        assert piv == piv0 and same(r, r0)
    assert len(piv0) == m


def ref_ranks(stack, p):
    return [len(ref_rref(a, p)[1]) for a in stack]


@pytest.mark.parametrize("p", PRIMES)
def test_batched_rank_against_rref(p):
    """gfp.rank on a stack (b, m, n) gives, per matrix, the rank of its
    reference rref: one elimination over the stack up to two panels
    wide, one rref per matrix past that. Covers zero, rank-deficient,
    1 x 1 and empty stacks, and negative entries."""
    rng = np.random.default_rng([p, 7])
    stacks = [
        np.zeros((0, 4, 4), dtype=np.int64),
        np.zeros((3, 0, 5), dtype=np.int64),
        np.zeros((3, 5, 0), dtype=np.int64),
        np.zeros((0, 3, 2 * W + 1), dtype=np.int64),
        np.zeros((4, 6, 6), dtype=np.int64),
        rng.integers(0, p, (9, 1, 1)),
        np.arange(p).reshape(p, 1, 1),
        rng.integers(-p, p, (6, 5, 8)),
        rng.integers(0, p, (6, 8, 5)),
    ]
    # rank at most k < m: thin products, one per matrix
    for b, m, n, k in [(7, 12, 12, 5), (5, 2 * W, 2 * W, W - 3), (3, 40, 2 * W + 9, 11)]:
        stacks.append(np.stack([random_matrix(rng, p, m, k, "dense") @
                                random_matrix(rng, p, k, n, "dense") for _ in range(b)]))
    # a stack mixing full, deficient and zero matrices
    mixed = rng.integers(0, p, (5, 10, 10))
    mixed[1, 7:] = mixed[1, :3]
    mixed[2, :, 4] = 2 * mixed[2, :, 0]
    mixed[3] = 0
    mixed[4] = np.eye(10, dtype=np.int64)
    stacks.append(mixed)
    for stack in stacks:
        got = gfp.rank(stack, p)
        assert got.dtype == np.int64 and got.shape == (len(stack),)
        assert got.tolist() == ref_ranks(stack, p), stack.shape
    assert gfp.rank(mixed, p).tolist()[3:] == [0, 10]
    assert max(gfp.rank(stacks[-2], p)) <= 11


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    p=st.sampled_from(PRIMES),
    b=st.integers(0, 6),
    m=st.integers(0, 2 * W),
    n=st.integers(0, 2 * W + 4),
    kind=st.sampled_from(["dense", "thin", "signs"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_rank_random_shapes(p, b, m, n, kind, seed):
    rng = np.random.default_rng(seed)
    stack = np.array([random_matrix(rng, p, m, n, kind) for _ in range(b)], dtype=np.int64)
    stack = stack.reshape(b, m, n)
    assert gfp.rank(stack, p).tolist() == ref_ranks(stack, p)


def test_rref_leaves_input_alone():
    a = np.random.default_rng(0).integers(-5, 5, size=(2 * W, 3 * W))
    before = a.copy()
    gfp.rref(a, 3)
    assert np.array_equal(a, before)


@pytest.mark.parametrize("p", PRIMES)
def test_echelon_rows_match_rref(p):
    """Echelon's rows, sorted by pivot, are the nonzero rows of the rref
    of everything absorbed, across several doublings of its buffer."""
    rng = np.random.default_rng(p)
    for n in (1, 7, 40):
        ech = gfp.Echelon(p)
        seen = []
        for v in random_matrix(rng, p, 60, n, "thin"):
            ech.add(v)
            seen.append(v)
            r, piv = ref_rref(np.stack(seen), p)
            assert sorted(ech.pivots) == list(piv)
            if not piv:
                continue
            order = np.argsort(ech.pivots)
            assert same(ech.rows[order], r[: len(piv)])


# ---------------------------------------------------------------------------
# products: the dtype ladder against Python integers

# (p, k, dtype): a product of inner dimension k over GF(p) with every entry
# p - 1 has inner product k (p-1)^2, one inner dimension below and above
# each rung boundary: 256 * 256^2 = 2^24, 8 * (p-1)^2 just passes 2^53,
# and 10 * (p-1)^2 passes 2^63
LADDER = [
    (257, 255, np.float32),
    (257, 256, np.float64),
    (257, 257, np.float64),
    (33554467, 7, np.float64),
    (33554467, 8, np.int64),
    (33554467, 9, np.int64),
    (1000000007, 9, np.int64),
]


def python_product(a, b, p):
    (m, k), n = a.shape, b.shape[1]
    a, b = a.tolist(), b.tolist()
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(n)]
        for i in range(m)
    ]


@pytest.mark.parametrize("p, k, dtype", LADDER)
def test_matmul_exact_at_rung_boundaries(p, k, dtype):
    assert gfp.product_dtype(k, p) is dtype
    a = np.full((1, k), p - 1, dtype=np.int64)
    b = np.full((k, 1), p - 1, dtype=np.int64)
    got = gfp.matmul(a, b, p)
    assert got.dtype == np.int64
    assert got.tolist() == python_product(a, b, p) == [[k % p]]
    # an operand already in the product's dtype gives the same result
    assert np.array_equal(gfp.matmul(a.astype(dtype), b.astype(dtype), p), got)


@pytest.mark.parametrize("p", PRIMES + (257,))
def test_matmul_random_against_python(p):
    rng = np.random.default_rng(p)
    for m, k, n in [(1, 1, 1), (3, 0, 4), (5, 7, 2), (40, 65, 33), (2, 300, 3)]:
        a = rng.integers(0, p, (m, k))
        b = rng.integers(0, p, (k, n))
        assert gfp.matmul(a, b, p).tolist() == python_product(a, b, p)


def test_matmul_refuses_past_int64():
    p = 1000000007
    assert gfp.product_dtype(9, p) is np.int64
    with pytest.raises(OverflowError):
        gfp.product_dtype(10, p)
    a = np.full((12, 12), p - 1, dtype=np.int64)
    with pytest.raises(OverflowError, match="exact range"):
        gfp.matmul(a, a, p)
    with pytest.raises(OverflowError):
        gfp.matmul(np.full((1, 10), p - 1), np.full((10, 1), p - 1), p)
