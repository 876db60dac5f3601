"""The projector split of a Fitting node against the kernel-and-inverse
split it replaced.

The reference below is that earlier `_split_once`: one nullspace of
f_i(z)^(m_i) per coprime factor of the minimal polynomial, then one
inverse of the concatenated kernel bases. Both draw the same minimal
polynomial from equal generators, and the generalized kernels are
unique, so the two must give the same blocks in the same order, though
in other bases: equal column spans block by block. Each split is also
checked on its own: entries reduced mod p, R_i C_j = delta_ij I and
z C_i = C_i (R_i z C_i).
"""

import numpy as np
import pytest

from skostka import gfp, modrep
from skostka.combinat import enumerate_p2


def ref_split_once(z, p, rng):
    m = modrep.matrix_minpoly(z, p, rng)
    factors = modrep._factor_poly(m, p)
    if len(factors) < 2:
        return None
    blocks = []
    for f, mult in factors:
        w = modrep._poly_eval_matrix(f, modrep._Powers(z, p))
        wm = w
        for _ in range(mult - 1):
            wm = gfp.matmul(wm, w, p)
        basis = gfp.nullspace(wm, p)
        assert len(basis)
        blocks.append(basis.T)
    u = np.concatenate(blocks, axis=1)
    assert u.shape[1] == z.shape[0]
    u_inv = gfp.inverse(u, p)
    assert u_inv is not None
    out = []
    start = 0
    for b in blocks:
        k = b.shape[1]
        out.append((b, u_inv[start : start + k]))
        start += k
    return out


def check_blocks(z, blocks, p):
    d = z.shape[0]
    assert sum(c.shape[1] for c, _ in blocks) == d
    for i, (c, r) in enumerate(blocks):
        assert c.shape[0] == d and r.shape == (c.shape[1], d)
        assert np.array_equal(c, c % p) and np.array_equal(r, r % p)
        for j, (cj, _) in enumerate(blocks):
            want = np.eye(c.shape[1], dtype=np.int64) if i == j else 0
            assert (gfp.matmul(r, cj, p) == want).all(), (i, j)
        restricted = gfp.matmul(gfp.matmul(r, z, p), c, p)
        assert (gfp.matmul(z, c, p) == gfp.matmul(c, restricted, p)).all(), i


def compare(z, p, seed=0):
    """The number of blocks of the split, checked against the reference."""
    got = modrep._split_once(z, p, np.random.default_rng(seed))
    want = ref_split_once(z, p, np.random.default_rng(seed))
    if want is None:
        assert got is None
        return 1
    assert got is not None and len(got) == len(want)
    check_blocks(z, got, p)
    for (c, _), (cw, _) in zip(got, want):
        k = c.shape[1]
        assert cw.shape[1] == k
        assert gfp.rank(np.concatenate([c, cw], axis=1), p) == k
    return len(got)


@pytest.mark.parametrize("p", (3, 5))
def test_end_samples_degree_five(p):
    rng = np.random.default_rng(10 + p)
    splits = 0
    for n in range(6):
        for ab in enumerate_p2(n):
            m = modrep.build_module(ab, p)
            end = m.end
            splits += compare(end.sample(rng, p), p, seed=m.dim) > 1
    assert splits > 40


@pytest.mark.parametrize("p", (3, 5))
def test_end_samples_on_nodes(p):
    """Samples sandwiched on the blocks of a split of the whole module,
    as decompose_summands forms them on nodes that are not the whole."""
    rng = np.random.default_rng(20 + p)
    nodes = 0
    for ab in [ab for n in (4, 5) for ab in enumerate_p2(n)]:
        m = modrep.build_module(ab, p)
        end = m.end
        top = None
        for _ in range(5):
            top = modrep._split_once(end.sample(rng, p), p, rng)
            if top is not None:
                break
        for c, r in top or []:
            for k in range(2):
                z = gfp.matmul(gfp.matmul(r, end.sample(rng, p), p), c, p)
                compare(z, p, seed=k)
                nodes += 1
    assert nodes > 60


def companion(f, p):
    """Companion matrix of the monic f, low degree first: its minimal
    polynomial is f."""
    k = len(f) - 1
    out = np.zeros((k, k), dtype=np.int64)
    out[np.arange(1, k), np.arange(k - 1)] = 1
    out[:, -1] = (-np.asarray(f[:-1])) % p
    return out


def mul(*polys, p):
    out = np.ones(1, dtype=np.int64)
    for f in polys:
        out = np.convolve(out, f) % p
    return out


def irreducible(deg, p):
    """The first monic polynomial of degree 2 or 3 without a root."""
    for coeffs in np.ndindex(*(p,) * deg):
        f = np.array(coeffs + (1,), dtype=np.int64)
        if f[0] and all(np.polyval(f[::-1], x) % p for x in range(p)):
            return f


def block_diagonal(blocks, p, rng):
    """The blocks on the diagonal, conjugated by a random invertible
    matrix so that no block sits on the coordinate axes."""
    d = sum(len(b) for b in blocks)
    z = np.zeros((d, d), dtype=np.int64)
    at = 0
    for b in blocks:
        z[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    while True:
        s = rng.integers(0, p, (d, d))
        s_inv = gfp.inverse(s, p)
        if s_inv is not None:
            return gfp.matmul(gfp.matmul(s, z, p), s_inv, p)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_chosen_factors(p):
    """Repeated linear factors, irreducible quadratics and cubics and
    nilpotent Jordan parts, with the generalized kernel dimensions known."""
    rng = np.random.default_rng(30 + p)
    x, x1, x2 = (np.array([c, 1]) for c in (0, p - 1, p - 2))
    q, c = irreducible(2, p), irreducible(3, p)
    cases = [
        [mul(x1, x1, x1, p=p), x1, mul(x2, x2, p=p)],
        [mul(x, x, x, p=p), x, x, x1],
        [q, mul(q, q, p=p), x],
        [c, x1, mul(x, x, p=p), q],
        [mul(c, c, p=p), mul(q, x, p=p), x, x1, x2],
    ]
    for polys in cases:
        z = block_diagonal([companion(f, p) for f in polys], p, rng)
        # every factor of every block's polynomial, with its degree share
        dims = {}
        for f in polys:
            for g, mult in modrep._factor_poly(f, p):
                key = tuple(g)
                dims[key] = dims.get(key, 0) + (len(g) - 1) * mult
        order = [tuple(g) for g, _ in modrep._factor_poly(mul(*polys, p=p), p)]
        for seed in range(3):
            assert compare(z, p, seed) == len(order)
            got = modrep._split_once(z, p, np.random.default_rng(seed))
            assert [c.shape[1] for c, _ in got] == [dims[k] for k in order]


def test_nilpotent_and_scalar_do_not_split():
    rng = np.random.default_rng(40)
    p = 5
    x = np.array([0, 1])
    for polys in ([mul(x, x, x, p=p), x], [np.array([2, 1])] * 3):
        z = block_diagonal([companion(f, p) for f in polys], p, rng)
        assert compare(z, p) == 1


def test_planted_non_idempotent_projector(monkeypatch):
    """A wrong inverse in the Chinese-remainder polynomial makes E a
    polynomial in z that is not idempotent; the rank check refuses it."""
    p = 3
    z = np.diag([0, 0, 1, 1, 1]).astype(np.int64)
    parts = [[0, 1], [p - 1, 1]]
    assert len(modrep._projector_split(z, parts, p)) == 2
    monkeypatch.setattr(modrep, "_poly_invmod", lambda *args: [1])
    with pytest.raises(modrep.IntegrityError, match="not idempotent"):
        modrep._projector_split(z, parts, p)
