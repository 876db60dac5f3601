"""The Chinese-remainder split of a Fitting node inside an algebra against
the kernel-and-inverse split of dense matrices.

The reference below is an earlier `_split_once` on the module itself:
one nullspace of f_i(z)^(m_i) per coprime factor of the dense minimal
polynomial, the lcm of the Krylov polynomials of the unit vectors, with
f_i(z) by Horner's rule, then one inverse of the concatenated kernel
bases. The split under test works in an algebra on coefficients,
End_G(M) or, for the chosen minimal polynomials, the full matrix
algebra, and returns one idempotent per factor. The generalized kernels
are unique, so the two must give the same blocks in the same order: each
idempotent, as a dense matrix, is idempotent, orthogonal to the others,
commutes with z, sums with them to the node's idempotent, and has the
column span of the reference block. On a node e, the split by e a gives
the idempotents of the split by e a e, whose dense restriction the
reference takes.
"""

import random

import numpy as np
import pytest

from skostka import gfp, modrep
from skostka.combinat import enumerate_p2
from test_hom_oracle import dense_element


def dense_minpoly(z, p):
    """The minimal polynomial of the matrix z over GF(p): the lcm of the
    Krylov polynomials of the unit vectors."""
    m = [1]
    for v in np.eye(len(z), dtype=np.int64):
        f = modrep.matrix_minpoly(z, v, p)
        m = modrep._poly_divmod(modrep._poly_mul(m, f, p), modrep._poly_gcd(m, f, p), p)[0]
    return m


def horner(coeffs, z, p):
    """coeffs(z) for the matrix z, by Horner's rule."""
    d = z.shape[0]
    out = np.zeros((d, d), dtype=np.int64)
    for c in reversed([int(c) for c in coeffs]):
        out = (gfp.matmul(out, z, p) + c * np.eye(d, dtype=np.int64)) % p
    return out


def ref_split_once(z, p):
    factors = modrep._factor_poly(dense_minpoly(z, p), p)
    if len(factors) < 2:
        return None
    blocks = []
    for f, mult in factors:
        w = horner(f, z, p)
        wm = w
        for _ in range(mult - 1):
            wm = gfp.matmul(wm, w, p)
        basis = gfp.nullspace(wm, p)
        assert len(basis)
        blocks.append(basis.T)
    u = np.concatenate(blocks, axis=1)
    assert u.shape[1] == z.shape[0]
    assert gfp.inverse(u, p) is not None
    return blocks


class Matrices:
    """The algebra of d x d matrices on their row-major coefficients, with
    the one operation the split takes: left(a, q), the matrix of x -> a x."""

    def __init__(self, d):
        self.d = d
        self.one = np.eye(d, dtype=np.int64).ravel()

    def left(self, a, q):
        a = np.asarray(a, dtype=np.int64).reshape(self.d, self.d)
        return np.kron(a, np.eye(self.d, dtype=np.int64)) % q

    def element(self, coeffs, p):
        return np.asarray(coeffs, dtype=np.int64).reshape(self.d, self.d) % p


def element(algebra, coeffs, p):
    """The element as a dense matrix, of Matrices or of an End."""
    if isinstance(algebra, Matrices):
        return algebra.element(coeffs, p)
    return dense_element(algebra, coeffs, p)


def check_split(algebra, e, z, got, want, p):
    """got, idempotents in the algebra, against want, dense column bases."""
    E, Z = element(algebra, e, p), element(algebra, z, p)
    dense = [element(algebra, x, p) for x in got]
    assert len(got) == len(want)
    assert all(np.array_equal(x, x % p) for x in got)
    assert (sum(dense) % p == E).all()
    for i, (x, c) in enumerate(zip(dense, want)):
        for j, y in enumerate(dense):
            want_xy = x if i == j else 0
            assert (gfp.matmul(x, y, p) == want_xy).all(), (i, j)
        assert (gfp.matmul(x, Z, p) == gfp.matmul(Z, x, p)).all(), i
        k = gfp.rank(x, p)
        assert c.shape[1] == k and gfp.rank(np.concatenate([x, c], axis=1), p) == k


def split_once(algebra, e, z, p, left_e=None):
    """The idempotents of the split of the node e, left_e its L_e over
    GF(p), by z."""
    if left_e is None:
        left_e = algebra.left(e, p)
    got = modrep._split_once(algebra, e, left_e, p, z, p)
    return None if got is None else [r for r, _ in got]


def compare(algebra, e, z, restrict, p, left_e=None):
    """The number of idempotents of the split of the node e by z, checked
    against the reference on restrict(z), z as a dense matrix on the node,
    whose blocks restrict maps back to the module."""
    got = split_once(algebra, e, z, p, left_e)
    local, back = restrict(element(algebra, z, p))
    want = ref_split_once(local, p)
    if want is None:
        assert got is None
        return 1
    assert got is not None
    check_split(algebra, e, z, got, [back(c) for c in want], p)
    return len(got)


def whole(z):
    return z, lambda c: c


def on_node(E, p):
    """The dense maps of the node of idempotent E: z -> R z C, and the
    inclusion c -> C c, with R the rows of the rref of E and C = E[:, pivots]."""
    r, pivots = gfp.rref(E, p)
    R, C = r[: len(pivots)], E[:, list(pivots)]
    return lambda z: (gfp.matmul(gfp.matmul(R, z, p), C, p), lambda c: gfp.matmul(C, c, p))


@pytest.mark.parametrize("p", (3, 5))
def test_end_samples_degree_five(p):
    rng = random.Random(10 + p)
    splits = 0
    for n in range(6):
        for ab in enumerate_p2(n):
            end = modrep.build_module(ab, p).end
            z = end.sample(rng, p)
            splits += compare(end, end.one, z, whole, p) > 1
    assert splits > 40


@pytest.mark.parametrize("p", (3, 5))
def test_end_samples_on_nodes(p):
    """Samples e a on the nodes e of a split of the whole module, as
    _split_node forms them on nodes that are not the whole, split as
    their sandwiches e a e, which the reference takes on the node."""
    rng = random.Random(20 + p)
    nodes = 0
    for ab in [ab for n in (4, 5) for ab in enumerate_p2(n)]:
        m = modrep.build_module(ab, p)
        end = m.end
        top = None
        for _ in range(5):
            top = split_once(end, end.one, end.sample(rng, p), p)
            if top is not None:
                break
        for e in top or []:
            left_e = modrep.Summand(m, e).over_q()[1] % p
            restrict = on_node(dense_element(end, e, p), p)
            for _ in range(2):
                ea = gfp.matmul(left_e, end.sample(rng, p), p)
                eae = gfp.matmul(end.left(ea, p), e, p)
                compare(end, e, eae, restrict, p, left_e=left_e)
                got, want = (split_once(end, e, z, p, left_e) for z in (ea, eae))
                assert (got is None) == (want is None)
                if got is not None:
                    assert len(got) == len(want) and all(map(np.array_equal, got, want))
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


def compare_matrix(z, p):
    algebra = Matrices(len(z))
    return compare(algebra, algebra.one, z.ravel(), whole, p)


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
        algebra = Matrices(len(z))
        # every factor of every block's polynomial, with its degree share
        dims = {}
        for f in polys:
            for g, mult in modrep._factor_poly(f, p):
                key = tuple(g)
                dims[key] = dims.get(key, 0) + (len(g) - 1) * mult
        order = [tuple(g) for g, _ in modrep._factor_poly(mul(*polys, p=p), p)]
        assert compare_matrix(z, p) == len(order)
        got = split_once(algebra, algebra.one, z.ravel(), p)
        ranks = [gfp.rank(algebra.element(e, p), p) for e in got]
        assert ranks == [dims[k] for k in order]


def test_nilpotent_and_scalar_do_not_split():
    rng = np.random.default_rng(40)
    p = 5
    x = np.array([0, 1])
    for polys in ([mul(x, x, x, p=p), x], [np.array([2, 1])] * 3):
        z = block_diagonal([companion(f, p) for f in polys], p, rng)
        assert compare_matrix(z, p) == 1


def test_planted_non_idempotent_projector(monkeypatch):
    """A wrong inverse in the Chinese-remainder polynomial makes f(z) e a
    polynomial in z that is not idempotent; the check in the algebra
    refuses it."""
    p = 3
    z = np.diag([0, 0, 1, 1, 1]).astype(np.int64).ravel()
    algebra = Matrices(5)
    one = algebra.one
    args = (algebra, one, algebra.left(one, p), p, z, p)
    assert len(modrep._split_once(*args)) == 2
    monkeypatch.setattr(modrep, "_poly_invmod", lambda *args: [1])
    with pytest.raises(modrep.IntegrityError, match="not idempotent"):
        modrep._split_once(*args)
