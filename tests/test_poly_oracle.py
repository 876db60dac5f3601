"""The coefficient-list polynomial helpers of modrep against the numpy
helpers they replaced.

The reference functions below are those helpers, on int64 coefficient
arrays with one numpy step per coefficient, kept as the oracle. GF(p)
arithmetic is exact either way, so every quotient, remainder, gcd,
inverse, factor list and minimal polynomial must agree with them entry
for entry; the equal-degree step must even draw the same numbers.
"""

import random
from functools import reduce

import numpy as np
import pytest

from skostka import gfp, modrep

PRIMES = (3, 5, 7)
DEGREES = range(0, 61)


def ref_trim(c):
    c = np.asarray(c, dtype=np.int64)
    nz = np.nonzero(c)[0]
    return c[: nz[-1] + 1] if len(nz) else c[:0]


def ref_mul(a, b, p):
    if len(a) == 0 or len(b) == 0:
        return np.zeros(0, dtype=np.int64)
    return ref_trim(np.convolve(a, b) % p)


def ref_divmod(a, b, p):
    a = ref_trim(a).copy()
    b = ref_trim(b)
    if len(b) == 0:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(int(b[-1]), p - 2, p)
    q = np.zeros(max(len(a) - len(b) + 1, 0), dtype=np.int64)
    while len(a) >= len(b):
        k = len(a) - len(b)
        c = (a[-1] * inv) % p
        q[k] = c
        a[k : k + len(b)] = (a[k : k + len(b)] - c * b) % p
        a = ref_trim(a)
    return q, a


def ref_gcd(a, b, p):
    a, b = ref_trim(a), ref_trim(b)
    while len(b):
        a, b = b, ref_divmod(a, b, p)[1]
    if len(a):
        a = (a * pow(int(a[-1]), p - 2, p)) % p
    return a


def ref_sub(a, b, p):
    out = np.zeros(max(len(a), len(b)), dtype=np.int64)
    out[: len(a)] += a
    out[: len(b)] -= b
    return ref_trim(out % p)


def ref_invmod(a, f, p):
    r0 = ref_trim(np.asarray(f, dtype=np.int64) % p)
    r1 = ref_divmod(np.asarray(a, dtype=np.int64) % p, r0, p)[1]
    s0, s1 = np.zeros(0, dtype=np.int64), np.ones(1, dtype=np.int64)
    while len(r1):
        q, r = ref_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, ref_sub(s0, ref_mul(q, s1, p), p)
    if len(r0) != 1:
        return None
    return (s0 * pow(int(r0[0]), p - 2, p)) % p


def ref_powmod(a, e, f, p):
    out = np.ones(1, dtype=np.int64)
    a = ref_divmod(a, f, p)[1]
    while e:
        if e & 1:
            out = ref_divmod(ref_mul(out, a, p), f, p)[1]
        e >>= 1
        if e:
            a = ref_divmod(ref_mul(a, a, p), f, p)[1]
    return out


def ref_squarefree(f, p):
    out = []
    c = ref_gcd(f, ref_trim((f[1:] * np.arange(1, len(f))) % p), p)
    w = ref_divmod(f, c, p)[0]
    mult = 1
    while len(w) > 1:
        y = ref_gcd(w, c, p)
        g = ref_divmod(w, y, p)[0]
        if len(g) > 1:
            out.append((g, mult))
        w = y
        c = ref_divmod(c, y, p)[0]
        mult += 1
    if len(c) > 1:
        out += [(g, m * p) for g, m in ref_squarefree(c[::p], p)]
    return out


def ref_distinct_degree(f, p):
    out = []
    x = np.array([0, 1], dtype=np.int64)
    h = x
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = ref_powmod(h, p, f, p)
        g = ref_gcd(f, ref_sub(h, x, p), p)
        if len(g) > 1:
            out.append((g, d))
            f = ref_divmod(f, g, p)[0]
            h = ref_divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def ref_equal_degree(f, d, p, rng):
    if len(f) - 1 == d:
        return [f]
    e = (p**d - 1) // 2
    one = np.ones(1, dtype=np.int64)
    while True:
        draws = [rng.randrange(p) for _ in range(len(f) - 1)]
        a = ref_trim(np.array(draws, dtype=np.int64))
        g = ref_gcd(f, ref_sub(ref_powmod(a, e, f, p), one, p), p)
        if 1 < len(g) < len(f):
            return ref_equal_degree(g, d, p, rng) + ref_equal_degree(
                ref_divmod(f, g, p)[0], d, p, rng
            )


def ref_factor(coeffs, p):
    f = ref_trim(np.asarray(coeffs, dtype=np.int64) % p)
    if len(f) < 2:
        return []
    f = (f * pow(int(f[-1]), p - 2, p)) % p
    if len(f) == 2:
        return [(f, 1)]
    rng = random.Random(0)
    out = [
        (q, mult)
        for g, mult in ref_squarefree(f, p)
        for h, d in ref_distinct_degree(g, p)
        for q in ref_equal_degree(h, d, p, rng)
    ]
    out.sort(key=lambda fm: (len(fm[0]), [int(x) for x in fm[0]]))
    return out


def ref_vector_minpoly(z, v, p):
    d = z.shape[0]
    rows = []
    cur = np.asarray(v, dtype=np.int64) % p
    combo = np.zeros(d + 2, dtype=np.int64)
    combo[0] = 1
    for _ in range(d + 1):
        red = cur.copy()
        cmb = combo.copy()
        for lead, row, rc in rows:
            c = red[lead]
            if c:
                red = (red - c * row) % p
                cmb = (cmb - c * rc) % p
        nz = np.nonzero(red)[0]
        if len(nz) == 0:
            poly = ref_trim(cmb)
            return (poly * pow(int(poly[-1]), p - 2, p)) % p
        lead = int(nz[0])
        inv = pow(int(red[lead]), p - 2, p)
        rows.append((lead, (red * inv) % p, (cmb * inv) % p))
        cur = gfp.matmul(z, cur[:, None], p)[:, 0]
        combo = np.roll(combo, 1)
        combo[0] = 0
    raise AssertionError("Krylov iteration failed to close")


# ---------------------------------------------------------------------------


def same(got, want):
    """A coefficient list of Python ints equal to a reference array."""
    return (
        isinstance(got, list)
        and all(type(x) is int for x in got)
        and got == [int(x) for x in want]
    )


def same_pairs(got, want):
    return len(got) == len(want) and all(
        same(g, w) and gm == wm for (g, gm), (w, wm) in zip(got, want)
    )


def random_poly(rng, deg, p, monic=False):
    """A list of deg + 1 reduced coefficients, the top one nonzero."""
    c = rng.integers(0, p, deg + 1).tolist()
    c[-1] = 1 if monic else int(rng.integers(1, p))
    return c


def structured(rng, deg, p):
    """Monic of degree deg, a product of squares and p-th powers of small
    factors, so that the squarefree step has multiplicities to peel off;
    a random monic factor makes up the degree."""
    f = [1]
    while len(f) - 1 < deg:
        g = random_poly(rng, int(rng.integers(1, 4)), p, monic=True)
        g = reduce(lambda x, y: ref_mul(x, y, p), [g] * int(rng.choice([2, p])))
        if len(f) + len(g) - 2 > deg:
            g = random_poly(rng, deg - len(f) + 1, p, monic=True)
        f = ref_mul(f, g, p).tolist()
    return f


@pytest.mark.parametrize("p", PRIMES)
def test_arithmetic_against_reference(p):
    rng = np.random.default_rng(700 + p)
    for deg in DEGREES:
        a = random_poly(rng, deg, p)
        b = random_poly(rng, int(rng.integers(0, 61)), p)
        zero_b = [0] * int(rng.integers(0, 3))
        assert same(modrep._poly_trim(a + zero_b), ref_trim(a + zero_b))
        assert same(modrep._poly_mul(a, b, p), ref_mul(a, b, p))
        assert same(modrep._poly_mul(a, [], p), ref_mul(a, [], p))
        assert same(modrep._poly_sub(a, b, p), ref_sub(a, b, p))
        assert same(modrep._poly_sub(a, a, p), [])
        q, r = modrep._poly_divmod(a, b, p)
        q0, r0 = ref_divmod(a, b, p)
        assert same(q, q0) and same(r, r0)
        with pytest.raises(ZeroDivisionError):
            modrep._poly_divmod(a, zero_b, p)
        # a shared factor makes the gcd nontrivial
        c = random_poly(rng, int(rng.integers(0, 8)), p)
        ac, bc = ref_mul(a, c, p).tolist(), ref_mul(b, c, p).tolist()
        assert same(modrep._poly_gcd(ac, bc, p), ref_gcd(ac, bc, p))
        assert same(modrep._poly_gcd(a, b, p), ref_gcd(a, b, p))
        assert same(modrep._poly_prod([a, b, c], p), reduce(
            lambda x, y: ref_mul(x, y, p), [a, b, c]))


@pytest.mark.parametrize("p", PRIMES)
def test_invmod_and_powmod_against_reference(p):
    rng = np.random.default_rng(800 + p)
    inverted = 0
    for deg in DEGREES:
        if deg == 0:
            continue
        f = random_poly(rng, deg, p)
        a = rng.integers(-3 * p, 3 * p, int(rng.integers(1, 70)))
        want = ref_invmod(a, f, p)
        if want is None:
            with pytest.raises(modrep.IntegrityError):
                modrep._poly_invmod(a, f, p)
        else:
            inverted += 1
            assert same(modrep._poly_invmod(a, f, p), want)
        b = random_poly(rng, int(rng.integers(0, 2 * deg)), p)
        for e in (0, 1, 2, p, p**2, (p**3 - 1) // 2):
            assert same(modrep._poly_powmod(b, e, f, p), ref_powmod(b, e, f, p))
    assert inverted > 30


@pytest.mark.parametrize("p", PRIMES)
def test_factor_steps_against_reference(p):
    rng = np.random.default_rng(900 + p)
    for deg in DEGREES:
        if deg == 0:
            continue
        f = structured(rng, deg, p) if deg % 2 else random_poly(rng, deg, p, True)
        parts = modrep._squarefree(f, p)
        assert same_pairs(parts, ref_squarefree(np.array(f), p))
        for g, _ in parts:
            dd = modrep._distinct_degree(g, p)
            assert same_pairs(dd, ref_distinct_degree(np.array(g), p))
            for h, d in dd:
                got = modrep._equal_degree(h, d, p, random.Random(deg))
                want = ref_equal_degree(np.array(h), d, p, random.Random(deg))
                assert len(got) == len(want)
                assert all(same(x, y) for x, y in zip(got, want))
        assert same_pairs(modrep._factor_poly(f, p), ref_factor(f, p))
        if deg % 3 == 0:
            # unreduced input, zeros on top
            c = rng.integers(-4 * p, 4 * p, deg + 1).tolist() + [0, p]
            assert same_pairs(modrep._factor_poly(c, p), ref_factor(c, p))


@pytest.mark.parametrize("p", PRIMES)
def test_vector_minpoly_against_reference(p):
    rng = np.random.default_rng(1000 + p)
    for d in (1, 2, 5, 17, 40, 61):
        for kind in ("dense", "nilpotent", "diagonal"):
            if kind == "dense":
                z = rng.integers(0, p, (d, d))
            elif kind == "nilpotent":
                z = np.triu(rng.integers(0, p, (d, d)), 1)
            else:
                z = np.diag(rng.integers(0, p, d))
            for v in (rng.integers(0, p, d), np.eye(d, dtype=np.int64)[-1]):
                got = modrep.matrix_minpoly(z, v, p)
                assert same(got, ref_vector_minpoly(z, v, p)), (d, kind)
