"""The GF(p) polynomial factorization against sympy's factor_list, and
the inverse modulo a polynomial against sympy's invert.

sympy factored the minimal polynomials before the squarefree,
distinct-degree and equal-degree steps replaced it, and stays here as
the oracle: the monic irreducible factors and their multiplicities are
unique, so every factor array and multiplicity, and their order, must
agree with it exactly. An inverse modulo f of degree below deg f is
unique too.
"""

import numpy as np
import pytest
from sympy import Poly, Symbol, invert
from sympy.polys.polyerrors import NotInvertible

from skostka import modrep

PRIMES = (3, 5, 7)
X = Symbol("x")


def ref_factor(coeffs, p):
    poly = Poly([int(c) for c in reversed(coeffs)], X, modulus=p)
    _, factors = poly.factor_list()
    out = []
    for f, mult in factors:
        fc = [int(c) % p for c in reversed(f.all_coeffs())]
        out.append((fc, int(mult)))
    out.sort(key=lambda fm: (len(fm[0]), [int(x) for x in fm[0]]))
    return out


def check(coeffs, p):
    got = modrep._factor_poly(coeffs, p)
    want = ref_factor(coeffs, p)
    assert len(got) == len(want), (coeffs, got, want)
    for (g, gm), (w, wm) in zip(got, want):
        assert is_coefficient_list(g) and g == w and gm == wm, (
            coeffs,
            got,
            want,
        )
    return got


def is_coefficient_list(c):
    return isinstance(c, list) and all(type(x) is int for x in c)


def mul(*polys, p):
    out = np.ones(1, dtype=np.int64)
    for f in polys:
        out = np.convolve(out, f) % p
    return out


def power(f, k, p):
    return mul(*([f] * k), p=p)


def random_poly(rng, deg, p):
    c = rng.integers(0, p, deg + 1)
    c[-1] = rng.integers(1, p)
    return c


def irreducibles(rng, deg, p, count):
    """count distinct monic irreducibles of the given degree."""
    found = {}
    while len(found) < count:
        c = random_poly(rng, deg, p)
        c[-1] = 1
        if Poly([int(x) for x in reversed(c)], X, modulus=p).is_irreducible:
            found[tuple(c)] = c
    return list(found.values())


@pytest.mark.parametrize("p", PRIMES)
def test_constants_and_linear(p):
    for coeffs in ([], [0], [0, 0], [1], [p - 1], [2 * p + 1, 0, 0]):
        assert check(coeffs, p) == []
    for a in range(p):
        for b in range(1, p):
            (f, mult), = check([a, b], p)
            assert mult == 1 and f[-1] == 1


@pytest.mark.parametrize("p", PRIMES)
def test_random_polynomials(p):
    rng = np.random.default_rng(100 + p)
    for deg in range(2, 41):
        for _ in range(3):
            check(random_poly(rng, deg, p), p)
    # unreduced and negative coefficients, and zero leading entries
    for _ in range(20):
        check(rng.integers(-4 * p, 4 * p, int(rng.integers(1, 30))), p)


@pytest.mark.parametrize("p", PRIMES)
def test_repeated_factors(p):
    rng = np.random.default_rng(200 + p)
    x = np.array([0, 1], dtype=np.int64)
    for k in (2, 3, p - 1, p, p + 1, 2 * p, 2 * p + 1, p * p):
        check(power(x, k, p), p)
        check(power(np.array([1, 1]), k, p), p)
    for _ in range(15):
        g, h, k = (random_poly(rng, int(rng.integers(1, 4)), p) for _ in range(3))
        check(mul(power(g, 3, p), power(h, 2, p), k, p=p), p)
        check(mul(power(g, p, p), power(h, p + 2, p), p=p), p)


@pytest.mark.parametrize("p", PRIMES)
def test_pth_powers(p):
    """f(x^p) has derivative zero: the squarefree step takes p-th roots."""
    rng = np.random.default_rng(300 + p)
    for _ in range(15):
        f = random_poly(rng, int(rng.integers(1, 5)), p)
        fp = np.zeros(p * (len(f) - 1) + 1, dtype=np.int64)
        fp[::p] = f
        got = check(fp, p)
        assert all(mult % p == 0 for _, mult in got)
        check(mul(fp, random_poly(rng, 2, p), p=p), p)
        check(mul(fp, fp, p=p), p)


@pytest.mark.parametrize("p", PRIMES)
def test_equal_degree_products(p):
    """Distinct irreducibles of one degree reach the equal-degree step."""
    rng = np.random.default_rng(400 + p)
    # the number of monic irreducibles of degree 1 to 4 over GF(p)
    available = {1: p, 2: (p**2 - p) // 2, 3: (p**3 - p) // 3, 4: (p**4 - p**2) // 4}
    for deg in (1, 2, 3, 4):
        for count in (2, 3, 4):
            if count > available[deg]:
                continue
            fs = irreducibles(rng, deg, p, count)
            got = check(mul(*fs, p=p), p)
            assert [(len(f) - 1, m) for f, m in got] == [(deg, 1)] * count
    # two degrees at once, one of them repeated
    a = irreducibles(rng, 2, p, 3)
    b = irreducibles(rng, 3, p, 2)
    check(mul(*a, *b, a[0], b[1], b[1], p=p), p)


def ref_invmod(a, f, p):
    """sympy's inverse of a modulo f, low degree first; None when a and
    f share a factor."""
    try:
        inv = invert(
            Poly([int(c) for c in reversed(a)], X, modulus=p),
            Poly([int(c) for c in reversed(f)], X, modulus=p),
        )
    except NotInvertible:
        return None
    return modrep._poly_trim([int(c) % p for c in reversed(inv.all_coeffs())])


def check_invmod(a, f, p):
    want = ref_invmod(a, f, p)
    if want is None:
        with pytest.raises(modrep.IntegrityError):
            modrep._poly_invmod(a, f, p)
        return False
    got = modrep._poly_invmod(a, f, p)
    assert is_coefficient_list(got) and got == want, (a, f, got, want)
    assert len(got) < len(modrep._poly_trim([int(c) % p for c in f]))
    return True


@pytest.mark.parametrize("p", PRIMES)
def test_poly_invmod(p):
    rng = np.random.default_rng(500 + p)
    inverted = 0
    for _ in range(60):
        f = random_poly(rng, int(rng.integers(1, 12)), p)
        # unreduced input of any degree, above deg f included
        a = rng.integers(-3 * p, 3 * p, int(rng.integers(1, 20)))
        if modrep._poly_divmod((a % p).tolist(), f.tolist(), p)[1]:
            inverted += check_invmod(a, f, p)
    assert inverted > 30
    # constants, and f of degree one
    for c in range(1, p):
        assert check_invmod([c], [1, 1], p)
        assert check_invmod([c], random_poly(rng, 4, p), p)
    # the CRT inverses of the splitting: a product of prime powers
    # against the product of the others
    fs = irreducibles(rng, 2, p, 3)
    g = mul(power(fs[0], 2, p), fs[1], p=p)
    h = mul(fs[2], np.array([1, 1]), power(np.array([0, 1]), 3, p), p=p)
    assert check_invmod(h, g, p) and check_invmod(g, h, p)


@pytest.mark.parametrize("p", PRIMES)
def test_poly_invmod_refuses_shared_factors(p):
    rng = np.random.default_rng(600 + p)
    for _ in range(20):
        common = random_poly(rng, int(rng.integers(1, 4)), p)
        a = mul(common, random_poly(rng, int(rng.integers(0, 5)), p), p=p)
        f = mul(common, random_poly(rng, int(rng.integers(0, 5)), p), p=p)
        assert not check_invmod(a, f, p)
    x = np.array([0, 1], dtype=np.int64)
    # zero modulo f, and a repeated factor met once
    assert not check_invmod(mul(x, x, np.array([2, 1]), p=p), mul(x, x, p=p), p)
    assert not check_invmod(x, power(x, 3, p), p)
