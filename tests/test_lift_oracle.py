"""Splitting inside End_G(M) against dense work on the module.

The splitting tree holds idempotents e of A = End_G(M) and reads the
k = 0 species of a leaf from traces of e lifted over Z/q. The references
below rebuild the rank route of the dense e on M: C = e[:, pivots] and R
the nonzero rows of its rref, so that R C = I, x(Q_0) = x and s fixes
dim x - rank(R S C - I) of it, and at k >= 1 the quotient is the image
of C[X] R[:, X]. The sweeps of degree <= 7 run once per prime, with
every leaf and every GF(p) operand recorded.
"""

import functools
import random
import types

import numpy as np
import pytest

from skostka import gfp, modrep
import sweeps
from test_hom_oracle import dense_element

# OpenBLAS splits a product over two threads from M N K > 262,144 on
THREADING_BOUND = 262144
# a floor on the nodes that the sweeps of degree <= 7 build with their L_r:
# 139 at p = 3 and 83 at p = 5
HANDED = {3: 120, 5: 70}


def rank_route(leaf, words_of=lambda words: words):
    """The species of the leaf by ranks of dense matrices on M, per k the
    words words_of(_normalizer_words)."""
    m, p = leaf.parent, leaf.p
    e = dense_element(m.end, m.end.one if leaf.whole else leaf.e, p)
    r, pivots = gfp.rref(e, p)
    R, C = r[: len(pivots)], e[:, list(pivots)]
    d = len(pivots)
    out = []
    for k in range(m.n // p + 1):
        words = words_of(modrep._normalizer_words(m.n, p, k))
        X, where = m.quotients[k]
        actions = [modrep._word_action(m, w) for w in words]
        actions = [(where[perm[X]], sign[X]) for perm, sign in actions]
        if not k:
            # the signed row gather of C is s^-1 C, and s^-1 fixes what s does
            fixed = []
            for target, sign in actions:
                g = gfp.matmul(R, sign[:, None] * C[target] % p, p)
                fixed.append(d - gfp.rank(g - np.eye(d, dtype=np.int64), p))
            out.append((d, tuple(fixed)))
            continue
        E = gfp.matmul(C[X], R[:, X], p)
        rank = gfp.rank(E, p)
        fixed = []
        for target, sign in actions:
            SE = np.empty_like(E)
            SE[target] = sign[:, None] * E
            fixed.append(rank - gfp.rank(SE - E, p))
        out.append((rank, tuple(fixed)))
    return tuple(out)


def squared(words):
    return tuple(w + w for w in words)


@functools.lru_cache(maxsize=None)
def newton(q, p):
    """The coefficients mod q, from x^1 up, of the composite of N(x) =
    3 x^2 - 2 x^3 with itself until p^(2^k) >= q, for a power q of p:
    x^2 = x mod p^j gives N(x)^2 = N(x) mod p^(2j), so the composite
    takes an idempotent mod p to one mod q, of degree 3^k."""
    out, precision = [0, 1], p
    while precision < q:
        square = modrep._poly_mul(out, out, q)
        cube = modrep._poly_mul(square, out, q)
        out = modrep._poly_sub([3 * c for c in square], [2 * c for c in cube], q)
        precision *= precision
    return tuple(out[1:])


def product_size(a, b):
    """M N K of a @ b, per matrix of a stack."""
    a, b = np.asarray(a), np.asarray(b)
    rows = a.shape[-2] if a.ndim > 1 else 1
    cols = b.shape[-1] if b.ndim > 1 else 1
    return rows * a.shape[-1] * cols


@functools.lru_cache(maxsize=None)
def sweep(p, top=7, seed=0):
    """The sweeps of degree <= top at engine seed seed, recorded: the
    leaves of every split as (module, leaves); per node that the
    splitting tree builds with its L_r, whether that is exactly
    parent.end.left(r, q) over Z/q, q = parent.lift_modulus; per lift of
    an idempotent, whether it equals Newton's lift (newton); and at
    degree top, the GF(p) operands with a side equal to the dimension of
    the row being split, and the largest M N K of a product."""
    engine = modrep.DirectEngine(p, seed)
    splits, sided, largest, rows, handed, lifts = [], [], [0], [], [], []
    real_split, real_label = modrep.decompose_summands, modrep.DirectEngine._label
    real_product, real_init = gfp._product, modrep.Summand.__init__
    real_eval = modrep._poly_eval_vector
    real = {name: getattr(gfp, name) for name in ("matmul", "rref", "rank")}

    def spy_split(module, rng, known=frozenset()):
        leaves = real_split(module, rng, known=known)
        splits.append((module, leaves))
        return leaves

    def spy_label(self, key, known, where):
        rows.append(modrep.module_dimension(key) if self.degree == top else None)
        try:
            return real_label(self, key, known, where)
        finally:
            rows.pop()

    def spy_product(a, b, q):
        if engine.degree == top:
            largest[0] = max(largest[0], product_size(a, b))
        return real_product(a, b, q)

    def spy_init(self, parent, e=None, left=None):
        real_init(self, parent, e, left)
        if left is not None:
            want = parent.end.left(self._rep, parent.lift_modulus)
            handed.append(left.dtype == want.dtype and np.array_equal(left, want))

    def spy_eval(coeffs, left, v, q):
        out = real_eval(coeffs, left, v, q)
        lifts.append(np.array_equal(out, real_eval(newton(q, p), left, v, q)))
        return out

    def spy(name):
        def call(*args):
            for x in args:
                if rows and isinstance(x, np.ndarray) and rows[-1] in x.shape:
                    sided.append((name, rows[-1], x.shape))
            return real[name](*args)

        return call

    with pytest.MonkeyPatch.context() as m:
        m.setattr(modrep, "decompose_summands", spy_split)
        m.setattr(modrep.DirectEngine, "_label", spy_label)
        m.setattr(gfp, "_product", spy_product)
        m.setattr(modrep.Summand, "__init__", spy_init)
        m.setattr(modrep, "_poly_eval_vector", spy_eval)
        for name in real:
            m.setattr(gfp, name, spy(name))
        for n in range(top + 1):
            engine.degree = n
            engine.registry_for(n)
    return types.SimpleNamespace(
        splits=splits, sided=sided, largest=largest[0], handed=handed, lifts=lifts
    )


@pytest.mark.parametrize("p", (3, 5))
def test_lifted_species_equal_rank_route(p):
    """On every leaf of the sweeps of degree <= 7, the species read from
    the lifted idempotent and its gathers equals the rank route of the
    dense e, and its sign twist, which reads Fix(s^2) from the class of
    s^2, equals the twist of the rank route by the dense fixed points of
    the squared words, at every k."""
    leaves = [leaf for _, leaves in sweep(p).splits for leaf in leaves]
    assert len(leaves) > {3: 60, 5: 70}[p]
    for leaf in leaves:
        where = (p, leaf.parent.ab, leaf.dim)
        species = rank_route(leaf)
        assert leaf.species() == species, where
        squares = [fixed for _, fixed in rank_route(leaf, squared)]
        assert leaf.species_twisted() == sweeps.twist(species, squares, leaf.n, p), where


@pytest.mark.parametrize("p", (3, 5))
def test_leaf_idempotents_orthogonal_and_sum_to_one(p):
    """The leaves of every split of the sweeps of degree <= 7 are
    orthogonal idempotents of A summing to 1, their dimensions to dim M."""
    for module, leaves in sweep(p).splits:
        end = module.end
        if len(leaves) == 1 and leaves[0].whole:
            continue
        es = [leaf.e for leaf in leaves]
        assert np.array_equal(sum(es) % p, end.one), module.ab
        for i, x in enumerate(es):
            left = end.left(x, p)
            for j, y in enumerate(es):
                want = x if i == j else np.zeros_like(x)
                assert np.array_equal(gfp.matmul(left, y, p), want), (module.ab, i, j)
        assert sum(leaf.dim for leaf in leaves) == module.dim


def lift_poly_faults(coeffs, p, m):
    """The properties that the integer polynomial f, of coefficients 0 and
    then coeffs from x^1 up, fails, over Z, as the lift from p to p^m:
    f (1 - f) divisible by (x (1 - x))^m, f = x modulo p and x^2 - x, and
    degree 2m - 1."""
    from sympy import Poly, symbols

    x = symbols("x")
    f = Poly([*reversed(coeffs), 0], x)
    faults = []
    if not (f * (1 - f)).rem(Poly((x * (1 - x)) ** m, x)).is_zero:
        faults.append("f (1 - f) is not divisible by (x (1 - x))^m")
    if any(c % p for c in (f - x).rem(Poly(x**2 - x, x)).all_coeffs()):
        faults.append("f is not x modulo p and x^2 - x")
    if f.degree() != 2 * m - 1:
        faults.append(f"f has degree {f.degree()}, not {2 * m - 1}")
    return faults


def test_lift_poly():
    """For p = 3, 5, 7 and 5039 and every m with p^m <= LIFT_CAP, the lift
    polynomial to q = p^m has degree 2m - 1, no more than the degree
    3^ceil(log2 m) of Newton's composite, and takes an idempotent mod p
    to one mod q; with its top term dropped, it does not."""
    checked = 0
    for p in (3, 5, 7, 5039):
        m = 1
        while p**m <= modrep.LIFT_CAP:
            coeffs = modrep._lift_poly(p**m, p)
            assert lift_poly_faults(coeffs, p, m) == [], (p, m)
            assert lift_poly_faults(coeffs[:-1], p, m), (p, m)
            assert len(coeffs) <= len(newton(p**m, p)), (p, m)
            checked += 1
            m += 1
    assert checked == 15 + 10 + 8 + 2


@pytest.mark.parametrize("p", (3, 5))
def test_lifts_equal_newton_lifts(p):
    """Every lift of an idempotent in the sweeps of degree <= 7 equals the
    lift by Newton's composite: both are idempotents mod q, polynomials
    in r that agree mod p, and two commuting idempotents that agree mod p
    are equal. There are 139 lifts at p = 3 and 83 at p = 5, one per node
    built with its L_r, so HANDED floors them too."""
    lifts = sweep(p).lifts
    assert len(lifts) > HANDED[p] and all(lifts)


@pytest.mark.parametrize("p", (3, 5))
def test_handed_down_left_multiplications_are_exact(p):
    """Every node that the splitting tree of the sweeps of degree <= 7
    builds with its L_r carries exactly parent.end.left(r, q), dtype
    included: a split hands its children the matrices over Z/q it
    computed, the rest of the node's as L_r - sum L_e_i, and the lifts
    and later splits of the children read them."""
    handed = sweep(p).handed
    assert len(handed) > HANDED[p] and all(handed)


def test_planted_unreduced_rest_fails_the_handed_down_check(monkeypatch):
    """L_r - sum L_e_i left unreduced mod q for the rest of every split
    agrees with the right matrix mod q, so no later split notices it;
    the check of the handed-down L_r does."""
    real = modrep._split_once

    def planted(end, r, left, q, z, p):
        split = real(end, r, left, q, z, p)
        if split is None:
            return None
        *parts, (rest, rest_left) = split
        unreduced = left.astype(np.int64) - sum(li.astype(np.int64) for _, li in parts)
        return parts + [(rest, unreduced.astype(rest_left.dtype))]

    monkeypatch.setattr(modrep, "_split_once", planted)
    handed = sweep.__wrapped__(3, 5).handed
    assert handed and not all(handed)


@pytest.mark.parametrize("p", (3, 5))
def test_no_operand_of_the_module_dimension_at_degree_seven(p):
    """No GF(p) product, elimination or rank of the degree-7 sweep takes
    an operand with a side of the dimension of the row it splits: the
    split works in End_G(M), and the species at k >= 1 on e[X, X]."""
    recorded = sweep(p)
    assert recorded.splits and recorded.sided == []


def held_arrays(x):
    """The arrays in x, through tuples, lists and dicts."""
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, (tuple, list)):
        for y in x:
            yield from held_arrays(y)
    elif isinstance(x, dict):
        for y in x.values():
            yield from held_arrays(y)


@pytest.mark.parametrize("p", (3, 5))
def test_sweep_labels_only_the_cells_it_reads(p):
    """At degree 7, no array held by the End of a module the sweeps
    split, cached products included, has dim^2 entries: the split labels
    only the cells it reads (HomBasis.at), never the whole grid. Modules
    of no more words than the n(n - 1) columns of End's per-word parity
    tables are left out, as those tables alone reach dim^2 entries
    there."""
    recorded = sweep(p)
    ends = [(m, vars(m).get("end")) for m, _ in recorded.splits if m.n == 7]
    ends = [(m, end) for m, end in ends if m.dim > m.n * (m.n - 1)]
    assert len(ends) >= 4  # 6 at p = 3, 4 at p = 5
    for m, end in ends:
        assert "_cells" in vars(end), m.ab
        largest = max(a.size for a in held_arrays(vars(end)))
        assert largest < m.dim**2, (m.ab, largest)


@pytest.mark.parametrize("seed", (0, 1, 1000))
def test_degree_six_products_stay_below_the_threading_bound(seed):
    """In the degree-6 sweep at p = 3 no product reaches the size from
    which OpenBLAS runs it on two threads."""
    assert 0 < sweep(3, 6, seed).largest <= THREADING_BOUND


def primes_to(n):
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    return np.flatnonzero(sieve)


def test_lift_exact_at_the_caps():
    """The lift modulus q, the least power of p above 2 dim + 1, is at most
    LIFT_CAP = 5039^2 at every odd prime up to PRIME_CAP and dimension up
    to DIM_CAP, so the products over Z/q, of inner dimension at most
    DIM_CAP, are exact in int64 and the weighted counts of HomBasis.left
    exact in float64. A lift at that modulus, forced on a small module at
    p = 5039, reads the same species as at its own modulus, and at the
    largest prime up to PRIME_CAP, where q = p, the semisimple M(2,1,1)
    splits into its Specht modules."""
    from sympy import prevprime

    def modulus(p, dim):
        module = types.SimpleNamespace(p=p, dim=dim)
        return modrep.SignedPermModule.lift_modulus.func(module)

    odd = primes_to(2 * modrep.DIM_CAP + 1)[1:]
    assert max(modulus(int(p), modrep.DIM_CAP) for p in odd) == modrep.LIFT_CAP
    assert modulus(5039, modrep.DIM_CAP) == modrep.LIFT_CAP == 5039**2
    largest = prevprime(modrep.PRIME_CAP + 1)
    assert modulus(largest, modrep.DIM_CAP) == largest < modrep.LIFT_CAP
    assert modrep.DIM_CAP * (modrep.LIFT_CAP - 1) ** 2 < 2**63
    assert modrep.DIM_CAP * modrep.LIFT_CAP < 2**53
    assert gfp.product_dtype(modrep.DIM_CAP, modrep.LIFT_CAP) is np.int64

    def species(p, q=None):
        m = modrep.build_module(((2, 1, 1), ()), p)
        if q is not None:
            m.lift_modulus = q
        leaves = modrep.decompose_summands(m, random.Random(0))
        return sorted(leaf.fingerprint() for leaf in leaves)

    want = species(5039)
    assert want == species(5039, modrep.LIFT_CAP)
    assert sorted(dim for dim, _ in want) == [1, 2, 3, 3, 3]
    assert sorted(dim for dim, _ in species(largest)) == [1, 2, 3, 3, 3]
