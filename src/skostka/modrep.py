"""Signed permutation modules over GF(p) and their indecomposable summands.

A module M(alpha|beta) has a basis of colour words: assignments of the n
points to colours c_1..c_r, d_1..d_s with content (alpha, beta). An
adjacent transposition swaps two positions, fixing a word with sign +1
when both positions carry the same c-colour and sign -1 when they carry
the same d-colour. Generators are stored as (perm, sign) pairs, so the
group action costs O(dim) instead of a matrix product.

The registry sweep splits modules by a Fitting-style tree inside the
endomorphism algebra A = End_G(M), not on M (condensation, as in Lux,
Mueller and Ringe, J. Symbolic Comput. 1994; for permutation modules A
is a Schur-algebra piece, Green, LNM 830). The orbit basis of A is read
once per module off the contingency tables of basis pairs, and a
product in A off row 0 and the first-cell columns of that basis
(HomBasis.left), so no matrix of the module's dimension is formed. A
node of the tree is an idempotent e of A, held as its coordinates over
GF(p); the root, the whole module, is e = 1. A node is split by z =
e a for a random element a: the coprime factors of the minimal
polynomial of z on the Krylov space of e, that of e a e in eAe, cut it
apart in one pass by Chinese-remainder idempotents, polynomials in z
times e, each checked to be idempotent inside the node, and the rest.
A node that one random z leaves whole is decided exactly in eAe: when
every element is a unit or nilpotent the node is certified
indecomposable, and else an element found there splits it.

Every summand of M(alpha|beta) is a p-permutation module, and its
species (Summand.species), one entry Summand.brauer(k) per group Q_k of
k disjoint p-cycles, k = 0..n//p, decides its isomorphism type exactly
for n < p^2, so modules_isomorphic draws no random number. An entry is
the dimension and the Brauer character of the Brauer quotient at Q_k;
at Q_0 = 1 it is the fingerprint, read from traces of e lifted to an
idempotent over Z/q, and at k >= 1 from ranks of the gather e[X, X].
Species add over direct sums, and a whole module's is counted from its
label, so the multiplicities of a module are one exact solve. The
registry of class species sweeps the label rows in the fixed total
order: a row whose class is the sign twin of an earlier one is solved
with the twin's species twisted by the sign; any other row is built and
split, and its one leaf of no known species, certified indecomposable,
is its class. Loud integrity errors guard every inconsistency.
"""

import random
from functools import cached_property, lru_cache, reduce
from itertools import combinations_with_replacement, product
from math import factorial, isqrt

import numpy as np

from . import gfp
from .combinat import (
    check_odd_prime,
    label_rows,
    partitions_of,
    sign_twist_label,
    size,
    wp,
)

DIM_CAP = 2520
# The largest p for which every engine product is exact in float64: their
# inner dimensions are at most DIM_CAP and their entries below p, so
# DIM_CAP (p-1)^2 < 2^53.
PRIME_CAP = 1 + isqrt((2**53 - 1) // DIM_CAP)
# The largest modulus of a lift (SignedPermModule.lift_modulus), the least
# power of p above 2 dim + 1 <= 5041: 5039^2, at the largest prime below
# 5041; past 5041 it is p itself, below PRIME_CAP. A product over Z/q has
# inner dimension at most DIM_CAP, so DIM_CAP (LIFT_CAP - 1)^2 < 2^63 keeps
# it exact in int64.
LIFT_CAP = 5039**2
# the bound on the entries of the elements of End(x) that the certificate
# tests at once
CELL_BLOCK = 2**18
# the lines of End(x) that the certificate tests before it tries random
# elements, and the number of those it tries
LINES = 2**20
TRIES = 16


class DimensionCapError(RuntimeError):
    """Raised before building a module over the cap or sweeping n >= p^2."""


class IntegrityError(RuntimeError):
    """Raised when decomposition bookkeeping reaches an impossible state."""


def check_prime(p):
    """Refuse p unless it is an odd prime at most PRIME_CAP."""
    check_odd_prime(p)
    if p > PRIME_CAP:
        raise ValueError(
            f"p = {p} is above {PRIME_CAP}: GF(p) products of modules up to "
            f"dimension {DIM_CAP} would leave the exact range of float64"
        )


def module_dimension(ab):
    alpha, beta = ab
    n = size(alpha) + size(beta)
    d = factorial(n)
    for part in tuple(alpha) + tuple(beta):
        d //= factorial(part)
    return d


def _check_dim(ab):
    """module_dimension(ab), refused with DimensionCapError over the cap."""
    dim = module_dimension(ab)
    if dim > DIM_CAP:
        raise DimensionCapError(f"M{ab} has dimension {dim}, over the cap {DIM_CAP}")
    return dim


def _multiset_words(counts):
    """All distinct arrangements of the multiset, lexicographically."""
    total = sum(counts)
    counts = list(counts)
    word = [0] * total
    out = []

    def rec(k):
        if k == total:
            out.append(tuple(word))
            return
        for x in range(len(counts)):
            if counts[x]:
                counts[x] -= 1
                word[k] = x
                rec(k + 1)
                counts[x] += 1

    rec(0)
    return out


class SignedPermModule:
    """Explicit signed permutation module with monomial generator actions."""

    def __init__(self, ab, p, words, perms, signs):
        self.ab = ab
        self.p = p
        self.n = size(ab[0]) + size(ab[1])
        self.words = words
        self.dim = len(words)
        self.perms = perms
        self.signs = signs
        self._traces = {}  # trace_rows by words

    @cached_property
    def end(self):
        """End(M) as a HomBasis, built once per module."""
        return HomBasis(self, self)

    @cached_property
    def lift_modulus(self):
        """q, the least power of p above 2 dim + 1: a trace of an element
        of End(M_Z) on a summand, of absolute value at most dim, is fixed
        by its residue mod q. At most LIFT_CAP."""
        q = self.p
        while q <= 2 * self.dim + 1:
            q *= self.p
        return q

    def trace_rows(self, words):
        """(T, inverse): per word s, of order o prime to p, the row T_s over
        Z/q, q = lift_modulus, with T_s a = sum_j tr(s^j a) mod q for the
        coordinates a of an element of End(M), and inverse[s] = o^-1 mod q.

        tr(s^j a) sums, over the basis words u, the sign of s^j at u times
        the entry of a at the cell (u, s^j u): the powers' cells are
        labelled in one lookup per word (HomBasis.at). The powers run
        until the action returns to the identity, which takes o steps or a
        divisor of o, over which the average is the same. Kept per words."""
        if words not in self._traces:
            end, q, identity = self.end, self.lift_modulus, np.arange(self.dim)
            rows, orders = [], []
            for word in words:
                s = _word_action(self, word)
                perms, signs = [identity], [np.ones(self.dim, dtype=np.int64)]
                perm, sign = s
                while (perm != identity).any() or (sign != 1).any():
                    perms.append(perm)
                    signs.append(sign)
                    perm, sign = _compose_words(*s, perm, sign)
                cells = end.at(identity, np.array(perms)).ravel()
                acc = np.bincount(cells, np.concatenate(signs), 2 * end.num + 1)
                rows.append(acc[: end.num] - acc[end.num : -1])
                orders.append(len(perms))
            rows = np.array(rows, dtype=np.int64).reshape(len(words), end.num)
            inverse = np.array([pow(o, -1, q) for o in orders], dtype=np.int64)
            self._traces[words] = gfp._mod(rows, q), inverse
        return self._traces[words]

    def fixed_cells(self, k):
        """The labels of the cells (X[i], X[j]), X the Q_k-fixed words: an
        element's table gathers there to its block e[X, X]."""
        X = self.quotients[k][0]
        return self.end.at(X, X, grid=True)

    @cached_property
    def quotients(self):
        """Per k = 0..n//p, (X, where): the words X constant on each of
        the first k blocks of p points, which N(Q_k) permutes; where[X[i]] = i."""
        words = np.array(self.words, dtype=np.int64).reshape(self.dim, self.n)
        out = []
        for k in range(self.n // self.p + 1):
            blocks = words[:, : k * self.p].reshape(self.dim, k, self.p)
            fixed = np.flatnonzero((blocks == blocks[:, :, :1]).all(axis=(1, 2)))
            where = np.zeros(self.dim, dtype=np.intp)
            where[fixed] = np.arange(len(fixed))
            out.append((fixed, where))
        return out


def build_module(ab, p):
    """Construct M(alpha|beta) over GF(p) with its generator actions."""
    check_prime(p)
    alpha, beta = tuple(ab[0]), tuple(ab[1])
    if any(x < 0 for x in alpha + beta):
        raise ValueError("negative entries in the content pair")
    dim = _check_dim((alpha, beta))
    n = size(alpha) + size(beta)
    r = len(alpha)
    words = _multiset_words(alpha + beta)
    index = {w: j for j, w in enumerate(words)}
    perms = []
    signs = []
    for i in range(n - 1):
        perm = np.empty(dim, dtype=np.int64)
        sign = np.empty(dim, dtype=np.int64)
        for j, w in enumerate(words):
            a, b = w[i], w[i + 1]
            if a == b:
                perm[j] = j
                sign[j] = 1 if a < r else -1
            else:
                perm[j] = index[w[:i] + (b, a) + w[i + 2 :]]
                sign[j] = 1
        perms.append(perm)
        signs.append(sign)
    return SignedPermModule((alpha, beta), p, words, perms, signs)


def _compose_words(perm_a, sign_a, perm_b, sign_b):
    """(perm, sign) of the product action A_a A_b."""
    return perm_a[perm_b], sign_b * sign_a[perm_b]


def _word_action(module, word):
    """(perm, sign) for the product of generators s_{i+1}, i in word."""
    perm = np.arange(module.dim, dtype=np.int64)
    sign = np.ones(module.dim, dtype=np.int64)
    for i in word:
        perm, sign = _compose_words(module.perms[i], module.signs[i], perm, sign)
    return perm, sign


def _perm_word(perm):
    """A generator-index word whose product is the permutation perm of
    the points, by bubble sort: one letter per swap of two adjacent
    entries out of order."""
    arr, word = list(perm), []
    for end in range(len(arr) - 1, 0, -1):
        for i in range(end):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                word.append(i)
    return tuple(word)


@lru_cache(maxsize=None)
def _normalizer_words(n, p, k):
    """One generator-index word per p-regular class of N(Q_k), for
    kp <= n < p^2, with Q_k generated by the p-cycles x -> x + 1 on the
    first k blocks of p points, read as GF(p).

    N(Q_k) = AGL(1, p) wr S_k x S_(n - kp). A class of the wreath
    product is a cycle type of the blocks and, per cycle, the class in
    AGL(1, p) of the product around it. Every cycle is shorter than p, so
    the class is p-regular exactly when each of those products is, and
    the p-regular classes of AGL(1, p) are those of x -> a x, one per
    multiplier a in GF(p)*. A cycle of blocks maps each block to the
    next by the identity and the last to the first by x -> a x. The
    other points take a p-regular cycle type of S_(n - kp), on runs of
    consecutive points. k = 0 lists the p-regular classes of S_n, at
    any n, but the identity, which fixes all of x(Q_0) = x.
    """
    blocks = []  # images of the first kp points
    for shape in partitions_of(k):
        lengths = sorted(set(shape), reverse=True)
        multisets = [
            combinations_with_replacement(range(1, p), shape.count(length))
            for length in lengths
        ]
        for pick in product(*multisets):
            perm, first = [], 0
            for length, a in zip(shape, [a for group in pick for a in group]):
                for i in range(1, length):
                    perm += range((first + i) * p, (first + i + 1) * p)
                perm += [first * p + a * x % p for x in range(p)]
                first += length
            blocks.append(perm)
    others = []  # images of the other points
    for rest in partitions_of(n - k * p):
        if any(part % p == 0 for part in rest) or rest == (1,) * n:
            continue
        perm, start = [], k * p
        for part in rest:
            perm += [*range(start + 1, start + part), start]
            start += part
        others.append(perm)
    return tuple(_perm_word(a + b) for a in blocks for b in others)


@lru_cache(maxsize=None)
def _orbit_shapes(n, p, k, words):
    """(types, tallies) for words s of order o prime to p: the orbit types
    of the powers h = s^j, an orbit type being the sorted multiset of
    (size, sign of h there) over the orbits of <h, t> on the points, t
    the p-cycles x -> x + 1 on the first k blocks; and per word s, (o,
    ((i, how many powers of s have types[i]), ...)). Per (n, p, k, words)."""
    t = [x - x % p + (x + 1) % p if x < k * p else x for x in range(n)]
    types, tallies = {}, []  # types: orbit type -> its index
    for word in words:
        s = list(range(n))
        for i in word:
            s[i], s[i + 1] = s[i + 1], s[i]
        tally, h = {}, list(range(n))
        while not tally or h != list(range(n)):
            low = list(range(n))  # per point, the least point of its orbit
            for _ in range(n):
                low = [min(low[x], low[h[x]], low[t[x]]) for x in range(n)]
            # the sign of h on an orbit is the parity of its inversions there
            pairs = [(x, y) for y in range(n) for x in range(y) if low[x] == low[y]]
            inv = [low[x] for x, y in pairs if h[x] > h[y]]
            orbits = ((low.count(o), (-1) ** inv.count(o)) for o in set(low))
            i = types.setdefault(tuple(sorted(orbits, reverse=True)), len(types))
            tally[i] = tally.get(i, 0) + 1
            h = [s[x] for x in h]
        tallies.append((sum(tally.values()), tuple(tally.items())))
    return tuple(types), tuple(tallies)


@lru_cache(maxsize=None)
def _colourings(content, r, shape):
    """The signed count of the colourings of the orbits of the orbit type
    shape, largest first, by the colours of content, the first r of them
    c-colours: a d-coloured orbit counts its sign. The fixed points, last
    and of sign +1, take the parts left in module_dimension ways."""
    ways = {content: 1}
    for m, sign in shape:
        if m == 1:
            break
        left = {}
        for rest, w in ways.items():
            for i, c in enumerate(rest):
                if c >= m:
                    key = rest[:i] + (c - m,) + rest[i + 1 :]
                    left[key] = left.get(key, 0) + (w if i < r else sign * w)
        ways = left
    return sum(w * module_dimension((rest, ())) for rest, w in ways.items())


@lru_cache(maxsize=None)
def _counted(ab, p, k, words):
    """(dim M(Q_k), (dim Fix(s) on M(Q_k) per word s)) for M = M(ab), from
    its label. M(Q_k) has the basis of the colour words constant on the
    first k blocks (Q_k fixes them with sign +1, a p-cycle being even);
    h in N(Q_k) fixes those constant on the orbits of <h, t>, with its
    sign on the d-coloured ones, so its trace counts signed colourings of
    the orbits, and s of order o prime to p fixes (1/o) sum_j trace(s^j).
    Traces are counted once per orbit type (_colourings), shared by the
    powers of every word and by the labels with the same colours."""
    n, content = size(ab[0]) + size(ab[1]), tuple(ab[0]) + tuple(ab[1])
    types, tallies = _orbit_shapes(n, p, k, ((), *words))
    traces = [_colourings(content, len(ab[0]), shape) for shape in types]
    dim, *fixed = [sum(c * traces[i] for i, c in tally) // o for o, tally in tallies]
    return dim, tuple(fixed)


def _whole_species(ab, p):
    """Summand.species of the whole module M(ab), n < p^2, by _counted."""
    n = size(ab[0]) + size(ab[1])
    quotients = range(n // p + 1)
    return tuple(_counted(ab, p, k, _normalizer_words(n, p, k)) for k in quotients)


# ---------------------------------------------------------------------------
# Hom spaces by sign-aware orbit analysis


class HomBasis:
    """Basis of the intertwiner space M -> N, labelled cell by cell on demand.

    An intertwiner X (dim N rows, dim M columns) must satisfy
    X[k', j'] = signN[k] * signM[j] * X[k, j] whenever the generator
    action carries the cell (k, j) to (k', j'), so the space has one
    basis element per orbit of cells that is not forced to zero, num in
    all, numbered by their first cells in row-major order and +1 there.

    A cell pairs a word u of N (its row) with a word v of M. Its
    S_n-orbit is its contingency table t[a][b] = #{i : u_i = a, v_i =
    b}: Hom between permutation modules is spanned by double cosets of
    Young subgroups (James, LNM 682). The table's digits (_key_digits)
    key the orbit, an int64 product of per-word tables. The stabilizer of
    the cell permutes the points within each table entry, so the orbit
    is forced to zero when two points share a c-colour on one side and a
    d-colour on the other. Otherwise the cell carries (-1)^inv, up to one
    sign per orbit, where inv counts the inversions of v among the points
    sharing a d-colour of u and those of u among the points sharing a
    d-colour of v; both are float32 products of point-pair tables, exact
    as their entries are at most n(n-1). Row 0 meets every orbit, as S_n
    moves every word to the first, so the orbits are the distinct keys of
    row 0, and any cell is labelled by finding its key there (at).

    A label is a signed gather index into the table
    [v_0, ..., v_{num-1}, -v_0, ..., -v_{num-1}, 0] built from the
    coefficients v of an element: k when the cell carries +1 times basis
    element k, num + k when it carries -1 times it, and 2 num when the
    cell is forced to zero. The engine holds elements of End(M) only as
    coefficients, multiplies them with left and right, and gathers only
    the cells it reads; no isomorphism question needs a Hom space.
    """

    def __init__(self, m, n_mod):
        if m.n != n_mod.n or m.p != n_mod.p:
            raise ValueError("hom requires equal degree and prime")
        base, digits = _key_digits(m.ab, n_mod.ab)
        if base**digits >= 2**63:
            raise OverflowError(
                f"the Hom-orbit keys of M{m.ab} -> M{n_mod.ab} need {digits} "
                f"digits in base {base}, beyond int64"
            )
        U, cu, du, gu = _pair_tables(n_mod)
        V, cv, dv, gv = _pair_tables(m)
        colours = len(m.ab[0]) + len(m.ab[1])
        self.shape = (n_mod.dim, m.dim)
        self._keys = ku, kv = base ** (colours * U), base**V
        ou, ov = np.hstack((du, gu)), np.hstack((gv, dv))
        # the pair columns that can add to inv: none for End of an unsigned M
        live = ou.any(axis=0) & ov.any(axis=0)
        self._odd = ou, ov = ou[:, live], ov[:, live]
        zero = (np.hstack((cu[:1], du[:1])) @ np.hstack((dv, cv)).T)[0] > 0
        self._keys0, first = np.unique(ku[0] @ kv.T, return_index=True)
        ranked = np.argsort(first)
        ranked = ranked[~zero[first[ranked]]]
        self.num = num = len(ranked)
        # the column of each basis element's first cell, in row 0, where it
        # is +1: its coordinate in an element is that element's entry there
        self.first_cells = first[ranked]
        # the label of an orbit's cell by the parity of its inv
        sign0 = (ou[0] @ ov[self.first_cells].T).astype(np.intp) & 1
        self._table = np.full((len(first), 2), 2 * num, dtype=np.intp)
        self._table[ranked, sign0] = np.arange(num)
        self._table[ranked, 1 - sign0] = num + np.arange(num)

    def at(self, u, v, grid=False):
        """The labels of the cells (u, v), pointwise over broadcast index
        arrays, or over the grid u x v of two index vectors, whose keys and
        parities are matrix products of the per-word tables."""
        (ku, kv), (ou, ov) = self._keys, self._odd
        if grid:
            key, odd = ku[u] @ kv[v].T, ou[u] @ ov[v].T
        else:
            key = np.einsum("...i,...i->...", ku[u], kv[v])
            odd = np.einsum("...i,...i->...", ou[u], ov[v])
        return self._table[np.searchsorted(self._keys0, key), odd.astype(np.intp) & 1]

    def table(self, coeffs, p):
        """The gather table of the element with these coefficients mod p."""
        v = np.asarray(coeffs, dtype=np.int64) % p
        table = np.empty(2 * self.num + 1, dtype=np.int64)
        table[: self.num] = v
        table[self.num : -1] = (-v) % p
        table[-1] = 0
        return table

    def sample(self, rng, p):
        """The coefficients of a random element, drawn from the
        random.Random rng."""
        return np.array([rng.randrange(p) for _ in range(self.num)], dtype=np.int64)

    # End(M) as an algebra A, on coefficients: below, the Hom space is
    # End(M), whose basis element 0 is the identity, as the diagonal is
    # the orbit of the first cell (0, 0)

    @cached_property
    def one(self):
        """The coefficients of the identity of End(M)."""
        return np.eye(1, self.num, dtype=np.int64)[0]

    @cached_property
    def _cells(self):
        """The cells (v, w_l) of the first-cell columns, w = first_cells,
        at which both the cell and the cell (0, v) of row 0 carry basis
        elements, as flat arrays: the keys l num + O and l num + O0 of the
        products, the element O of the cell, the element O0 of (0, v), and
        the product of the two signs."""
        m, words = self.num, np.arange(self.shape[0])
        cols, row0 = self.at(words, self.first_cells, grid=True), self.at(0, words)
        v, l = np.nonzero((cols < 2 * m) & (row0 < 2 * m)[:, None])
        col, row = cols[v, l], row0[v]
        sign = np.where((col < m) == (row < m), 1.0, -1.0)
        col, row = col % m, row % m
        return l * m + col, l * m + row, col, row, sign

    def left(self, a, q, rows=None):
        """L_a over Z/q: the num x num matrix of x -> a x on coefficients,
        for the coefficients a of an element of End(M), or its given rows;
        for a stack of coefficient rows, the stack of their matrices.

        The coefficient of a X_O on X_O'' is its entry at the first cell
        (0, w) of O'', sum_v a[0, v] X_O[v, w]: a weighted count of the
        cells (v, w) of the first-cell columns, each weighted by the entry
        a[0, v] of row 0, so no num^3 table of structure constants is
        formed. Its sums, of at most dim terms below q <= LIFT_CAP, are
        exact in float64, and it is held in the dtype of its products."""
        key, _, col, row, sign = self._cells
        m, out = self.num, self.num
        if rows is not None:
            at = np.full(m, -1)
            at[rows] = np.arange(len(rows))
            l = at[key // m]
            keep = l >= 0
            key, row, sign = l[keep] * m + col[keep], row[keep], sign[keep]
            out = len(rows)
        a = np.asarray(a)
        acc = np.array([np.bincount(key, sign * x[row], out * m) for x in a.reshape(-1, m)])
        acc = gfp._mod(acc.astype(np.int64), q).astype(gfp.product_dtype(m, q), copy=False)
        return acc.reshape(*a.shape[:-1], out, m)

    def right(self, b, q):
        """R_b over Z/q: the matrix of x -> x b, from the same cells. The
        coefficient of X_O b on X_O'' is sum_v X_O[0, v] b[v, w], so each
        cell counts b[v, w] towards the element O0 of (0, v)."""
        _, key, col, _, sign = self._cells
        acc = gfp._mod(np.bincount(key, sign * b[col], self.num**2).astype(np.int64), q)
        return acc.astype(gfp.product_dtype(self.num, q)).reshape(self.num, self.num)


def _key_digits(ab, cd):
    """(base, digits) of the Hom-orbit keys of M(ab) -> M(cd): one digit
    per pair of colours, each below one more than the smaller largest
    part."""
    a, c = ab[0] + ab[1], cd[0] + cd[1]
    return 1 + min(max(a, default=0), max(c, default=0)), len(a) * len(c)


def _pair_tables(module):
    """The words of the module as a (dim, n) int64 array, and per word,
    over the point pairs i < j, whether the two points share a c-colour,
    share a d-colour, or are inverted, as float32 0/1 tables."""
    words = np.array(module.words, dtype=np.int64).reshape(module.dim, module.n)
    i, j = np.triu_indices(module.n, 1)
    a, b = words[:, i], words[:, j]
    same = a == b
    r = len(module.ab[0])
    tables = [x.astype(np.float32) for x in (same & (a < r), same & (a >= r), a > b)]
    return [words] + tables


# ---------------------------------------------------------------------------
# polynomials over GF(p), coefficient lists of Python ints in [0, p), low
# degree first, with no trailing zeros; [] is the zero polynomial


def _poly_trim(c):
    """The list c without its trailing zeros."""
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def _poly_monic(a, p):
    inv = pow(a[-1], p - 2, p)
    return [x * inv % p for x in a]


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _poly_trim([x % p for x in out])


def _poly_divmod(a, b, p):
    a = _poly_trim(a)
    b = _poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(b[-1], p - 2, p)
    db = len(b) - 1
    low = b[:db]
    q = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1 - db, -1, -1):
        c = a[k + db] * inv % p
        if c:
            q[k] = c
            a[k : k + db] = [(x - c * y) % p for x, y in zip(a[k : k + db], low)]
    return q, _poly_trim(a[:db])


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return _poly_monic(a, p) if a else a


def _poly_prod(polys, p):
    return reduce(lambda a, b: _poly_mul(a, b, p), polys)


def _poly_invmod(a, f, p):
    """b with a b = 1 modulo f and deg b < deg f (extended Euclid).

    a and f may be unreduced integer sequences. Keeps s a = r modulo f
    along the remainder sequence of f and a; the last nonzero remainder
    is their gcd, a nonzero constant exactly when a and f are coprime,
    and its s has degree below deg f. Raises IntegrityError when they
    are not coprime.
    """
    r0 = _poly_trim([int(x) % p for x in f])
    r1 = _poly_divmod([int(x) % p for x in a], r0, p)[1]
    s0, s1 = [], [1]
    while r1:
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1, p), p)
    if len(r0) != 1:
        raise IntegrityError("no inverse modulo a polynomial sharing a factor")
    inv = pow(r0[0], p - 2, p)
    return [x * inv % p for x in s0]


def matrix_minpoly(z, v, p):
    """Monic minimal polynomial of the matrix z over GF(p) on the Krylov
    space of the vector v: exact, from one Krylov run, with no draw and no
    check. For v the identity of an algebra on which z acts as left
    multiplication, it is the minimal polynomial of z's element.

    Reduces z^k v against the reduced earlier vectors, keeping with each
    the coefficient list of the polynomial in z that produced it from v.
    z is converted once to the dtype of its products, so that no Krylov
    step converts it.
    """
    d = z.shape[0]
    z = z.astype(gfp.product_dtype(d, p), copy=False)
    rows = []
    cur = np.asarray(v, dtype=np.int64) % p
    for k in range(d + 1):
        red = cur
        cmb = [0] * k + [1]
        for lead, row, rc in rows:
            c = int(red[lead])
            if c:
                red = (red - c * row) % p
                cmb = _poly_sub(cmb, [c * x for x in rc], p)
        nz = np.flatnonzero(red)
        if not nz.size:
            return _poly_monic(cmb, p)
        lead = int(nz[0])
        inv = pow(int(red[lead]), p - 2, p)
        rows.append((lead, (red * inv) % p, [x * inv % p for x in cmb]))
        cur = gfp.matmul(z, cur[:, None], p)[:, 0]
    raise IntegrityError("Krylov iteration failed to close")


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return _poly_trim([(x - y) % p for x, y in zip(a, b)])


def _poly_powmod(a, e, f, p):
    """a^e modulo f, by repeated squaring."""
    out = [1]
    a = _poly_divmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _poly_divmod(_poly_mul(out, a, p), f, p)[1]
        e >>= 1
        if e:
            a = _poly_divmod(_poly_mul(a, a, p), f, p)[1]
    return out


def _squarefree(f, p):
    """[(g, m)] with f = prod g^m, the g monic, squarefree and coprime.

    f is monic of positive degree. c = gcd(f, f') holds each factor of
    f to its multiplicity less one, or to all of it when p divides the
    multiplicity, so w = f / c is the product of the other factors.
    Repeated gcds of w with c peel those off one multiplicity at a time.
    What is left of c is a polynomial in x^p: the p-th power of the
    polynomial of its every p-th coefficient, as the Frobenius fixes
    GF(p).
    """
    out = []
    c = _poly_gcd(f, _poly_trim([i * x % p for i, x in enumerate(f)][1:]), p)
    w = _poly_divmod(f, c, p)[0]
    mult = 1
    while len(w) > 1:
        y = _poly_gcd(w, c, p)
        g = _poly_divmod(w, y, p)[0]
        if len(g) > 1:
            out.append((g, mult))
        w = y
        c = _poly_divmod(c, y, p)[0]
        mult += 1
    if len(c) > 1:
        out += [(g, m * p) for g, m in _squarefree(c[::p], p)]
    return out


def _distinct_degree(f, p):
    """[(g, d)]: g the product of the degree-d factors of f.

    f is monic and squarefree. The factors of degree d divide
    x^(p^d) - x, and those of smaller degree are gone by step d.
    """
    out = []
    x = [0, 1]
    h = x
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _poly_powmod(h, p, f, p)
        g = _poly_gcd(f, _poly_sub(h, x, p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _poly_divmod(f, g, p)[0]
            h = _poly_divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f, d, p, rng):
    """The irreducible factors of f, all of degree d (Cantor-Zassenhaus).

    f is monic and squarefree. For a random a, a^((p^d - 1) / 2) is +1
    or -1 modulo each factor, independently with probability about one
    half, so its gcd with f, less one, usually splits f.
    """
    if len(f) - 1 == d:
        return [f]
    e = (p**d - 1) // 2
    while True:
        a = _poly_trim([rng.randrange(p) for _ in range(len(f) - 1)])
        g = _poly_gcd(f, _poly_sub(_poly_powmod(a, e, f, p), [1], p), p)
        if 1 < len(g) < len(f):
            return _equal_degree(g, d, p, rng) + _equal_degree(
                _poly_divmod(f, g, p)[0], d, p, rng
            )


def _factor_poly(coeffs, p):
    """Irreducible factorization [(coefficient list, multiplicity)], sorted.

    The factors are monic, each listed once, and sorted by degree and
    then by coefficients; constants have no factors. Squarefree, then
    distinct-degree, then equal-degree factorization. The equal-degree
    step draws from its own fixed generator: the factors are unique, so
    the answer does not depend on the draws.
    """
    f = _poly_trim([int(c) % p for c in coeffs])
    if len(f) < 2:
        return []
    f = _poly_monic(f, p)
    if len(f) == 2:
        return [(f, 1)]
    rng = random.Random(0)
    out = [
        (q, mult)
        for g, mult in _squarefree(f, p)
        for h, d in _distinct_degree(g, p)
        for q in _equal_degree(h, d, p, rng)
    ]
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


# ---------------------------------------------------------------------------
# Fitting decomposition into indecomposable summands


@lru_cache(maxsize=None)
def _newton(q, p):
    """The coefficients mod q, from x^1 up, of the composite of N(x) =
    3 x^2 - 2 x^3 with itself until p^(2^k) >= q, for a power q of p:
    x^2 = x mod p^j gives N(x)^2 = N(x) mod p^(2j), so the composite
    takes an idempotent mod p to one mod q."""
    out, precision = [0, 1], p
    while precision < q:
        square = _poly_mul(out, out, q)
        cube = _poly_mul(square, out, q)
        out = _poly_sub([3 * c for c in square], [2 * c for c in cube], q)
        precision *= precision
    return tuple(out[1:])


class Summand:
    """A direct summand x = eM of a signed permutation module M, a node of
    the splitting tree: e is an idempotent of A = End_G(M), held as its
    coefficients over GF(p) in the orbit basis of parent.end.
    Summand(parent), with no e, is the whole parent: whole, with e = 1
    left implicit, so that the whole module's species is counted from
    its label with no End(M) built.

    e may be given as any integer vector r = e mod p, with left, the
    matrix L_r of x -> r x on A over Z/q, q = parent.lift_modulus, when
    it is known; the lift of e is a polynomial in r, evaluated by L_r.
    The splitting tree hands each node its r and L_r, and drops L_r once
    the node is done.
    """

    def __init__(self, parent, e=None, left=None):
        self.parent = parent
        self.whole = e is None
        self.p = parent.p
        self.n = parent.n
        if self.whole:
            self.e, self.dim = None, parent.dim
        else:
            self.e = gfp.normalize(e, self.p)
            self._rep = gfp.normalize(e, parent.lift_modulus)
        self._left = left
        self._brauer = {}  # brauer(k) by k

    def over_q(self):
        """(r, L_r) over Z/q: the identity for the whole module."""
        if self.whole:
            one = self.parent.end.one
            return one, np.eye(len(one), dtype=np.int64)
        if self._left is None:
            self._left = self.parent.end.left(self._rep, self.parent.lift_modulus)
        return self._rep, self._left

    @cached_property
    def dim(self):
        """dim x of a proper summand, the trace of its lifted idempotent."""
        return self._fixed(0, ())[0]

    @cached_property
    def _lifted(self):
        """The idempotent e' of A over Z/q, q = parent.lift_modulus, that
        e lifts to: Newton's iteration e <- 3 e^2 - 2 e^3, each step of
        which doubles the power of p to which e^2 = e holds, run as one
        polynomial in r (_newton), which needs no product but by L_r. The
        orbit basis is a Z-basis of End_ZG(M_Z), so A has integer
        structure constants; r^2 = r mod p is checked. Lifts from other
        r are conjugate in A, which commutes with the group, so their
        traces against group elements are the same."""
        q, p = self.parent.lift_modulus, self.p
        r, left = self.over_q()
        if ((gfp.matmul(left, r, q) - r) % p).any():
            raise IntegrityError("the idempotent to lift is not idempotent mod p")
        return _poly_eval_vector(_newton(q, p), left, r, q)

    def _fixed(self, k, words):
        """(dim x(Q_k), (dim Fix(s) on x(Q_k) per word s)) for the summand
        x, with Q_0 = 1; each word s normalizes Q_k and has order o prime
        to p. A whole module's is counted (_counted). At k = 0 a proper
        summand's is read from its lifted idempotent e': s fixes
        (1/o) sum_j tr(s^j e') of x, the average of its Brauer character
        over <s>, an integer in [0, dim x] read from its residue mod q
        (SignedPermModule.trace_rows; the empty word gives dim x). At
        k >= 1 its quotient is the image of E = e[X, X], X the Q_k-fixed
        words, and s, commuting with E, fixes rank E - rank((S - I) E) of
        it; E and every (S - I) E are ranked in one stack."""
        p, parent = self.p, self.parent
        if self.whole:
            return _counted(parent.ab, p, k, words)
        if not k:
            q = parent.lift_modulus
            rows, inverse = parent.trace_rows(((), *words))
            dim, *fixed = (gfp.matmul(rows, self._lifted, q) * inverse % q).tolist()
            if dim > parent.dim or max(fixed, default=0) > dim:
                raise IntegrityError("a lifted trace is not the dimension of a fixed space")
            return dim, tuple(fixed)
        X, where = parent.quotients[k]
        actions = [_word_action(parent, w) for w in words]
        actions = [(where[perm[X]], sign[X]) for perm, sign in actions]
        E = parent.end.table(self.e, p)[parent.fixed_cells(k)]
        stack = np.empty((len(words) + 1, *E.shape), dtype=np.int64)
        stack[0] = E
        for SE, (target, sign) in zip(stack[1:], actions):
            SE[target] = sign[:, None] * E
            SE -= E
        rank, *ranks = gfp.rank(stack, p).tolist()
        return rank, tuple(rank - r for r in ranks)

    def brauer(self, k):
        """(dim x(Q_k), dim Fix(s) on x(Q_k) per _normalizer_words s), once."""
        if k not in self._brauer:
            self._brauer[k] = self._fixed(k, _normalizer_words(self.n, self.p, k))
        return self._brauer[k]

    def fingerprint(self):
        """Iso invariant: brauer(0), the dimension and dim Fix(g) for one
        g of each p-regular class but 1.

        g has order prime to p, so it acts semisimply, and as every
        class of S_n is rational these fixed-point dimensions determine
        the Brauer character (by Moebius inversion over the cyclic
        subgroups). So unequal fingerprints prove two summands
        non-isomorphic, and equal ones agree in the trace mod p of
        every group element.
        """
        return self.brauer(0)

    def species(self):
        """Exact iso invariant: (brauer(k) for k = 0..n//p), fingerprint first.

        x is a p-permutation module, as M is induced from a linear
        character of a Young subgroup that is trivial on p-subgroups.
        Two such modules are isomorphic exactly when their Brauer
        quotients have equal Brauer characters (Broue, Proc. AMS 93,
        1985), and for n < p^2 the quotients at the Q_k, the vertices of
        signed Young modules (Donkin, Proc. LMS 83, 2001), suffice. From
        n = p^2 on, the Sylow subgroups of S_(p^2) are vertices too, and
        the species is refused with ValueError.
        """
        n, p = self.n, self.p
        if n >= p * p:
            raise ValueError(
                f"no species at degree {n} >= p^2 = {p * p}: it would need the "
                f"Brauer quotients at the Sylow subgroups of S_{p * p} too"
            )
        return (self.fingerprint(), *map(self.brauer, range(1, n // p + 1)))

    def species_twisted(self):
        """The species of x (x) sgn. A p-cycle is even, so (x (x) sgn)(Q_k)
        is x(Q_k) (x) sgn, where a word s of even length fixes what it
        fixed, and one of odd length acts as -s, fixing the (-1)-eigenspace
        of the semisimple s, of dimension Fix(s^2) - Fix(s), s^2 = s + s."""
        out = []
        for k, (rank, fixed) in enumerate(self.species()):
            words = _normalizer_words(self.n, self.p, k)
            squares = self._fixed(k, tuple(w + w for w in words))[1]
            pairs = zip(words, fixed, squares)
            out.append((rank, tuple(sq - f if len(w) % 2 else f for w, f, sq in pairs)))
        return tuple(out)


def _poly_eval_vector(coeffs, left, v, p):
    """coeffs(z) v by Horner's rule, for left the matrix of x -> z x,
    converted once to the dtype of its products."""
    left = left.astype(gfp.product_dtype(len(left), p), copy=False)
    out = np.zeros_like(v)
    for c in reversed([int(c) % p for c in coeffs]):
        out = gfp._mod(gfp.matmul(left, out, p) + c * v, p)
    return out


def _split_once(end, r, left_r, q, z, p):
    """Split the node of idempotent e = r mod p, left_r the matrix L_r
    over Z/q, along the coprime factors of the minimal polynomial of z,
    an element with e z = z, on the Krylov space of e, or None.

    Left multiplication by z maps eA into itself, and (e z)^k e =
    (e z e)^k, so its minimal polynomial on the Krylov space of e is that
    of e z e in eAe, whose identity is e: eA is spanned over A by e, so
    it takes no draw and no check. It is also that of e z e on the node
    eM. Its k >= 2 coprime parts f_i^(m_i) cut the node into the
    generalized kernels of the f_i(e z e)^(m_i), invariant under all
    that commutes with e z e, the group action included: direct
    summands. For each part but the last, g = h (h^-1 mod f_i^(m_i)), h
    the product of the other parts, is 1 modulo the part and 0 modulo
    the others, so e_i = g(z) e, read off the Krylov vectors z^j e, is
    its idempotent (Chinese remainders); e_i^2 = e_i and e_i e = e_i are
    checked in A, by L_e_i, read over Z/q. The last is the rest of the
    node, r - sum e_i with L_r - sum L_e_i. Returns them in factor
    order, as [(r_i, L_r_i)] over Z/q.
    """
    left = end.left(z, p)
    e = r % p
    m = matrix_minpoly(left, e, p)
    factors = _factor_poly(m, p)
    if len(factors) < 2:
        return None
    parts = [_poly_prod([f] * mult, p) for f, mult in factors]
    krylov = [e]  # z^j e for j below deg m, the degree bound of each g
    for _ in range(len(m) - 2):
        krylov.append(gfp.matmul(left, krylov[-1], p))
    out = []
    for i, part in enumerate(parts[:-1]):
        h = _poly_prod(parts[:i] + parts[i + 1 :], p)
        g = _poly_mul(h, _poly_invmod(h, part, p), p)
        ei = gfp.matmul(np.array(g), np.array(krylov[: len(g)]), p)
        if not ei.any():
            raise IntegrityError("minpoly factor with an empty kernel")
        li = end.left(ei, q)
        if (gfp.matmul(li, ei, q) % p != ei).any() or (gfp.matmul(li, e, q) % p != ei).any():
            raise IntegrityError("Chinese-remainder idempotent is not idempotent")
        out.append((ei, li))
    rest = gfp._mod(r - sum(ei for ei, _ in out), q)
    if not (rest % p).any():
        raise IntegrityError("minpoly factor with an empty kernel")
    rest_left = left_r.astype(np.int64) - sum(li.astype(np.int64) for _, li in out)
    return out + [(rest, gfp._mod(rest_left, q).astype(li.dtype))]


def _node_algebra(node):
    """(basis, reg, one): End_G(x) of the node x = eM, as eAe inside A.

    The coefficients of the e X_k e are the columns of L_e R_e, products
    in A read from the first-cell columns (HomBasis.left and right), and
    the rref of their rows holds a basis b of eAe, m_x rows with pivots
    P; for the whole module, e = 1 and b is the orbit basis. A vector of
    eAe has the coefficients v[P] in b. reg[i] is the m_x x m_x matrix of
    left multiplication by b_i on eAe, which is End_G(x) by a -> a|x:
    its column j is (L_b_i b_j)[P]. one, the coefficients e[P] of e in b,
    is the identity of eAe. It is built only for the nodes that reach the
    certificate.
    """
    end, p = node.parent.end, node.p
    if node.whole:
        basis, pivots = np.eye(end.num, dtype=np.int64), range(end.num)
    else:
        q = node.parent.lift_modulus
        span = gfp.matmul(node.over_q()[1], end.right(node.e, p), q) % p
        basis, pivots = gfp.rref(span.T, p)
        basis = basis[: len(pivots)]
    m, pivots = len(basis), list(pivots)
    one = (end.one if node.whole else node.e)[pivots]
    left = end.left(basis, p, pivots)
    reg = gfp.matmul(left.reshape(m * m, end.num), basis.T, p).reshape(m, m, m)
    return basis, reg, one


def _lines(m, p):
    """Every nonzero vector of GF(p)^m whose first nonzero entry is 1,
    one per line, in blocks of at most CELL_BLOCK / m^2 rows: those
    whose 1 is last first, then by the number of entries after the 1,
    so that small blocks come first."""
    size = max(1, CELL_BLOCK // (m * m))
    for free in range(m):
        for start in range(0, p**free, size):
            digits = np.arange(start, min(start + size, p**free))
            block = np.zeros((digits.size, m), dtype=np.int64)
            block[:, m - 1 - free] = 1
            for i in range(free):
                block[:, m - 1 - i] = digits % p
                digits //= p
            yield block


def _nonlocal_element(reg, one, p, rng):
    """Coefficients of an element of the algebra whose left regular
    representation on the basis b_i is sum c_i reg[i], one that splits
    a module whose endomorphism algebra it is; None when there is none.
    one holds the coefficients of the algebra's identity.

    Scaling keeps an element a unit or nilpotent, so one element per line
    is tested: a unit when its representation has full rank, nilpotent
    when its 2^t-th power, 2^t >= m, is zero. One that is neither splits
    the module (Fitting), and None means the algebra is local: the module
    is indecomposable. Past LINES lines, as at a large p from m = 2 on,
    up to TRIES random elements are tried first; one whose minimal
    polynomial has two coprime factors splits the module too. A unital
    algebra acts faithfully on itself, so that polynomial is the one on
    the Krylov space of the identity.
    """
    m = reg.shape[0]
    flat = reg.reshape(m, m * m)
    if (p**m - 1) // (p - 1) > LINES:
        for _ in range(TRIES):
            coeffs = np.array([rng.randrange(p) for _ in range(m)], dtype=np.int64)
            element = gfp.matmul(coeffs[None, :], flat, p).reshape(m, m)
            if len(_factor_poly(matrix_minpoly(element, one, p), p)) > 1:
                return coeffs
    for coeffs in _lines(m, p):
        elements = gfp.matmul(coeffs, flat, p).reshape(-1, m, m)
        units = gfp.rank(elements, p) == m
        power = elements[~units]
        for _ in range((m - 1).bit_length()):
            power = gfp.matmul(power, power, p)
        hit = np.flatnonzero(power.reshape(len(power), m * m).any(axis=1))
        if hit.size:
            return coeffs[~units][hit[0]]
    return None


def _split_node(node, rng):
    """The idempotents that split the node, or None when it is
    indecomposable.

    One round splits by z = e a for a random element a of A: a itself
    for the whole module, whose e is 1 and takes no product, and L_r a
    mod p for any other node. When it refuses, End(x) = eAe
    (_node_algebra) is searched for an element that splits x
    (_nonlocal_element): none certifies x indecomposable, and the one
    found, already in eAe, splits x through the same call, as its
    minimal polynomial has two coprime factors."""
    end, p, q = node.parent.end, node.p, node.parent.lift_modulus
    r, left = node.over_q()
    a = end.sample(rng, p)
    z = a if node.whole else gfp.matmul(left, a, q) % p
    split = _split_once(end, r, left, q, z, p)
    if split is not None:
        return split
    basis, reg, one = _node_algebra(node)
    coeffs = _nonlocal_element(reg, one, p, rng)
    if coeffs is None:
        return None
    split = _split_once(end, r, left, q, gfp.matmul(coeffs, basis, p), p)
    if split is None:
        raise IntegrityError("the witness that End(x) is not local did not split the node")
    return split


def decompose_summands(module, rng, known=frozenset()):
    """The indecomposable summands of the module, as Summand objects.

    The splitting tree holds Summands, from the whole module, each an
    idempotent of A = End_G(M). A node whose species is in known, a set
    of class species, is that class: it is accepted at once, its
    fingerprint tested before its species. Any other node of dimension
    above 1 is split by e a for an element a drawn from module.end
    with the random.Random rng; if that round refuses, the node is
    certified indecomposable, or split by a witness, from its
    endomorphism algebra (_split_node). No leaf rests on luck: each is
    of a known class, certified, or of dimension 1.
    """
    prints = {species[0] for species in known}
    dims = {fingerprint[0] for fingerprint in prints}
    queue = [Summand(module)]
    leaves = []
    while queue:
        node = queue.pop()
        found = node.dim in dims and node.fingerprint() in prints
        found = found and node.species() in known
        try:
            split = None if found or node.dim == 1 else _split_node(node, rng)
        except IntegrityError as e:
            raise IntegrityError(
                f"splitting a node of dimension {node.dim} of M{module.ab}: {e}"
            ) from e
        node._left = None  # a leaf keeps e and its lift
        if split is None:
            leaves.append(node)
        else:
            queue += [Summand(module, e, left) for e, left in split]
    total = sum(leaf.dim for leaf in leaves)
    if total != module.dim:
        raise IntegrityError(
            f"summand dimensions of M{module.ab} sum to {total}, not {module.dim}"
        )
    return leaves


def _flat(species):
    """The species as one int64 vector, its integers in order."""
    out = [x for rank, fixed in species for x in (rank, *fixed)]
    return np.array(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# isomorphism testing


def _check_seed(seed):
    """Refuse a negative seed up front, before any work: an engine seed
    is a non-negative integer, as the command line's --seed is."""
    if seed < 0:
        raise ValueError(f"the seed must be non-negative, got {seed}")


def _as_summand(u):
    if isinstance(u, Summand):
        return u
    if isinstance(u, SignedPermModule):
        return Summand(u)
    raise TypeError("expected a SignedPermModule or a Summand")


def modules_isomorphic(u, v, seed=0):
    """Whether two modules or summands are isomorphic over GF(p), exactly.

    Unequal dimensions answer False, then unequal fingerprints, which
    hold the Brauer character; past them equal species answer True and
    unequal ones False (Summand.species). No Hom space is labelled and
    no random number is drawn: seed is only validated, for the callers
    that pass one. At degree n >= p^2 the species raises ValueError, so
    only the dimension and the fingerprint can answer there.
    """
    _check_seed(seed)
    a = _as_summand(u)
    b = _as_summand(v)
    if a.n != b.n or a.p != b.p:
        raise ValueError("iso test requires equal degree and prime")
    check_prime(a.p)
    if a.dim != b.dim or a.fingerprint() != b.fingerprint():
        return False
    return a.species() == b.species()


# ---------------------------------------------------------------------------
# the labelled decomposition engine


def _canonical_pair(ab):
    """Sort both rows and move size-1 parts of beta over to alpha.

    Modules agreeing after this move are isomorphic, so the engine
    builds, solves and caches one module per canonical key.
    """
    alpha, beta = wp(ab[0]), wp(ab[1])
    ones = sum(1 for x in beta if x == 1)
    beta = tuple(x for x in beta if x != 1)
    alpha = wp(alpha + (1,) * ones)
    return alpha, beta


class DirectEngine:
    """Ground-truth engine for the labelled multiplicities of modules.

    Keeps, per degree, a registry {label: species} of the
    indecomposable classes (registry_for), and solves every module
    against it (decompose). Exposes the oracle interface of the
    combinatorial engine: attribute p and method projective_signed.
    """

    def __init__(self, p, seed=0):
        check_prime(p)
        _check_seed(seed)
        self.p = p
        self.seed = seed
        self.registry = {}
        self.modules = {}
        self.homs = {}
        self.decomps = {}

    def module(self, ab):
        """The canonical module of ab, built once and kept for hom; the
        sweep builds each row it splits afresh and drops it with the row."""
        key = _canonical_pair(ab)
        if key not in self.modules:
            self.modules[key] = build_module(key, self.p)
        return self.modules[key]

    def hom(self, ab, cd):
        """Hom basis between the canonical modules; End(M) on the diagonal."""
        key = (_canonical_pair(ab), _canonical_pair(cd))
        if key not in self.homs:
            m, n_mod = self.module(key[0]), self.module(key[1])
            self.homs[key] = m.end if m is n_mod else HomBasis(m, n_mod)
        return self.homs[key]

    def registry_for(self, n):
        """{label: species} of the classes of degree n, row by row.

        DimensionCapError refuses n >= p^2, or a row to split over the
        cap, before anything is built. A row whose class is not yet known
        is split: its one leaf of no known species is the class, and that
        leaf twisted by the sign is the class's sign twin, whose row is
        solved. Each row's solve, holding its class once, is kept; the
        split module is not, only its class species are."""
        if n in self.registry:
            return self.registry[n]
        p = self.p
        if n >= p * p:
            raise DimensionCapError(
                f"degree {n} >= p^2 = {p * p}, where no species decides isomorphism"
            )
        labels, rows = label_rows(n, p)
        keys = [_canonical_pair(row) for row in rows]
        split, seen = [], set()  # seen: the split labels and their twins
        for label, key in zip(labels, keys):
            split.append(label not in seen)
            if split[-1]:
                seen |= {label, sign_twist_label(label, p)}
                _check_dim(key)
        known = {}
        for label, key, fresh in zip(labels, keys, split):
            where = f"sweep at label {label}, {self._where(key)}"
            if fresh:
                leaf = self._label(key, known, where)
                known[label] = leaf.species()
                twin, twisted = sign_twist_label(label, p), leaf.species_twisted()
                del leaf  # and with it the row's module, before the next is built
                if known.setdefault(twin, twisted) != twisted:
                    raise IntegrityError(f"{where}: its class (x) sgn is not {twin}")
            counts = self._solve(key, known, where)
            if counts.get(label) != 1:
                raise IntegrityError(f"{where}: the row does not hold its class once")
            self.decomps[key] = counts
        self.registry[n] = known
        return known

    def _where(self, key):  # the module and seed that reproduce an error
        return f"M{key} at engine seed {self.seed}"

    def _label(self, key, known, where):
        """Split M(key): its one leaf of no species in known."""
        alpha, beta = key
        seed = (self.seed, 1, len(alpha), *alpha, 999983, len(beta), *beta)
        rng = random.Random(repr(seed))
        species = set(known.values())
        try:
            leaves = decompose_summands(build_module(key, self.p), rng, known=species)
        except IntegrityError as e:
            raise IntegrityError(f"{self._where(key)}: {e}") from e
        new = [leaf for leaf in leaves if leaf.species() not in species]
        if len(new) != 1:
            raise IntegrityError(
                f"{where}: expected exactly one new class of multiplicity 1, "
                f"found new leaves of dimensions {[leaf.dim for leaf in new]}"
            )
        return new[0]

    def _solve(self, key, known, where):
        """{label: multiplicity} of M(key) over the classes in known: one
        linear solve in the flattened species, which add over direct sums,
        that of M(key) counted from its label. The rounded least-squares
        answer must be non-negative and reproduce the species, led by the
        dimension, exactly, from linearly independent class species."""
        labels = list(known)
        A = np.array([_flat(known[label]) for label in labels]).T
        b = _flat(_whole_species(key, self.p))
        x, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
        x = np.rint(x).astype(np.int64)
        if rank < len(labels) or (x < 0).any() or not np.array_equal(A @ x, b):
            raise IntegrityError(
                f"{where}: the species is no non-negative integer combination "
                f"of the {len(labels)} class species (rank {rank})"
            )
        return {label: int(m) for label, m in zip(labels, x) if m}

    def decompose(self, ab):
        """Labelled multiset {(lam, mu): multiplicity} of M(ab): one
        solve of its counted species against registry_for, no module built."""
        key = _canonical_pair(ab)
        if key not in self.decomps:
            known = self.registry_for(size(key[0]) + size(key[1]))
            if key not in self.decomps:  # the sweep records label rows
                self.decomps[key] = self._solve(key, known, self._where(key))
        return dict(self.decomps[key])

    def projective_signed(self, ab, lam0):
        lam0 = wp(lam0)
        alpha, beta = wp(ab[0]), wp(ab[1])
        if size(alpha) + size(beta) != size(lam0):
            return 0
        return self.decompose((alpha, beta)).get((lam0, ()), 0)


def assemble_matrix(n, p, signed=True, engine=None):
    """(labels, matrix) of labelled multiplicities at degree n.

    Rows and columns run over the label list in the fixed total order;
    entry [i, j] is the multiplicity of the j-th class in the i-th
    module. Labels are (lam, mu) pairs; for the plain matrix mu is
    empty and the rows are the modules M(lam|empty).
    """
    check_prime(p)
    if engine is None:
        engine = DirectEngine(p)
    labels, rows = label_rows(n, p, signed)
    mat = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for i, ab in enumerate(rows):
        dec = engine.decompose(ab)
        for j, label in enumerate(labels):
            mat[i, j] = dec.get(label, 0)
    return labels, mat
