"""Exact dense linear algebra over the prime field GF(p).

Matrices are numpy int64 arrays with entries reduced mod p, passed around
together with the modulus.

A product runs through BLAS in the narrowest dtype in which it is exact,
as in FFLAS-FFPACK. With entries in [0, p) and inner dimension k, every
partial sum of an inner product is an integer of size at most
k * (p-1)**2. A float with a t-bit significand represents every integer
below 2**t exactly, and the sum or product of two such integers is
rounded to itself when it stays below 2**t. So while k * (p-1)**2 <
2**24 every step of a float32 product is exact, whatever order, blocking
or fused multiply-add the BLAS kernel uses; float64 takes over below
2**53, and int64 arithmetic below 2**63. Past that `product_dtype`
raises instead of letting int64 wrap.

`rref` is blocked Gauss-Jordan elimination, with its trailing updates
done by BLAS products as in FFLAS-FFPACK (Dumas, Giorgi, Pernet, ACM TOMS
35(3), 2008). It runs the classical pivot loop (leftmost column, first
nonzero row) on a copy of a panel of PANEL columns, which finds the
panel's pivot rows and their pivot columns. The pivot rows are then
multiplied by the inverse S^-1 of their block S at the pivot columns, and
every other row with a nonzero in those columns is cleared by one product
with them. Both products have inner dimension at most PANEL, so they run in
float32 for every p below 2**9, and the Python loop only ever runs over a
panel. A matrix at most two panels wide, and the last two panels' width
of a wider one, run the pivot loop in place: there the products would
cost more than they save.

The reduced row echelon form of a matrix is unique, so the output does
not depend on the panel width, on which rows serve as pivots, or on the
order of the updates: every basis produced downstream is reproducible.
"""

from functools import lru_cache

import numpy as np

from .combinat import check_odd_prime

PANEL = 64


def _mod(x, p):
    """x mod p, in place on an int64 array; numpy divides by a scalar
    several times faster than it takes a remainder by one."""
    q = x // p
    q *= p
    x -= q
    return x


def normalize(a, p):
    """Reduce an integer array mod p, returning a new int64 array."""
    return _mod(np.array(a, dtype=np.int64), p)


# every integer of absolute value below these is exact in the dtype, and
# so is every sum and product of two of them that stays below it
_EXACT_BELOW = ((np.float32, 2**24), (np.float64, 2**53), (np.int64, 2**63))


def product_dtype(inner, p):
    """The narrowest dtype in which a product of inner dimension inner,
    with entries in [0, p), is exact; OverflowError past int64."""
    bound = inner * (p - 1) ** 2
    for dtype, below in _EXACT_BELOW:
        if bound < below:
            return dtype
    raise OverflowError(
        f"a GF({p}) product of inner dimension {inner} would leave the "
        f"exact range of int64"
    )


def _product(a, b, p):
    """a @ b over the integers, for entries in [0, p): exact, unreduced.

    An operand already in the product's dtype is used without a copy."""
    a = np.asarray(a)
    b = np.asarray(b)
    dtype = product_dtype(a.shape[-1], p)
    out = a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)
    return out.astype(np.int64, copy=False)


def matmul(a, b, p):
    return _mod(_product(a, b, p), p)


def _inv_scalar(x, p):
    return pow(int(x), p - 2, p)


@lru_cache(maxsize=None)
def _inverses(p):
    """The table of x^-1 mod p for x = 0..p-1, 0 at 0: x^(p-2) by
    repeated squaring over the whole range at once; every product stays
    below p^2."""
    x = np.arange(p, dtype=np.int64)
    out = np.ones_like(x)
    e = p - 2
    while e:
        if e & 1:
            out = _mod(out * x, p)
        x = _mod(x * x, p)
        e >>= 1
    out[0] = 0
    return out


def _eliminate(a, p, r=0):
    """The pivot loop, in place on a reduced int64 array.

    Eliminates column after column, taking as pivot row the first row at
    or below r with a nonzero entry and clearing that column in every
    other row, including rows above r. Rows above r must already be pivot
    rows of earlier columns, and rows from r down must be zero in the
    columns before the first one. Returns (pivots, order): the pivot
    columns, and order[i], the row of the input that the swaps moved to
    row i.
    """
    m, n = a.shape
    pivots = []
    order = list(range(m))
    for c in range(n):
        if r == m:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
            order[r], order[i] = order[i], order[r]
        # every row from r down is zero left of c, so work from c on
        if a[r, c] != 1:
            a[r, c:] = _mod(a[r, c:] * _inv_scalar(a[r, c], p), p)
        rows = np.flatnonzero(a[:, c])
        if rows.size > 1:
            rows = rows[rows != r]
            a[rows, c:] = _mod(a[rows, c:] - np.outer(a[rows, c], a[r, c:]), p)
        pivots.append(c)
        r += 1
    return pivots, order


def rref(a, p):
    """Reduced row echelon form.

    Returns (R, pivots) where pivots is the tuple of pivot column indices.
    R is unique, so it is the same as that of the unblocked pivot loop.
    """
    a = normalize(a, p)
    m, n = a.shape
    pivots = []
    r = c0 = 0
    while n - c0 > 2 * PANEL and r < m:
        found, order = _eliminate(a[r:, c0 : c0 + PANEL].copy(), p)
        k = len(found)
        if k:
            # bring the panel's pivot rows to rows r..r+k-1, moving only
            # the rows the swaps moved
            order = np.array(order)
            moved = np.flatnonzero(order != np.arange(order.size))
            if moved.size:
                a[r + moved, c0:] = a[r + order[moved], c0:]
            top = a[r : r + k, c0:]
            aug = np.concatenate([top[:, found], np.eye(k, dtype=np.int64)], axis=1)
            _eliminate(aug, p)
            top[...] = matmul(aug[:, k:], top, p)
            cols = [c0 + c for c in found]
            mult = a[:, cols]
            mult[r : r + k] = 0
            rows = np.flatnonzero(mult.any(axis=1))
            if rows.size:
                a[rows, c0:] = _mod(a[rows, c0:] - _product(mult[rows], top, p), p)
            pivots.extend(cols)
            r += k
        c0 += PANEL
    if r < m:
        found, _ = _eliminate(a[:, c0:], p, r)
        pivots.extend(c0 + c for c in found)
    return a, tuple(pivots)


def rank(a, p):
    """The rank of a matrix (m, n), or of each matrix of a stack (b, m,
    n) as an int64 array of b ranks.

    A stack at most two panels wide, where rref runs the pivot loop, is
    eliminated in one pass over its columns for every matrix at once;
    a wider one goes matrix by matrix through the blocked rref.
    """
    a = np.asarray(a)
    if a.ndim == 2:
        return len(rref(a, p)[1])
    if a.shape[2] > 2 * PANEL:
        return np.array([len(rref(x, p)[1]) for x in a], dtype=np.int64)
    return _stack_rank(normalize(a, p), p)


def _stack_rank(a, p):
    """Ranks of a reduced int64 stack (b, m, n), overwritten.

    Per column c, each matrix takes as pivot its first row that is not
    yet a pivot and is nonzero at c, and clears c in its other such
    rows; the pivot rows are left as they are, as only their number
    counts."""
    b, m, n = a.shape
    inv = _inverses(p)
    free = np.ones((b, m), dtype=bool)  # rows not yet a pivot
    for c in range(n):
        col = a[:, :, c] * free
        live = np.flatnonzero(col.any(axis=1))
        if not live.size:
            continue
        every = live.size == b  # then work on a view, not a copy
        if not every:
            col = col[live]
        here = np.arange(live.size)
        r = (col != 0).argmax(axis=1)
        rest = a[:, :, c:] if every else a[live, :, c:]
        row = _mod(rest[here, r] * inv[col[here, r]][:, None], p)
        free[live, r] = False
        col[here, r] = 0
        rest -= col[:, :, None] * row[:, None, :]
        _mod(rest, p)
        if not every:
            a[live, :, c:] = rest
    return m - free.sum(axis=1)


def nullspace(a, p):
    """Basis of the right null space, one vector per row.

    Satisfies a @ nullspace(a, p).T == 0; the number of rows is
    cols - rank(a). Row k is zero at every free column but the k-th,
    and scaled so that its first nonzero entry is 1.
    """
    a = np.asarray(a)
    n = a.shape[1]
    r, pivots = rref(a, p)
    pivots = list(pivots)
    free = np.setdiff1d(np.arange(n), pivots)
    basis = np.zeros((free.size, n), dtype=np.int64)
    if not free.size:
        return basis
    here = np.arange(free.size)
    basis[here, free] = 1
    basis[:, pivots] = _mod(-r[: len(pivots), free].T, p)
    lead = basis[here, (basis != 0).argmax(axis=1)]
    values, which = np.unique(lead, return_inverse=True)
    scale = np.array([_inv_scalar(v, p) for v in values])[which]
    return _mod(basis * scale[:, None], p)


def inverse(a, p):
    """Inverse of a square matrix, or None if singular."""
    a = normalize(a, p)
    m, n = a.shape
    if m != n:
        raise ValueError("inverse requires a square matrix")
    aug = np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1)
    r, pivots = rref(aug, p)
    if any(c >= n for c in pivots):
        return None
    return r[:, n:]


class Echelon:
    """Incrementally built reduced row echelon basis over GF(p).

    Every stored row stays reduced against all the others, so testing
    or absorbing one more vector costs a single vector-matrix product
    instead of a fresh elimination of the whole stack. Useful when a
    span is grown one candidate at a time.

    The rows live in a buffer whose capacity doubles when it fills, so
    absorbing a vector does not copy the rows already stored.
    """

    def __init__(self, p):
        check_odd_prime(p)
        self.p = p
        self._buf = None
        self.pivots = []

    @property
    def rank(self):
        return len(self.pivots)

    @property
    def rows(self):
        """The basis, one row per pivot; None before the first vector."""
        if self._buf is None:
            return None
        return self._buf[: self.rank]

    def reduce(self, vec):
        """Residue of vec modulo the current row span."""
        v = _mod(np.array(vec, dtype=np.int64).ravel(), self.p)
        if self.pivots:
            coeffs = v[self.pivots]
            if coeffs.any():
                v = _mod(v - matmul(coeffs[None, :], self.rows, self.p)[0], self.p)
        return v

    def contains(self, vec):
        return not self.reduce(vec).any()

    def add(self, vec):
        """Absorb vec into the span; True exactly when the rank grows."""
        v = self.reduce(vec)
        support = np.flatnonzero(v)
        if support.size == 0:
            return False
        c = int(support[0])
        v = _mod(v * _inv_scalar(int(v[c]), self.p), self.p)
        k = self.rank
        if self._buf is None:
            self._buf = np.empty((8, v.size), dtype=np.int64)
        elif k == len(self._buf):
            grown = np.empty((2 * k, v.size), dtype=np.int64)
            grown[:k] = self._buf
            self._buf = grown
        rows = self._buf[:k]
        hit = np.flatnonzero(rows[:, c])
        if hit.size:
            rows[hit] = _mod(rows[hit] - np.outer(rows[hit, c], v), self.p)
        self._buf[k] = v
        self.pivots.append(c)
        return True
