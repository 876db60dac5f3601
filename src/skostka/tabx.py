"""Signed semistandard tableaux and the isomorphism classification.

A signed tableau of shape lam and type (alpha|beta) colours the cells of
[lam] with c_1 < ... < c_r < d_1 < ... < d_s so that the c-coloured cells
form a sub-partition shape filled weakly increasing along rows and strictly
increasing down columns with content alpha, while the d-coloured skew
remainder is strictly increasing along rows and weakly increasing down
columns with content beta. These conventions make the (alpha|empty) counts
collapse to ordinary Kostka numbers and the (empty|beta) counts to their
conjugates.

Colours are encoded as integers 0..r-1 for c_1..c_r and r..r+s-1 for
d_1..d_s; a tableau is returned as a tuple of rows of colour codes.
"""

from .combinat import conjugate, is_partition, partitions_of, size, wp


def signed_tableaux(lam, ab):
    """All signed tableaux of shape lam and type ab, lexicographically.

    The colouring word is read row by row; tableaux are produced in
    increasing lexicographic order of that word.
    """
    alpha, beta = map(tuple, ab)
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError("shape must be a partition")
    if size(lam) != size(alpha) + size(beta):
        raise ValueError("type size does not match shape size")
    r, s = len(alpha), len(beta)
    remaining = list(alpha) + list(beta)
    cells = [(i, j) for i in range(len(lam)) for j in range(lam[i])]
    grid = [[-1] * lam[i] for i in range(len(lam))]
    out = []

    def ok(i, j, x):
        if x < r:
            # c-colour: cell must extend a partition-shaped prefix
            if j > 0:
                left = grid[i][j - 1]
                if left >= r or left > x:
                    return False
            if i > 0:
                if j >= lam[i - 1]:
                    return False
                up = grid[i - 1][j]
                if up >= r or up >= x:
                    return False
        else:
            if j > 0:
                left = grid[i][j - 1]
                if r <= left and left >= x:
                    return False
            if i > 0 and j < lam[i - 1]:
                up = grid[i - 1][j]
                if up >= r and up > x:
                    return False
        return True

    def rec(k):
        if k == len(cells):
            out.append(tuple(tuple(row) for row in grid))
            return
        i, j = cells[k]
        for x in range(r + s):
            if remaining[x] and ok(i, j, x):
                remaining[x] -= 1
                grid[i][j] = x
                rec(k + 1)
                grid[i][j] = -1
                remaining[x] += 1

    rec(0)
    return out


def count_signed_ssyt(lam, ab):
    """The number of signed tableaux of shape lam and type ab."""
    return len(signed_tableaux(lam, ab))


def char_vector(ab):
    """Multiplicity of each Specht factor in a filtration of M(ab).

    Maps every partition lam of |ab| with a nonzero signed tableau count
    to that count.
    """
    alpha, beta = map(tuple, ab)
    n = size(alpha) + size(beta)
    vec = {}
    for lam in partitions_of(n):
        c = count_signed_ssyt(lam, (alpha, beta))
        if c:
            vec[lam] = c
    return vec


def _add_horizontal_strips(lam, k):
    """All partitions obtained from lam by adding a horizontal k-strip."""
    lam = tuple(lam)
    rows = len(lam) + 1
    out = []

    def rec(i, prev, acc, left):
        if i == rows:
            if left == 0:
                out.append(wp(tuple(acc)))
            return
        low = lam[i] if i < len(lam) else 0
        high = min(prev, low + left)
        for v in range(low, high + 1):
            rec(i + 1, lam[i] if i < len(lam) else 0, acc + [v], left - (v - low))

    rec(0, lam[0] + k if lam else k, [], k)
    return out


def _add_vertical_strips(lam, k):
    """All partitions obtained from lam by adding a vertical k-strip."""
    return [
        conjugate(nu) for nu in _add_horizontal_strips(conjugate(lam), k)
    ]


def pieri_expand(ab):
    """Schur expansion of h_alpha * e_beta by iterated Pieri rules.

    Independent oracle for char_vector: the coefficient of s_lam equals
    the signed tableau count.
    """
    alpha, beta = map(tuple, ab)
    coeffs = {(): 1}
    for a in alpha:
        nxt = {}
        for lam, c in coeffs.items():
            for nu in _add_horizontal_strips(lam, a):
                nxt[nu] = nxt.get(nu, 0) + c
        coeffs = nxt
    for b in beta:
        nxt = {}
        for lam, c in coeffs.items():
            for nu in _add_vertical_strips(lam, b):
                nxt[nu] = nxt.get(nu, 0) + c
        coeffs = nxt
    return coeffs


def kostka_number(lam, alpha):
    """Classical Kostka number K_{lam,alpha} by strip-peeling recursion."""
    lam = tuple(lam)
    alpha = tuple(a for a in alpha)
    if size(lam) != size(alpha):
        raise ValueError("sizes differ")
    if not alpha:
        return 1 if not lam else 0
    total = 0
    for mu in _peel_horizontal_strips(lam, alpha[-1]):
        total += kostka_number(mu, alpha[:-1])
    return total


def _peel_horizontal_strips(lam, k):
    """All partitions mu with lam/mu a horizontal k-strip."""
    out = []
    m = len(lam)

    def rec(i, acc, left):
        if i == m:
            if left == 0:
                out.append(wp(tuple(acc)))
            return
        low = max(lam[i + 1] if i + 1 < m else 0, lam[i] - left)
        for v in range(low, lam[i] + 1):
            if i > 0 and v > acc[-1]:
                continue
            rec(i + 1, acc + [v], left - (lam[i] - v))

    rec(0, [], k)
    return out


def _strip_trailing_ones(a):
    core = tuple(x for x in a if x > 1)
    return core, len(a) - len(core)


def iso_equivalent(ab, cd):
    """Whether M(ab) and M(cd) are isomorphic.

    True iff the two alpha parts agree after stripping trailing 1s, and
    likewise the two beta parts; requires equal total sizes.
    """
    alpha, beta = map(tuple, ab)
    sigma, tau = map(tuple, cd)
    for x in (alpha, beta, sigma, tau):
        if not is_partition(x):
            raise ValueError("iso test requires partitions")
    if size(alpha) + size(beta) != size(sigma) + size(tau):
        raise ValueError("total sizes differ")
    return (
        _strip_trailing_ones(alpha)[0] == _strip_trailing_ones(sigma)[0]
        and _strip_trailing_ones(beta)[0] == _strip_trailing_ones(tau)[0]
    )


def canonical_label(ab):
    """Normal form ((core_alpha, core_beta), (a, c)) under isomorphism.

    a and c count the trailing 1-parts stripped from alpha and beta. Two
    pairs are iso_equivalent iff their cores agree and their total sizes
    agree.
    """
    alpha, beta = map(tuple, ab)
    ca, a = _strip_trailing_ones(alpha)
    cb, c = _strip_trailing_ones(beta)
    return (ca, cb), (a, c)
