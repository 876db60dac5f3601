"""Partitions, compositions and the p-adic combinatorics built on them.

Conventions used throughout the package:

* A partition is a tuple of weakly decreasing positive ints; () is the
  empty partition.
* A composition may contain zeros (zeros are significant for indexing
  and are only dropped by wp()).
* All maths below is characteristic p with p an odd prime; p = 2 is
  rejected at every entry point that takes p.
"""

from __future__ import annotations

import functools


@functools.lru_cache(maxsize=None)
def check_odd_prime(p: int) -> None:
    """Raise ValueError unless p is an odd prime.

    Only valid primes are remembered: a bad p raises on every call.
    """
    if p < 3:
        raise ValueError(f"p must be an odd prime, got {p}")
    if any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise ValueError(f"p must be an odd prime, got {p}")


def is_partition(seq) -> bool:
    return all(a >= b for a, b in zip(seq, seq[1:])) and all(a > 0 for a in seq)


def wp(seq) -> tuple:
    """Sort into weakly decreasing order and drop zeros."""
    if any(a < 0 for a in seq):
        raise ValueError(f"negative entry in {seq!r}")
    return tuple(sorted((a for a in seq if a > 0), reverse=True))


def size(seq) -> int:
    return sum(seq)


def conjugate(lam) -> tuple:
    if not lam:
        return ()
    return tuple(sum(1 for a in lam if a > j) for j in range(lam[0]))


def pointwise_add(a, b) -> tuple:
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return tuple(x + y for x, y in zip(a, b))


def pointwise_sub(a, b) -> tuple:
    """a - b entrywise; error if any entry would go negative."""
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    if any(x < y for x, y in zip(a, b)):
        raise ValueError("pointwise difference has a negative entry")
    out = tuple(x - y for x, y in zip(a, b))
    while out and out[-1] == 0:
        out = out[:-1]
    return out


def scale(c: int, a) -> tuple:
    return tuple(c * x for x in a)


def dominates(a, b) -> bool:
    """a dominance-dominates b; both partitions of the same size."""
    if not (is_partition(a) and is_partition(b)):
        raise ValueError("dominance needs partitions")
    if sum(a) != sum(b):
        raise ValueError(f"dominance compares equal sizes, got {sum(a)} and {sum(b)}")
    ta = tb = 0
    for k in range(max(len(a), len(b))):
        ta += a[k] if k < len(a) else 0
        tb += b[k] if k < len(b) else 0
        if ta < tb:
            return False
    return True


def dominates_pair(ab, cd) -> bool:
    """(alpha|beta) dominates (gamma|delta) for pairs of partitions.

    Condition (a): every prefix sum of alpha is >= that of gamma;
    condition (b): |alpha| + every prefix sum of beta is >= |gamma| +
    that of delta.  Total sizes must agree.
    """
    alpha, beta = ab
    gamma, delta = cd
    for x in (alpha, beta, gamma, delta):
        if not is_partition(x):
            raise ValueError("dominates_pair needs partitions")
    if sum(alpha) + sum(beta) != sum(gamma) + sum(delta):
        raise ValueError("dominates_pair compares pairs of equal total size")
    ta = tg = 0
    for k in range(max(len(alpha), len(gamma))):
        ta += alpha[k] if k < len(alpha) else 0
        tg += gamma[k] if k < len(gamma) else 0
        if ta < tg:
            return False
    sa, sg = sum(alpha), sum(gamma)
    tb = td = 0
    for k in range(max(len(beta), len(delta))):
        tb += beta[k] if k < len(beta) else 0
        td += delta[k] if k < len(delta) else 0
        if sa + tb < sg + td:
            return False
    return True


# ---------------------------------------------------------------------------
# total order on pairs (lambda | p mu)

def total_key(x):
    """Sort key realising the fixed total order on pairs (lambda, mu).

    |mu| ascending, then mu descending in dictionary order, then lambda
    descending in dictionary order.  Refines dominance on labels
    (alpha|p beta) vs (lambda|p mu) of equal degree.
    """
    lam, mu = x
    return (sum(mu), tuple(-m for m in mu), tuple(-l for l in lam))


# ---------------------------------------------------------------------------
# p-adic expansion into p-restricted digits

def is_p_restricted(lam, p: int) -> bool:
    """Each consecutive difference lambda_i - lambda_{i+1} lies in [0, p-1]."""
    check_odd_prime(p)
    if not is_partition(lam):
        raise ValueError("p-restriction is a property of partitions")
    ext = tuple(lam) + (0,)
    return all(ext[i] - ext[i + 1] <= p - 1 for i in range(len(lam)))


def p_adic_expansion(lam, p: int) -> list:
    """Digits [lam(0), lam(1), ...] with lam = sum_i p^i lam(i), each digit
    p-restricted.  Computed from base-p digits of the consecutive
    differences; validated by re-summation.  Trailing empty digits are
    trimmed, so the empty partition expands to [].

    The input is checked, and the expansion computed and validated, once
    per (lam, p); a bad lam or p raises on every call, since a failed
    check is not remembered. Every call returns a new list.
    """
    return list(_p_adic_digits(tuple(lam), p))


@functools.lru_cache(maxsize=None)
def _p_adic_digits(lam: tuple, p: int) -> tuple:
    check_odd_prime(p)
    if not is_partition(lam):
        raise ValueError("p_adic_expansion needs a partition")
    if not lam:
        return ()
    ext = lam + (0,)
    diffs = [ext[i] - ext[i + 1] for i in range(len(lam))]
    ndig = 1
    while p**ndig <= max(lam):
        ndig += 1
    digits = []
    for i in range(ndig):
        row_diffs = [(d // p**i) % p for d in diffs]
        # partition whose consecutive differences are row_diffs
        part = []
        tail = 0
        for d in reversed(row_diffs):
            tail += d
            part.append(tail)
        part = tuple(x for x in reversed(part) if x > 0)
        digits.append(part)
    while digits and digits[-1] == ():
        digits.pop()
    # re-summation check
    total = ()
    for i, d in enumerate(digits):
        total = pointwise_add(total, scale(p**i, d))
    if wp(total) != lam:
        raise AssertionError(f"p-adic expansion of {lam} failed re-summation")
    for d in digits:
        if d and not is_p_restricted(d, p):
            raise AssertionError(f"digit {d} of {lam} is not {p}-restricted")
    return tuple(digits)


def digit(lam, p: int, i: int) -> tuple:
    """lam(i), the i-th p-adic digit (empty when out of range)."""
    digs = p_adic_expansion(lam, p)
    return digs[i] if 0 <= i < len(digs) else ()


def rho_of(lam, mu, p: int) -> tuple:
    """Counts (n_0, n_1, ...) with n_i = |lam(i)| + |mu(i-1)|.

    The associated shape is the partition with p^i repeated n_i times;
    trailing zero counts are trimmed.
    """
    dl = p_adic_expansion(lam, p)
    dm = p_adic_expansion(mu, p)
    r = max(len(dl), len(dm) + 1)
    counts = []
    for i in range(r):
        a = sum(dl[i]) if i < len(dl) else 0
        b = sum(dm[i - 1]) if 1 <= i <= len(dm) else 0
        counts.append(a + b)
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


# ---------------------------------------------------------------------------
# horizontal row cuts

def top_cut(a, r: int) -> tuple:
    """First r rows."""
    if r < 0:
        raise ValueError("cut row must be nonnegative")
    return tuple(a[:r])


def bottom_cut(a, r: int) -> tuple:
    """Rows r+1 onwards."""
    if r < 0:
        raise ValueError("cut row must be nonnegative")
    return tuple(a[r:])


def admits_horizontal_cut(a, lam, r: int) -> bool:
    """|top r rows of a| == |top r rows of lam|."""
    return sum(top_cut(a, r)) == sum(top_cut(lam, r))


# ---------------------------------------------------------------------------
# Mullineux map via p-rim symbols

def _rim_walk(lam):
    """Rim cells (row, col), 0-indexed, from top right to bottom left."""
    cells = []
    L = len(lam)
    for i in range(L):
        lo = max(lam[i + 1] - 1, 0) if i + 1 < L else 0
        for j in range(lam[i] - 1, lo - 1, -1):
            cells.append((i, j))
    return cells


def _strip_p_rim(lam, p):
    """Remove the p-rim; return (smaller partition, cells removed)."""
    rim = _rim_walk(lam)
    taken = []
    k = 0
    while k < len(rim):
        seg = rim[k : k + p]
        taken.extend(seg)
        if len(seg) < p:
            break
        last_row = seg[-1][0]
        k += p
        while k < len(rim) and rim[k][0] <= last_row:
            k += 1
    removed = {}
    for i, _ in taken:
        removed[i] = removed.get(i, 0) + 1
    new = tuple(lam[i] - removed.get(i, 0) for i in range(len(lam)))
    new = tuple(x for x in new if x > 0)
    if not is_partition(new):
        raise AssertionError(f"p-rim removal broke partition shape: {lam} -> {new}")
    return new, len(taken)


def is_p_regular(lam, p: int) -> bool:
    return all(lam.count(v) < p for v in set(lam))


def _mullineux_regular(mu, p):
    """Mullineux image of a p-regular partition, by the rim symbol."""
    if not is_p_regular(mu, p):
        raise ValueError(f"{mu} is not {p}-regular")
    # symbol: strip p-rims, recording (cells removed, rows present)
    pairs = []
    cur = tuple(mu)
    while cur:
        a = None
        r = len(cur)
        cur, a = _strip_p_rim(cur, p)
        pairs.append((a, r))
    # image symbol keeps the a_i, replaces row counts
    target_rows = [a - r + (0 if a % p == 0 else 1) for a, r in pairs]
    # rebuild from the innermost pair outwards, inverting the strip
    out = ()
    for (a, _), r in zip(reversed(pairs), reversed(target_rows)):
        want = sum(out) + a
        cands = [
            nu
            for nu in partitions_of(want)
            if len(nu) == r and _strip_p_rim(nu, p) == (out, a)
        ]
        if len(cands) != 1:
            raise AssertionError(
                f"rim symbol inversion found {len(cands)} candidates for ({a},{r}) over {out}"
            )
        out = cands[0]
    return out


def mullineux(mu, p: int) -> tuple:
    """The Mullineux involution on p-restricted partitions.

    Computed as the conjugate-transported rim symbol map: conjugate to a
    p-regular partition, apply the symbol algorithm, conjugate back.
    """
    check_odd_prime(p)
    if not is_partition(mu):
        raise ValueError("mullineux needs a partition")
    if not is_p_restricted(mu, p):
        raise ValueError(f"{mu} is not {p}-restricted")
    return conjugate(_mullineux_regular(conjugate(mu), p))


def sign_twist_label(x, p):
    """The label of Y(lam|p*mu) twisted by the sign representation.

    Sends (lam, mu) to (M(lam(0)) + p*mu, (lam - lam(0))/p) where M is the
    Mullineux map on p-restricted partitions.
    """
    lam, mu = tuple(x[0]), tuple(x[1])
    lam0 = digit(lam, p, 0)
    rest = pointwise_sub(lam, lam0)
    if any(v % p for v in rest):
        raise AssertionError("non-digit remainder")
    mu_new = wp(tuple(v // p for v in rest))
    lam_new = wp(pointwise_add(mullineux(lam0, p), scale(p, mu)))
    return lam_new, mu_new


# ---------------------------------------------------------------------------
# enumeration

@functools.lru_cache(maxsize=None)
def partitions_of(n: int, max_part: int | None = None) -> tuple:
    """All partitions of n in descending dictionary order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def enumerate_p2(n: int) -> list:
    """Pairs of partitions (alpha, beta) with |alpha| + |beta| = n.

    Ordered by |beta| ascending, then beta and alpha each in descending
    dictionary order, matching the order used for the signed labels.
    """
    out = []
    for s in range(n + 1):
        for beta in partitions_of(s):
            for alpha in partitions_of(n - s):
                out.append((alpha, beta))
    out.sort(key=total_key)
    return out


def enumerate_p2p(n: int, p: int) -> list:
    """Labels (lambda, mu) with |lambda| + p|mu| = n, sorted by the total order."""
    return list(_p2p(n, p))


@functools.lru_cache(maxsize=None)
def _p2p(n: int, p: int) -> tuple:
    check_odd_prime(p)
    out = []
    s = 0
    while p * s <= n:
        for mu in partitions_of(s):
            for lam in partitions_of(n - p * s):
                out.append((lam, mu))
        s += 1
    out.sort(key=total_key)
    return tuple(out)


def label_rows(n: int, p: int, signed: bool = True) -> tuple:
    """(labels, rows) of the degree-n matrix, in the fixed total order.

    The signed labels are the pairs (lambda, mu) of enumerate_p2p, and
    the row of (lambda, mu) is the module M(lambda | p mu). The plain
    labels are (lambda, ()) for the partitions of n, each its own row.
    """
    if signed:
        labels = enumerate_p2p(n, p)
    else:
        labels = [(lam, ()) for lam in partitions_of(n)]
    return labels, [(lam, scale(p, mu)) for lam, mu in labels]
