"""Multiplicity formulas driven by level-tuple enumeration.

The central object is the set Lambda((alpha|beta), rho) of tuples
(gam|dlt) = ((gam^(0), gam^(1), ...) | (dlt^(0), dlt^(1), ...)) of
sequences with alpha = sum_i p^i gam^(i) and beta = sum_i p^i dlt^(i)
pointwise, and |gam^(i)| + |dlt^(i)| = n_i for the level sizes n_i of rho.
A tuple is stored as a pair (gam, dlt) where gam is a tuple of levels,
each level a tuple of len(alpha) nonnegative integers (zeros significant),
and likewise for dlt.

The supported subset adds size and dominance constraints tied to the
p-adic digits of a target label (lam|p*mu), and the main reduction formula
writes the multiplicity of Y(lam|p*mu) in M(alpha|beta) as a sum over that
subset of products of base multiplicities. Base values (p-restricted column
label, empty mu) are delegated to an oracle object carrying the prime p and
a projective_signed((gamma|delta), lam0) query; everything else here is
exact integer combinatorics on top of it.
"""

from functools import lru_cache

from .combinat import (
    admits_horizontal_cut,
    bottom_cut,
    check_odd_prime,
    digit,
    dominates,
    dominates_pair,
    enumerate_p2p,
    is_p_restricted,
    mullineux,
    p_adic_expansion,
    pointwise_add,
    pointwise_sub,
    rho_of,
    scale,
    sign_twist_label,  # read as reduction.sign_twist_label by its callers
    size,
    top_cut,
    wp,
)


@lru_cache(maxsize=None)
def _digit_vectors(v, levels, p):
    """All (d_0, ..., d_{levels-1}) with sum d_i * p^i = v, d_i >= 0."""
    if levels == 0:
        return ((),) if v == 0 else ()
    out = []
    unit = p ** (levels - 1)
    for d in range(v // unit + 1):
        for rest in _digit_vectors(v - d * unit, levels - 1, p):
            out.append(rest + (d,))
    return tuple(out)


def enumerate_lambda(ab, counts, p):
    """All level tuples for (alpha|beta) against level sizes counts.

    counts is the tuple (n_0, n_1, ...); the governing group shape is
    ((p^i)^(n_i))_i. Output order is the depth-first order of the digit
    choices, position by position through alpha then beta.
    """
    check_odd_prime(p)
    alpha, beta = tuple(ab[0]), tuple(ab[1])
    if any(x < 0 for x in alpha + beta):
        raise ValueError("negative entries")
    counts = tuple(counts)
    n = size(alpha) + size(beta)
    if n != sum(c * p**i for i, c in enumerate(counts)):
        raise ValueError("size mismatch between (alpha|beta) and the level sizes")
    levels = len(counts)
    positions = [(0, j) for j in range(len(alpha))] + [
        (1, j) for j in range(len(beta))
    ]
    values = list(alpha) + list(beta)
    options = [_digit_vectors(v, levels, p) for v in values]
    sums = [0] * levels
    chosen = []
    out = []

    def rec(k):
        if k == len(positions):
            if all(sums[i] == counts[i] for i in range(levels)):
                gam = tuple(
                    tuple(chosen[j][i] for j in range(len(alpha)))
                    for i in range(levels)
                )
                dlt = tuple(
                    tuple(chosen[len(alpha) + j][i] for j in range(len(beta)))
                    for i in range(levels)
                )
                out.append((gam, dlt))
            return
        for vec in options[k]:
            ok = True
            for i in range(levels):
                if sums[i] + vec[i] > counts[i]:
                    ok = False
                    break
            if not ok:
                continue
            for i in range(levels):
                sums[i] += vec[i]
            chosen.append(vec)
            rec(k + 1)
            chosen.pop()
            for i in range(levels):
                sums[i] -= vec[i]

    rec(0)
    return out


def enumerate_lambda_supp(ab, x, p):
    """The supported subset for the label x = (lam, mu).

    Keeps the tuples satisfying, for every level i >= 1, the size and
    dominance constraints |gam^(i)| = |lam(i)| with lam(i) dominating
    wp(gam^(i)) and |dlt^(i)| = |mu(i-1)| with mu(i-1) dominating
    wp(dlt^(i)), together with the level-0 pair dominance
    (lam(0)|empty) >= (wp(gam^(0))|wp(dlt^(0))).
    """
    alpha, beta = tuple(ab[0]), tuple(ab[1])
    lam, mu = tuple(x[0]), tuple(x[1])
    if size(alpha) + size(beta) != size(lam) + p * size(mu):
        raise ValueError("size mismatch between (alpha|beta) and the label")
    counts = rho_of(lam, mu, p)
    lam_digits = p_adic_expansion(lam, p)
    mu_digits = p_adic_expansion(mu, p)
    out = []
    for gam, dlt in enumerate_lambda((alpha, beta), counts, p):
        keep = True
        for i in range(1, len(counts)):
            li = lam_digits[i] if i < len(lam_digits) else ()
            mi = mu_digits[i - 1] if i - 1 < len(mu_digits) else ()
            g = wp(gam[i])
            d = wp(dlt[i])
            if sum(gam[i]) != size(li) or sum(dlt[i]) != size(mi):
                keep = False
                break
            if (size(li) and not dominates(li, g)) or (
                size(mi) and not dominates(mi, d)
            ):
                keep = False
                break
        if keep and counts:
            lam0 = lam_digits[0] if lam_digits else ()
            if not dominates_pair((lam0, ()), (wp(gam[0]), wp(dlt[0]))):
                keep = False
        if keep:
            out.append((gam, dlt))
    return out


@lru_cache(maxsize=None)
def _normal_pair(alpha, beta, p):
    """(wp alpha, wp beta, |alpha|, |beta|, sum alpha_j mod p, sum beta_j
    mod p) for one row at p.

    A negative entry raises on every call: lru_cache stores no exception.
    """
    alpha, beta = wp(alpha), wp(beta)
    residues = (sum(v % p for v in alpha), sum(v % p for v in beta))
    return alpha, beta, size(alpha), size(beta), *residues


@lru_cache(maxsize=None)
def _label_data(lam, mu, p):
    """What signed_kostka needs of the label (lam, mu) at p.

    Returns (n, base, lam_digits, mu_digits, lam0, lo, hi): the degree
    n = |lam| + p|mu|; whether the label is a base case (mu empty, lam
    p-restricted); and otherwise the digits of lam and mu, lam(0), and
    the range [lo, hi] = [p|mu|, p|mu| + |lam(0)|] that |beta| must lie
    in for the supported set to be nonempty. A bad p, lam or mu raises
    on every call, as lru_cache stores no exception.
    """
    check_odd_prime(p)
    n = size(lam) + p * size(mu)
    if mu == () and is_p_restricted(lam, p):
        return n, True, (), (), (), 0, 0
    lam_digits = tuple(p_adic_expansion(lam, p))
    mu_digits = tuple(p_adic_expansion(mu, p))
    lam0 = lam_digits[0] if lam_digits else ()
    lo = p * size(mu)
    return n, False, lam_digits, mu_digits, lam0, lo, lo + size(lam0)


def signed_kostka(ab, x, oracle):
    """Multiplicity of Y(lam|p*mu) in M(alpha|beta), x = (lam, mu).

    Evaluates the reduction formula: a sum over the supported level
    tuples of the base multiplicity at level 0 times plain factors at the
    higher levels. Base cases go straight to the oracle. The row and the
    label are read from two tables first, and an entry that an exact size
    or residue bound shows to have an empty supported set is 0 at once,
    with no memo key built or stored. Base values and enumerated sums are
    memoised on the oracle under the normalised row.
    """
    p = oracle.p
    lam, mu = tuple(x[0]), tuple(x[1])
    n, base, lam_digits, mu_digits, lam0, lo, hi = _label_data(lam, mu, p)
    alpha, beta, a, b, ra, rb = _normal_pair(tuple(ab[0]), tuple(ab[1]), p)
    if a + b != n:
        raise ValueError("size mismatch")
    # A supported tuple has |dlt^(0)| = |beta| - p|mu| = b - lo and
    # |gam^(0)| = |lam(0)| - |dlt^(0)| = hi - b (size bound), and since
    # alpha_j = sum_i p^i gam^(i)_j, gam^(0)_j is at least alpha_j mod p,
    # and likewise for dlt^(0) (residue bound). Outside them the supported
    # set is empty. The bounds live here, not in enumerate_lambda_supp,
    # which vanishing_check uses as the independent side of the
    # vanishing identity.
    if not base and (not lo <= b <= hi or rb > b - lo or ra > hi - b):
        return 0
    memo = vars(oracle).setdefault("_skostka_memo", {})
    key = (alpha, beta, lam, mu)
    if key in memo:
        return memo[key]
    if base:
        val = oracle.projective_signed((alpha, beta), lam)
    else:
        val = 0
        for gam, dlt in enumerate_lambda_supp((alpha, beta), (lam, mu), p):
            term = oracle.projective_signed((wp(gam[0]), wp(dlt[0])), lam0)
            for i in range(1, len(gam)):
                if term == 0:
                    break
                li = lam_digits[i] if i < len(lam_digits) else ()
                mi = mu_digits[i - 1] if i - 1 < len(mu_digits) else ()
                term *= oracle.projective_signed((wp(gam[i]), ()), li)
                if term:
                    term *= oracle.projective_signed((wp(dlt[i]), ()), mi)
            val += term
    memo[key] = val
    return val


def kostka(a, lam, oracle):
    """Plain multiplicity of the Young module Y^lam in M^a.

    For p-restricted lam this is one oracle call; otherwise the sum over
    expansions a = sum p^i gam^(i) with |gam^(i)| = |lam(i)| and lam(i)
    dominating wp(gam^(i)), of the product of base factors.
    """
    return signed_kostka((tuple(a), ()), (tuple(lam), ()), oracle)


def phi_split(t, ab, x, p):
    """Split a supported tuple for (alpha|beta) vs (lam|p*mu), |beta| = p|mu|.

    Returns the pair of tuples ((gam|0), (dlt|0)) belonging to the
    supported sets of (alpha|empty) vs (lam|empty) and (beta|empty) vs
    (p*mu|empty); the induced map is a bijection.
    """
    alpha, beta = tuple(ab[0]), tuple(ab[1])
    lam, mu = tuple(x[0]), tuple(x[1])
    if size(beta) != p * size(mu):
        raise ValueError("requires |beta| = p|mu|")
    gam, dlt = t
    la = len(alpha)
    lb = len(beta)
    cg = len(rho_of(lam, (), p))
    cd = len(rho_of(scale(p, mu), (), p))
    gout = tuple(gam[i] if i < len(gam) else (0,) * la for i in range(cg))
    dout = tuple(dlt[i] if i < len(dlt) else (0,) * lb for i in range(cd))
    for i in range(cg, len(gam)):
        if any(gam[i]):
            raise ValueError("tuple has support beyond the target levels")
    for i in range(cd, len(dlt)):
        if any(dlt[i]):
            raise ValueError("tuple has support beyond the target levels")
    empty_g = ((),) * cg
    empty_d = ((),) * cd
    return (gout, empty_g), (dout, empty_d)


def _pad(seq, k):
    return tuple(seq[:k]) + (0,) * (k - len(seq))


def _check_cuts(alpha, beta, lam, pmu, r, s):
    """Raise unless (alpha, lam) admits a cut at r and (beta, p*mu) at s."""
    if not admits_horizontal_cut(alpha, lam, r):
        raise ValueError("the (alpha, lam) cut is not admitted")
    if not admits_horizontal_cut(beta, pmu, s):
        raise ValueError("the (beta, p*mu) cut is not admitted")


def iota_embed(s_tuple, t_tuple, u_tuple, ab, x, r, s, p):
    """Assemble a supported tuple for (alpha|beta) vs (lam|p*mu) from cut pieces.

    s_tuple and t_tuple are gamma-only tuples for the rectangle-reduced
    top cuts of (alpha, lam) at row r and (beta, p*mu) at row s; u_tuple is
    a full tuple for the bottom cuts. Level i of the result prepends the
    padded top piece plus the rectangle digit to the bottom piece. The
    assembled map is injective.
    """
    alpha, beta = tuple(ab[0]), tuple(ab[1])
    lam, mu = tuple(x[0]), tuple(x[1])
    pmu = scale(p, mu)
    _check_cuts(alpha, beta, lam, pmu, r, s)
    counts = rho_of(lam, mu, p)
    levels = len(counts)
    lam_digits = p_adic_expansion(lam, p)
    mu_digits = p_adic_expansion(mu, p)

    def dig(ds, i):
        return ds[i] if 0 <= i < len(ds) else ()

    sig, _ = s_tuple
    tau, _ = t_tuple
    gam, dlt = u_tuple
    ra = min(r, len(alpha))
    sb = min(s, len(beta))
    eta = []
    theta = []
    for i in range(levels):
        b_i = dig(lam_digits, i)[r] if r < len(dig(lam_digits, i)) else 0
        c_im1 = dig(mu_digits, i - 1)[s] if s < len(dig(mu_digits, i - 1)) else 0
        if i == 0:
            c_im1 = 0
        sv = sig[i] if i < len(sig) else ()
        tv = tau[i] if i < len(tau) else ()
        gv = gam[i] if i < len(gam) else (0,) * (len(alpha) - ra)
        dv = dlt[i] if i < len(dlt) else (0,) * (len(beta) - sb)
        top_a = tuple(v + b_i for v in _pad(sv, ra))
        top_b = tuple(v + c_im1 for v in _pad(tv, sb))
        eta.append(top_a + tuple(gv))
        theta.append(top_b + tuple(dv))
    return tuple(eta), tuple(theta)


def product_formula(ab, x, r, s, oracle):
    """Four-factor value for an admissible pair of cuts when |beta| = p|mu|.

    Equals signed_kostka(ab, x).
    """
    p = oracle.p
    alpha, beta = tuple(ab[0]), tuple(ab[1])
    lam, mu = tuple(x[0]), tuple(x[1])
    pmu = scale(p, mu)
    if size(beta) != p * size(mu):
        raise ValueError("requires |beta| = p|mu|")
    _check_cuts(alpha, beta, lam, pmu, r, s)
    return (
        kostka(top_cut(alpha, r), top_cut(lam, r), oracle)
        * kostka(top_cut(beta, s), top_cut(pmu, s), oracle)
        * kostka(bottom_cut(alpha, r), bottom_cut(lam, r), oracle)
        * kostka(bottom_cut(beta, s), bottom_cut(pmu, s), oracle)
    )


def mullineux_factor(ab, x, oracle):
    """Two-factor value via the sign twist, when |alpha| = |lam| - |lam(0)|.

    Returns k_{alpha, lam - lam(0)} * k_{beta, M(lam(0)) + p*mu}; equals
    signed_kostka(ab, x).
    """
    p = oracle.p
    alpha, beta = tuple(ab[0]), tuple(ab[1])
    lam, mu = tuple(x[0]), tuple(x[1])
    lam0 = digit(lam, p, 0)
    if size(alpha) != size(lam) - size(lam0):
        raise ValueError("requires |alpha| = |lam| - |lam(0)|")
    rest = wp(pointwise_sub(lam, lam0))
    target = wp(pointwise_add(mullineux(lam0, p), scale(p, mu)))
    return kostka(alpha, rest, oracle) * kostka(beta, target, oracle)


def rowcut_lower_bound(ab, x, r, s, oracle):
    """Lower bound from an admissible pair of cuts, no |beta| = p|mu| needed.

    top(alpha) vs top(lam) and top(beta) vs top(p*mu) contribute plain
    factors; the bottoms contribute a signed factor. Always at most
    signed_kostka(ab, x), with equality when |beta| = p|mu|.
    """
    p = oracle.p
    alpha, beta = tuple(ab[0]), tuple(ab[1])
    lam, mu = tuple(x[0]), tuple(x[1])
    pmu = scale(p, mu)
    _check_cuts(alpha, beta, lam, pmu, r, s)
    return (
        kostka(top_cut(alpha, r), top_cut(lam, r), oracle)
        * kostka(top_cut(beta, s), top_cut(pmu, s), oracle)
        * signed_kostka(
            (bottom_cut(alpha, r), bottom_cut(beta, s)),
            (bottom_cut(lam, r), bottom_cut(mu, s)),
            oracle,
        )
    )


def principal_part_formula(ab, p, oracle):
    """Positive multiplicities of the labels with empty zeroth digit.

    For |alpha| + |beta| = n divisible by p, returns the map sending each
    label (lam, mu) with lam(0) empty and p|mu| = |beta| to
    k_{alpha,lam} * k_{beta,p*mu}, keeping the nonzero entries.
    """
    check_odd_prime(p)
    alpha, beta = tuple(ab[0]), tuple(ab[1])
    n = size(alpha) + size(beta)
    if n % p:
        raise ValueError("degree must be divisible by p")
    out = {}
    for lam, mu in _principal_labels(n, p, size(beta)):
        c = kostka(alpha, lam, oracle)
        if c:
            c *= kostka(beta, scale(p, mu), oracle)
        if c:
            out[(lam, mu)] = c
    return out


@lru_cache(maxsize=None)
def _principal_labels(n, p, b):
    """The labels (lam, mu) of degree n with lam(0) empty and p|mu| = b,
    in the total order."""
    return tuple(
        (lam, mu)
        for lam, mu in enumerate_p2p(n, p)
        if p * size(mu) == b and digit(lam, p, 0) == ()
    )


def vanishing_check(ab, x, p):
    """Whether an empty-zeroth-digit label can only occur when |beta| = p|mu|.

    Requires lam(0) empty; returns True when |beta| = p|mu| (vacuous) and
    otherwise reports whether the supported set is empty.
    """
    alpha, beta = tuple(ab[0]), tuple(ab[1])
    lam, mu = tuple(x[0]), tuple(x[1])
    if digit(lam, p, 0) != ():
        raise ValueError("requires lam(0) to be empty")
    if size(beta) == p * size(mu):
        return True
    return enumerate_lambda_supp((alpha, beta), (lam, mu), p) == []


def nonzero_witness(ab, x, p):
    """Existence of expansion witnesses for both coordinates, |beta| = p|mu|.

    True iff both supported sets of the split are nonempty; equivalent to
    signed_kostka(ab, x) > 0 under the standing hypothesis.
    """
    alpha, beta = tuple(ab[0]), tuple(ab[1])
    lam, mu = tuple(x[0]), tuple(x[1])
    if size(beta) != p * size(mu):
        raise ValueError("requires |beta| = p|mu|")
    return bool(enumerate_lambda_supp((alpha, ()), (lam, ()), p)) and bool(
        enumerate_lambda_supp((beta, ()), (scale(p, mu), ()), p)
    )
