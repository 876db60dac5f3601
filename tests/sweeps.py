"""Exhaustive sweeps shared by tier-1 tests, acceptance criterion 11 and
CI: combinatorial properties, counted species, and the regular module
against Specht Gram ranks. Each returns None when its property holds
over its whole scope, else a message naming the first failing case."""

import itertools

import numpy as np

from skostka import gfp, modrep, reduction
from skostka.combinat import (
    admits_horizontal_cut,
    bottom_cut,
    conjugate,
    dominates,
    dominates_pair,
    enumerate_p2,
    enumerate_p2p,
    is_p_restricted,
    mullineux,
    p_adic_expansion,
    partitions_of,
    pointwise_add,
    scale,
    size,
    top_cut,
    total_key,
    wp,
)

P = 3
support = reduction.enumerate_lambda_supp


def compositions_into(n, m):
    """Compositions of n into exactly m positive parts."""
    if m == 0:
        return [()] if n == 0 else []
    out = []
    for cuts in itertools.combinations(range(1, n), m - 1):
        pts = (0,) + cuts + (n,)
        out.append(tuple(pts[i + 1] - pts[i] for i in range(m)))
    return out


def at(seq, i, pad=0):
    return seq[i] if i < len(seq) else pad


def rectangle_top(seq, r, b):
    cut = list(top_cut(seq, r)) + [0] * (r - len(top_cut(seq, r)))
    vals = [v - b for v in cut]
    if any(v < 0 for v in vals):
        return None
    return tuple(vals)


def admissible_cut_data(alpha, lam, r):
    if not admits_horizontal_cut(alpha, lam, r):
        return None
    b = at(lam, r)
    a_top = rectangle_top(alpha, r, b)
    l_top = rectangle_top(lam, r, b)
    if a_top is None or l_top is None:
        return None
    return a_top, wp(l_top)


def padic_roundtrip():
    """Digits are p-restricted and recombine to lam; n <= 12, p = 3, 5, 7."""
    for p in (3, 5, 7):
        for n in range(13):
            for lam in partitions_of(n):
                digs = p_adic_expansion(lam, p)
                total = ()
                for i, d in enumerate(digs):
                    if d != () and not is_p_restricted(d, p):
                        return f"digit {d} of {lam} is not {p}-restricted"
                    total = pointwise_add(total, scale(p**i, d))
                if wp(total) != lam:
                    return f"round trip fails at {lam}, p={p}"
    return None


def cut_digits():
    """Cutting at row r commutes with taking digits, for the bottom and
    for the top less lam_{r+1}; n <= 10, r <= 4, p = 3, 5."""
    for p in (3, 5):
        for n in range(11):
            for lam in partitions_of(n):
                digs = p_adic_expansion(lam, p)
                for r in range(5):
                    bot = p_adic_expansion(wp(bottom_cut(lam, r)), p)
                    top = p_adic_expansion(wp(rectangle_top(lam, r, at(lam, r))), p)
                    for i in range(max(len(digs), len(bot), len(top))):
                        d = at(digs, i, ())
                        if wp(bottom_cut(d, r)) != at(bot, i, ()):
                            return f"bottom digit fails at {lam}, r={r}, p={p}"
                        if wp(rectangle_top(d, r, at(d, r))) != at(top, i, ()):
                            return f"top digit fails at {lam}, r={r}, p={p}"


def dominant_block():
    """lam dominating a composition of at most k parts bounds each part
    below by lam_k (1-indexed); n <= 8."""
    for n in range(1, 9):
        for lam in partitions_of(n):
            for k in range(1, len(lam) + 1):
                lam_k = lam[k - 1]
                for m in range(1, k + 1):
                    for gamma in compositions_into(n, m):
                        if dominates(lam, wp(gamma)) and min(gamma) < lam_k:
                            return f"block bound fails at {lam}, {gamma}"
    return None


def mullineux_involution():
    """Mullineux is an involution on p-restricted lam; n <= 10, p = 3, 5."""
    for p in (3, 5):
        for n in range(11):
            for lam in partitions_of(n):
                if not is_p_restricted(lam, p):
                    continue
                img = mullineux(lam, p)
                if not is_p_restricted(img, p):
                    return f"image {img} of {lam} is not restricted, p={p}"
                if sum(img) != n or mullineux(img, p) != lam:
                    return f"involution fails at {lam}, p={p}"
    return None


def order_refinement():
    """total_key refines label dominance; n <= 8, p = 3."""
    for n in range(9):
        labels = enumerate_p2p(n, P)
        for x in labels:
            for y in labels:
                if x == y:
                    continue
                try:
                    dom = dominates_pair((x[0], scale(P, x[1])), (y[0], scale(P, y[1])))
                except ValueError:
                    continue
                if dom and not total_key(x) < total_key(y):
                    return f"order does not refine dominance at {x}, {y}"
    return None


def phi_bijection():
    """phi_split is a bijection when |beta| = p|mu|; n <= 6, p = 3."""
    for n in range(7):
        for ab in enumerate_p2(n):
            alpha, beta = ab
            for x in enumerate_p2p(n, P):
                lam, mu = x
                if size(beta) != P * size(mu):
                    continue
                supp = support(ab, x, P)
                left = support((alpha, ()), (lam, ()), P)
                right = support((beta, ()), (scale(P, mu), ()), P)
                if len(supp) != len(left) * len(right):
                    return f"cardinality fails at {ab}, {x}"
                images = set()
                for t in supp:
                    a, b = reduction.phi_split(t, ab, x, P)
                    if a not in left or b not in right:
                        return f"image escapes at {ab}, {x}"
                    images.add((a, b))
                if len(images) != len(supp):
                    return f"split is not injective at {ab}, {x}"
    return None


def iota_injective():
    """iota_embed is injective on every admissible pair of cuts; n <= 6,
    p = 3."""
    for n in range(7):
        for ab in enumerate_p2(n):
            alpha, beta = ab
            for x in enumerate_p2p(n, P):
                lam, mu = x
                pmu = scale(P, mu)
                for r in range(len(alpha) + 2):
                    top_a = admissible_cut_data(alpha, lam, r)
                    if top_a is None:
                        continue
                    for s in range(len(beta) + 2):
                        top_b = admissible_cut_data(beta, pmu, s)
                        if top_b is None:
                            continue
                        g1 = support((top_a[0], ()), (top_a[1], ()), P)
                        g2 = support((top_b[0], ()), (top_b[1], ()), P)
                        g3 = support(
                            (bottom_cut(alpha, r), bottom_cut(beta, s)),
                            (bottom_cut(lam, r), bottom_cut(mu, s)),
                            P,
                        )
                        g4 = support(ab, x, P)
                        images = set()
                        for u, sv, tv in itertools.product(g3, g1, g2):
                            img = reduction.iota_embed(sv, tv, u, ab, x, r, s, P)
                            if img not in g4:
                                return f"image escapes at {ab}, {x}"
                            images.add(img)
                        if len(images) != len(g1) * len(g2) * len(g3):
                            return f"embedding collides at {ab}, {x}, r={r}, s={s}"
    return None


def twist(species, squares, n, p):
    """The sign twist of a species of degree n, as Summand.species_twisted
    reads it, from squares, per k the fixed points Fix(s^2) of the
    squared words s + s: a word s of odd length fixes Fix(s^2) - Fix(s)
    and any other word Fix(s)."""
    out = []
    for k, ((rank, fixed), sq) in enumerate(zip(species, squares)):
        words = modrep._normalizer_words(n, p, k)
        out.append((rank, tuple(q - f if len(w) % 2 else f for w, f, q in zip(words, fixed, sq))))
    return tuple(out)


def twisted_species(ab, p):
    """The counted species of M(ab) (x) sgn, from the counted fixed points
    of the squared words."""
    n = size(ab[0]) + size(ab[1])
    species = modrep._whole_species(ab, p)
    squares = [
        modrep._counted(ab, p, k, tuple(w + w for w in modrep._normalizer_words(n, p, k)))[1]
        for k in range(len(species))
    ]
    return twist(species, squares, n, p)


def sign_twins(scope=((3, 1, 8), (5, 1, 10), (7, 1, 10))):
    """M(beta|alpha) = M(alpha|beta) (x) sgn: the species counted from the
    label of (beta|alpha) is the sign twist of that of (alpha|beta), for
    every (alpha|beta) of degree low..top, per (p, low, top) of scope.
    No module is built."""
    for p, low, top in scope:
        for n in range(low, top + 1):
            for alpha, beta in enumerate_p2(n):
                twin = modrep._whole_species((beta, alpha), p)
                if twin != twisted_species((alpha, beta), p):
                    return f"sign twin fails at {(alpha, beta)}, p={p}"
    return None


def standard_tableaux(mu):
    """The standard tableaux of shape mu on the points 0..n-1, as lists
    of rows: each point goes to the end of a row that is shorter than
    both its bound and the row above."""
    n, out = size(mu), []

    def rec(rows, k):
        if k == n:
            out.append([list(row) for row in rows])
            return
        for i, row in enumerate(rows):
            if len(row) < mu[i] and (i == 0 or len(rows[i - 1]) > len(row)):
                row.append(k)
                rec(rows, k + 1)
                row.pop()

    rec([[] for _ in mu], 0)
    return out


def column_orderings(column):
    """(points in row order, sign) per permutation of the column's points."""
    out = []
    for perm in itertools.permutations(range(len(column))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        out.append(([column[i] for i in perm], (-1) ** inversions))
    return out


def gram_rank(mu, p):
    """dim D^mu over GF(p), for mu p-regular: the GF(p) rank of the Gram
    matrix of the standard polytabloids of shape mu (James, LNM 682). The
    polytabloid of a tableau t is the signed sum of its column
    permutations, a vector of M(mu|empty), whose basis is
    modrep._multiset_words(mu): a tabloid is the word that colours each
    point by its row."""
    index = {w: i for i, w in enumerate(modrep._multiset_words(mu))}
    tableaux = standard_tableaux(mu)
    vectors = np.zeros((len(tableaux), len(index)), dtype=np.int64)
    word = [0] * size(mu)
    for vector, rows in zip(vectors, tableaux):
        columns = [[row[c] for row in rows if c < len(row)] for c in range(len(rows[0]))]
        for choice in itertools.product(*map(column_orderings, columns)):
            sign = 1
            for points, s in choice:
                sign *= s
                for i, point in enumerate(points):
                    word[point] = i
            vector[index[tuple(word)]] += sign
    gram = (vectors @ vectors.T) % p
    return len(gfp.rref(gram, p)[1])


def regular_module(
    scope=((3, 1, 7), (5, 1, 7), (7, 1, 7)), engine=modrep.DirectEngine, rank=gram_rank
):
    """[M(1^n) : Y(lam|empty)] = dim D^lam' for lam p-restricted, and 0
    for every other label: the regular module F S_n is the sum of the
    projective indecomposables P(D), each dim D times, and these are the
    Young modules of the p-restricted labels. The oracle, rank(mu, p) =
    dim D^mu, shares nothing with the engine, whose side is one
    decompose per degree, with engine(p) as the engine, for every degree
    low..top per (p, low, top) of scope."""
    for p, low, top in scope:
        eng = engine(p)
        for n in range(low, top + 1):
            got = eng.decompose(((1,) * n, ()))
            want = {
                (lam, ()): rank(conjugate(lam), p)
                for lam in partitions_of(n)
                if is_p_restricted(lam, p)
            }
            for label in sorted(set(got) | set(want), key=total_key):
                if got.get(label, 0) != want.get(label, 0):
                    return (
                        f"regular module at degree {n}, p={p}: label {label} "
                        f"has multiplicity {got.get(label, 0)}, not {want.get(label, 0)}"
                    )
    return None


def square_classes(scope=((3, 1, 8), (5, 1, 8), (7, 1, 8))):
    """Fix(s^2) is the entry of the N(Q_k)-class that
    modrep._square_classes names for s^2, or the dimension of M(Q_k) where
    it names the identity: per k, the fixed points counted for each
    squared word s + s on M(ab) equal those counted for its mapped class,
    for every (alpha|beta) of degree low..top below p^2, per (p, low, top)
    of scope. No module is built."""
    for p, low, top in scope:
        for n in range(low, min(top, p * p - 1) + 1):
            for k in range(n // p + 1):
                words = modrep._normalizer_words(n, p, k)
                classes = modrep._square_classes(n, p, k)
                squared = tuple(w + w for w in words)
                for ab in enumerate_p2(n):
                    rank, fixed = modrep._counted(ab, p, k, words)
                    mapped = tuple(rank if c is None else fixed[c] for c in classes)
                    if modrep._counted(ab, p, k, squared)[1] != mapped:
                        return f"square classes fail at {ab}, p={p}, k={k}"
    return None
