"""The isomorphism certificate in End-orbit coordinates against the
Echelon-based one it replaced.

The reference below is the earlier code, kept as the oracle: every
composition y x (x in the outer, y in the inner loop) is formed as a
dense matrix and offered, flattened, to one gfp.Echelon, which keeps the
ones that raise its rank; the powers of the ideal they span are formed
the same way until they vanish or stop shrinking. The module decides
independence on the coordinates of the products in End of the parent
module instead, and multiplies out only the products it keeps. Both
must pick the same products, in the same order, bit for bit, and reach
the same nilpotency verdict.
"""

import numpy as np
import pytest

from skostka import gfp, modrep
from skostka.combinat import enumerate_p2

PRIMES = (3, 5, 7)
W = gfp.PANEL


def ref_independent(mats, p):
    span = gfp.Echelon(p)
    return [
        np.asarray(m, dtype=np.int64) % p
        for m in mats
        if span.add(np.asarray(m).ravel())
    ]


def ref_certificate(xs, ys, p):
    """(comps, nilpotent) by the Echelon route."""
    comps = ref_independent((gfp.matmul(y, x, p) for x in xs for y in ys), p)
    power = comps
    while power:
        square = ref_independent(
            (gfp.matmul(w, c, p) for w in power for c in power), p
        )
        if len(square) == len(power):
            break
        power = square
    return comps, not power


def spans(a, b):
    xs = modrep._hom_span(a, b, modrep._hom_orbits(a.parent, b.parent))
    ys = modrep._hom_span(b, a, modrep._hom_orbits(b.parent, a.parent))
    return xs, ys


def assert_same_certificate(a, b, xs, ys):
    p = a.p
    if not xs or not ys:
        return False
    comps = modrep._compositions(xs, ys, a)
    ref_comps, ref_nil = ref_certificate(xs, ys, p)
    assert len(comps) == len(ref_comps)
    for got, want in zip(comps, ref_comps):
        assert got.dtype == np.int64 and np.array_equal(got, want)
    assert modrep._nilpotent(comps, a) == ref_nil
    return True


# ---------------------------------------------------------------------------
# coordinates


@pytest.mark.parametrize("p", (3, 5))
def test_end_basis_coordinates_are_unit_vectors(p):
    """Every basis matrix of End(M), degree <= 5, reads as its own unit
    vector, as a left and as a right factor of the identity."""
    for n in range(6):
        for ab in enumerate_p2(n):
            m = modrep.build_module(ab, p)
            a = modrep._as_summand(m)
            basis = modrep._end_of(m).matrices(p)
            eye = [np.eye(m.dim, dtype=np.int64)]
            unit = np.eye(len(basis), dtype=np.int64)
            left = modrep._product_coords(basis, eye, a)[:, 0]
            right = modrep._product_coords(eye, basis, a)[0]
            assert np.array_equal(left, unit), ab
            assert np.array_equal(right, unit), ab


# ---------------------------------------------------------------------------
# the chunked greedy kernel


def families(rng, p):
    """Row families: low rank, with zero and repeated rows, across chunk
    boundaries, and full-rank ones that fill the row space early."""
    out = []
    for m in (0, 1, W - 1, W, W + 1, 2 * W + 3, 5 * W):
        for n in (1, 5, 40, 130):
            r = int(rng.integers(0, min(m, n) + 1)) if m else 0
            a = gfp.matmul(
                rng.integers(0, p, (m, r)), rng.integers(0, p, (r, n)), p
            )
            if m > 2:
                a[rng.integers(0, m, m // 3)] = 0
                a[m - 1] = a[0]
            out.append(a)
    out.append(rng.integers(0, p, (3 * W, 17)))
    out.append(np.zeros((W + 5, 9), dtype=np.int64))
    out.append(np.zeros((4, 0), dtype=np.int64))
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_independent_rows_matches_echelon(p):
    rng = np.random.default_rng(p)
    for a in families(rng, p):
        span = gfp.Echelon(p)
        want = [i for i, row in enumerate(a) if span.add(row)]
        assert gfp.independent_rows(a, p) == want, a.shape
        # unreduced input gives the same rows
        shifted = a + p * rng.integers(-3, 3, a.shape)
        assert gfp.independent_rows(shifted, p) == want


@pytest.mark.parametrize("p", PRIMES)
def test_independent_matches_reference(p):
    rng = np.random.default_rng(10 + p)
    mats = list(gfp.matmul(rng.integers(0, p, (150, 3)),
                           rng.integers(0, p, (3, 16)), p).reshape(150, 4, 4))
    mats += [np.zeros((4, 4), dtype=np.int64), mats[7]]
    got = modrep._independent(iter(mats), p)
    want = ref_independent(mats, p)
    assert len(got) == len(want) == 3
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert modrep._independent([], p) == []


# ---------------------------------------------------------------------------
# the certificate


def test_certificate_matches_reference_every_pair_up_to_degree_five():
    """comps and the nilpotency verdict on every pair of degree <= 5 at
    p = 3 whose composition space the certificate enumerates."""
    p = 3
    checked = 0
    for n in range(6):
        mods = [modrep.build_module(ab, p) for ab in enumerate_p2(n)]
        for i, u in enumerate(mods):
            for v in mods[i:]:
                a, b = modrep._as_summand(u), modrep._as_summand(v)
                if a.dim != b.dim:
                    continue
                xs, ys = spans(a, b)
                if len(xs) * len(ys) > modrep.ISO_SPAN_PRODUCT_CAP:
                    continue
                checked += assert_same_certificate(a, b, xs, ys)
    # the degree-5 pairs of dimension 60 are among them
    assert checked > 100


def shared_class_summands():
    """The Fitting leaves of M(4,2) and M(4,1,1) at p = 3: non-whole
    summands of dimensions 6, 9 and 6, 9, 15, the two of dimension 6
    isomorphic across parents."""
    p = 3
    out = []
    for ab in (((4, 2), ()), ((4, 1, 1), ())):
        m = modrep.build_module(ab, p)
        end = modrep._hom_orbits(m, m)
        rng = np.random.default_rng(0)
        out += modrep.decompose_summands(m, end, p, rng)
    return out


def test_certificate_matches_reference_on_summands():
    summands = shared_class_summands()
    assert sorted(s.dim for s in summands) == [6, 6, 9, 9, 15]
    assert not any(s.whole for s in summands)
    for a in summands:
        for b in summands:
            assert_same_certificate(a, b, *spans(a, b))


def test_fingerprint_reject_needs_no_hom(monkeypatch):
    """Equal dimensions, unequal fingerprints: False before any Hom
    space is labelled."""
    u = modrep.build_module(((4, 1), ()), 3)
    v = modrep.build_module(((), (4, 1)), 3)
    assert u.dim == v.dim
    assert modrep._as_summand(u).fingerprint() != modrep._as_summand(v).fingerprint()

    def refuse(*args):
        raise AssertionError("Hom labelled after a fingerprint mismatch")

    monkeypatch.setattr(modrep, "_hom_orbits", refuse)
    assert not modrep.modules_isomorphic(u, v)
