import numpy as np
import pytest

from skostka.gfp import (
    Echelon,
    inverse,
    matmul,
    nullspace,
    rank,
    rref,
)


def test_rank_identity():
    for k in (1, 4, 9):
        assert rank(np.eye(k, dtype=np.int64), 3) == k


def test_nullspace_1x2():
    ns = nullspace(np.array([[1, 1]]), 3)
    assert ns.shape == (1, 2)
    assert tuple(ns[0]) == (1, 2)


def test_inverse_singular():
    assert inverse(np.array([[1, 2], [2, 4]]), 5) is None


def test_inverse_requires_square():
    with pytest.raises(ValueError):
        inverse(np.zeros((2, 3), dtype=np.int64), 3)


def test_rref_known():
    r, piv = rref(np.array([[0, 2, 1], [0, 1, 1]]), 3)
    assert piv == (1, 2)
    assert r.tolist() == [[0, 1, 0], [0, 0, 1]]


def test_randomized_algebra():
    rng = np.random.default_rng(0)
    for p in (3, 5, 7):
        for _ in range(200):
            k, m, n = (int(x) for x in rng.integers(1, 41, size=3))
            a = rng.integers(0, p, size=(k, m))
            b = rng.integers(0, p, size=(m, n))
            c = rng.integers(0, p, size=(n, k))
            assert np.array_equal(
                matmul(matmul(a, b, p), c, p), matmul(a, matmul(b, c, p), p)
            )
            assert rank(matmul(a, b, p), p) <= min(rank(a, p), rank(b, p))
            r, piv = rref(a, p)
            r2, piv2 = rref(r, p)
            assert np.array_equal(r, r2) and piv == piv2
            assert rank(a, p) + nullspace(a, p).shape[0] == m
            ns = nullspace(a, p)
            if ns.shape[0]:
                assert not np.any(matmul(a, ns.T, p))
            sq = rng.integers(0, p, size=(k, k))
            inv = inverse(sq, p)
            if inv is not None:
                assert np.array_equal(matmul(inv, sq, p), np.eye(k, dtype=np.int64))
                assert np.array_equal(matmul(sq, inv, p), np.eye(k, dtype=np.int64))
            else:
                assert rank(sq, p) < k


def test_echelon_matches_stack_rank():
    rng = np.random.default_rng(11)
    for p in (3, 5, 7):
        for _ in range(40):
            n = int(rng.integers(1, 25))
            ech = Echelon(p)
            kept = []
            for v in rng.integers(0, p, size=(int(rng.integers(0, 30)), n)):
                if ech.add(v):
                    kept.append(v % p)
            if kept:
                assert rank(np.stack(kept), p) == len(kept) == ech.rank
            probe = rng.integers(0, p, size=n)
            expected = (
                rank(np.vstack(kept + [probe % p]), p) == len(kept)
                if kept
                else not (probe % p).any()
            )
            assert ech.contains(probe) == expected


def test_echelon_rows_stay_reduced():
    ech = Echelon(3)
    for v in ([1, 1, 0, 2], [0, 1, 1, 1], [1, 2, 2, 1], [2, 0, 1, 0]):
        ech.add(np.array(v))
    for i, c in enumerate(ech.pivots):
        for j in range(ech.rank):
            assert ech.rows[j][c] == (1 if i == j else 0)


def test_echelon_rejects_dependent_and_zero():
    ech = Echelon(5)
    assert not ech.add(np.zeros(3, dtype=np.int64))
    assert ech.add(np.array([1, 2, 3]))
    assert not ech.add(np.array([2, 4, 6]))
    assert ech.add(np.array([0, 1, 0]))
    assert ech.rank == 2
    assert ech.contains(np.array([3, 4, 9]))
    assert not ech.contains(np.array([0, 0, 1]))
