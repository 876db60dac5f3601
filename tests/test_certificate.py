"""The certificate of indecomposability: End(x) read as eAe inside
A = End_G(M), against dense computations on the node itself.

A node that refuses its random round is decided in eAe: certified when
every element is a unit or nilpotent, else split by the first element
that is neither. The references below work on the dense d x d matrices
e X_k e of the node's idempotent e, for the orbit basis X_k of A.
"""

import itertools
import random

import numpy as np
import pytest

from skostka import gfp, modrep
from skostka.combinat import label_rows
from test_hom_oracle import dense_element
from test_split_oracle import dense_minpoly


def orbit_matrix(end, k, p):
    """The basis element X_k of the Hom basis as a dense matrix."""
    coeffs = np.zeros(end.num, dtype=np.int64)
    coeffs[k] = 1
    return dense_element(end, coeffs, p)


def dense_idempotent(node):
    """The node's idempotent e as a dense d x d matrix."""
    end, p = node.parent.end, node.p
    return dense_element(end, end.one if node.whole else node.e, p)


def dense_end(node):
    """A basis of End_G(x) = eAe as d x d matrices: the rref of the
    flattened e X_k e over every k."""
    end, p, d = node.parent.end, node.p, node.parent.dim
    e = dense_idempotent(node)
    flat = np.array(
        [
            gfp.matmul(gfp.matmul(e, orbit_matrix(end, k, p), p), e, p).ravel()
            for k in range(end.num)
        ]
    )
    r, pivots = gfp.rref(flat, p)
    return r[: len(pivots)].reshape(-1, d, d)


def is_unit_or_nilpotent(z, p, dim):
    """Whether z in eAe, a d x d matrix, is a unit of eAe, of rank dim x,
    or nilpotent."""
    d = z.shape[0]
    if len(gfp.rref(z, p)[1]) == dim:
        return True
    power = np.eye(d, dtype=np.int64)
    for _ in range(d):
        power = gfp.matmul(power, z, p)
    return not power.any()


def brute_local(node):
    """Whether every element of End_G(x) is a unit or nilpotent, by
    enumerating every nonzero element of its dense basis."""
    basis, p = dense_end(node), node.p
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        if any(coeffs):
            z = gfp._mod(np.tensordot(np.array(coeffs), basis, 1), p)
            if not is_unit_or_nilpotent(z, p, node.dim):
                return False
    return True


def refusing_nodes(monkeypatch, run):
    """The nodes whose endomorphism algebra run() reads, that is, the
    nodes that refuse their random round."""
    real = modrep._node_algebra
    nodes = []

    def spy(node):
        nodes.append(node)
        return real(node)

    with monkeypatch.context() as m:
        m.setattr(modrep, "_node_algebra", spy)
        run()
    return nodes


def test_left_and_right_against_dense():
    """L_a b and R_b a, read off the first-cell columns, are the
    coefficients of the dense product a b, its entries at the first
    cells of row 0; the identity is basis element 0."""
    rng = np.random.default_rng(0)
    for ab, p in [(((2, 1, 1), ()), 3), (((2, 1), (2,)), 5), (((1,) * 4, ()), 3)]:
        m = modrep.build_module(ab, p)
        end = m.end
        assert np.array_equal(dense_element(end, end.one, p), np.eye(m.dim))
        for _ in range(3):
            a, b = rng.integers(0, p, (2, end.num))
            dense = gfp.matmul(dense_element(end, a, p), dense_element(end, b, p), p)
            want = dense[0, end.first_cells]
            assert np.array_equal(dense_element(end, want, p), dense), ab
            assert np.array_equal(gfp.matmul(end.left(a, p), b, p), want), ab
            assert np.array_equal(gfp.matmul(end.right(b, p), a, p), want), ab


@pytest.mark.parametrize("p", (3, 5))
def test_algebra_of_refusing_nodes(p, monkeypatch):
    """On every node that refuses a round in the degree <= 5 sweeps at
    seeds 0-2, eAe has the dimension of the span of the e X_k e, and its
    verdict, local or not, is that of enumerating the d x d matrices.
    Its identity has the coordinates one: each reg[i] takes one to the
    i-th unit vector, and the Krylov polynomial of one under an element
    is that element's minimal polynomial in eAe."""

    def sweeps():
        for seed in range(3):
            eng = modrep.DirectEngine(p, seed=seed)
            for n in range(6):
                eng.registry_for(n)

    nodes = refusing_nodes(monkeypatch, sweeps)
    verdicts = set()
    rng = np.random.default_rng(p)
    for node in nodes:
        basis, reg, one = modrep._node_algebra(node)
        m = len(basis)
        assert m == len(dense_end(node)), (p, node.parent.ab, node.dim)
        assert np.array_equal(gfp.matmul(reg, one, p), np.eye(m)), (p, node.parent.ab)
        for coeffs in rng.integers(0, p, (3, m)):
            element = gfp.matmul(coeffs[None, :], reg.reshape(m, m * m), p).reshape(m, m)
            want = dense_minpoly(element, p)
            assert modrep.matrix_minpoly(element, one, p) == want, (p, node.parent.ab)
        local = modrep._nonlocal_element(reg, one, p, random.Random(0)) is None
        assert local == brute_local(node), (p, node.parent.ab, node.dim)
        verdicts.add(local)
    assert len(nodes) > 10 and verdicts == {True, False}


def refuse_first_round(monkeypatch):
    """_split_once refusing the first call, the random round, as if the
    draw had been unlucky; later calls split as usual."""
    real = modrep._split_once
    calls = []

    def planted(end, r, left, q, z, p):
        calls.append(r % p)
        return None if len(calls) == 1 else real(end, r, left, q, z, p)

    monkeypatch.setattr(modrep, "_split_once", planted)
    return calls


@pytest.mark.parametrize("pick", ["isomorphic", "distinct"])
def test_planted_sum_of_two_leaves_is_split(pick, monkeypatch):
    """A node that is the sum of two known leaves of M(1^4) at p = 3,
    two copies of one class or two classes, is never certified: its
    endomorphism algebra holds an element that is neither a unit nor
    nilpotent, and that witness splits the node into the two dimensions."""
    p = 3
    m = modrep.build_module(((1,) * 4, ()), p)
    leaves = modrep.decompose_summands(m, random.Random(0))
    pairs = [
        (x, y)
        for x, y in itertools.combinations(leaves, 2)
        if (pick == "isomorphic") == modrep.modules_isomorphic(x, y)
    ]
    x, y = pairs[0]
    node = modrep.Summand(m, x.e + y.e)
    assert node.dim == x.dim + y.dim
    _, reg, one = modrep._node_algebra(node)
    assert modrep._nonlocal_element(reg, one, p, random.Random(0)) is not None
    calls = refuse_first_round(monkeypatch)
    split = modrep._split_node(node, random.Random(1))
    assert len(calls) == 2 and split is not None
    assert sorted(modrep.Summand(m, r, left).dim for r, left in split) == sorted(
        [x.dim, y.dim]
    )


def test_local_node_is_certified_after_one_refusal(monkeypatch):
    """A class leaf whose random round is planted to refuse is certified
    from its endomorphism algebra, with no second round."""
    p = 3
    m = modrep.build_module(((2, 1, 1), ()), p)
    leaves = modrep.decompose_summands(m, random.Random(0))
    leaf = max(leaves, key=lambda s: s.dim)
    assert brute_local(leaf)
    calls = refuse_first_round(monkeypatch)
    assert modrep._split_node(leaf, random.Random(1)) is None
    assert len(calls) == 1 and np.array_equal(calls[0], leaf.e)


def count_refusals(monkeypatch):
    """Per node that _split_node handles, the number of rounds of
    _split_once that refused it; and the nodes it certified."""
    real_node, real_once = modrep._split_node, modrep._split_once
    refusals, certified = [], []

    def spy_node(node, rng):
        refusals.append(0)
        split = real_node(node, rng)
        if split is None:
            certified.append(node)
        return split

    def spy_once(*args):
        split = real_once(*args)
        refusals[-1] += split is None
        return split

    monkeypatch.setattr(modrep, "_split_node", spy_node)
    monkeypatch.setattr(modrep, "_split_once", spy_once)
    return refusals, certified


def new_class_leaves(monkeypatch):
    """The new-class leaf of every row the sweep splits."""
    real = modrep.DirectEngine._label
    leaves = []

    def spy(engine, key, known, where):
        leaf = real(engine, key, known, where)
        leaves.append(leaf)
        return leaf

    monkeypatch.setattr(modrep.DirectEngine, "_label", spy)
    return leaves


@pytest.mark.parametrize("p", (3, 5))
@pytest.mark.parametrize("seed", range(4))
def test_no_node_refuses_twice(p, seed, monkeypatch):
    """In the degree-6 sweep no node takes a second refusing round, and
    every class representative above dimension 1 is certified."""
    refusals, certified = count_refusals(monkeypatch)
    reps = new_class_leaves(monkeypatch)
    modrep.DirectEngine(p, seed=seed).registry_for(6)
    assert refusals and max(refusals) == 1
    assert len(reps) == {3: 9, 5: 6}[p]
    for rep in reps:
        assert rep.dim == 1 or any(rep is node for node in certified), rep.dim


@pytest.mark.parametrize("p", (3, 5))
def test_degree_seven_class_representatives_certified(p, monkeypatch):
    """Every class representative of degree 7 above dimension 1 is
    certified, and no node takes a second refusing round."""
    refusals, certified = count_refusals(monkeypatch)
    reps = new_class_leaves(monkeypatch)
    modrep.DirectEngine(p).registry_for(7)
    labels, _ = label_rows(7, p)
    assert 0 < len(reps) < len(labels) and max(refusals) == 1
    for rep in reps:
        assert rep.dim == 1 or any(rep is node for node in certified), rep.dim


def test_witness_that_does_not_split_is_loud(monkeypatch):
    """A witness whose round refuses is an impossible state: with every
    round planted to refuse, a decomposable node raises IntegrityError
    naming the module and the node, instead of being accepted."""
    m = modrep.build_module(((2, 1, 1), ()), 3)
    monkeypatch.setattr(modrep, "_split_once", lambda *args: None)
    with pytest.raises(modrep.IntegrityError) as info:
        modrep.decompose_summands(m, random.Random(0))
    msg = str(info.value)
    assert f"dimension {m.dim} of M((2, 1, 1), ())" in msg
    assert "did not split" in msg


@pytest.mark.parametrize("p", (10007, 1890571))
def test_large_prime_splits_without_enumerating(p):
    """At a prime above the degree the group algebra is semisimple, and
    M(1^4) is the sum of the Specht modules, each as often as its
    dimension. A refusing node there has an End(x) of p + 1 lines or
    more, too many to enumerate, and is split from a random element whose
    minimal polynomial has two coprime factors."""
    from sympy import isprime

    assert isprime(p) and p <= modrep.PRIME_CAP
    m = modrep.build_module(((1,) * 4, ()), p)
    for seed in range(3):
        leaves = modrep.decompose_summands(m, random.Random(seed))
        assert sorted(s.dim for s in leaves) == [1, 1, 2, 2, 3, 3, 3, 3, 3, 3]
