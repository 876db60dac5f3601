"""Tests for signed tableaux, character vectors, and the iso normal form."""

import functools

import pytest

from skostka import checks
from skostka.combinat import enumerate_p2
from skostka.tabx import (
    canonical_label,
    char_vector,
    count_signed_ssyt,
    iso_equivalent,
    signed_tableaux,
)


@functools.cache
def tableaux_records():
    return checks.tableaux(range(9))


def tableaux_failures(kind):
    """Failing cases of one of the three checks.tableaux records (0 Pieri,
    1 one-column completion, 2 Kostka specializations) up to degree 8."""
    return [case for r in tableaux_records()[kind::3] for case in r.failures]


def test_unique_mixed_tableau():
    lam = (3, 2, 1, 1)
    ab = ((3, 2), (1, 1))
    tabs = signed_tableaux(lam, ab)
    assert len(tabs) == 1
    assert tabs[0] == ((0, 0, 0), (1, 1), (2,), (3,))


def test_single_sign_colour_column_vs_row():
    assert count_signed_ssyt((1, 1), ((), (2,))) == 1
    assert count_signed_ssyt((2,), ((), (2,))) == 0


def test_one_row_types():
    for n in range(1, 7):
        assert count_signed_ssyt((n,), ((n,), ())) == 1
        assert count_signed_ssyt((1,) * n, ((), (n,))) == 1
    for n in range(2, 7):
        assert count_signed_ssyt((n,), ((), (n,))) == 0
        assert count_signed_ssyt((1,) * n, ((n,), ())) == 0


def test_char_vector_smallest_mixed_pair():
    assert char_vector(((1,), (1,))) == {(2,): 1, (1, 1): 1}


def test_char_vector_matches_pieri_expansion():
    assert tableaux_failures(0) == []


def test_kostka_specializations():
    assert tableaux_failures(2) == []


def test_top_coefficient_is_one():
    assert tableaux_failures(1) == []


def test_iso_examples():
    assert iso_equivalent(((2, 1, 1), (1,)), ((2, 1), (1, 1)))
    assert iso_equivalent(((1, 1), ()), ((), (1, 1)))
    assert not iso_equivalent(((2,), ()), ((1, 1), ()))
    with pytest.raises(ValueError):
        iso_equivalent(((2,), ()), ((2, 1), ()))


def test_canonical_label_example():
    assert canonical_label(((2, 1, 1), (1,))) == (((2,), ()), (2, 1))
    assert canonical_label(((), ())) == (((), ()), (0, 0))


def test_iso_classes_share_character():
    assert not any(r.failures for r in checks.iso((), range(7), 3))
    # pairs with the same canonical cores are equivalent
    for n in range(7):
        first = {}
        for ab in enumerate_p2(n):
            assert iso_equivalent(first.setdefault(canonical_label(ab)[0], ab), ab)


def test_listing_is_sorted_and_duplicate_free():
    for lam, ab in [
        ((2, 1), ((1,), (2,))),
        ((2, 2), ((2, 1), (1,))),
        ((3, 1), ((1, 1), (2,))),
    ]:
        tabs = signed_tableaux(lam, ab)
        assert tabs == sorted(tabs)
        assert len(set(tabs)) == len(tabs)


def test_shape_type_size_mismatch():
    with pytest.raises(ValueError):
        signed_tableaux((2,), ((1,), ()))
    with pytest.raises(ValueError):
        signed_tableaux((1, 2), ((2, 1), ()))
