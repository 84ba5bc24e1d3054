import math

import pytest

from snkron.partitions import (
    check_partition,
    conjugate,
    enumerate_partitions,
    format_partition,
    hook_dimension,
    is_even,
    is_odd,
    parse_partition,
    scale,
    schur_dimension,
)

from oracles import count_standard_tableaux, partition_count, partitions_of, weyl_gl_dimension


def test_check_partition_canonicalizes():
    assert check_partition([4, 2, 1]) == (4, 2, 1)
    assert check_partition((3, 3, 0, 0)) == (3, 3)
    assert check_partition(()) == ()
    assert check_partition([0]) == ()


@pytest.mark.parametrize("bad", [(1, 2), (3, -1), (2, "x")])
def test_check_partition_rejects(bad):
    with pytest.raises(ValueError):
        check_partition(bad)


def test_parse_and_format():
    assert parse_partition("4,2,1") == (4, 2, 1)
    assert parse_partition("0") == ()
    assert format_partition((4, 2, 1)) == "4,2,1"
    assert format_partition(()) == "0"
    for n in range(9):
        for lam in enumerate_partitions(n):
            assert parse_partition(format_partition(lam)) == lam
    bad = ["", "1,2", "a", "-1", "3, 1", " 3,1", "3,1 ", "\u0663,\u0661", "1_0", "+3", "1,,2", "1,"]
    for text in bad:
        with pytest.raises(ValueError):
            parse_partition(text)


def test_conjugate_examples():
    assert conjugate((3,)) == (1, 1, 1)
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(()) == ()


def test_conjugate_is_involution():
    for n in range(21):
        for lam in enumerate_partitions(n):
            assert conjugate(conjugate(lam)) == lam


def test_enumeration_examples():
    assert enumerate_partitions(4, 4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert enumerate_partitions(2, 1) == ((2,),)
    assert len(enumerate_partitions(16)) == 231
    assert enumerate_partitions(0) == ((),)


def test_enumeration_counts_and_order():
    for n in range(21):
        parts = enumerate_partitions(n)
        assert len(parts) == partition_count(n)
        assert len(set(parts)) == len(parts)
        for lam in parts:
            assert sum(lam) == n
            assert check_partition(lam) == lam
        assert list(parts) == sorted(parts, reverse=True)


def test_enumeration_with_length_bound():
    for n in range(13):
        for bound in range(1, 6):
            got = enumerate_partitions(n, bound)
            want = tuple(lam for lam in enumerate_partitions(n) if len(lam) <= bound)
            assert got == want


def test_even_odd():
    assert is_even((4, 2, 2)) and not is_odd((4, 2, 2))
    assert is_odd((3, 1, 1, 1)) and not is_even((3, 1, 1, 1))
    assert not is_even((3, 2)) and not is_odd((3, 2))
    assert is_even(()) and is_odd(())


def test_scale():
    assert scale((1, 1), 2) == (2, 2)
    assert scale((2, 1, 1), 2) == (4, 2, 2)
    assert scale((), 3) == ()
    with pytest.raises(ValueError):
        scale((2, 1), 0)


def test_hook_dimension_examples():
    for n in range(1, 8):
        assert hook_dimension((n,)) == 1
    assert hook_dimension((2, 2)) == 2
    assert hook_dimension((3, 3)) == 5
    assert hook_dimension(()) == 1


def test_hook_dimension_counts_standard_tableaux():
    for n in range(7):
        for lam in enumerate_partitions(n):
            assert hook_dimension(lam) == count_standard_tableaux(lam)


def test_hook_dimension_catalan_rectangles():
    for n in range(1, 9):
        assert hook_dimension((n, n)) == math.comb(2 * n, n) // (n + 1)


def test_hook_dimension_conjugation_invariant():
    for n in range(13):
        for lam in enumerate_partitions(n):
            assert hook_dimension(lam) == hook_dimension(conjugate(lam))


def test_squared_dimensions_sum_to_group_order():
    for n in range(13):
        assert sum(hook_dimension(lam) ** 2 for lam in enumerate_partitions(n)) == math.factorial(n)


def test_schur_dimension_examples():
    for d in range(1, 6):
        assert schur_dimension((1,), d) == d
    assert schur_dimension((1, 1, 1), 2) == 0
    assert schur_dimension((2, 2), 2) == 1
    assert schur_dimension((), 3) == 1
    with pytest.raises(ValueError):
        schur_dimension((2, 1), 0)


def test_schur_dimension_matches_weyl_formula():
    for n in range(8):
        for d in range(1, 5):
            for lam in enumerate_partitions(n):
                assert schur_dimension(lam, d) == weyl_gl_dimension(lam, d)


def test_schur_weyl_dimension_identity():
    for d in range(1, 5):
        for n in range(9):
            total = sum(
                hook_dimension(lam) * schur_dimension(lam, d)
                for lam in enumerate_partitions(n)
            )
            assert total == d**n


def test_enumeration_agrees_with_independent_generator():
    for n in range(11):
        assert sorted(enumerate_partitions(n), reverse=True) == sorted(
            partitions_of(n), reverse=True
        )
