import math

import pytest
from hypothesis import given, settings, strategies as st

from snkron import partitions
from snkron.partitions import (
    Decomposition,
    check_partition,
    conjugate,
    enumerate_partitions,
    format_partition,
    hook_dimension,
    parse_partition,
    schur_dimension,
)

from oracles import count_standard_tableaux, partition_count, partitions_of, weyl_gl_dimension


def test_check_partition_canonicalizes():
    assert check_partition([4, 2, 1]) == (4, 2, 1)
    assert check_partition((3, 3, 0, 0)) == (3, 3)
    assert check_partition(()) == ()
    assert check_partition([0]) == ()


REJECTED = {
    (1, 2): "partition parts must be weakly decreasing: (1, 2)",
    (3, -1): "invalid partition part -1 in (3, -1)",
    (2, "x"): "invalid partition part 'x' in (2, 'x')",
    # An invalid part is reported even after an order violation.
    (3, 4, -1): "invalid partition part -1 in (3, 4, -1)",
    # A bool is an int, but format_partition would write "True".
    (True,): "invalid partition part True in (True,)",
}


@pytest.mark.parametrize("bad", list(REJECTED))
def test_check_partition_rejects(bad):
    with pytest.raises(ValueError) as info:
        check_partition(bad)
    assert str(info.value) == REJECTED[bad]


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
    with pytest.raises(ValueError, match="cannot enumerate partitions of -1"):
        enumerate_partitions(-1)


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
    # Every bound from 0 to past n, against the independent generator: the
    # enumeration emits its last one or two parts without recursing.
    assert enumerate_partitions(0, 0) == ((),)
    assert enumerate_partitions(3, 0) == ()
    for n in (0, 3):
        with pytest.raises(ValueError, match="length bound must be nonnegative, got -1"):
            enumerate_partitions(n, -1)
    for n in range(31):
        every = partitions_of(n)
        for bound in range(n + 2):
            want = tuple(lam for lam in every if len(lam) <= bound)
            assert enumerate_partitions(n, bound) == want, (n, bound)


def test_hook_dimension_examples():
    for n in range(1, 8):
        assert hook_dimension((n,)) == 1
    assert hook_dimension((2, 2)) == 2
    assert hook_dimension((3, 3)) == 5
    assert hook_dimension(()) == 1


def test_hook_dimension_counts_standard_tableaux():
    for n in range(19):
        for lam in enumerate_partitions(n):
            assert hook_dimension(lam) == count_standard_tableaux(lam)
    for n in range(19, 41):
        for lam in enumerate_partitions(n, 4):
            assert hook_dimension(lam) == count_standard_tableaux(lam)


def test_hook_dimension_extreme_shapes():
    # Long rows, long columns and hooks: a hook product that grows faster
    # than the cells of the shape shows up here as a slow test.
    assert hook_dimension((1,) * 2000) == hook_dimension((2000,)) == 1
    assert hook_dimension((1000,) + (1,) * 1000) == math.comb(1999, 1000)
    assert hook_dimension((8000, 8000)) == math.comb(16000, 8000) // 8001


def test_dimensions_share_one_cell_bound():
    # Both formulas admit 40 000 cells and reject 40 001 before any
    # arithmetic, even where schur_dimension would return 0.
    assert hook_dimension((40_000,)) == 1
    assert schur_dimension((20_000, 20_000), 2) == 1
    for call in (
        lambda: hook_dimension((40_001,)),
        lambda: hook_dimension((20_001, 20_000)),
        lambda: schur_dimension((40_001,), 2),
        lambda: schur_dimension((1,) * 40_001, 1),
    ):
        with pytest.raises(ValueError, match="40001 cells exceed the dimension bound of 40000"):
            call()


def test_dimension_sum_shares_the_cell_bound(monkeypatch):
    # A decomposition of 40 000 cells is summed; one of 40 001 is rejected
    # before any factorial, whatever its entries.
    dec = Decomposition(40_000, {(40_000,): 1, (39_999, 1): 2})
    assert dec.dimension_sum() == 1 + 2 * 39_999

    def no_factorial(n):
        raise AssertionError("factorial past the bound")

    monkeypatch.setattr(partitions, "factorial", no_factorial)
    for entries in ({}, {(1,) * 40_001: 1, (40_000, 1): 2}):
        with pytest.raises(ValueError, match="40001 cells exceed the dimension bound of 40000"):
            Decomposition(40_001, entries).dimension_sum()


def test_schur_dimension_bounds_numerator_bits(monkeypatch):
    # |lam| * bit_length(d + |lam|) may reach 800 000 bits, which admits every
    # shape within the cell bound at d <= 2|lam| + 1, and a one-cell shape
    # at a huge d; a call past it is rejected before any multiplication.
    assert 40_000 * (3 * 40_000 + 1).bit_length() <= 800_000
    assert schur_dimension((1,), 10**4000) == 10**4000
    d = 2**1000 - 801
    assert schur_dimension((800,), d) == math.comb(d + 799, 800)

    def no_arithmetic(*args):
        raise AssertionError("multiplied past the bound")

    monkeypatch.setattr(partitions, "perm", no_arithmetic)
    monkeypatch.setattr(partitions, "prod", no_arithmetic)
    for lam, d, bits in (((800,), 2**1000 - 800, 800_800), ((1,) * 2000, 10**4000, 26_576_000)):
        with pytest.raises(ValueError, match=f"^{bits} numerator bits exceed the dimension bound of 800000 bits"):
            schur_dimension(lam, d)


@st.composite
def partitions_to_300(draw):
    size = draw(st.integers(0, 300))
    parts = []
    while size:
        part = draw(st.integers(1, min(size, parts[-1]) if parts else size))
        parts.append(part)
        size -= part
    return tuple(parts)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(partitions_to_300())
def test_hook_dimension_conjugate_and_branching(lam):
    dim = hook_dimension(lam)
    assert dim == hook_dimension(conjugate(lam))
    if lam:
        # Branching rule: remove each corner in turn.
        below = lam[1:] + (0,)
        corners = [i for i, part in enumerate(lam) if part > below[i]]
        assert dim == sum(
            hook_dimension(lam[:i] + (lam[i] - 1,) + lam[i + 1:]) for i in corners
        )


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
