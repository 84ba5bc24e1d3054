import pytest

from snkron.closed_forms import (
    theorem1_coefficient,
    theorem1_decomposition,
    theorem2_coefficient,
    theorem2_decomposition,
)
from snkron.kronecker import kronecker, tensor_decompose
from snkron.partitions import enumerate_partitions


def test_theorem1_decomposition_small_cases():
    assert theorem1_decomposition(0).entries == {(): 1}
    assert theorem1_decomposition(1).entries == {(2,): 1}
    assert theorem1_decomposition(2).entries == {(4,): 1, (2, 2): 1, (1, 1, 1, 1): 1}
    assert theorem1_decomposition(3).entries == {
        (6,): 1,
        (4, 2): 1,
        (2, 2, 2): 1,
        (3, 1, 1, 1): 1,
    }


def test_theorem1_coefficient_examples():
    assert theorem1_coefficient((4, 2)) == 1
    assert theorem1_coefficient((3, 3)) == 0
    assert theorem1_coefficient((5, 1, 1, 1)) == 1
    assert theorem1_coefficient(()) == 1
    with pytest.raises(ValueError):
        theorem1_coefficient((2, 1))


def test_theorem1_coefficient_spot_checked_against_oracle():
    assert kronecker((4, 4), (4, 4), (5, 1, 1, 1)) == 1
    assert kronecker((3, 3), (3, 3), (3, 3)) == 0


def test_theorem1_matches_oracle():
    # Zero parts canonicalize away, so (0,0) covers the empty case too.
    for n in range(9):
        assert theorem1_decomposition(n) == tensor_decompose((n, n), (n, n))


def test_theorem1_coefficient_matches_decomposition():
    for n in range(9):
        dec = theorem1_decomposition(n)
        for nu in enumerate_partitions(2 * n):
            expected = 1 if len(nu) <= 4 and theorem1_coefficient(nu) else 0
            assert dec.multiplicity(nu) == expected


def test_theorem1_matches_filter_definition():
    # Past the oracle's reach: the generated index set equals its definition
    # as a filter of the partitions of 2n with at most 4 parts, in order.
    for n in range(41):
        want = [nu for nu in enumerate_partitions(2 * n, 4) if theorem1_coefficient(nu)]
        assert list(theorem1_decomposition(n).entries) == want


def test_decomposition_entries_iterate_in_decreasing_order():
    for n in range(41):
        for dec in (theorem1_decomposition(n), theorem2_decomposition(n)):
            assert list(dec.entries) == sorted(dec.entries, reverse=True)


def test_theorem2_decomposition_small_cases():
    assert theorem2_decomposition(0).entries == {(): 1}
    assert theorem2_decomposition(1).entries == {(2, 2): 1}
    assert theorem2_decomposition(2).entries == {(4, 4): 1, (4, 2, 2): 1}


def test_theorem2_coefficient_examples():
    assert theorem2_coefficient((4, 4)) == 1
    assert theorem2_coefficient((4, 2, 2)) == 1
    assert theorem2_coefficient((6, 2)) == 0
    assert theorem2_coefficient(()) == 1
    with pytest.raises(ValueError):
        theorem2_coefficient((2, 2, 2, 2))
    with pytest.raises(ValueError):
        theorem2_coefficient((4, 2))


def test_theorem2_matches_oracle():
    for n in range(1, 5):
        closed = theorem2_decomposition(n)
        oracle = tensor_decompose((2 * n, 2 * n), (n, n, n, n), 3)
        assert closed == oracle


def test_theorem2_coefficient_matches_decomposition():
    for n in range(1, 5):
        dec = theorem2_decomposition(n)
        for nu in enumerate_partitions(4 * n, 3):
            assert dec.multiplicity(nu) == theorem2_coefficient(nu)


def test_both_closed_forms_are_multiplicity_free():
    for n in range(9):
        assert set(theorem1_decomposition(n).entries.values()) <= {1}
    for n in range(5):
        assert set(theorem2_decomposition(n).entries.values()) <= {1}


def test_theorem1_index_set_shape():
    # Even with at most 4 parts, or all odd with exactly 4 parts; never both.
    for n in range(9):
        for nu in theorem1_decomposition(n).entries:
            even = all(part % 2 == 0 for part in nu)
            odd = all(part % 2 == 1 for part in nu)
            assert (even and len(nu) <= 4) or (odd and len(nu) == 4)


def test_theorem2_entries_are_doubled_partitions():
    for n in range(5):
        for nu in theorem2_decomposition(n).entries:
            assert all(part % 2 == 0 for part in nu)
            assert len(nu) <= 3
