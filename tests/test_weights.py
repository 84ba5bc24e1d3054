from itertools import zip_longest

import pytest

from snkron.closed_forms import theorem1_coefficient, theorem2_coefficient
from snkron.kronecker import kronecker
from snkron.partitions import check_partition, enumerate_partitions
from snkron.weights import (
    T1_W_GENERATORS,
    T2_W_GENERATORS,
    membership_t1,
    membership_t2,
    theorem1_weights,
    theorem2_weights,
)


def test_theorem1_weight_data():
    weights = theorem1_weights()
    assert [(w.u_weight, w.v_weight, w.w_weight, w.degree) for w in weights] == [
        ((2, 2), (2, 2), (1, 1, 1, 1), 4),
        ((1, 1), (1, 1), (2,), 2),
        ((2, 2), (2, 2), (2, 2), 4),
        ((3, 3), (3, 3), (2, 2, 2), 6),
    ]
    assert [w.label for w in weights] == ["f1", "f2", "f3", "f4"]
    assert weights[0].degree == 4
    assert weights[3].w_weight == (2, 2, 2)


def test_theorem2_weight_data():
    weights = theorem2_weights()
    assert [(w.u_weight, w.v_weight, w.w_weight, w.degree) for w in weights] == [
        ((6, 6), (3, 3, 3, 3), (4, 4, 4), 12),
        ((2, 2), (1, 1, 1, 1), (2, 2), 4),
        ((4, 4), (2, 2, 2, 2), (4, 2, 2), 8),
    ]
    assert weights[1].degree == 4
    assert weights[0].w_weight == (4, 4, 4)


def test_degree_consistency():
    for w in theorem1_weights() + theorem2_weights():
        assert sum(w.u_weight) == sum(w.v_weight) == sum(w.w_weight) == w.degree


def test_weights_have_positive_kronecker_coefficient():
    for w in theorem1_weights() + theorem2_weights():
        assert kronecker(w.u_weight, w.v_weight, w.w_weight) >= 1


def _det(matrix):
    if len(matrix) == 1:
        return matrix[0][0]
    total = 0
    for j, head in enumerate(matrix[0]):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = head * _det(minor)
        total += -term if j % 2 else term
    return total


def test_generator_weights_are_linearly_independent():
    t1 = [list(g) + [0] * (4 - len(g)) for g in T1_W_GENERATORS]
    t2 = [list(g) + [0] * (3 - len(g)) for g in T2_W_GENERATORS]
    assert _det(t1) != 0
    assert _det(t2) != 0


def test_membership_t1_examples():
    assert membership_t1((2, 2, 2, 2)).coefficients == (2, 0, 0, 0)
    assert membership_t1((3, 1, 1, 1)).coefficients == (1, 1, 0, 0)
    assert membership_t1((3, 3)) is None
    assert membership_t1(()).coefficients == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        membership_t1((2, 1, 1, 1, 1))


def test_membership_t2_examples():
    assert membership_t2((4, 4, 4)).coefficients == (0, 1, 0)
    assert membership_t2((4, 2, 2)).coefficients == (1, 0, 0)
    assert membership_t2((6, 4, 2)).coefficients == (1, 0, 1)
    assert membership_t2((6, 2)) is None
    with pytest.raises(ValueError):
        membership_t2((2, 2, 2, 2))


def test_membership_t2_spot_checked_against_oracle():
    assert theorem2_coefficient((6, 4, 2)) == 1
    assert kronecker((6, 6), (3, 3, 3, 3), (6, 4, 2)) == 1


def test_reconstruction_is_exact():
    for n in range(9):
        for lam in enumerate_partitions(2 * n, 4):
            combo = membership_t1(lam)
            if combo is not None:
                assert combo.reconstruct() == lam
    for n in range(5):
        for lam in enumerate_partitions(4 * n, 3):
            combo = membership_t2(lam)
            if combo is not None:
                assert combo.reconstruct() == lam


def test_membership_t1_equals_closed_form_index_set():
    for n in range(9):
        for lam in enumerate_partitions(2 * n):
            member = len(lam) <= 4 and membership_t1(lam) is not None
            assert member == (theorem1_coefficient(lam) == 1)


def test_membership_t2_equals_closed_form_index_set():
    for n in range(5):
        for lam in enumerate_partitions(4 * n, 3):
            member = membership_t2(lam) is not None
            assert member == (theorem2_coefficient(lam) == 1)


def _members(membership, rows, max_size):
    return [
        (lam, combo.coefficients)
        for n in range(max_size + 1)
        for lam in enumerate_partitions(n, rows)
        if (combo := membership(lam)) is not None
    ]


def test_semigroup_closure():
    # The part-wise sum of two members is a member whose coefficients are
    # the sums of theirs, over every pair of small members.
    for membership, rows, max_size in ((membership_t1, 4, 12), (membership_t2, 3, 16)):
        members = _members(membership, rows, max_size)
        assert len(members) > 10
        for i, (lam, a) in enumerate(members):
            for mu, b in members[i:]:
                total = check_partition(x + y for x, y in zip_longest(lam, mu, fillvalue=0))
                combo = membership(total)
                assert combo is not None, (lam, mu)
                assert combo.coefficients == tuple(x + y for x, y in zip(a, b)), (lam, mu)
