import math

import pytest

from snkron.characters import (
    DEFAULT_CAP,
    centralizer_order,
    character_row,
    character_table,
    character_value,
    class_sizes,
)
from snkron.partitions import conjugate, enumerate_partitions, hook_dimension

from oracles import S3_TABLE, S4_TABLE, brute_force_character_table


def test_centralizer_order_examples():
    assert centralizer_order((1, 1, 1)) == 6
    assert centralizer_order((3,)) == 3
    assert centralizer_order((2, 1)) == 2
    assert centralizer_order(()) == 1


def test_class_sizes_sum_to_group_order():
    for n in range(11):
        total = sum(
            math.factorial(n) // centralizer_order(rho)
            for rho in enumerate_partitions(n)
        )
        assert total == math.factorial(n)


def test_trivial_and_sign_characters():
    for n in range(7):
        for rho in enumerate_partitions(n):
            assert character_value((n,) if n else (), rho) == 1
            sign = (-1) ** (n - len(rho))
            assert character_value((1,) * n, rho) == sign


def test_standard_representation_of_s3():
    assert character_value((2, 1), (1, 1, 1)) == 2
    assert character_value((2, 1), (2, 1)) == 0
    assert character_value((2, 1), (3,)) == -1


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        character_value((2, 1), (2, 2))


def test_table_s2():
    table = character_table(2)
    assert table.partitions == ((2,), (1, 1))
    assert table.rows[(2,)] == (1, 1)
    assert table.rows[(1, 1)] == (-1, 1)


def test_table_s3_s4_match_textbook_values():
    assert character_table(3).rows == S3_TABLE
    assert character_table(4).rows == S4_TABLE


def test_identity_column_is_hook_dimension():
    for n in list(range(9)) + [16]:
        table = character_table(n)
        identity = (1,) * n
        for lam in table.partitions:
            assert table.value(lam, identity) == hook_dimension(lam)
    assert len(character_table(16).partitions) == 231


def test_first_column_s3():
    table = character_table(3)
    identity = (1, 1, 1)
    assert [table.value(lam, identity) for lam in table.partitions] == [1, 2, 1]


def test_row_orthogonality():
    for n in range(11):
        table = character_table(n)
        parts = table.partitions
        for i, lam in enumerate(parts):
            for mu in parts[i:]:
                total = sum(
                    size * a * b
                    for size, a, b in zip(table.class_sizes, table.rows[lam], table.rows[mu])
                )
                assert total == (table.group_order if lam == mu else 0)


def test_column_orthogonality():
    for n in range(11):
        character_table(n).validate()


def test_conjugation_twists_by_sign():
    for n in range(11):
        table = character_table(n)
        for lam in table.partitions:
            dual = conjugate(lam)
            for rho in table.partitions:
                sign = (-1) ** (n - len(rho))
                assert table.value(dual, rho) == sign * table.value(lam, rho)


def test_agrees_with_permutation_module_brute_force():
    for n in range(1, 6):
        expected = brute_force_character_table(n)
        table = character_table(n)
        for lam in table.partitions:
            for rho in table.partitions:
                assert table.value(lam, rho) == expected[lam][rho]


def test_cap_enforced():
    with pytest.raises(ValueError):
        character_table(DEFAULT_CAP + 1)
    with pytest.raises(ValueError):
        character_table(5, cap=4)
    with pytest.raises(ValueError):
        character_table(-1)


def test_character_row_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        character_row((DEFAULT_CAP + 1,))


def test_class_sizes_match_centralizers():
    for n in range(13):
        sizes = class_sizes(n)
        assert sizes == character_table(n).class_sizes
        assert sizes == tuple(
            math.factorial(n) // centralizer_order(rho) for rho in enumerate_partitions(n)
        )


def test_row_memo_matches_table(cold_memo):
    # Rows read one by one on a cold memo, shortest shapes last, must equal
    # the rows of a table assembled on another cold memo.
    rows = {}
    for n in range(13):
        for lam in reversed(enumerate_partitions(n)):
            rows[lam] = character_row(lam)
    cold_memo()
    for n in range(13):
        table = character_table(n)
        assert {lam: rows[lam] for lam in table.partitions} == table.rows
        for lam in table.partitions:
            assert character_row(lam) is table.rows[lam]
