import functools
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

import snkron.characters as characters
from snkron.characters import (
    DEFAULT_CAP,
    character_row,
    character_table,
    class_sizes,
)
from snkron.kronecker import tensor_decompose
from snkron.partitions import conjugate, enumerate_partitions, hook_dimension

from oracles import (
    S3_TABLE,
    S4_TABLE,
    centralizer_order,
    mn_character,
)


# enumerate_partitions keeps no memo, and these tests read the classes of
# one n many times, so the test module keeps its own.
classes_of = functools.cache(enumerate_partitions)


@functools.cache
def class_index(n):
    """Column of each class of S_n."""
    return {rho: i for i, rho in enumerate(classes_of(n))}


def value(lam, rho):
    """chi_lam(rho), read from the row of lam."""
    return character_row(lam)[class_index(sum(rho))[rho]]


def test_class_sizes_sum_to_group_order():
    for n in range(11):
        assert sum(class_sizes(n)) == math.factorial(n)


def test_trivial_and_sign_characters():
    for n in range(7):
        for rho in enumerate_partitions(n):
            assert value((n,) if n else (), rho) == 1
            sign = (-1) ** (n - len(rho))
            assert value((1,) * n, rho) == sign


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
            assert value(lam, identity) == hook_dimension(lam)
    assert len(character_table(16).partitions) == 231


def test_conjugation_twists_by_sign():
    for n in range(11):
        table = character_table(n)
        for lam in table.partitions:
            dual = conjugate(lam)
            for rho in table.partitions:
                sign = (-1) ** (n - len(rho))
                assert value(dual, rho) == sign * value(lam, rho)


def test_cap_enforced():
    with pytest.raises(ValueError):
        character_table(DEFAULT_CAP + 1)
    with pytest.raises(ValueError):
        character_table(-1)
    with pytest.raises(ValueError, match="cap"):
        class_sizes(DEFAULT_CAP + 1)
    with pytest.raises(ValueError):
        class_sizes(-1)


def test_character_row_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        character_row((DEFAULT_CAP + 1,))


def test_class_sizes_match_centralizers(cold_memo):
    # The record of S_n fills those of smaller sizes, so it is asked from a
    # cold memo largest first, smallest first and in a shuffled order.
    sizes = list(range(DEFAULT_CAP + 1))
    shuffled = random.Random(27).sample(sizes, len(sizes))
    for order in (sizes[::-1], sizes, shuffled):
        cold_memo()
        for n in order:
            assert class_sizes(n) == tuple(
                math.factorial(n) // centralizer_order(rho) for rho in classes_of(n)
            ), n


def test_class_order_the_engine_slices_by():
    # A bounded row is a suffix: the last _classes(m)[0][b] classes are those
    # with every cycle <= b.  A row is built in segments: walking r from m
    # down to 1, consecutive blocks of the classes with first cycle r.
    for m in range(1, DEFAULT_CAP + 1):
        classes = classes_of(m)
        widths = characters._classes(m)[0]
        for b in range(m + 1):
            suffix = classes[len(classes) - widths[b]:]
            assert suffix == tuple(rho for rho in classes if rho[0] <= b), (m, b)
        start = 0
        for r in range(m, 0, -1):
            stop = start + characters._classes(m - r)[0][min(r, m - r)]
            assert all(rho[0] == r for rho in classes[start:stop]), (m, r)
            start = stop
        assert start == len(classes), m


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


def test_rows_match_per_class_recursion(cold_memo):
    for n in range(15):
        classes = enumerate_partitions(n)
        for lam in classes:
            assert character_row(lam) == tuple(mn_character(lam, rho) for rho in classes)


def _memo_size():
    """Entries and stored values of the row memo."""
    rows = characters._rows
    assert all(type(row) is tuple and type(row[-1]) is int for row in rows.values())
    return len(rows), sum(map(len, rows.values()))


def test_memo_stays_small_on_s24_square(cold_memo):
    # One entry per shape and no candidate's row: 1 123 entries holding
    # 103 827 values, and the bounds allow 10 % more.
    tensor_decompose((12, 12), (12, 12))
    entries, values = _memo_size()
    assert entries <= 1_235 and values <= 114_000


def test_memo_size_is_deterministic(cold_memo):
    # The same cold query leaves the same memo, within the bounds above.
    tensor_decompose((12, 12), (12, 12))
    first = _memo_size()
    cold_memo()
    tensor_decompose((12, 12), (12, 12))
    assert _memo_size() == first
    assert first[0] <= 1_235 and first[1] <= 114_000


def _bounded(lam, bound):
    return characters._char(characters._beads(lam), sum(lam), bound)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bounded_rows_are_suffixes_in_any_order(cold_memo, seed):
    # The classes with every cycle <= b come last, so a bounded row is the
    # suffix of the full row on them, whichever bounds were asked before.
    full = {lam: character_row(lam) for n in range(1, 13) for lam in classes_of(n)}
    width = {
        (n, b): sum(rho[0] <= b for rho in classes_of(n))
        for n in range(1, 13)
        for b in range(1, n + 1)
    }
    asks = [(lam, b) for lam in full for b in range(1, sum(lam) + 1)]
    random.Random(seed).shuffle(asks)

    def mismatches(chunk):
        return [(lam, b) for lam, b in chunk if _bounded(lam, b) != full[lam][-width[sum(lam), b]:]]

    cold_memo()
    assert mismatches(asks) == []
    cold_memo()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            found = list(pool.map(mismatches, [asks[i::4] for i in range(4)], timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert found == [[], [], [], []]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(13, DEFAULT_CAP).flatmap(lambda n: st.sampled_from(classes_of(n))))
def test_row_properties_past_brute_force(lam):
    n = sum(lam)
    row = character_row(lam)
    classes = classes_of(n)
    assert sum(size * x * x for size, x in zip(class_sizes(n), row)) == math.factorial(n)
    assert row[-1] == hook_dimension(lam)
    signs = [(-1) ** (n - len(rho)) for rho in classes]
    assert character_row(conjugate(lam)) == tuple(s * x for s, x in zip(signs, row))
