import ast
from itertools import zip_longest
from pathlib import Path

import pytest

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
    assert [(w.u_weight, w.v_weight, w.w_weight) for w in weights] == [
        ((2, 2), (2, 2), (1, 1, 1, 1)),
        ((1, 1), (1, 1), (2,)),
        ((2, 2), (2, 2), (2, 2)),
        ((3, 3), (3, 3), (2, 2, 2)),
    ]
    assert [w.label for w in weights] == ["f1", "f2", "f3", "f4"]


def test_theorem2_weight_data():
    # Stored in solver order, each triple keeping its label.
    weights = theorem2_weights()
    assert [(w.u_weight, w.v_weight, w.w_weight) for w in weights] == [
        ((4, 4), (2, 2, 2, 2), (4, 2, 2)),
        ((6, 6), (3, 3, 3, 3), (4, 4, 4)),
        ((2, 2), (1, 1, 1, 1), (2, 2)),
    ]
    assert [w.label for w in weights] == ["f3", "f1", "f2"]


def test_generators_match_the_benchmark_checker():
    # The benchmark's checker rejects any other generator order.  Parsed,
    # not imported: it is a script of the benchmark, not of the package.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checker.py"
    pinned = {
        target.id: ast.literal_eval(statement.value)
        for statement in ast.parse(path.read_text(), str(path)).body
        if isinstance(statement, ast.Assign)
        for target in statement.targets
        if isinstance(target, ast.Name) and target.id in ("T1_GENERATORS", "T2_GENERATORS")
    }
    assert pinned == {"T1_GENERATORS": T1_W_GENERATORS, "T2_GENERATORS": T2_W_GENERATORS}


def test_degree_consistency():
    for w in theorem1_weights() + theorem2_weights():
        assert sum(w.u_weight) == sum(w.v_weight) == sum(w.w_weight)


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
    # Nonzero, so combinations are unique; not +-1, so they may be fractional.
    assert _det(t1) == -8
    assert _det(t2) == -16


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


def _rebuild(combo):
    # The part-wise sum of coefficient * generator, trailing zeros trimmed.
    total = [0] * 4
    for coeff, gen in zip(combo.coefficients, combo.generators, strict=True):
        for i, part in enumerate(gen):
            total[i] += coeff * part
    return check_partition(total)


def test_reconstruction_is_exact():
    for n in range(9):
        for lam in enumerate_partitions(2 * n, 4):
            combo = membership_t1(lam)
            if combo is not None:
                assert _rebuild(combo) == lam
    for n in range(5):
        for lam in enumerate_partitions(4 * n, 3):
            combo = membership_t2(lam)
            if combo is not None:
                assert _rebuild(combo) == lam


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
