import random
from concurrent.futures import ThreadPoolExecutor
from itertools import permutations
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from snkron import characters
from snkron.characters import DEFAULT_CAP, character_row, character_table, class_sizes
from snkron.kronecker import Decomposition, kronecker, tensor_decompose
from snkron.partitions import conjugate, enumerate_partitions, hook_dimension

from oracles import S4_TABLE


def test_s1_and_trivial_factor():
    assert kronecker((1,), (1,), (1,)) == 1
    for n in range(1, 6):
        trivial = (n,)
        for mu in enumerate_partitions(n):
            for nu in enumerate_partitions(n):
                assert kronecker(trivial, mu, nu) == (1 if mu == nu else 0)


def test_example_from_textbook_s4_table():
    # Independent route: triple class sum straight from the frozen table.
    classes = list(enumerate_partitions(4))
    sizes = [factorial(4) // z for z in (4, 3, 8, 4, 24)]
    total = sum(
        size * a * b * c
        for size, a, b, c in zip(sizes, S4_TABLE[(2, 2)], S4_TABLE[(2, 2)], S4_TABLE[(1, 1, 1, 1)])
    )
    assert total // factorial(4) == 1
    assert kronecker((2, 2), (2, 2), (1, 1, 1, 1)) == 1
    assert len(classes) == len(sizes)


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        kronecker((2, 1), (2,), (2, 1))
    with pytest.raises(ValueError):
        tensor_decompose((2, 1), (2, 2))
    with pytest.raises(ValueError):
        tensor_decompose((2,), (3,), 2)


def test_tensor_decompose_examples():
    assert tensor_decompose((1, 1), (1, 1)).entries == {(2,): 1}
    assert tensor_decompose((2, 2), (2, 2)).entries == {
        (4,): 1,
        (2, 2): 1,
        (1, 1, 1, 1): 1,
    }
    assert tensor_decompose((2, 1), (2, 1)).entries == {
        (3,): 1,
        (2, 1): 1,
        (1, 1, 1): 1,
    }


def test_dimension_identity_on_full_decompositions():
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            for mu in enumerate_partitions(n):
                dec = tensor_decompose(lam, mu)
                assert dec.dimension_sum() == hook_dimension(lam) * hook_dimension(mu)


def test_bounded_examples():
    assert tensor_decompose((2, 2), (2, 2), 2).entries == {(4,): 1, (2, 2): 1}
    assert tensor_decompose((2, 2), (1, 1, 1, 1), 3).entries == {(2, 2): 1}
    assert tensor_decompose((2, 2), (2, 2), max_length=None) == tensor_decompose((2, 2), (2, 2))
    for bad in (0, -1):
        with pytest.raises(ValueError):
            tensor_decompose((2, 2), (2, 2), bad)


def test_bounded_is_a_filter_of_full():
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            for mu in enumerate_partitions(n):
                full = tensor_decompose(lam, mu)
                for bound in range(1, n + 2):
                    assert tensor_decompose(lam, mu, bound) == full.restrict_length(bound)


def test_vacuous_bound_equals_full():
    for lam in enumerate_partitions(4):
        for mu in enumerate_partitions(4):
            assert tensor_decompose(lam, mu, 4) == tensor_decompose(lam, mu)


def test_full_symmetry_in_all_arguments():
    for n in range(1, 7):
        parts = enumerate_partitions(n)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    base = kronecker(lam, mu, nu)
                    for a, b, c in permutations((lam, mu, nu)):
                        assert kronecker(a, b, c) == base


def test_conjugating_two_arguments_preserves_coefficient():
    for n in range(1, 7):
        parts = enumerate_partitions(n)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    assert kronecker(lam, mu, nu) == kronecker(conjugate(lam), conjugate(mu), nu)


def test_trivial_and_sign_output_components():
    for n in range(1, 9):
        parts = enumerate_partitions(n)
        for lam in parts:
            for mu in parts:
                assert kronecker(lam, mu, (n,)) == (1 if lam == mu else 0)
                assert kronecker(lam, mu, (1,) * n) == (1 if lam == conjugate(mu) else 0)


def test_decomposition_helpers():
    dec = Decomposition(4, {(2, 2): 1, (4,): 1, (1, 1, 1, 1): 1})
    assert dec.restrict_length(2).entries == {(4,): 1, (2, 2): 1}
    for bad in (0, -3):
        with pytest.raises(ValueError, match=rf"^length bound must be positive, got {bad}$"):
            dec.restrict_length(bad)
    assert dec.dimension_sum() == 1 + 2 + 1
    # The keys are still checked now that n! is formed once per sum.
    with pytest.raises(ValueError, match="weakly decreasing"):
        Decomposition(3, {(1, 2): 1}).dimension_sum()
    with pytest.raises(ValueError, match="invalid partition part 'x'"):
        Decomposition(3, {(2, "x"): 1}).dimension_sum()
    # A key of another size has no dimension in the sum, however it divides n!.
    with pytest.raises(ValueError, match=r"^\(2, 1\) is not a partition of 4$"):
        Decomposition(4, {(2, 1): 1}).dimension_sum()
    with pytest.raises(ValueError, match=r"^\(1, 1, 1, 1\) is not a partition of 3$"):
        Decomposition(3, {(2, 1): 1, (1, 1, 1, 1): 1}).dimension_sum()


def _class_sum(table, lam, mu, nu):
    return sum(
        size * a * b * c
        for size, a, b, c in zip(
            class_sizes(table.n), table.rows[lam], table.rows[mu], table.rows[nu]
        )
    )


def _overlap(alpha, beta):
    # |alpha & beta|: the number of cells the two Young diagrams share.
    return sum(map(min, alpha, beta))


def test_length_bound_holds_on_full_table_class_sums():
    # The facts the candidate pruning rests on, checked without the pruning:
    # over the nu with g(lam, mu, nu) != 0, the most parts is exactly
    # |lam & mu'| and the largest first part exactly |lam & mu| (Dvir).
    pairs = 0
    for n in range(1, 10):
        table = character_table(n)
        parts = table.partitions
        for lam in parts:
            for mu in parts:
                support = [nu for nu in parts if _class_sum(table, lam, mu, nu)]
                assert max(map(len, support)) == _overlap(lam, conjugate(mu)), (lam, mu)
                assert max(nu[0] for nu in support) == _overlap(lam, mu), (lam, mu)
                pairs += 1
    assert pairs == 1818


def _unpruned_entries(lam, mu, bound):
    # Triple class sums over every nu |- n, straight from the rows: no
    # length pruning and no weights shared between candidates.
    n = sum(lam)
    entries = {}
    for nu in enumerate_partitions(n):
        total = sum(
            size * a * b * c
            for size, a, b, c in zip(
                class_sizes(n), character_row(lam), character_row(mu), character_row(nu)
            )
        )
        mult, rem = divmod(total, factorial(n))
        assert not rem and mult >= 0, (lam, mu, nu)
        if mult and (bound is None or len(nu) <= bound):
            entries[nu] = mult
    return entries


def _decomposition_cases():
    cases = [(lam, mu, None) for lam in enumerate_partitions(6) for mu in enumerate_partitions(6)]
    cases += [((n, n), (n, n), None) for n in range(1, 7)]
    cases += [((2 * n, 2 * n), (n,) * 4, 3) for n in range(1, 4)]
    cases += [((4, 3, 1), (5, 2, 1), 2), ((3, 3, 2), (2, 2, 2, 2), None)]
    return cases


def test_decompositions_same_cold_and_after_table(cold_memo):
    cases = _decomposition_cases()
    cold = [tensor_decompose(lam, mu, bound) for lam, mu, bound in cases]
    cold_memo()
    for n in {sum(lam) for lam, _, _ in cases}:
        character_table(n)
    warm = [tensor_decompose(lam, mu, bound) for lam, mu, bound in cases]
    assert cold == warm
    for (lam, mu, bound), dec in zip(cases, warm):
        assert dec.entries == _unpruned_entries(lam, mu, bound), (lam, mu, bound)


def test_class_sum_guard_fires_on_a_wrong_row(cold_memo):
    # Plant one wrong value in the memo: the row of a shape of S_2 on its one
    # class with cycles <= 1, (1,1), which is the shape's dimension, 1.  The
    # row of (2,1) is read first, so the weights stay true: (2,1) weighs the
    # classes (3), (2,1), (1,1,1) by (2, 0, 4).  A planted 2 for (2) makes
    # the sum of (3) 2 + 4*2 = 10, no multiple of 3!.  A planted -2 for (1,1)
    # makes the sum of (1,1,1) 2 + 4*(-2) = -6, a negative multiple, and in
    # the decomposition, which sums one strip down, so is that of (2,1),
    # -2 + 4*(1 - 2) = -6.
    for sigma, value, nu, total in [((2,), 2, (3,), 10), ((1, 1), -2, (1, 1, 1), -6)]:
        cold_memo()
        character_row((2, 1))
        characters._rows[characters._beads(sigma)] = (value,)
        for call in (lambda: kronecker((2, 1), (2, 1), nu), lambda: tensor_decompose((2, 1), (2, 1))):
            with pytest.raises(RuntimeError, match=f"class sum {total} is not a nonnegative multiple"):
                call()


def _size(mask):
    # |lam| from its abacus: the bead positions less the staircase under them.
    beads = [b for b in range(mask.bit_length()) if mask >> b & 1]
    return sum(beads) - len(beads) * (len(beads) - 1) // 2


def test_decomposition_keeps_no_candidate_row(cold_memo):
    # A cold decomposition stores the rows of lam and mu and the bounded
    # sub-rows of the shapes one strip below the candidates, never the row of
    # a candidate nu; reading each candidate's row would store all 34 of S_12.
    tensor_decompose((6, 6), (6, 6))
    assert [_size(mask) for mask in characters._rows].count(12) == 1
    assert characters._rows[characters._beads((6, 6))] == character_row((6, 6))


def test_concurrent_kronecker_on_cold_memo(cold_memo):
    rng = random.Random(11)
    triples = []
    for _ in range(120):
        parts = enumerate_partitions(rng.choice((9, 10, 11, 12)))
        triples.append(tuple(rng.choice(parts) for _ in range(3)))
    serial = [kronecker(*t) for t in triples]
    cold_memo()
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda t: kronecker(*t), triples))
    assert threaded == serial
    assert any(serial)


def test_kronecker_cap_enforced():
    n = DEFAULT_CAP + 1
    with pytest.raises(ValueError, match="cap"):
        kronecker((n,), (n,), (n,))
    with pytest.raises(ValueError, match="cap"):
        tensor_decompose((13, 13), (13, 13))
    # The cap fires before the p(70) candidates are enumerated.
    with pytest.raises(ValueError, match="cap"):
        tensor_decompose((1,) * 70, (1,) * 70)


def _same_size(count, low, high):
    # ``count`` partitions of one n drawn from low..high, uniformly by shape.
    return st.integers(low, high).flatmap(
        lambda n: st.tuples(*[st.sampled_from(enumerate_partitions(n))] * count)
    )


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_same_size(3, 13, 20))
def test_symmetries_past_brute_force(triple):
    lam, mu, nu = triple
    n = sum(lam)
    g = kronecker(lam, mu, nu)
    assert {kronecker(*order) for order in permutations(triple)} == {g}
    assert kronecker(conjugate(lam), conjugate(mu), nu) == g
    # Tensoring with the trivial and the sign character: a random nu is
    # almost never lam or lam', so those two cases are checked directly too.
    for other in (nu, lam, conjugate(lam)):
        assert kronecker(lam, (n,), other) == (other == lam)
        assert kronecker(lam, (1,) * n, other) == (other == conjugate(lam))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(_same_size(2, 13, 16))
def test_dimension_identity_past_brute_force(pair):
    lam, mu = pair
    assert tensor_decompose(lam, mu).dimension_sum() == hook_dimension(lam) * hook_dimension(mu)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(_same_size(2, 13, 18), st.sampled_from((None, 3)))
# Pairs whose weights vanish on many classes: 37 and 26 of the 77 of S_12,
# 220 of the 231 of S_16 and 360 of the 385 of S_18.
@example(((4, 4, 4), (6, 6)), None)
@example(((4, 4, 4), (6, 6)), 3)
@example(((6, 6), (1,) * 12), None)
@example(((7, 5, 3, 1), (7, 3, 2, 1, 1, 1, 1)), None)
@example(((8, 3, 2, 2, 2, 1), (7, 4, 2, 2, 1, 1, 1)), 3)
def test_decompositions_equal_unpruned_class_sums_past_brute_force(pair, bound):
    lam, mu = pair
    assert tensor_decompose(lam, mu, bound).entries == _unpruned_entries(lam, mu, bound)
