import random
from concurrent.futures import ThreadPoolExecutor
from math import factorial

import pytest

from snkron.characters import DEFAULT_CAP, character_table, class_sizes
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
    from itertools import permutations

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
    assert dec.sorted_entries() == [((4,), 1), ((2, 2), 1), ((1, 1, 1, 1), 1)]
    assert dec.multiplicity((4,)) == 1
    assert dec.multiplicity((3, 1)) == 0
    assert dec.restrict_length(2).entries == {(4,): 1, (2, 2): 1}
    assert dec.dimension_sum() == 1 + 2 + 1


def _class_sum(table, lam, mu, nu):
    return sum(
        size * a * b * c
        for size, a, b, c in zip(
            class_sizes(table.n), table.rows[lam], table.rows[mu], table.rows[nu]
        )
    )


def test_length_bound_holds_on_full_table_class_sums():
    # The fact the candidate pruning rests on, checked without the pruning:
    # g(lam, mu, nu) = 0 whenever len(nu) > len(lam) * len(mu).
    checked = 0
    for n in range(1, 9):
        table = character_table(n)
        parts = table.partitions
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    if len(nu) > len(lam) * len(mu):
                        assert _class_sum(table, lam, mu, nu) == 0, (lam, mu, nu)
                        checked += 1
    assert checked


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
    # Unpruned class sums over every candidate, straight from the tables.
    for (lam, mu, bound), dec in zip(cases, warm):
        table = character_table(sum(lam))
        full = {}
        for nu in table.partitions:
            mult = _class_sum(table, lam, mu, nu) // factorial(table.n)
            if mult and (bound is None or len(nu) <= bound):
                full[nu] = mult
        assert dec.entries == full, (lam, mu, bound)


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
