"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything is exact integer equality; there are no tolerances anywhere.
Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import math

from snkron.characters import character_table, class_sizes
from snkron.closed_forms import closed_form, theorem1_decomposition, theorem2_decomposition
from snkron.kronecker import kronecker, tensor_decompose
from snkron.partitions import (
    enumerate_partitions,
    hook_dimension,
    schur_dimension,
)
from snkron.weights import membership_t1, membership_t2, theorem1_weights, theorem2_weights

from oracles import brute_force_character_table, check_column_orthogonality


def report(criterion, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion} {description}: {status}")
    assert not failures, f"criterion {criterion} ({description}): {failures[:5]}"


def test_criterion_1_theorem1_exactness():
    failures = []
    for n in range(13):
        closed = theorem1_decomposition(n)
        oracle = tensor_decompose((n, n), (n, n))
        if closed != oracle:
            failures.append((n, closed.entries, oracle.entries))
        if set(oracle.entries.values()) - {1}:
            failures.append((n, "not multiplicity free"))
        for bound in (1, 2, 3, 4):
            if closed_form((n, n), (n, n), bound) != tensor_decompose((n, n), (n, n), bound):
                failures.append((n, bound))
    if kronecker((4, 4), (4, 4), (5, 1, 1, 1)) != 1 or kronecker((3, 3), (3, 3), (3, 3)) != 0:
        failures.append("spot checks")
    report(1, "theorem-1 closed form equals oracle for n=0..12, unbounded and under bounds 1..4", failures)


def test_criterion_2_theorem2_exactness():
    failures = []
    for n in range(1, 7):
        closed = theorem2_decomposition(n)
        oracle = tensor_decompose((2 * n, 2 * n), (n, n, n, n), 3)
        if closed != oracle:
            failures.append((n, closed.entries, oracle.entries))
        for pair in (((2 * n, 2 * n), (n,) * 4), ((n,) * 4, (2 * n, 2 * n))):
            for bound in (1, 2, 3):
                if closed_form(*pair, bound) != tensor_decompose(*pair, bound):
                    failures.append((pair, bound))
    if kronecker((6, 6), (3, 3, 3, 3), (6, 4, 2)) != 1:
        failures.append("spot check")
    report(2, "theorem-2 closed form equals bounded oracle for n=1..6, bounds 1..3, both orders", failures)


def test_criterion_3_semigroup_equivalence():
    # Generation is cheap, so both theorems run far past the oracle's reach.
    failures = []
    for n in range(41):
        members = [lam for lam in enumerate_partitions(2 * n, 4) if membership_t1(lam) is not None]
        if list(theorem1_decomposition(n).entries.items()) != [(lam, 1) for lam in members]:
            failures.append(("t1", n))
    for n in range(21):
        members = [lam for lam in enumerate_partitions(4 * n, 3) if membership_t2(lam) is not None]
        if list(theorem2_decomposition(n).entries.items()) != [(lam, 1) for lam in members]:
            failures.append(("t2", n))
    report(3, "semigroup membership equals theorem-1 (n<=40) and theorem-2 (n<=20) index sets, in order", failures)


def test_criterion_4_dimension_identities():
    failures = []
    for n in range(1, 41):
        total = theorem1_decomposition(n).dimension_sum()
        catalan = math.comb(2 * n, n) // (n + 1)
        if total != catalan**2:
            failures.append((n, total, catalan**2))
    report(4, "theorem-1 dimensions sum to Catalan(n)^2 for n=1..40", failures)


def test_criterion_5_character_engine_integrity():
    failures = []
    for n in range(11):
        table = character_table(n)
        try:
            check_column_orthogonality(table)
        except ValueError as exc:
            failures.append(("column", n, str(exc)))
        parts = table.partitions
        for i, lam in enumerate(parts):
            for mu in parts[i:]:
                total = sum(
                    size * a * b
                    for size, a, b in zip(class_sizes(n), table.rows[lam], table.rows[mu])
                )
                if total != (math.factorial(n) if lam == mu else 0):
                    failures.append(("row", n, lam, mu))
    for n in range(1, 6):
        expected = brute_force_character_table(n)
        table = character_table(n)
        for lam in table.partitions:
            for rho, value in zip(table.partitions, table.rows[lam]):
                if value != expected[lam][rho]:
                    failures.append(("brute", n, lam, rho))
    # The n!-divisibility guard must stay silent on an exhaustive small sweep.
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            for mu in enumerate_partitions(n):
                for nu in enumerate_partitions(n):
                    try:
                        kronecker(lam, mu, nu)
                    except RuntimeError as exc:
                        failures.append(("divisibility", lam, mu, nu, str(exc)))
    report(5, "orthogonality, brute-force agreement, divisibility guard", failures)


def test_criterion_6_weight_positivity():
    failures = []
    for w in theorem1_weights() + theorem2_weights():
        if kronecker(w.u_weight, w.v_weight, w.w_weight) < 1:
            failures.append(w)
    report(6, "all seven stored semi-invariant weights have positive coefficient", failures)


def test_criterion_7_schur_weyl_identity():
    failures = []
    for d in range(1, 5):
        for n in range(9):
            total = sum(
                hook_dimension(lam) * schur_dimension(lam, d)
                for lam in enumerate_partitions(n)
            )
            if total != d**n:
                failures.append((d, n, total))
    report(7, "d^n equals the dimension pairing sum for d<=4, n<=8", failures)
