"""Semi-invariant weight data and generator-combination solvers.

The two closed-form decompositions come from invariant theory: a product of
special linear groups and a Borel subgroup acts on a triple tensor product
with an open orbit, and the boundary divisors carry semi-invariants whose
weights generate the full weight semigroup.  This module stores those
weights (a triple of partitions of one size, one named tuple per generator;
theorem 2's in solver order) and solves the nonnegative-integer membership
problem for their third-factor components.  The members are the closed
forms' index sets, stated independently of the generators in
``closed_forms``; the tests compare the two statements.

Both membership solvers use a closed triangular solve; the generators are
linearly independent (determinants -8 and -16), so a solution is unique.
"""

from __future__ import annotations

from typing import NamedTuple

from .partitions import Partition, check_partition

__all__ = [
    "SemiInvariantWeight",
    "GeneratorCombination",
    "T1_W_GENERATORS",
    "T2_W_GENERATORS",
    "theorem1_weights",
    "theorem2_weights",
    "membership_t1",
    "membership_t2",
]


class SemiInvariantWeight(NamedTuple):
    """Weight of one boundary semi-invariant: a partition per tensor factor.

    All three partitions have one size, the polynomial degree.
    """

    label: str
    u_weight: Partition
    v_weight: Partition
    w_weight: Partition


class GeneratorCombination(NamedTuple):
    """Nonnegative integer coefficients aligned with a generator list."""

    coefficients: tuple[int, ...]
    generators: tuple[Partition, ...]


def theorem1_weights() -> tuple[SemiInvariantWeight, ...]:
    """The four boundary semi-invariants behind the (n,n) (x) (n,n) closed form.

    The third factor is 4-dimensional; the four weights are linearly
    independent, which is why the list is complete.
    """
    return (
        SemiInvariantWeight("f1", (2, 2), (2, 2), (1, 1, 1, 1)),
        SemiInvariantWeight("f2", (1, 1), (1, 1), (2,)),
        SemiInvariantWeight("f3", (2, 2), (2, 2), (2, 2)),
        SemiInvariantWeight("f4", (3, 3), (3, 3), (2, 2, 2)),
    )


def theorem2_weights() -> tuple[SemiInvariantWeight, ...]:
    """The three boundary semi-invariants behind the (2n,2n) (x) (n,n,n,n) form."""
    return (
        SemiInvariantWeight("f3", (4, 4), (2, 2, 2, 2), (4, 2, 2)),
        SemiInvariantWeight("f1", (6, 6), (3, 3, 3, 3), (4, 4, 4)),
        SemiInvariantWeight("f2", (2, 2), (1, 1, 1, 1), (2, 2)),
    )


# The solvers' generators: the w parts of the triples, in their order.
T1_W_GENERATORS: tuple[Partition, ...] = tuple(w.w_weight for w in theorem1_weights())
T2_W_GENERATORS: tuple[Partition, ...] = tuple(w.w_weight for w in theorem2_weights())


def _padded(lam: Partition, k: int) -> Partition:
    # The solvers' ambient space: at most k parts, zero-padded to exactly k.
    lam = check_partition(lam)
    if len(lam) > k:
        raise ValueError(f"{lam} has more than {k} parts")
    return lam + (0,) * (k - len(lam))


def membership_t1(lam: Partition) -> GeneratorCombination | None:
    """Solve lam = a(1,1,1,1) + b(2,0,0,0) + c(2,2,0,0) + d(2,2,2,0).

    Returns the unique nonnegative integer solution (a, b, c, d), or None
    when the consecutive part differences are not all even.  Partitions with
    more than 4 parts are outside the semigroup's ambient space and are
    rejected.
    """
    l1, l2, l3, l4 = _padded(lam, 4)
    if (l1 - l2) % 2 or (l2 - l3) % 2 or (l3 - l4) % 2:
        return None
    coeffs = (l4, (l1 - l2) // 2, (l2 - l3) // 2, (l3 - l4) // 2)
    return GeneratorCombination(coeffs, T1_W_GENERATORS)


def membership_t2(lam: Partition) -> GeneratorCombination | None:
    """Solve lam over the generators (4,2,2), (4,4,4), (2,2,0).

    The triangular solve gives ((lam1-lam2)/2, (lam2+lam3-lam1)/4,
    (lam2-lam3)/2); membership requires all three to be nonnegative
    integers.  Partitions with more than 3 parts are rejected.
    """
    l1, l2, l3 = _padded(lam, 3)
    if (l1 - l2) % 2 or (l2 - l3) % 2:
        return None
    combo = l2 + l3 - l1
    if combo < 0 or combo % 4:
        return None
    coeffs = ((l1 - l2) // 2, combo // 4, (l2 - l3) // 2)
    return GeneratorCombination(coeffs, T2_W_GENERATORS)
