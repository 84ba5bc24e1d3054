"""Closed-form tensor decompositions for two-row rectangle shapes.

Two multiplicity-free decompositions are implemented directly from their
index-set descriptions.  Both index sets are generated from partitions of n
(and of n - 2), so a decomposition costs only the constituents it returns;
the coefficient functions are the matching membership predicates:

* theorem 1: the square (n,n) (x) (n,n) decomposes with multiplicity one
  exactly at the even partitions of 2n with at most 4 parts and at the
  all-odd partitions of 2n with exactly 4 parts.

* theorem 2: the sub-sum of (2n,2n) (x) (n,n,n,n) over constituents with at
  most 3 parts consists of the doubled partitions 2*lam for lam of 2n with
  at most 3 parts and lam_2 + lam_3 - lam_1 nonnegative and even.

Both generators agree with the character-theoretic oracle; the test suite
checks that equality exhaustively at desk scale.
"""

from __future__ import annotations

from .kronecker import Decomposition
from .partitions import (
    Partition,
    check_partition,
    enumerate_partitions,
    is_even,
    is_odd,
    scale,
)

__all__ = [
    "theorem1_decomposition",
    "theorem1_coefficient",
    "theorem2_decomposition",
    "theorem2_coefficient",
]


def theorem1_coefficient(nu: Partition) -> int:
    """Kronecker coefficient of ``nu`` in (n,n) (x) (n,n), where n = |nu|/2.

    Returns 1 iff nu is even with at most 4 parts, or odd with exactly
    4 parts; otherwise 0.  Rejects partitions of odd size, which cannot
    occur in a square of rectangles.
    """
    nu = check_partition(nu)
    if sum(nu) % 2:
        raise ValueError(f"|nu| = {sum(nu)} is odd, not a tensor square size")
    if is_even(nu) and len(nu) <= 4:
        return 1
    if is_odd(nu) and len(nu) == 4:
        return 1
    return 0


def theorem1_decomposition(n: int) -> Decomposition:
    """Multiplicity-free decomposition of (n,n) (x) (n,n).

    Entries are the even partitions 2*mu over mu of n with at most 4 parts,
    and the all-odd partitions 2*mu + (1,1,1,1) over mu of n - 2 padded to
    4 parts, merged in decreasing lexicographic order.  Only constituents
    are generated; no other partition of 2n is looked at.
    """
    if n < 0:
        raise ValueError(f"rectangle width must be nonnegative, got {n}")
    even = [scale(mu, 2) for mu in enumerate_partitions(n, 4)]
    odd = [
        tuple(2 * part + 1 for part in (mu + (0, 0, 0, 0))[:4])
        for mu in (enumerate_partitions(n - 2, 4) if n >= 2 else ())
    ]
    return Decomposition(2 * n, dict.fromkeys(sorted(even + odd, reverse=True), 1))


def theorem2_coefficient(nu: Partition) -> int:
    """Coefficient of ``nu`` in the length-3 sub-sum of (2n,2n) (x) (n,n,n,n).

    Requires at most 3 parts and size divisible by 4 (n = |nu|/4).  Returns
    1 iff nu is even and nu_2 + nu_3 - nu_1 is nonnegative and divisible
    by 4, i.e. iff nu = 2*lam for an admissible lam.
    """
    nu = check_partition(nu)
    if len(nu) > 3:
        raise ValueError(f"{nu} has more than 3 parts, outside the bounded product")
    if sum(nu) % 4:
        raise ValueError(f"|nu| = {sum(nu)} is not divisible by 4")
    n1, n2, n3 = (nu + (0, 0, 0))[:3]
    combo = n2 + n3 - n1
    if is_even(nu) and combo >= 0 and combo % 4 == 0:
        return 1
    return 0


def theorem2_decomposition(n: int) -> Decomposition:
    """Multiplicity-free length-3 sub-sum of (2n,2n) (x) (n,n,n,n).

    Entries are the doubled partitions 2*lam over lam of 2n with at most
    3 parts and lam_2 + lam_3 - lam_1 nonnegative and even.  A fourth part
    would push 2*lam past the length bound, so only lengths up to 3 are
    enumerated.
    """
    if n < 0:
        raise ValueError(f"rectangle width must be nonnegative, got {n}")
    entries: dict[Partition, int] = {}
    for lam in enumerate_partitions(2 * n, 3):
        l1, l2, l3 = (lam + (0, 0, 0))[:3]
        combo = l2 + l3 - l1
        if combo >= 0 and combo % 2 == 0:
            entries[scale(lam, 2)] = 1
    return Decomposition(4 * n, entries)
