"""Closed-form tensor decompositions for two-row rectangle shapes.

Two multiplicity-free decompositions are implemented directly from their
index-set descriptions.  Both index sets are generated from partitions of n
(and of n - 2), so a decomposition costs only the constituents it returns:

* theorem 1: the square (n,n) (x) (n,n) decomposes with multiplicity one
  exactly at the even partitions of 2n with at most 4 parts and at the
  all-odd partitions of 2n with exactly 4 parts.

* theorem 2: the sub-sum of (2n,2n) (x) (n,n,n,n) over constituents with at
  most 3 parts consists of the doubled partitions 2*lam for lam of 2n with
  at most 3 parts and lam_2 + lam_3 - lam_1 nonnegative and even.

``closed_form(lam, mu, max_length)`` is the one place that decides which
pairs of shapes, under which length bound, a theorem covers.  The weight
semigroup of the ``weights`` module states both index sets independently;
the test suite checks the generators against it and against the
character-theoretic oracle.  This route imports only ``partitions``, so it
loads and runs with no character code at all.
"""

from __future__ import annotations

from .partitions import (
    Decomposition, Partition, _pair, check_partition, enumerate_partitions,
)

__all__ = [
    "closed_form",
    "theorem1_decomposition",
    "theorem2_decomposition",
]

# Theorem 1 at this width, the slowest admitted call, takes ~2 s on 2 vCPUs, Python 3.11.
_WIDTH_BOUND = 270


def closed_form(
    lam: Partition, mu: Partition, max_length: int | None = None
) -> Decomposition | None:
    """Closed-form decomposition of lam (x) mu, or None where no theorem covers it.

    With n = |lam| = |mu|, theorem 1 covers lam = mu = (n/2, n/2) under any
    bound, and theorem 2 covers {lam, mu} = {(n/2, n/2), (n/4, n/4, n/4, n/4)}
    when ``max_length`` is at most 3.  Constituents with more than
    ``max_length`` parts are dropped.  Raises ValueError on unequal sizes, a
    bound below 1, or a width n/2 or n/4 past 270 in a covered pair.
    """
    lam, mu, n = _pair(lam, mu, max_length)
    # Each rectangle has size n only when its width divides n evenly.
    two = check_partition((n // 2,) * 2)
    four = check_partition((n // 4,) * 4)
    if lam == mu == two:
        dec = theorem1_decomposition(n // 2)
    elif {lam, mu} == {two, four} and max_length is not None and max_length <= 3:
        dec = theorem2_decomposition(n // 4)
    else:
        return None
    return dec if max_length is None else dec.restrict_length(max_length)


def theorem1_decomposition(n: int) -> Decomposition:
    """Multiplicity-free decomposition of (n,n) (x) (n,n).

    Entries are the even partitions 2*mu over mu of n with at most 4 parts,
    and the all-odd partitions 2*mu + (1,1,1,1) over mu of n - 2 padded to
    4 parts, merged in decreasing lexicographic order.  Only constituents
    are generated; no other partition of 2n is looked at.
    """
    if not 0 <= n <= _WIDTH_BOUND:
        raise ValueError(f"rectangle width must be nonnegative, within the closed-form bound of {_WIDTH_BOUND}, got {n}")
    even = [tuple(2 * part for part in mu) for mu in enumerate_partitions(n, 4)]
    odd = [
        tuple(2 * part + 1 for part in (mu + (0, 0, 0, 0))[:4])
        for mu in (enumerate_partitions(n - 2, 4) if n >= 2 else ())
    ]
    return Decomposition(2 * n, dict.fromkeys(sorted(even + odd, reverse=True), 1))


def theorem2_decomposition(n: int) -> Decomposition:
    """Multiplicity-free length-3 sub-sum of (2n,2n) (x) (n,n,n,n).

    Entries are the doubled partitions 2*lam over lam of 2n with at most
    3 parts and lam_2 + lam_3 - lam_1 nonnegative and even.  A fourth part
    would push 2*lam past the length bound, so only lengths up to 3 are
    enumerated.
    """
    if not 0 <= n <= _WIDTH_BOUND:
        raise ValueError(f"rectangle width must be nonnegative, within the closed-form bound of {_WIDTH_BOUND}, got {n}")
    entries: dict[Partition, int] = {}
    for lam in enumerate_partitions(2 * n, 3):
        l1, l2, l3 = (lam + (0, 0, 0))[:3]
        combo = l2 + l3 - l1
        if combo >= 0 and combo % 2 == 0:
            entries[tuple(2 * part for part in lam)] = 1
    return Decomposition(4 * n, entries)
