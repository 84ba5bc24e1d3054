"""Integer partition arithmetic, enumeration, predicates, and dimension formulas.

A partition is represented as a plain tuple of weakly decreasing positive
integers; the empty tuple is the unique partition of 0.  Partitions are
stored without trailing zeros so that tuple equality is canonical equality.
All arithmetic is exact (Python integers, no floating point anywhere), and
every function in this module is pure, so concurrent use needs no locking.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod
from typing import Iterable

Partition = tuple[int, ...]

__all__ = [
    "Partition",
    "check_partition",
    "parse_partition",
    "format_partition",
    "conjugate",
    "enumerate_partitions",
    "is_even",
    "is_odd",
    "scale",
    "hook_dimension",
    "schur_dimension",
]


def check_partition(parts: Iterable[int]) -> Partition:
    """Canonicalize ``parts`` into a partition tuple.

    Accepts any iterable of weakly decreasing nonnegative integers and trims
    trailing zeros.  Raises ValueError for anything else.
    """
    p = tuple(parts)
    for x in p:
        if not isinstance(x, int) or x < 0:
            raise ValueError(f"invalid partition part {x!r} in {p!r}")
    for a, b in zip(p, p[1:]):
        if a < b:
            raise ValueError(f"partition parts must be weakly decreasing: {p!r}")
    cut = len(p)
    while cut > 0 and p[cut - 1] == 0:
        cut -= 1
    return p[:cut]


def parse_partition(text: str) -> Partition:
    """Parse the comma-separated text form of a partition, e.g. ``"4,2,1"``.

    Parts are ASCII digits separated by single commas, with no spaces or
    signs.  The single token ``"0"`` denotes the empty partition.
    """
    tokens = text.split(",")
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise ValueError(f"cannot parse partition from {text!r}")
    return check_partition(int(tok) for tok in tokens)


def format_partition(lam: Iterable[int]) -> str:
    """Text form that ``parse_partition`` reads back: ``"4,2,1"``, ``"0"`` for ()."""
    lam = check_partition(lam)
    return ",".join(str(x) for x in lam) if lam else "0"


def conjugate(lam: Iterable[int]) -> Partition:
    """Conjugate (dual) partition, obtained by transposing the Young diagram.

    Column j of the diagram has height #{i : lam_i >= j+1}.  This map is an
    involution.
    """
    lam = check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0]))


@lru_cache(maxsize=None)
def enumerate_partitions(n: int, max_length: int | None = None) -> tuple[Partition, ...]:
    """All partitions of ``n`` in decreasing lexicographic order.

    When ``max_length`` is given, only partitions with at most that many
    parts are produced.  The order is the documented serialization order of
    the whole library: (n) first, (1,...,1) last, and plain tuple comparison
    sorts any two partitions of n consistently with it.
    """
    if n < 0:
        raise ValueError(f"cannot enumerate partitions of {n}")
    limit = n if max_length is None else max_length
    out: list[Partition] = []

    def extend(prefix: list[int], remaining: int, max_part: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        slots = limit - len(prefix)
        for part in range(min(max_part, remaining), 0, -1):
            if part * slots < remaining:
                break
            prefix.append(part)
            extend(prefix, remaining - part, part)
            prefix.pop()

    extend([], n, n)
    return tuple(out)


def is_even(lam: Iterable[int]) -> bool:
    """True iff every part is even (vacuously true for the empty partition)."""
    return all(part % 2 == 0 for part in check_partition(lam))


def is_odd(lam: Iterable[int]) -> bool:
    """True iff every part is odd (vacuously true for the empty partition)."""
    return all(part % 2 == 1 for part in check_partition(lam))


def scale(lam: Iterable[int], c: int) -> Partition:
    """Multiply every part by the positive integer ``c``."""
    lam = check_partition(lam)
    if c < 1:
        raise ValueError(f"scale factor must be positive, got {c}")
    return tuple(part * c for part in lam)


def _hook_product(lam: Partition) -> int:
    conj = conjugate(lam)
    return prod(
        row - j + conj[j] - i - 1 for i, row in enumerate(lam) for j in range(row)
    )


def hook_dimension(lam: Iterable[int]) -> int:
    """Dimension of the symmetric-group irreducible indexed by ``lam``.

    Hook length formula: |lam|! divided by the product of all hook lengths.
    Counts standard Young tableaux of the shape.
    """
    lam = check_partition(lam)
    return factorial(sum(lam)) // _hook_product(lam)


def schur_dimension(lam: Iterable[int], d: int) -> int:
    """Dimension of the Schur module of highest weight ``lam`` over GL(d).

    Hook content formula: product of (d + column - row) over the cells,
    divided by the hook product.  Zero when the partition has more than
    ``d`` parts.
    """
    lam = check_partition(lam)
    if d < 1:
        raise ValueError(f"GL dimension must be positive, got {d}")
    if len(lam) > d:
        return 0
    num = prod(d + j - i for i, row in enumerate(lam) for j in range(row))
    return num // _hook_product(lam)
