"""Exact irreducible characters of symmetric groups.

Character values come from the border-strip (Murnaghan-Nakayama) rule in
its abacus form (James & Kerber, *The Representation Theory of the
Symmetric Group*, 2.7).  A shape is the set of its beta numbers, held as the
bits of an int: row i of lam sets bit lam[i] + (len(lam) - 1 - i).  Removing
a border strip of length r moves one bead from b to an empty place b - r;
its sign is the parity of the beads passed over.  Trailing beads (zero rows)
are shifted off after each move, so every shape has one key.  Removing a
border strip never adds a row, so the recursion on a shape with at most L
rows only visits shapes with at most L rows.

The recursion builds whole row segments.  ``_char(mask, size, bound)`` is
the character of one shape on every class of S_size whose cycles are all at
most ``bound``, in ``enumerate_partitions`` order.  That order groups the
classes by their first cycle r, so the segment for r is the signed sum of
the sub-rows ``_char(mask - strip, size - r, r)`` over the r-strips.  The
classes with cycles at most b come last, so the memo ``_rows`` keeps one
row per shape (the mask fixes the size) for the largest bound b asked so far;
its length p(size, parts <= b) names b.  A smaller bound reads a suffix, a
larger one prepends segments, and ``character_row`` reads ``_char(beads(lam), n, n)``.

A decomposition needs one number per candidate, the weighted class sum
sum_rho w_rho chi_nu(rho), not its row.  ``_class_sums(n, weights)`` splits
that sum by first cycle r as ``_char`` splits a row: the signed sum, over
the r-strips of nu, of D(sigma), segment r of the weights against the
bounded sub-row ``_char(sigma, n - r, r)``.  Zero segments and classes are
skipped, each D(sigma) is formed once per call and shared by every
candidate one strip above sigma, and no row of a candidate is built or
stored.  ``_char`` and ``_class_sums`` walk the strips through one
generator, ``_strips``.

The unit of work that callers see is a row: ``character_row(lam)`` is the
character of ``lam`` on every class of the symmetric group on |lam|
letters.  The Kronecker coefficient oracle reads only the rows its query
needs (``kronecker`` three, a decomposition those of lam and mu and the
sub-rows behind its class sums), and ``character_table(n)`` returns all
p(n) rows as a ``CharacterTable`` named tuple, each read through
``character_row``.

Cycle types are ordinary partitions of n, read as conjugacy classes of the
symmetric group on n letters.

Concurrency: every function here is pure, and its memos (``_rows`` and the
caches of ``_widths`` and ``class_sizes``) change only by atomic stores of
correct values; the shared sums of ``_class_sums`` live in a dict of its
own call.  A racing writer may store a shorter row of a shape than the
one it replaces: that costs recomputation, never a wrong value.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import factorial
from operator import add, mul, neg, sub
from typing import Callable, Iterator, NamedTuple, Sequence

from .partitions import Partition, check_partition, enumerate_partitions

DEFAULT_CAP = 24

__all__ = [
    "CharacterTable",
    "DEFAULT_CAP",
    "character_row",
    "class_sizes",
    "character_table",
]


def _centralizer(rho: Partition) -> int:
    z = 1
    mult = 0
    for i, part in enumerate(rho):
        mult += 1
        z *= part
        if i + 1 == len(rho) or rho[i + 1] != part:
            z *= factorial(mult)
            mult = 0
    return z


def _beads(lam: Partition) -> int:
    # Abacus of lam: bit lam[i] + (len(lam) - 1 - i) is set for every row i.
    mask = 0
    for i, part in enumerate(reversed(lam)):
        mask |= 1 << (part + i)
    return mask


@lru_cache(maxsize=None)
def _widths(m: int) -> tuple[int, ...]:
    # p(m, parts <= b) for b = 0..m: the length of a row of S_m bounded by b.
    w = [int(not m)]
    for b in range(1, m + 1):
        w.append(w[-1] + _widths(m - b)[min(b, m - b)])
    return tuple(w)


_rows: dict[int, tuple[int, ...]] = {}  # mask -> row; its length names its bound


def _strips(mask: int, r: int) -> Iterator[tuple[int, int]]:
    # Every r-strip of the shape: the shape left by moving a bead from b + r
    # down to an empty b, with its zero rows dropped, and the parity of the
    # beads passed over, which is the strip's sign.
    passed = (1 << (r - 1)) - 1
    movable = (mask & ~(mask << r)) >> r
    while movable:
        b = movable.bit_length() - 1
        movable ^= 1 << b
        moved = mask ^ (1 << b) ^ (1 << (b + r))
        moved >>= (moved ^ (moved + 1)).bit_length() - 1  # drop zero rows
        yield moved, (mask >> (b + 1) & passed).bit_count() & 1


def _char(mask: int, size: int, bound: int) -> tuple[int, ...]:
    # One segment per first cycle r (see the module docstring): the signed
    # sum of the sub-rows of the shapes one r-strip down.
    if not size:
        return (1,)
    bound = min(size, bound)
    widths = _widths(size)
    tail = _rows.get(mask, ())
    if len(tail) >= widths[bound]:
        return tail[-widths[bound]:]
    row: list[int] = []
    for r in range(bound, widths.index(len(tail)), -1):  # from b down to the stored bound
        rest = size - r
        width = _widths(rest)[min(r, rest)]
        segment = None
        for moved, odd in _strips(mask, r):
            hit = _rows.get(moved, ())
            part = hit[-width:] if len(hit) >= width else _char(moved, rest, r)
            # Lazy maps: row.extend below sums every strip's part in one pass.
            if segment is None:
                segment = map(neg, part) if odd else part
            else:
                segment = map(sub if odd else add, segment, part)
        # No r-strip: zeros, as many as the classes of S_rest with cycles <= r.
        row.extend([0] * width if segment is None else segment)
    _rows[mask] = full = tuple(row) + tail
    return full


def _class_sums(n: int, weights: Sequence[int]) -> Callable[[Partition], int]:
    # nu -> sum_rho weights[rho] * chi_nu(rho) over the classes of S_n, one
    # strip down (see the module docstring).  ``shared`` maps the mask of
    # sigma, which fixes its size n - r and so r, to D(sigma).
    if not n:
        return lambda nu: weights[0]
    segments = []
    start = 0
    for r in range(n, 0, -1):
        rest = n - r
        stop = start + _widths(rest)[min(r, rest)]
        segment = weights[start:stop]
        start = stop
        if any(segment):
            segments.append((r, rest, segment, [w for w in segment if w]))
    shared: dict[int, int] = {}

    def class_sum(nu: Partition) -> int:
        mask = _beads(nu)
        total = 0
        for r, rest, segment, nonzero in segments:
            for moved, odd in _strips(mask, r):
                d = shared.get(moved)
                if d is None:
                    part = _char(moved, rest, r)
                    shared[moved] = d = sum(map(mul, nonzero, compress(part, segment)))
                total += -d if odd else d
        return total

    return class_sum


def _check_size(n: int) -> None:
    # The cap keeps accidental huge computations out; p(24) = 1575 classes.
    if n < 0:
        raise ValueError(f"no symmetric group on {n} letters")
    if n > DEFAULT_CAP:
        raise ValueError(f"characters of S_{n} exceed the cap n <= {DEFAULT_CAP}")


def character_row(lam: Partition) -> tuple[int, ...]:
    """Values of ``lam`` on every class; a repeated read returns the memo's tuple.

    Columns are the cycle types of ``enumerate_partitions(|lam|)`` in order.
    Raises ValueError when |lam| exceeds ``DEFAULT_CAP``.
    """
    lam = check_partition(lam)
    n = sum(lam)
    _check_size(n)
    return _char(_beads(lam), n, n)


# Memoized: warm callers reuse it, and at S_20 it costs more than a kronecker call.
@lru_cache(maxsize=None)
def class_sizes(n: int) -> tuple[int, ...]:
    """Sizes of the conjugacy classes of S_n, in ``enumerate_partitions(n)`` order.

    Raises ValueError when ``n`` is negative or exceeds ``DEFAULT_CAP``.
    """
    _check_size(n)
    order = factorial(n)
    return tuple(order // _centralizer(rho) for rho in enumerate_partitions(n))


class CharacterTable(NamedTuple):
    """Complete character table of the symmetric group on ``n`` letters.

    An immutable named tuple ``(n, partitions, rows)``.  ``rows[lam]`` is
    ``character_row(lam)``; rows and columns both follow ``partitions``, the
    ``enumerate_partitions(n)`` order.
    """

    n: int
    partitions: tuple[Partition, ...]
    rows: dict[Partition, tuple[int, ...]]


def character_table(n: int) -> CharacterTable:
    """All p(n) rows of the character table of the symmetric group on ``n`` letters.

    Raises ValueError when ``n`` is negative or exceeds ``DEFAULT_CAP``.
    """
    _check_size(n)
    parts = enumerate_partitions(n)
    return CharacterTable(n, parts, {lam: character_row(lam) for lam in parts})
