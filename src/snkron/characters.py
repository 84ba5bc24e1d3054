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
larger one prepends segments, and ``character_row`` reads ``_char(_beads(lam), n, n)``.

A decomposition needs one number per candidate, the weighted class sum
sum_rho w_rho chi_nu(rho), not its row.  ``_class_sums(n, weights)`` splits
that sum by first cycle r as ``_char`` splits a row: the signed sum, over
the r-strips of nu, of D(sigma), segment r of the weights against the
bounded sub-row ``_char(sigma, n - r, r)``.  Zero segments are skipped,
each D(sigma) is formed once per call and shared by every candidate one
strip above sigma, and no row of a candidate is built or stored.  ``_char``
and ``_class_sums`` each walk the r-strips of a mask inline, by the same
bit loop over the beads that can move down r places: one walk shared by both
costs a call and a list per (mask, r), and measured slower (ROADMAP).

Cycle types are ordinary partitions of n, read as conjugacy classes of the
symmetric group on n letters.

Concurrency: every function here is pure, and its memos (``_rows`` and the
cache of ``_classes``) change only by atomic stores of correct values; the
shared sums of ``_class_sums`` live in a dict of its own call.  A racing
writer may store a shorter row of a shape than the one it replaces: that
costs recomputation, never a wrong value.
"""

from functools import lru_cache
from itertools import accumulate
from math import factorial, perm
from operator import add, mul, neg, sub
from typing import Callable, NamedTuple, Sequence

from .partitions import Partition, check_partition, enumerate_partitions

# The cap keeps accidental huge computations out: S_24 has p(24) = 1 575
# classes, and ``chartable 24`` takes ~1 s on the command line (2 vCPUs, Python 3.11).
DEFAULT_CAP = 24

__all__ = [
    "CharacterTable",
    "DEFAULT_CAP",
    "character_row",
    "class_sizes",
    "character_table",
]


def _beads(lam: Partition) -> int:
    # Abacus of lam: bit lam[i] + (len(lam) - 1 - i) is set for every row i.
    mask = 0
    for i, part in enumerate(reversed(lam)):
        mask |= 1 << (part + i)
    return mask


# Memoized: _char reads the widths on every call, and warm callers reuse the sizes.
@lru_cache(maxsize=None)
def _classes(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # p(m, parts <= b) for b = 0..m, the length of a row bounded by b, and the
    # class sizes of S_m, by the suffix rule: the classes with exactly k leading
    # cycles r are r^k followed by the last p(m - kr, parts < r) classes of
    # S_(m - kr), each as large as the one below times the choices of k r-cycles.
    if not m:
        return (1,), (1,)
    firsts = [0] * (m + 1)  # classes with first cycle r
    sizes: list[int] = []
    for r in range(m, 0, -1):
        for k in range(m // r, 0, -1):
            rest = m - k * r
            widths, below = _classes(rest)
            suffix = below[len(below) - widths[min(r - 1, rest)]:]
            choices = perm(m, k * r) // (r**k * factorial(k))
            sizes.extend([choices * size for size in suffix])
            firsts[r] += len(suffix)
    return tuple(accumulate(firsts)), tuple(sizes)


_rows: dict[int, tuple[int, ...]] = {}  # mask -> row; its length names its bound


def _char(mask: int, size: int, bound: int) -> tuple[int, ...]:
    # One segment per first cycle r (see the module docstring): the signed
    # sum of the sub-rows of the shapes one r-strip down.
    if not size:
        return (1,)
    bound = min(size, bound)
    widths = _classes(size)[0]
    tail = _rows.get(mask, ())
    if len(tail) >= widths[bound]:
        return tail[-widths[bound]:]
    row: list[int] = []
    for r in range(bound, widths.index(len(tail)), -1):  # from b down to the stored bound
        rest = size - r
        width = _classes(rest)[0][min(r, rest)]
        segment = None
        # Every r-strip: move a bead from b + r down to an empty b, drop the
        # zero rows, and take the parity of the beads passed over as the sign.
        passed = (1 << (r - 1)) - 1
        movable = (mask & ~(mask << r)) >> r
        while movable:
            b = movable.bit_length() - 1
            movable ^= 1 << b
            moved = mask ^ (1 << b) ^ (1 << (b + r))
            moved >>= (moved ^ (moved + 1)).bit_length() - 1
            odd = (mask >> (b + 1) & passed).bit_count() & 1
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
        stop = start + _classes(rest)[0][min(r, rest)]
        segment = weights[start:stop]
        start = stop
        if any(segment):
            segments.append((r, rest, segment))
    shared: dict[int, int] = {}

    def class_sum(nu: Partition) -> int:
        mask = _beads(nu)
        total = 0
        for r, rest, segment in segments:
            # The r-strips, walked as in _char.
            passed = (1 << (r - 1)) - 1
            movable = (mask & ~(mask << r)) >> r
            while movable:
                b = movable.bit_length() - 1
                movable ^= 1 << b
                moved = mask ^ (1 << b) ^ (1 << (b + r))
                moved >>= (moved ^ (moved + 1)).bit_length() - 1
                odd = (mask >> (b + 1) & passed).bit_count() & 1
                d = shared.get(moved)
                if d is None:
                    shared[moved] = d = sum(map(mul, segment, _char(moved, rest, r)))
                total += -d if odd else d
        return total

    return class_sum


def _check_size(n: int) -> None:
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


def class_sizes(n: int) -> tuple[int, ...]:
    """Sizes of the conjugacy classes of S_n, in ``enumerate_partitions(n)`` order.

    Raises ValueError when ``n`` is negative or exceeds ``DEFAULT_CAP``.
    """
    _check_size(n)
    return _classes(n)[1]


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
