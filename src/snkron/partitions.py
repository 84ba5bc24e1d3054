"""Partition arithmetic, enumeration, dimension formulas, and decompositions.

A partition is represented as a plain tuple of weakly decreasing positive
integers; the empty tuple is the unique partition of 0.  Partitions are
stored without trailing zeros so that tuple equality is canonical equality.
All arithmetic is exact (Python integers, no floating point anywhere).  The
module holds no state: every function is pure, so concurrency needs no lock.

The ``Decomposition`` record and the routes' input checks live here, so each
route reads them without loading the other.  ``_same_size`` checks any number
of partitions and returns them with their common size; ``_pair`` adds the
length bound for ``kronecker.tensor_decompose`` and ``closed_forms.closed_form``.
"""

from __future__ import annotations

from math import factorial, perm, prod
from typing import Iterable, NamedTuple

Partition = tuple[int, ...]

__all__ = [
    "Partition",
    "check_partition",
    "parse_partition",
    "format_partition",
    "conjugate",
    "enumerate_partitions",
    "hook_dimension",
    "schur_dimension",
    "Decomposition",
]


def check_partition(parts: Iterable[int]) -> Partition:
    """Canonicalize ``parts`` into a partition tuple.

    Accepts any iterable of weakly decreasing nonnegative ints and trims
    trailing zeros.  Raises ValueError for anything else, bools included, so
    that ``format_partition`` and ``parse_partition`` stay inverse.
    """
    p = tuple(parts)
    # One pass: a bad part anywhere is reported before any disorder.
    ordered = True
    prev = p[0] if p else 0
    for x in p:
        if type(x) is not int or x < 0:
            raise ValueError(f"invalid partition part {x!r} in {p!r}")
        if x > prev:
            ordered = False
        prev = x
    if not ordered:
        raise ValueError(f"partition parts must be weakly decreasing: {p!r}")
    return p[:p.index(0)] if p and not p[-1] else p


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
    if limit < 0:
        raise ValueError(f"length bound must be nonnegative, got {limit}")
    out: list[Partition] = []

    def extend(prefix: Partition, slots: int, remaining: int, max_part: int) -> None:
        # At most ``slots`` parts to go, the next in ((remaining - 1) // slots, top];
        # the last one or two parts are emitted directly, largest first.
        slots = slots if slots < remaining else remaining
        top = max_part if max_part < remaining else remaining
        if slots > 2:
            for part in range(top, (remaining - 1) // slots, -1):
                extend(prefix + (part,), slots - 1, remaining - part, part)
        elif slots == 2:
            if top == remaining:
                out.append(prefix + (top,))
                top -= 1
            for part in range(top, (remaining - 1) // 2, -1):
                out.append(prefix + (part, remaining - part))
        elif remaining == 0:
            out.append(prefix)
        elif slots == 1 and top == remaining:
            out.append(prefix + (top,))

    extend((), limit, n, n)
    return tuple(out)


def _hook_product(lam: Partition) -> int:
    # Columns lam[c] <= j < lam[c-1] all have height c, so along a row i < c
    # their hooks are consecutive integers: each run of equal-height columns
    # gives one falling factorial per row above its drop c, and no conjugate
    # is needed.
    ext = lam + (0,)
    acc = 1
    for c in range(1, len(ext)):
        width = ext[c - 1] - ext[c]
        if width:
            base = c - 1 - ext[c]
            for i in range(c):
                acc *= perm(lam[i] + base - i, width)
    return acc


# Slowest at this size: columns and hooks with d near 2|lam|, ~2 s on 2 vCPUs, Python 3.11.
_CELL_BOUND = 40_000
# Numerator bits, at most |lam| * bit_length(d + |lam|); 40 000-cell columns, the slowest, take ~2 s.
_BIT_BOUND = 800_000


def _check_cells(n: int) -> None:
    if n > _CELL_BOUND:
        raise ValueError(f"{n} cells exceed the dimension bound of {_CELL_BOUND} cells")


def _cells(lam: Iterable[int]) -> tuple[Partition, int]:
    lam = check_partition(lam)
    _check_cells(n := sum(lam))
    return lam, n


def hook_dimension(lam: Iterable[int]) -> int:
    """Dimension of the symmetric-group irreducible indexed by ``lam``.

    Hook length formula: |lam|! divided by the product of all hook lengths.
    Counts standard Young tableaux; raises ValueError past 40 000 cells.
    """
    lam, n = _cells(lam)
    return factorial(n) // _hook_product(lam)


def schur_dimension(lam: Iterable[int], d: int) -> int:
    """Dimension of the Schur module of highest weight ``lam`` over GL(d).

    Hook content formula: product of (d + column - row) over the cells, one
    falling factorial per row, divided by the hook product.  Zero when the
    partition has more than ``d`` parts.  Raises ValueError past 40 000 cells
    or past 800 000 bits of the numerator, |lam| * bit_length(d + |lam|).
    """
    lam, n = _cells(lam)
    if d < 1:
        raise ValueError(f"GL dimension must be positive, got {d}")
    if len(lam) > d:
        return 0
    if (bits := n * (d + n).bit_length()) > _BIT_BOUND:
        raise ValueError(f"{bits} numerator bits exceed the dimension bound of {_BIT_BOUND} bits")
    num = prod(perm(d - i + row - 1, row) for i, row in enumerate(lam))
    return num // _hook_product(lam)


class Decomposition(NamedTuple):
    """A finite sum of irreducibles: partition of ``n`` -> multiplicity >= 1.

    An immutable named tuple ``(n, entries)``; both fields are required, and
    two decompositions are equal when their entries are, in any order.
    Absent keys mean multiplicity zero.  Entries of every decomposition the
    library returns iterate in decreasing lexicographic order of partitions.
    """

    n: int
    entries: dict[Partition, int]

    def restrict_length(self, max_length: int) -> "Decomposition":
        """Sub-sum over constituents with at most ``max_length`` parts; ValueError below 1."""
        _length_bound(max_length)
        kept = {nu: m for nu, m in self.entries.items() if len(nu) <= max_length}
        return Decomposition(self.n, kept)

    def dimension_sum(self) -> int:
        """Sum of multiplicity * dimension; ValueError unless each key is a partition of n.

        Shares the 40 000-cell bound of ``hook_dimension``, checked before any factorial.
        """
        _check_cells(self.n)
        total = factorial(self.n)  # once; every key is still checked
        dims = 0
        for key, m in self.entries.items():
            nu = check_partition(key)
            if sum(nu) != self.n:
                raise ValueError(f"{key!r} is not a partition of {self.n}")
            dims += m * (total // _hook_product(nu))
        return dims


def _same_size(*parts: Iterable[int]) -> tuple:
    # Each partition checked, in order, then their one size: (*parts, n).
    checked = [check_partition(p) for p in parts]
    sizes = {sum(p) for p in checked}
    if len(sizes) != 1:
        raise ValueError(f"partitions of unequal sizes: {sorted(sizes)}")
    return (*checked, sizes.pop())


def _length_bound(max_length: int | None) -> None:
    if max_length is not None and max_length < 1:
        raise ValueError(f"length bound must be positive, got {max_length}")


def _pair(
    lam: Partition, mu: Partition, max_length: int | None
) -> tuple[Partition, Partition, int]:
    lam, mu, n = _same_size(lam, mu)
    _length_bound(max_length)
    return lam, mu, n
