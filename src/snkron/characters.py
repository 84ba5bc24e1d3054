"""Exact irreducible characters of symmetric groups.

Character values are computed by the border-strip (Murnaghan-Nakayama)
recursion over beta numbers, stripping the largest remaining cycle first so
the recursion depth is bounded by the number of cycles.  Removing a border
strip never adds a row, so the recursion on a shape with at most L rows only
visits shapes with at most L rows.

The unit of work is a row: ``character_row(lam)`` is the character of
``lam`` on every class of the symmetric group on |lam| letters, memoized per
partition.  The Kronecker coefficient oracle reads only the rows its query
needs, and ``character_table(n)`` assembles all p(n) rows from the same memo.

Cycle types are ordinary partitions of n, read as conjugacy classes of the
symmetric group on n letters.

Concurrency: every function here is pure; the memos behind them (the
``_char`` cache and the dicts of rows, class sizes and tables) only ever
insert values, and dict insertions are atomic, so concurrent callers are
safe and, at worst, duplicate some work while always observing identical
results.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .partitions import Partition, check_partition, enumerate_partitions

CycleType = Partition

DEFAULT_CAP = 24

__all__ = [
    "CycleType",
    "CharacterTable",
    "DEFAULT_CAP",
    "centralizer_order",
    "character_value",
    "character_row",
    "class_sizes",
    "character_table",
]


def _centralizer(rho: CycleType) -> int:
    z = 1
    mult = 0
    for i, part in enumerate(rho):
        mult += 1
        z *= part
        if i + 1 == len(rho) or rho[i + 1] != part:
            z *= factorial(mult)
            mult = 0
    return z


def centralizer_order(rho: CycleType) -> int:
    """Order of the centralizer of a permutation of cycle type ``rho``.

    Equals prod(m^a_m * a_m!) over the distinct part sizes m, where a_m is
    the multiplicity of m.  The conjugacy class has n!/centralizer_order
    elements.
    """
    return _centralizer(check_partition(rho))


@lru_cache(maxsize=None)
def _char(lam: Partition, rho: Partition) -> int:
    # Strip one border strip of length rho[0] from lam in all possible ways.
    if not rho:
        return 1
    strip = rho[0]
    rest = rho[1:]
    k = len(lam)
    beta = [lam[i] + k - 1 - i for i in range(k)]  # strictly decreasing
    beta_set = set(beta)
    total = 0
    for i, b in enumerate(beta):
        low = b - strip
        if low < 0 or low in beta_set:
            continue
        height = 0
        j = i + 1
        while j < k and beta[j] > low:
            height += 1
            j += 1
        new_beta = sorted(beta_set - {b} | {low}, reverse=True)
        new_lam = tuple(x - (k - 1 - m) for m, x in enumerate(new_beta))
        cut = len(new_lam)
        while cut and new_lam[cut - 1] == 0:
            cut -= 1
        term = _char(new_lam[:cut], rest)
        total += -term if height % 2 else term
    return total


def character_value(lam: Partition, rho: CycleType) -> int:
    """Exact character value of the irreducible ``lam`` on the class ``rho``."""
    lam = check_partition(lam)
    rho = check_partition(rho)
    if sum(lam) != sum(rho):
        raise ValueError(
            f"partition and cycle type live in different symmetric groups: "
            f"|{lam}| = {sum(lam)} vs |{rho}| = {sum(rho)}"
        )
    return _char(lam, rho)


def _check_size(n: int, cap: int) -> None:
    # The cap keeps accidental huge computations out; p(24) = 1575 classes.
    if n < 0:
        raise ValueError(f"no symmetric group on {n} letters")
    if n > cap:
        raise ValueError(f"characters of S_{n} exceed the cap n <= {cap}")


_rows: dict[Partition, tuple[int, ...]] = {}
_class_sizes: dict[int, tuple[int, ...]] = {}


def _row(lam: Partition, classes: tuple[CycleType, ...]) -> tuple[int, ...]:
    row = _rows.get(lam)
    if row is None:
        row = _rows.setdefault(lam, tuple(_char(lam, rho) for rho in classes))
    return row


def character_row(lam: Partition) -> tuple[int, ...]:
    """Values of the irreducible ``lam`` on every class, memoized per partition.

    Columns are the cycle types of ``enumerate_partitions(|lam|)`` in order.
    Raises ValueError when |lam| exceeds ``DEFAULT_CAP``.
    """
    lam = check_partition(lam)
    n = sum(lam)
    _check_size(n, DEFAULT_CAP)
    return _row(lam, enumerate_partitions(n))


def class_sizes(n: int) -> tuple[int, ...]:
    """Sizes of the conjugacy classes of S_n, in ``enumerate_partitions(n)`` order."""
    classes = enumerate_partitions(n)
    sizes = _class_sizes.get(n)
    if sizes is None:
        order = factorial(n)
        sizes = _class_sizes.setdefault(
            n, tuple(order // _centralizer(rho) for rho in classes)
        )
    return sizes


class CharacterTable:
    """Complete character table of the symmetric group on ``n`` letters.

    Rows are indexed by partitions of n (irreducibles) and columns by cycle
    types, both in ``enumerate_partitions(n)`` order.  Carries centralizer
    orders as class data; all values are exact integers.
    """

    def __init__(
        self,
        n: int,
        partitions: tuple[Partition, ...],
        rows: dict[Partition, tuple[int, ...]],
        centralizer_orders: dict[CycleType, int],
    ):
        self.n = n
        self.partitions = partitions
        self.rows = rows
        self.centralizer_orders = centralizer_orders
        self.group_order = factorial(n)
        self.class_sizes = tuple(
            self.group_order // centralizer_orders[rho] for rho in partitions
        )
        self._col = {rho: i for i, rho in enumerate(partitions)}

    def value(self, lam: Partition, rho: CycleType) -> int:
        return self.rows[lam][self._col[rho]]

    def class_size(self, rho: CycleType) -> int:
        return self.class_sizes[self._col[rho]]

    def validate(self) -> None:
        """Check column orthogonality; raise ValueError on any failure.

        Columns rho, sigma must satisfy
        sum_lam chi(lam, rho) * chi(lam, sigma) = centralizer_order(rho) * [rho == sigma].
        """
        cols = list(zip(*(self.rows[lam] for lam in self.partitions)))
        for i, rho in enumerate(self.partitions):
            for j in range(i, len(self.partitions)):
                got = sum(a * b for a, b in zip(cols[i], cols[j]))
                want = self.centralizer_orders[rho] if i == j else 0
                if got != want:
                    raise ValueError(
                        f"column orthogonality fails at ({rho}, {self.partitions[j]}): "
                        f"{got} != {want}"
                    )


_tables: dict[int, CharacterTable] = {}


def character_table(n: int, *, cap: int = DEFAULT_CAP) -> CharacterTable:
    """Memoized complete character table of the symmetric group on ``n`` letters.

    Its rows are those of ``character_row``.  Raises ValueError when ``n``
    is negative or exceeds ``cap`` (p(24) = 1575 rows is the default
    ceiling).
    """
    _check_size(n, cap)
    parts = enumerate_partitions(n)
    table = _tables.get(n)
    if table is None:
        rows = {lam: _row(lam, parts) for lam in parts}
        orders = {rho: _centralizer(rho) for rho in parts}
        table = _tables.setdefault(n, CharacterTable(n, parts, rows, orders))
    return table
