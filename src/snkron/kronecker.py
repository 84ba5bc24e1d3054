"""Brute-force exact Kronecker coefficients from character data.

This is the ground-truth side of the library: a coefficient is the class
sum (1/n!) * sum_rho |class(rho)| * chi_lam(rho) * chi_mu(rho) * chi_nu(rho),
computed as one integer sum divided once by n!.  It reads only the three
character rows it needs and the class sizes, never a whole table.  Exact
divisibility of that sum is asserted on every call; a failure would mean the
character engine is broken, so it raises instead of returning garbage.

The functions here are pure; per-constituent computations are independent
and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

from .characters import character_row, class_sizes
from .partitions import (
    Partition,
    check_partition,
    enumerate_partitions,
    hook_dimension,
)

__all__ = [
    "Decomposition",
    "kronecker",
    "tensor_decompose",
]


@dataclass(frozen=True)
class Decomposition:
    """A finite sum of irreducibles: partition of ``n`` -> multiplicity >= 1.

    Absent keys mean multiplicity zero.  Entries iterate in decreasing
    lexicographic order of partitions, the documented serialization order.
    """

    n: int
    entries: dict[Partition, int] = field(default_factory=dict)

    def multiplicity(self, nu: Partition) -> int:
        return self.entries.get(check_partition(nu), 0)

    def sorted_entries(self) -> list[tuple[Partition, int]]:
        return sorted(self.entries.items(), reverse=True)

    def restrict_length(self, max_length: int) -> "Decomposition":
        """Sub-sum over constituents with at most ``max_length`` parts."""
        kept = {nu: m for nu, m in self.entries.items() if len(nu) <= max_length}
        return Decomposition(self.n, kept)

    def dimension_sum(self) -> int:
        """Total dimension: sum of multiplicity * irreducible dimension."""
        return sum(m * hook_dimension(nu) for nu, m in self.entries.items())


def _common_size(*parts: Partition) -> int:
    sizes = {sum(p) for p in parts}
    if len(sizes) != 1:
        raise ValueError(f"partitions of unequal sizes: {sorted(sizes)}")
    return sizes.pop()


def kronecker(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Multiplicity of the irreducible ``nu`` in the tensor product lam (x) mu."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    nu = check_partition(nu)
    n = _common_size(lam, mu, nu)
    rows = (character_row(lam), character_row(mu), character_row(nu))
    total = sum(
        size * a * b * c for size, a, b, c in zip(class_sizes(n), *rows)
    )
    mult, rem = divmod(total, factorial(n))
    if rem or mult < 0:
        raise RuntimeError(
            f"class sum {total} is not a nonnegative multiple of {n}!, "
            f"character data is inconsistent"
        )
    return mult


def tensor_decompose(
    lam: Partition, mu: Partition, max_length: int | None = None
) -> Decomposition:
    """Decomposition of lam (x) mu into irreducibles with multiplicities.

    With ``max_length``, only constituents with at most that many parts are
    kept.  A constituent never has more than len(lam) * len(mu) parts
    (Dvir, J. Algebra 1993), so candidates past either bound are skipped
    before any character work; every other candidate is one ``kronecker``.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    if max_length is not None and max_length < 1:
        raise ValueError(f"length bound must be positive, got {max_length}")
    n = _common_size(lam, mu)
    bound = len(lam) * len(mu)
    if max_length is not None:
        bound = min(bound, max_length)
    entries: dict[Partition, int] = {}
    for nu in enumerate_partitions(n, bound):
        mult = kronecker(lam, mu, nu)
        if mult:
            entries[nu] = mult
    return Decomposition(n, entries)
