"""Brute-force exact Kronecker coefficients from character data.

This is the ground-truth side of the library: a coefficient is the class
sum (1/n!) * sum_rho |class(rho)| * chi_lam(rho) * chi_mu(rho) * chi_nu(rho),
computed as one integer sum divided once by n!.  ``_multiplicity`` checks
that every such sum is a nonnegative multiple of n!; a failure would mean
the character engine is broken, so it raises instead of returning garbage.
"""

from math import factorial
from operator import mul

from .characters import _class_sums, character_row, class_sizes
from .partitions import (
    Decomposition, Partition, _length_bound, _partitions, _same_size, conjugate,
)

__all__ = [
    "kronecker",
    "tensor_decompose",
]


def _weights(n: int, lam: Partition, mu: Partition) -> list[int]:
    # |class(rho)| * chi_lam(rho) * chi_mu(rho) on every class of S_n.
    return list(map(mul, map(mul, class_sizes(n), character_row(lam)), character_row(mu)))


def _multiplicity(n: int, total: int) -> int:
    # One class sum, checked to be a nonnegative multiple of n! and divided by it.
    mult, rem = divmod(total, factorial(n))
    if rem or mult < 0:
        raise RuntimeError(
            f"class sum {total} is not a nonnegative multiple of {n}!, "
            f"character data is inconsistent"
        )
    return mult


def kronecker(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Multiplicity of the irreducible ``nu`` in the tensor product lam (x) mu.

    Raises ValueError on unequal sizes or when n exceeds ``DEFAULT_CAP``.
    """
    lam, mu, nu, n = _same_size(lam, mu, nu)
    return _multiplicity(n, sum(map(mul, _weights(n, lam, mu), character_row(nu))))


def tensor_decompose(
    lam: Partition, mu: Partition, max_length: int | None = None
) -> Decomposition:
    """Decomposition of lam (x) mu into irreducibles with multiplicities.

    With ``max_length``, only constituents with at most that many parts are
    kept.  A constituent nu has at most |lam & mu'| parts and a first part
    of at most |lam & mu|, where |a & b| = sum_i min(a_i, b_i) and mu' is
    the conjugate (Dvir, J. Algebra 1993; both bounds are attained), so
    only candidates within both bounds are tried.  The weights
    |class(rho)| * chi_lam(rho) * chi_mu(rho) are formed once and summed
    against each candidate by ``characters._class_sums``.  Raises
    ValueError on unequal sizes, a bound below 1, or n past ``DEFAULT_CAP``.
    """
    lam, mu, n = _same_size(lam, mu)
    _length_bound(max_length)
    # Reading the weights first also applies the cap before the p(n)
    # candidates are enumerated.
    class_sum = _class_sums(n, _weights(n, lam, mu))
    bound = sum(map(min, lam, conjugate(mu)))
    if max_length is not None:
        bound = min(bound, max_length)
    width = sum(map(min, lam, mu))
    entries: dict[Partition, int] = {}
    for nu in _partitions(n, bound, width):
        mult = _multiplicity(n, class_sum(nu))
        if mult:
            entries[nu] = mult
    return Decomposition(n, entries)
