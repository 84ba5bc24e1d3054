"""Independent brute-force oracles the tests check the library against.

Nothing here goes through the library's recursions: partition counts come
from the pentagonal-number recurrence, dimensions from explicit tableau
enumeration and the Weyl product formula, the closed forms' index sets from
the paper's statements read literally (enumerate, filter, sort), and small
character tables from counting fixed tabloids of permutation modules and
peeling off irreducibles in dominance-compatible order.  ``mn_character``
is a second border-strip engine, one value per (shape, cycle type) over
beta-number lists, to check the library's row segments at sizes the
brute force cannot reach.  Centralizer orders, for the column-orthogonality
check of a library table, come from counting the permutations of each
cycle type.
"""

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


@lru_cache(maxsize=None)
def partition_count(n):
    """p(n) by the pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        total += sign * (partition_count(n - g1) + partition_count(n - g2))
        k += 1
    return total


def partitions_of(n, largest=None, parts=None):
    """All partitions of n as tuples, by largest-part recursion, largest first.

    With ``parts``, only those with at most that many parts.
    """
    if largest is None:
        largest = n
    if parts is None:
        parts = n
    if n == 0:
        return [()]
    if parts == 0:
        return []
    out = []
    # The head is at least n / parts, or the other parts cannot hold the rest.
    for head in range(min(largest, n), (n - 1) // parts, -1):
        out.extend((head,) + tail for tail in partitions_of(n - head, head, parts - 1))
    return out


def theorem1_statement(n):
    """Theorem 1's constituents of (n,n) (x) (n,n), sorted decreasingly.

    The even ones are 2*mu over mu of n with at most 4 parts, the all-odd
    ones 2*mu + (1,1,1,1) over mu of n - 2 with at most 4 parts.
    """
    even = [tuple(2 * part for part in mu) for mu in partitions_of(n, parts=4)]
    odd = [
        tuple(2 * part + 1 for part in (mu + (0, 0, 0, 0))[:4])
        for mu in (partitions_of(n - 2, parts=4) if n >= 2 else ())
    ]
    return sorted(even + odd, reverse=True)


def theorem2_statement(n):
    """Theorem 2's constituents of (2n,2n) (x)_3 (n,n,n,n), in decreasing order.

    The doubles 2*lam over lam of 2n with at most 3 parts and
    lam_2 + lam_3 - lam_1 nonnegative and even.
    """
    out = []
    for lam in partitions_of(2 * n, parts=3):
        l1, l2, l3 = (lam + (0, 0, 0))[:3]
        combo = l2 + l3 - l1
        if combo >= 0 and combo % 2 == 0:
            out.append(tuple(2 * part for part in lam))
    return out


@lru_cache(maxsize=None)
def count_standard_tableaux(shape):
    """Number of standard Young tableaux, by removing one corner at a time."""
    if not shape:
        return 1
    total = 0
    for i, part in enumerate(shape):
        below = shape[i + 1] if i + 1 < len(shape) else 0
        if part > below:
            smaller = shape[:i] + ((part - 1,) if part > 1 else ()) + shape[i + 1:]
            total += count_standard_tableaux(smaller)
    return total


def weyl_gl_dimension(shape, d):
    """dim of the GL(d) module of highest weight ``shape`` by the Weyl product."""
    if len(shape) > d:
        return 0
    v = list(shape) + [0] * (d - len(shape))
    result = Fraction(1)
    for i in range(d):
        for j in range(i + 1, d):
            result *= Fraction(v[i] - v[j] + j - i, j - i)
    assert result.denominator == 1
    return int(result)


def _cycle_type(perm):
    n = len(perm)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        size = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            size += 1
        lengths.append(size)
    return tuple(sorted(lengths, reverse=True))


def _tabloids(shape, support):
    # Ordered row partition of `support` with row sizes `shape`, rows as frozensets.
    if not shape:
        yield ()
        return
    head, rest = shape[0], shape[1:]
    for row in itertools.combinations(sorted(support), head):
        remaining = support - set(row)
        for tail in _tabloids(rest, remaining):
            yield (frozenset(row),) + tail


def _fixed_tabloid_count(shape, perm):
    count = 0
    for tab in _tabloids(shape, set(range(len(perm)))):
        if all(frozenset(perm[i] for i in row) == row for row in tab):
            count += 1
    return count


def brute_force_character_table(n):
    """Irreducible character values {lam: {rho: int}} for small n.

    Permutation-module characters are fixed-tabloid counts over one class
    representative each; irreducibles are peeled off greedily in decreasing
    lexicographic order, which refines dominance, so the leftover after
    subtracting every previously found character is irreducible.
    """
    classes = {}
    for perm in itertools.permutations(range(n)):
        classes.setdefault(_cycle_type(perm), []).append(perm)
    parts = sorted(partitions_of(n), reverse=True)
    order = factorial(n)

    def inner(f, g):
        total = sum(len(classes[rho]) * f[rho] * g[rho] for rho in parts)
        assert total % order == 0
        return total // order

    chars = {}
    for lam in parts:
        current = {rho: _fixed_tabloid_count(lam, classes[rho][0]) for rho in parts}
        for mu in chars:
            mult = inner(current, chars[mu])
            if mult:
                current = {rho: current[rho] - mult * chars[mu][rho] for rho in parts}
        assert inner(current, current) == 1
        chars[lam] = current
    return chars


@lru_cache(maxsize=None)
def mn_character(lam, rho):
    """chi_lam(rho) by the per-class border-strip recursion over beta-number lists."""
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
        term = mn_character(new_lam[:cut], rest)
        total += -term if height % 2 else term
    return total


def centralizer_order(rho):
    """n! over the number of permutations of cycle type rho.

    The count places the cycles one at a time (choose their m points, then
    one of (m-1)! cyclic orders) and divides out the orders of equal cycles.
    """
    remaining = sum(rho)
    size = 1
    for m in rho:
        size *= comb(remaining, m) * factorial(m - 1)
        remaining -= m
    for mult in Counter(rho).values():
        size //= factorial(mult)
    return factorial(sum(rho)) // size


def check_column_orthogonality(table):
    """Raise ValueError unless the columns of ``table`` are orthogonal.

    Columns rho, sigma must satisfy
    sum_lam chi(lam, rho) * chi(lam, sigma) = centralizer_order(rho) * [rho == sigma].
    """
    parts = table.partitions
    cols = list(zip(*(table.rows[lam] for lam in parts)))
    for i, rho in enumerate(parts):
        for j in range(i, len(parts)):
            got = sum(a * b for a, b in zip(cols[i], cols[j]))
            want = centralizer_order(rho) if i == j else 0
            if got != want:
                raise ValueError(
                    f"column orthogonality fails at ({rho}, {parts[j]}): {got} != {want}"
                )


# Textbook character tables, rows and columns in decreasing lexicographic
# partition order, so the identity class (1,...,1) is the LAST column.
S3_TABLE = {
    (3,): (1, 1, 1),
    (2, 1): (-1, 0, 2),
    (1, 1, 1): (1, -1, 1),
}

S4_TABLE = {
    (4,): (1, 1, 1, 1, 1),
    (3, 1): (-1, 0, -1, 1, 3),
    (2, 2): (0, -1, 2, 0, 2),
    (2, 1, 1): (1, 0, -1, -1, 3),
    (1, 1, 1, 1): (-1, 1, 1, -1, 1),
}
