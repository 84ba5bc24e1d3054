"""Closed-form tensor decompositions for two-row rectangle shapes.

Each theorem's index set, stated in its generator's docstring, is emitted
by nested ``range`` loops, largest part first, so the entries come out in
decreasing lexicographic order: nothing is enumerated, filtered, sorted or
merged, and a decomposition costs only the constituents it returns.
``closed_form(lam, mu, max_length)`` is the one place that decides which
pairs of shapes, under which length bound, a theorem covers.  This route
imports only ``partitions``, so it loads and runs with no character code.
"""

from __future__ import annotations

from .partitions import Decomposition, Partition, _length_bound, _same_size, check_partition

__all__ = [
    "closed_form",
    "theorem1_decomposition",
    "theorem2_decomposition",
]

# Theorem 1 at this width, the slowest admitted call, takes 1.2-1.4 s on the command line
# (2 vCPUs, Python 3.11): 285 706 constituents, most of it writing their JSON.
_WIDTH_BOUND = 270


def _check_width(n: int) -> None:
    if not 0 <= n <= _WIDTH_BOUND:
        raise ValueError(f"rectangle width must be nonnegative, within the closed-form bound of {_WIDTH_BOUND}, got {n}")


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
    lam, mu, n = _same_size(lam, mu)
    _length_bound(max_length)
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

    Entries are the partitions (a,b,c,d) of 2n with at most 4 parts, zeros
    padded and dropped again, whose parts share one parity: a = b = c
    (mod 2) forces d = a (mod 2), so these are the even partitions with at
    most 4 parts and the all-odd ones with exactly 4.  They are emitted in
    decreasing lexicographic order; no other partition is looked at.
    Raises ValueError unless 0 <= n <= 270.
    """
    _check_width(n)
    entries: dict[Partition, int] = {(2 * n,) if n else (): 1}
    # (2n) is put first.  Then a >= 2n/4; b in [rest/3, min(a, rest)] and c in
    # [s/2, min(b, s)], both of a's parity, which rest = 2n - a shares, so
    # s = rest - b is even.
    for a in range(2 * n - 1, (n - 1) // 2, -1):
        rest = 2 * n - a
        for b in range(min(a, rest), (rest - 1) // 3, -2):
            s = rest - b
            top = b if b < s else s - (a & 1)
            if top == s:  # c = s and d = 0 first, zeros dropped
                entries[(a, b, s) if s else (a, b)] = 1
                top -= 2
            for c in range(top, s // 2 - 1, -2):
                entries[a, b, c, s - c] = 1
    return Decomposition(2 * n, entries)


def theorem2_decomposition(n: int) -> Decomposition:
    """Multiplicity-free length-3 sub-sum of (2n,2n) (x) (n,n,n,n).

    Entries are the doubled partitions 2*lam over lam of 2n with at most
    3 parts and lam_1 <= n, in decreasing lexicographic order; the paper's
    condition that lam_2 + lam_3 - lam_1 = 2n - 2*lam_1 be nonnegative and
    even says exactly lam_1 <= n.  Only lam_1 = lam_2 = n leaves a zero part.
    Raises ValueError unless 0 <= n <= 270.
    """
    _check_width(n)
    entries: dict[Partition, int] = {(2 * n, 2 * n) if n else (): 1}
    # Doubled parts: a = 2*lam_1 in [4n/3, 2n] and b = 2*lam_2 in
    # [rest/2, min(a, rest - 2)]; b = rest, a zero third part, is put first.
    for a in range(2 * n, 2 * ((2 * n + 2) // 3) - 1, -2):
        rest = 4 * n - a
        for b in range(min(a, rest - 2), rest // 2 - 1, -2):
            entries[a, b, rest - b] = 1
    return Decomposition(4 * n, entries)
