"""Independent answers for checking snkron's outputs.

Nothing here imports snkron.  Partitions are generated by ascending
compositions, characters by removing rim hooks cell by cell, Schur module
dimensions by the Weyl product formula and the closed forms straight from
the paper's index sets by nested loops over parts.  Every ``check_*``
function returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache
from math import factorial

# The boundary weights of the paper (third tensor factor), in solver order.
T1_GENERATORS = ((1, 1, 1, 1), (2,), (2, 2), (2, 2, 2))
T2_GENERATORS = ((4, 2, 2), (4, 4, 4), (2, 2))

# Largest n for which a Kronecker coefficient is recomputed from characters.
SMALL_N = 12


def trim(parts) -> tuple[int, ...]:
    parts = list(parts)
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, largest first, by ascending compositions."""
    if n == 0:
        return ((),)
    found = []
    a = [0] * (n + 1)
    k = 1
    y = n - 1
    while k:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        last = k + 1
        while x <= y:
            a[k] = x
            a[last] = y
            found.append(tuple(reversed(a[: k + 2])))
            x += 1
            y -= 1
        a[k] = x + y
        y = x + y - 1
        found.append(tuple(reversed(a[: k + 1])))
    return tuple(sorted(found, reverse=True))


def is_partition(p, n: int | None = None) -> bool:
    return (
        isinstance(p, tuple)
        and all(type(x) is int and x > 0 for x in p)
        and all(a >= b for a, b in zip(p, p[1:]))
        and (n is None or sum(p) == n)
    )


def conjugate(lam) -> tuple[int, ...]:
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0))


def hook_dim(lam) -> int:
    """f^lam by the hook length formula."""
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j - 1) + (conj[j] - i - 1) + 1
    return factorial(sum(lam)) // hooks


def weyl_dim(lam, d: int) -> int:
    """Dimension of the GL(d) module of highest weight lam (Weyl's formula)."""
    if len(lam) > d:
        return 0
    w = tuple(lam) + (0,) * (d - len(lam))
    num = den = 1
    for i in range(d):
        for j in range(i + 1, d):
            num *= w[i] - w[j] + j - i
            den *= j - i
    return num // den


def catalan(n: int) -> int:
    return factorial(2 * n) // (factorial(n) * factorial(n + 1))


def centralizer(rho) -> int:
    z = 1
    for part, mult in Counter(rho).items():
        z *= part**mult * factorial(mult)
    return z


def _rim_hooks(lam, k: int):
    """Yield (shape left, leg length) for each rim hook of length k."""
    conj = conjugate(lam)
    for i, row in enumerate(lam):
        for j in range(row):
            leg = conj[j] - i - 1
            if (row - j - 1) + leg + 1 == k:
                end = i + leg
                rest = [lam[r + 1] - 1 for r in range(i, end)] + [j]
                yield trim(lam[:i] + tuple(rest) + lam[end + 1:]), leg


@lru_cache(maxsize=None)
def character(lam, rho) -> int:
    """chi^lam(rho) by the Murnaghan-Nakayama rule on the diagram."""
    if not rho:
        return 1
    return sum(
        (-1) ** leg * character(shape, rho[1:]) for shape, leg in _rim_hooks(lam, rho[0])
    )


def kronecker(lam, mu, nu) -> int:
    n = sum(lam)
    total = sum(
        (factorial(n) // centralizer(rho))
        * character(lam, rho)
        * character(mu, rho)
        * character(nu, rho)
        for rho in partitions(n)
    )
    g, rem = divmod(total, factorial(n))
    if rem:
        raise ArithmeticError(f"class sum for {lam}, {mu}, {nu} is not divisible by {n}!")
    return g


@lru_cache(maxsize=None)
def theorem1_set(n: int) -> frozenset:
    """Constituents of [n,n] (x) [n,n]: even partitions of 2n with at most
    4 parts and all-odd partitions of 2n with exactly 4 parts."""
    out = set()
    for a in range(2 * n, -1, -1):
        for b in range(min(a, 2 * n - a), -1, -1):
            for c in range(min(b, 2 * n - a - b), -1, -1):
                d = 2 * n - a - b - c
                if d > c:
                    break
                nu = trim((a, b, c, d))
                if all(x % 2 == 0 for x in nu) or (d > 0 and all(x % 2 for x in nu)):
                    out.add(nu)
    return frozenset(out)


@lru_cache(maxsize=None)
def theorem2_set(n: int) -> frozenset:
    """Constituents with at most 3 parts of [2n,2n] (x) [n,n,n,n]: 2*lam for
    lam of 2n with at most 3 parts and lam2 + lam3 - lam1 nonnegative, even."""
    out = set()
    for a in range(2 * n + 1):
        for b in range(min(a, 2 * n - a) + 1):
            c = 2 * n - a - b
            if c <= b and b + c - a >= 0 and (b + c - a) % 2 == 0:
                out.add(trim((2 * a, 2 * b, 2 * c)))
    return frozenset(out)


def is_square(lam) -> bool:
    return len(lam) == 2 and lam[0] == lam[1]


def is_theorem2_pair(lam, mu) -> bool:
    return is_square(lam) and len(mu) == 4 and len(set(mu)) == 1 and lam[0] == 2 * mu[0]


def _expected_entries(lam, mu, max_length):
    """Exact entries where the checker can give them, else None."""
    n = sum(lam)
    bound = n if max_length is None else max_length
    if lam == (n,) or mu == (n,):
        other = mu if lam == (n,) else lam
        return {other: 1} if len(other) <= bound else {}
    if lam == (1,) * n or mu == (1,) * n:
        other = conjugate(mu if lam == (1,) * n else lam)
        return {other: 1} if len(other) <= bound else {}
    if lam == mu and is_square(lam):
        return {nu: 1 for nu in theorem1_set(lam[0]) if len(nu) <= bound}
    if n <= SMALL_N:
        return {
            nu: g
            for nu in partitions(n)
            if len(nu) <= bound and (g := kronecker(lam, mu, nu))
        }
    return None


def check_kronecker(lam, mu, nu, g) -> list[str]:
    """One coefficient: sign, length bounds, dimension bound, exact value where known."""
    if type(g) is not int or g < 0:
        return [f"g{lam, mu, nu} = {g!r} is not a nonnegative integer"]
    problems = []
    for a, b, c in ((lam, mu, nu), (mu, nu, lam), (nu, lam, mu)):
        if len(c) > len(a) * len(b) and g:
            problems.append(f"g{lam, mu, nu} = {g} but l({c}) > l({a}) l({b})")
    if g * hook_dim(nu) > hook_dim(lam) * hook_dim(mu):
        problems.append(f"g{lam, mu, nu} = {g} exceeds f^lam f^mu / f^nu")
    expected = _expected_entries(lam, mu, None)
    if expected is not None and expected.get(nu, 0) != g:
        problems.append(f"g{lam, mu, nu} = {g}, expected {expected.get(nu, 0)}")
    return problems


def check_symmetry(lam, mu, nu, values: dict[str, int]) -> list[str]:
    """All of g(lam,mu,nu), its permutations and g(lam',mu',nu) must agree."""
    if len(set(values.values())) > 1:
        return [f"g{lam, mu, nu} not invariant: {values}"]
    return []


def check_decomposition(lam, mu, entries: dict, max_length: int | None = None) -> list[str]:
    """lam (x) mu, optionally restricted to at most ``max_length`` parts."""
    n = sum(lam)
    bound = n if max_length is None else max_length
    problems = []
    for nu, m in entries.items():
        if not is_partition(nu, n) or type(m) is not int or m < 1:
            problems.append(f"bad entry {nu!r}: {m!r}")
        elif len(nu) > bound or len(nu) > len(lam) * len(mu):
            problems.append(f"entry {nu} breaks a length bound")
    if problems:
        return problems
    if max_length is None:
        total = sum(m * hook_dim(nu) for nu, m in entries.items())
        if total != hook_dim(lam) * hook_dim(mu):
            problems.append(f"sum of m f^nu is {total}, not f^lam f^mu")
    if is_theorem2_pair(lam, mu) or is_theorem2_pair(mu, lam):
        rows = {nu: m for nu, m in entries.items() if len(nu) <= 3}
        want = theorem2_set(min(lam[-1], mu[-1]))
        if rows != {nu: 1 for nu in want if len(nu) <= bound}:
            problems.append(f"length-3 part of {lam} (x) {mu} differs from theorem 2")
    expected = _expected_entries(lam, mu, max_length)
    if expected is not None and expected != entries:
        problems.append(f"{lam} (x) {mu} differs from the independent decomposition")
    return problems


def reconstruct(coefficients, generators) -> tuple[int, ...]:
    width = max(len(g) for g in generators)
    total = [0] * width
    for c, gen in zip(coefficients, generators):
        for i, part in enumerate(gen):
            total[i] += c * part
    return trim(total)


def _solve(nu, generators):
    """Some nonnegative combination of the generators equal to nu, or None."""
    if not generators:
        return () if not nu else None
    head, tail = generators[0], generators[1:]
    for c in range(sum(nu) // sum(head) + 1):
        rest = [x - c * g for x, g in zip(nu + (0,) * len(head), head + (0,) * len(nu))]
        if min(rest, default=0) < 0:
            break
        found = _solve(trim(rest), tail)
        if found is not None:
            return (c,) + found
    return None


def check_membership(which: str, nu, coefficients, generators) -> list[str]:
    """A semigroup answer: the combination adds back to nu, or none exists."""
    own = T1_GENERATORS if which == "t1" else T2_GENERATORS
    if tuple(map(tuple, generators)) != own:
        return [f"{which} generators {generators} are not the paper's {own}"]
    if coefficients is None:
        found = _solve(tuple(nu), own)
        return [] if found is None else [f"{nu} reported absent from {which}, but {found} works"]
    if len(coefficients) != len(own) or any(type(c) is not int or c < 0 for c in coefficients):
        return [f"{which} coefficients {coefficients} for {nu} are not nonnegative integers"]
    if reconstruct(coefficients, own) != tuple(nu):
        return [f"{which} combination {coefficients} does not add back to {nu}"]
    return []


def check_closed_step(theorem: int, n: int, step: dict) -> list[str]:
    """One closed-form step: entries, dimension sum and every membership."""
    entries = {tuple(nu): m for nu, m in step["entries"]}
    want = theorem1_set(n) if theorem == 1 else theorem2_set(n)
    problems = []
    if entries != {nu: 1 for nu in want}:
        problems.append(f"theorem {theorem} n={n}: constituents differ from the index set")
    dims = catalan(n) ** 2 if theorem == 1 else sum(hook_dim(nu) for nu in want)
    if step["dimension_sum"] != dims:
        problems.append(f"theorem {theorem} n={n}: dimension sum {step['dimension_sum']} != {dims}")
    which = "t1" if theorem == 1 else "t2"
    for (nu, _), coefficients in zip(step["entries"], step["memberships"]):
        if coefficients is None:
            problems.append(f"{nu} is a constituent but not in the {which} semigroup")
        else:
            problems += check_membership(which, tuple(nu), coefficients, step["generators"])
    return problems


def check_verify(theorem: int, n_max: int, returncode: int, lines: list[str], stderr: str) -> int:
    """Number of the n_max verify cases that did not come back as pass."""
    want = [f"theorem={theorem} n={n} pass" for n in range(1, n_max + 1)]
    bad = sum(1 for i, line in enumerate(want) if i >= len(lines) or lines[i] != line)
    if bad == 0 and (returncode != 0 or len(lines) != n_max or "Traceback" in stderr):
        bad = 1
    return bad


def check_cli(argv: list[str], expect: dict, returncode: int, stdout: str, stderr: str) -> list[str]:
    """The CLI contract: documented exit code, no traceback, one JSON record."""
    problems = []
    if "Traceback" in stderr:
        problems.append(f"{argv}: traceback on stderr")
    if returncode != expect["rc"]:
        problems.append(f"{argv}: exit {returncode}, expected {expect['rc']}")
    if problems:
        return problems
    if returncode != 0:
        return [] if "error" in stderr and not stdout else [f"{argv}: exit {returncode} without a clean error"]
    lines = stdout.splitlines()
    try:
        record = json.loads(lines[0]) if len(lines) == 1 else None
    except ValueError:
        record = None
    if not isinstance(record, dict) or record.get("command") != expect["command"]:
        return [f"{argv}: stdout is not one {expect['command']} record"]
    kind = expect["command"]
    if kind == "tensor":
        entries = {tuple(e["partition"]): e["mult"] for e in record.get("entries", [])}
        lam, mu, bound = expect["pair"]
        problems += check_decomposition(lam, mu, entries, bound)
        if expect.get("both") and record.get("modes_agree") is not True:
            problems.append(f"{argv}: modes_agree is {record.get('modes_agree')!r}")
    elif kind == "semigroup":
        result = record.get("result", {})
        coefficients = result.get("coefficients")
        if result.get("member") is not (coefficients is not None):
            problems.append(f"{argv}: member flag disagrees with coefficients")
        problems += check_membership(expect["which"], expect["nu"], coefficients, result.get("generators", ()))
    elif kind == "kron":
        problems += check_kronecker(*expect["triple"], record.get("result"))
    elif kind == "chartable":
        problems += check_chartable(expect["n"], record.get("result", {}))
    elif record.get("result") != expect["result"]:
        problems.append(f"{argv}: result {record.get('result')!r}, expected {expect['result']!r}")
    return problems


def check_chartable(n: int, result: dict) -> list[str]:
    classes = [tuple(rho) for rho in result.get("classes", [])]
    if classes != list(partitions(n)):
        return [f"chartable {n}: classes are not the partitions of {n}"]
    if result.get("centralizer_orders") != [centralizer(rho) for rho in classes]:
        return [f"chartable {n}: wrong centralizer orders"]
    rows = {tuple(r["partition"]): r["values"] for r in result.get("characters", [])}
    want = {lam: [character(lam, rho) for rho in classes] for lam in classes}
    return [] if rows == want else [f"chartable {n}: character values differ"]
