"""Batch command-line access to every operation of the library.

Each command prints one JSON record to stdout with keys "command",
"inputs", the result payload ("result", or "entries" for decompositions),
and "time_ms" unless --no-timing is given; the verify command instead
prints one plain pass/fail line per case.  Identical invocations produce
byte-identical output once timing is suppressed.

Exit codes: 0 success, 1 verification mismatch, 2 usage, input or output
error (including a reader that closes stdout early), 3 closed form
unavailable for the requested shape.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from math import factorial

from . import closed_forms
from .characters import DEFAULT_CAP, character_table, class_sizes
from .kronecker import Decomposition, kronecker, tensor_decompose
from .partitions import (
    Partition,
    format_partition,
    hook_dimension,
    parse_partition,
    schur_dimension,
)
from .weights import T1_W_GENERATORS, T2_W_GENERATORS, membership_t1, membership_t2

__all__ = ["main"]


def _entries_payload(dec: Decomposition) -> list[dict]:
    return [{"partition": list(nu), "mult": m} for nu, m in dec.sorted_entries()]


def _emit(args: argparse.Namespace, record: dict, started: float) -> None:
    if not args.no_timing:
        record["time_ms"] = int((time.monotonic() - started) * 1000)
    print(json.dumps(record))


def _decomposition_diff(oracle: Decomposition, closed: Decomposition) -> dict:
    """Machine-readable difference between the two decompositions."""
    oracle_only = sorted(set(oracle.entries) - set(closed.entries), reverse=True)
    closed_only = sorted(set(closed.entries) - set(oracle.entries), reverse=True)
    mismatched = sorted(
        (nu for nu in set(oracle.entries) & set(closed.entries)
         if oracle.entries[nu] != closed.entries[nu]),
        reverse=True,
    )
    return {
        "oracle_only": [{"partition": list(nu), "mult": oracle.entries[nu]} for nu in oracle_only],
        "closed_only": [{"partition": list(nu), "mult": closed.entries[nu]} for nu in closed_only],
        "multiplicity_mismatch": [
            {"partition": list(nu), "oracle": oracle.entries[nu], "closed": closed.entries[nu]}
            for nu in mismatched
        ],
    }


def _closed_decomposition(
    lam: Partition, mu: Partition, max_length: int | None
) -> Decomposition | None:
    """Closed form for the covered rectangle shapes, or None when uncovered."""
    if lam == mu and len(lam) in (0, 2) and (not lam or lam[0] == lam[1]):
        dec = closed_forms.theorem1_decomposition(lam[0] if lam else 0)
        return dec if max_length is None else dec.restrict_length(max_length)
    pair = (lam, mu)
    two = next((p for p in pair if len(p) == 2), None)
    four = next((p for p in pair if len(p) == 4), None)
    if (
        two is not None
        and four is not None
        and two[0] == two[1]
        and len(set(four)) == 1
        and two[0] == 2 * four[0]
        and max_length is not None
        and max_length <= 3
    ):
        dec = closed_forms.theorem2_decomposition(four[0])
        return dec if max_length == 3 else dec.restrict_length(max_length)
    return None


def cmd_kron(args: argparse.Namespace, started: float) -> int:
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    nu = parse_partition(args.nu)
    value = kronecker(lam, mu, nu)
    record = {
        "command": "kron",
        "inputs": {"partitions": [list(lam), list(mu), list(nu)]},
        "result": value,
    }
    _emit(args, record, started)
    return 0


def cmd_tensor(args: argparse.Namespace, started: float) -> int:
    lam = parse_partition(args.left)
    mu = parse_partition(args.right)
    if sum(lam) != sum(mu):
        raise ValueError(f"partition sizes differ: {sum(lam)} vs {sum(mu)}")
    bound = args.max_length
    if bound is not None and bound < 1:
        raise ValueError(f"length bound must be positive, got {bound}")
    record = {
        "command": "tensor",
        "inputs": {
            "left": list(lam),
            "right": list(mu),
            "max_length": bound,
            "mode": args.mode,
        },
    }
    closed = None
    if args.mode in ("closed", "both"):
        closed = _closed_decomposition(lam, mu, bound)
        if closed is None:
            print(
                f"error: no closed form covers {format_partition(lam)} (x) "
                f"{format_partition(mu)} with this length bound",
                file=sys.stderr,
            )
            return 3
    if args.mode == "closed":
        record["entries"] = _entries_payload(closed)
        _emit(args, record, started)
        return 0
    oracle = tensor_decompose(lam, mu, bound)
    record["entries"] = _entries_payload(oracle)
    if args.mode == "both":
        agree = oracle == closed
        record["modes_agree"] = agree
        if not agree:
            record["diff"] = _decomposition_diff(oracle, closed)
            _emit(args, record, started)
            return 1
    _emit(args, record, started)
    return 0


def cmd_verify(args: argparse.Namespace, started: float) -> int:
    if args.n_max < 0:
        raise ValueError(f"n-max must be nonnegative, got {args.n_max}")
    scale = 2 if args.theorem == 1 else 4
    if scale * args.n_max > DEFAULT_CAP:
        raise ValueError(
            f"n-max {args.n_max} needs characters of S_{scale * args.n_max}, "
            f"past the cap {DEFAULT_CAP}"
        )
    all_ok = True
    for n in range(1, args.n_max + 1):
        if args.theorem == 1:
            ok = closed_forms.theorem1_decomposition(n) == tensor_decompose((n, n), (n, n))
        else:
            ok = closed_forms.theorem2_decomposition(n) == tensor_decompose(
                (2 * n, 2 * n), (n, n, n, n), 3
            )
        print(f"theorem={args.theorem} n={n} {'pass' if ok else 'FAIL'}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def cmd_chartable(args: argparse.Namespace, started: float) -> int:
    table = character_table(args.n)
    if args.format == "tsv":
        for lam in table.partitions:
            for rho, value in zip(table.partitions, table.rows[lam]):
                print(f"{format_partition(lam)}\t{format_partition(rho)}\t{value}")
        return 0
    record = {
        "command": "chartable",
        "inputs": {"n": args.n, "format": args.format},
        "result": {
            "classes": [list(rho) for rho in table.partitions],
            "centralizer_orders": [factorial(args.n) // size for size in class_sizes(args.n)],
            "characters": [
                {"partition": list(lam), "values": list(table.rows[lam])}
                for lam in table.partitions
            ],
        },
    }
    _emit(args, record, started)
    return 0


def cmd_dim(args: argparse.Namespace, started: float) -> int:
    lam = parse_partition(args.partition)
    if args.gl is not None:
        result = schur_dimension(lam, args.gl)
    else:
        result = hook_dimension(lam)
    record = {
        "command": "dim",
        "inputs": {"partition": list(lam), "gl": args.gl},
        "result": result,
    }
    _emit(args, record, started)
    return 0


def cmd_semigroup(args: argparse.Namespace, started: float) -> int:
    lam = parse_partition(args.partition)
    if args.which == "t1":
        combo = membership_t1(lam)
        generators = T1_W_GENERATORS
    else:
        combo = membership_t2(lam)
        generators = T2_W_GENERATORS
    record = {
        "command": "semigroup",
        "inputs": {"which": args.which, "partition": list(lam)},
        "result": {
            "member": combo is not None,
            "coefficients": list(combo.coefficients) if combo is not None else None,
            "generators": [list(g) for g in generators],
        },
    }
    _emit(args, record, started)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snkron",
        description="Exact Kronecker coefficients of symmetric groups, "
        "with closed forms for two-row rectangle shapes.",
    )
    parser.add_argument(
        "--no-timing",
        action="store_true",
        help="omit the time_ms field so outputs are byte-comparable",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kron", help="Kronecker coefficient of three partitions")
    p.add_argument("lam", help="partition, comma-separated parts (0 = empty)")
    p.add_argument("mu", help="partition")
    p.add_argument("nu", help="partition")
    p.set_defaults(func=cmd_kron)

    p = sub.add_parser("tensor", help="decompose a tensor product of irreducibles")
    p.add_argument("left", help="partition")
    p.add_argument("right", help="partition")
    p.add_argument(
        "--max-length",
        type=int,
        default=None,
        help="keep only constituents with at most this many parts",
    )
    p.add_argument(
        "--mode",
        choices=["oracle", "closed", "both"],
        default="oracle",
        help="character oracle, closed form, or cross-check of the two",
    )
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("verify", help="run the closed form vs oracle equivalence suite")
    p.add_argument("--theorem", type=int, choices=[1, 2], required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("chartable", help="print a full character table")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=["tsv", "json"], default="json")
    p.set_defaults(func=cmd_chartable)

    p = sub.add_parser("dim", help="irreducible dimension, or GL Schur module dimension")
    p.add_argument("partition", help="partition")
    p.add_argument("--gl", type=int, default=None, metavar="D", help="dimension of the GL space")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("semigroup", help="solve a weight over the boundary generators")
    p.add_argument("which", choices=["t1", "t2"])
    p.add_argument("partition", help="partition")
    p.set_defaults(func=cmd_semigroup)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        code = args.func(args, started)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader is gone; send what is still buffered nowhere, so the
        # flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
