"""Batch command-line access to every operation of the library.

Stdout has two shapes.  verify streams one plain pass/fail line per case.
Every other command returns its exit code and payload ("inputs", then
"result", or "entries" for decompositions), and ``main`` alone writes one
JSON record around it: "command" first, "time_ms" last unless --no-timing
is given.  Identical invocations produce byte-identical output once timing
is suppressed.

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

from .characters import character_table, class_sizes
from .closed_forms import closed_form
from .kronecker import kronecker, tensor_decompose
from .partitions import (
    Decomposition, format_partition, hook_dimension, parse_partition, schur_dimension,
)
from .weights import T1_W_GENERATORS, T2_W_GENERATORS, membership_t1, membership_t2

__all__ = ["main"]


def _emit(args: argparse.Namespace, payload: dict, started: float) -> None:
    record = {"command": args.command, **payload}
    if not args.no_timing:
        record["time_ms"] = int((time.monotonic() - started) * 1000)
    # Exact results such as f^(8000,8000) pass the interpreter's int-to-str
    # digit limit (Python >= 3.10.7).  Lift it only while the record is
    # written, so input parsing and in-process callers keep theirs.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(record)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    print(text)


def _decomposition_diff(oracle: Decomposition, closed: Decomposition) -> dict:
    """Machine-readable difference between the two decompositions."""
    diff = {"oracle_only": [], "closed_only": [], "multiplicity_mismatch": []}
    for nu in sorted(oracle.entries.keys() | closed.entries.keys(), reverse=True):
        in_oracle, in_closed = oracle.entries.get(nu), closed.entries.get(nu)
        if in_closed is None:
            diff["oracle_only"].append({"partition": list(nu), "mult": in_oracle})
        elif in_oracle is None:
            diff["closed_only"].append({"partition": list(nu), "mult": in_closed})
        elif in_oracle != in_closed:
            diff["multiplicity_mismatch"].append(
                {"partition": list(nu), "oracle": in_oracle, "closed": in_closed}
            )
    return diff


def cmd_kron(args: argparse.Namespace) -> tuple[int, dict | None]:
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    nu = parse_partition(args.nu)
    return 0, {
        "inputs": {"partitions": [list(lam), list(mu), list(nu)]},
        "result": kronecker(lam, mu, nu),
    }


def cmd_tensor(args: argparse.Namespace) -> tuple[int, dict | None]:
    lam = parse_partition(args.left)
    mu = parse_partition(args.right)
    bound = args.max_length
    payload = {
        "inputs": {
            "left": list(lam),
            "right": list(mu),
            "max_length": bound,
            "mode": args.mode,
        },
    }
    closed = None
    if args.mode == "both":
        # The oracle's cap is met before any closed form is built.
        class_sizes(sum(lam))
    if args.mode != "oracle":
        closed = closed_form(lam, mu, bound)
        if closed is None:
            given = "no length bound" if bound is None else f"--max-length {bound}"
            print(
                f"error: no closed form covers {format_partition(lam)} (x) "
                f"{format_partition(mu)} with {given}",
                file=sys.stderr,
            )
            return 3, None
    dec = closed if args.mode == "closed" else tensor_decompose(lam, mu, bound)
    payload["entries"] = [{"partition": list(nu), "mult": m} for nu, m in dec.entries.items()]
    if args.mode == "both":
        payload["modes_agree"] = agree = dec == closed
        if not agree:
            payload["diff"] = _decomposition_diff(dec, closed)
            return 1, payload
    return 0, payload


def cmd_verify(args: argparse.Namespace) -> tuple[int, dict | None]:
    if args.n_max < 0:
        raise ValueError(f"n-max must be nonnegative, got {args.n_max}")

    def case(n: int) -> tuple:
        if args.theorem == 1:
            return (n, n), (n, n), None
        return (2 * n, 2 * n), (n, n, n, n), 3

    if args.n_max:
        # The largest case meets the cap before any line is printed.
        class_sizes(sum(case(args.n_max)[0]))
    all_ok = True
    for n in range(1, args.n_max + 1):
        lam, mu, bound = case(n)
        ok = closed_form(lam, mu, bound) == tensor_decompose(lam, mu, bound)
        print(f"theorem={args.theorem} n={n} {'pass' if ok else 'FAIL'}")
        all_ok = all_ok and ok
    return (0 if all_ok else 1), None


def cmd_chartable(args: argparse.Namespace) -> tuple[int, dict | None]:
    table = character_table(args.n)
    return 0, {
        "inputs": {"n": args.n},
        "result": {
            "classes": [list(rho) for rho in table.partitions],
            "centralizer_orders": [factorial(args.n) // size for size in class_sizes(args.n)],
            "characters": [
                {"partition": list(lam), "values": list(table.rows[lam])}
                for lam in table.partitions
            ],
        },
    }


def cmd_dim(args: argparse.Namespace) -> tuple[int, dict | None]:
    lam = parse_partition(args.partition)
    if args.gl is not None:
        result = schur_dimension(lam, args.gl)
    else:
        result = hook_dimension(lam)
    return 0, {"inputs": {"partition": list(lam), "gl": args.gl}, "result": result}


_SEMIGROUPS = {"t1": (membership_t1, T1_W_GENERATORS), "t2": (membership_t2, T2_W_GENERATORS)}


def cmd_semigroup(args: argparse.Namespace) -> tuple[int, dict | None]:
    lam = parse_partition(args.partition)
    membership, generators = _SEMIGROUPS[args.which]
    combo = membership(lam)
    return 0, {
        "inputs": {"which": args.which, "partition": list(lam)},
        "result": {
            "member": combo is not None,
            "coefficients": list(combo.coefficients) if combo is not None else None,
            "generators": [list(g) for g in generators],
        },
    }


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
    p.set_defaults(func=cmd_chartable)

    p = sub.add_parser("dim", help="irreducible dimension, or GL Schur module dimension")
    p.add_argument("partition", help="partition")
    p.add_argument("--gl", type=int, default=None, metavar="D", help="dimension of the GL space")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("semigroup", help="solve a weight over the boundary generators")
    p.add_argument("which", choices=list(_SEMIGROUPS))
    p.add_argument("partition", help="partition")
    p.set_defaults(func=cmd_semigroup)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        code, payload = args.func(args)
        if payload is not None:
            _emit(args, payload, started)
        sys.stdout.flush()
        return code
    except (ValueError, OverflowError) as exc:  # overflow: a size past sys.maxsize
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader is gone; send what is still buffered nowhere, so the
        # flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
