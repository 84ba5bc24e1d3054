"""The benchmark's child processes, each started fresh by run.py.

    child.py cli TRACE_FILE ARGV...   snkron's CLI in-process, traced
    child.py closed N_MAX [TRACE_FILE]   one closed-form round, JSON on stdout
    child.py setup N...               import snkron and build tables, print seconds

A traced child writes its counter bucket and spans to TRACE_FILE on exit.
"""

from __future__ import annotations

import json
import sys
import time


def _tracer(trace_file: str | None):
    if not trace_file:
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _dump(tracer, trace_file: str | None, **more) -> None:
    if tracer is not None:
        with open(trace_file, "w") as handle:
            json.dump({"bucket": tracer.bucket(), "spans": tracer.spans, **more}, handle)


def run_cli(trace_file: str, argv: list[str]) -> int:
    import snkron.cli

    tracer = _tracer(trace_file)
    try:
        return snkron.cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        _dump(tracer, trace_file)


def run_closed(n_max: int, trace_file: str | None) -> int:
    import snkron

    tracer = _tracer(trace_file)
    steps, latencies = [], []
    start = time.perf_counter()
    for n in range(1, n_max + 1):
        for theorem, decompose, member in (
            (1, "theorem1_decomposition", "membership_t1"),
            (2, "theorem2_decomposition", "membership_t2"),
        ):
            began = time.perf_counter()
            dec = getattr(snkron, decompose)(n)
            dims = dec.dimension_sum()
            combos = [getattr(snkron, member)(nu) for nu in dec.entries]
            latencies.append(time.perf_counter() - began)
            steps.append((theorem, n, dec, dims, combos))
    round_s = time.perf_counter() - start
    _dump(tracer, trace_file)
    out = []
    for theorem, n, dec, dims, combos in steps:
        gens = next((c.generators for c in combos if c is not None), ())
        out.append({
            "theorem": theorem,
            "n": n,
            "entries": [[list(nu), m] for nu, m in dec.entries.items()],
            "dimension_sum": dims,
            "memberships": [None if c is None else list(c.coefficients) for c in combos],
            "generators": [list(g) for g in gens],
        })
    json.dump({"round_s": round_s, "latencies": latencies, "steps": out}, sys.stdout)
    return 0


def run_setup(sizes: list[int]) -> int:
    start = time.perf_counter()
    import snkron

    for n in sizes:
        snkron.character_table(n)
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        sys.exit(run_cli(rest[0], rest[1:]))
    elif mode == "closed":
        sys.exit(run_closed(int(rest[0]), rest[1] if len(rest) > 1 else None))
    elif mode == "setup":
        sys.exit(run_setup([int(x) for x in rest]))
    sys.exit(f"unknown mode {mode!r}")
