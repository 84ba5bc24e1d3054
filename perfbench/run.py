"""Benchmark for snkron: four workloads, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the root of a snkron checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  Every output is checked by ``checker.py``, which
shares no code with snkron; a failed check counts as a failed operation.
End-to-end times are scaled by the machine's speed at the moment, read off
a fixed reference computation timed between rounds (see ``Speed``).
Results and traces are also written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import select
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checker
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = str(HERE / "child.py")
PY = sys.executable
# Children import the checkout's snkron, report their peak memory (hwm/) and
# write output as they go, as on a terminal.
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(HERE / "hwm")]), "PYTHONUNBUFFERED": "1"}
CHILD_TIMEOUT_S = 150
# Fresh interpreters started to time start-up: this many before the first
# round, and START_EVERY_ROUND after each round, so that drift on the machine
# during the run reaches the median too.
STARTS = 16
START_EVERY_ROUND = 2
# One call of the reference computation (see Speed) took about this long on
# the 2-vCPU guest the bounds were set on; scaled times are times on a
# machine on which it takes exactly this long.
REFERENCE_S = 0.02
REFERENCE_CALLS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
COUNT_UNITS = {
    "kronecker.nonzero_ratio": "ratio",
    "cli.stdout_bytes": "bytes",
}


@dataclass
class Round:
    """One round: its wall time, per-operation latencies and trace buckets."""

    wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    buckets: list[dict] = field(default_factory=list)
    spans: list = field(default_factory=list)
    stdout_bytes: int = 0
    rss_mb: float = 0.0
    mark: int = 0  # the Speed interval the round ran in

    def op(self, took: float, problems: list[str]) -> None:
        """Record one operation; ``problems`` is its checker verdict."""
        self.latencies.append(took)
        self.attempted += 1
        if problems:
            self.failed += 1
            note(problems)


def note(problems) -> None:
    print(f"check failed: {problems}", file=sys.stderr)


@dataclass
class Child:
    """A finished child process: its output, wall time and own peak memory."""

    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float
    stamps: list[float]  # when each stdout line arrived, from the start


def reference() -> int:
    """Fixed pure-Python work like snkron's: partitions, hook products and
    a memo of tuple keys."""
    total = sum(checker.hook_dim(lam) for lam in checker.partitions.__wrapped__(20))
    memo = {}
    shapes = checker.partitions.__wrapped__(22)
    for lam in shapes:
        for k in range(len(lam)):
            memo[lam[k:], lam[:k]] = k
    return total + sum(memo.get((lam[1:], lam[:1]), 0) for lam in shapes)


class Speed:
    """The machine's speed, sampled between the timed parts of a run.

    The guest this benchmark runs on is shared: from one second to the next
    and over minutes, all code on it runs up to 1.8 times slower or faster.
    A sample is the median time of REFERENCE_CALLS calls of ``reference``.
    Work timed between two samples is scaled by REFERENCE_S over their mean,
    which gives its time on a machine on which one call takes REFERENCE_S.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.tick()

    def tick(self) -> None:
        times = []
        for _ in range(REFERENCE_CALLS):
            began = time.perf_counter()
            reference()
            times.append(time.perf_counter() - began)
        self.samples.append(statistics.median(times))

    def mark(self) -> int:
        """The interval that work timed from now until the next tick falls in."""
        return len(self.samples) - 1

    def scale(self, mark: int) -> float:
        return REFERENCE_S / statistics.mean(self.samples[mark:mark + 2])


def peak_rss_mb(status: str = "/proc/self/status") -> float:
    with open(status) as handle:
        return next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:")) / 1024


def spawn(cmd: list[str]) -> Child:
    """Run one child to its end, stamping stdout lines as they arrive.

    The child is killed if it outlives CHILD_TIMEOUT_S.
    """
    began = time.perf_counter()
    deadline = began + CHILD_TIMEOUT_S
    chunks, stamps = [], []
    hwm = OUT / f"hwm-{os.getpid()}.txt"
    hwm.unlink(missing_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as err:
        proc = subprocess.Popen(cmd, env={**ENV, "PERFBENCH_HWM_FILE": str(hwm)},
                                stdout=subprocess.PIPE, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            fd = proc.stdout.fileno()
            while select.select([fd], [], [], max(0.0, deadline - time.perf_counter()))[0]:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
                stamps += [time.perf_counter() - began] * chunk.count(b"\n")
            if not select.select([pidfd], [], [], max(0.0, deadline - time.perf_counter()))[0]:
                proc.kill()
        except BaseException:
            proc.kill()
            raise
        finally:
            os.close(pidfd)
            _, status = os.waitpid(proc.pid, 0)
            wall_s = time.perf_counter() - began
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    stdout = b"".join(chunks).decode(errors="replace")
    rss_mb = int(hwm.read_text()) / 1024 if hwm.is_file() else 0.0
    hwm.unlink(missing_ok=True)
    return Child(proc.returncode, stdout, stderr, wall_s, rss_mb, stamps)


def median_starts(*codes: str) -> list[float]:
    """Median wall time of a fresh interpreter running each of ``codes``;
    the codes take turns, so drift on the machine hits each alike."""
    times = [[] for _ in codes]
    for _ in range(STARTS):
        for code, samples in zip(codes, times):
            samples.append(spawn([PY, "-c", code]).wall_s)
    return [statistics.median(samples) for samples in times]


def run_cli(argv: list[str], trace_file: Path | None) -> Child:
    """One snkron process, or the traced equivalent."""
    if trace_file is None:
        return spawn([PY, "-m", "snkron", *argv])
    return spawn([PY, CHILD, "cli", str(trace_file), *argv])


def read_trace(path: Path, rnd: Round) -> None:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return
    finally:
        path.unlink(missing_ok=True)
    rnd.buckets.append(data["bucket"])
    rnd.spans += data["spans"]


class ProcessWorkload:
    """Base for workloads whose rounds run in fresh snkron processes.

    A round of several children is timed as the sum of their wall times, so
    the checks that run between children stay out of it; ``Closed`` times
    its one child's round inside the child."""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, trace: bool, speed: Speed) -> None:
        self.starts = []
        if not trace:
            for _ in range(STARTS // START_EVERY_ROUND):
                self.between_rounds(speed)
                speed.tick()

    def between_rounds(self, speed: Speed) -> None:
        mark = speed.mark()
        self.starts += [(spawn([PY, "-c", "import snkron.cli"]).wall_s, mark) for _ in range(START_EVERY_ROUND)]

    def setup_s(self, speed: Speed) -> float:
        """Median time for a fresh interpreter to import snkron.cli."""
        return statistics.median(took * speed.scale(mark) for took, mark in self.starts)

    def peak_rss_mb(self, rounds: list[Round]) -> float:
        return statistics.median(rnd.rss_mb for rnd in rounds)

    def trace_file(self, traced: bool) -> Path | None:
        return OUT / f"span-{os.getpid()}.json" if traced else None


class Verify(ProcessWorkload):
    """Theorem 1 to S_18 and theorem 2 to S_16, each in a fresh `snkron verify`."""

    name = "verify"
    tail_pct = 80

    def __init__(self, seed: int, cases=((1, 9), (2, 4))):
        super().__init__(seed)
        self.cases = cases
        self.ops_per_round = sum(n for _, n in cases)

    def round(self, r: int, traced: bool) -> Round:
        rnd = Round()
        for theorem, n_max in self.cases:
            argv = ["verify", "--theorem", str(theorem), "--n-max", str(n_max)]
            path = self.trace_file(traced)
            done = run_cli(argv, path)
            rnd.wall_s += done.wall_s
            if traced:
                read_trace(path, rnd)
            rnd.stdout_bytes += len(done.stdout.encode())
            rnd.rss_mb = max(rnd.rss_mb, done.rss_mb)
            bad = checker.check_verify(theorem, n_max, done.returncode, done.stdout.splitlines(), done.stderr)
            if bad:
                note(f"verify theorem {theorem}: {bad} bad cases, exit {done.returncode}, {done.stderr[-300:]}")
            # One operation per verified case, timed from the previous line.
            stamps = done.stamps[:n_max] + [done.wall_s] * (n_max - len(done.stamps))
            rnd.latencies += [b - a for a, b in zip([0.0] + stamps, stamps)]
            rnd.attempted += n_max
            rnd.failed += bad
        if traced:
            rnd.latencies = []
        return rnd


class Closed(ProcessWorkload):
    """Both closed forms for n = 1..N_MAX, memberships and dimension sums, cold."""

    name = "closed"
    tail_pct = 95

    def __init__(self, seed: int, n_max: int = 40):
        super().__init__(seed)
        self.n_max = n_max
        self.ops_per_round = 2 * n_max

    def round(self, r: int, traced: bool) -> Round:
        rnd = Round()
        path = self.trace_file(traced)
        done = spawn([PY, CHILD, "closed", str(self.n_max)] + ([str(path)] if traced else []))
        rnd.rss_mb = done.rss_mb
        try:
            data = json.loads(done.stdout) if done.returncode == 0 else None
        except ValueError:
            data = None
        if traced:
            read_trace(path, rnd)
        if data is None:
            note(f"closed round {r} did not finish")
            rnd.attempted = rnd.failed = self.ops_per_round
            rnd.latencies = [0.0] * self.ops_per_round
            return rnd
        rnd.wall_s = data["round_s"]
        for took, step in zip(data["latencies"], data["steps"]):
            rnd.op(took, checker.check_closed_step(step["theorem"], step["n"], step))
        missing = self.ops_per_round - len(data["steps"])
        rnd.attempted += missing
        rnd.failed += missing
        return rnd


def paper_shapes(n: int) -> list[tuple[int, ...]]:
    """Partitions of n with at most 2 rows, and rectangles."""
    two_rows = {checker.trim((n - k, k)) for k in range(n // 2 + 1)}
    rectangles = {(n // b,) * b for b in range(1, n + 1) if n % b == 0}
    return sorted(two_rows | rectangles, reverse=True)


def paper_pair(rng: random.Random, n: int):
    shapes = paper_shapes(n)
    return rng.choice(shapes), rng.choice(shapes)


def uniform_pair(rng: random.Random, n: int):
    parts = checker.partitions(n)
    return rng.choice(parts), rng.choice(parts)


class Queries:
    """One warm process: seeded coefficient and decomposition queries at S_16..S_20."""

    name = "queries"
    tail_pct = 99.5

    def __init__(self, seed: int, sizes=(16, 18, 20), kron_per_n: int = 48, dec_per_n: int = 2):
        self.seed = seed
        self.sizes = sizes
        self.kron_per_n = kron_per_n
        self.dec_per_n = dec_per_n
        self.ops_per_round = len(sizes) * (kron_per_n + dec_per_n)
        self.tracer = None
        self.setup_bucket = None
        self.length_zero = [0, 0]  # paper-shape triples killed by the length bound, of all

    def setup(self, trace: bool, speed: Speed) -> None:
        """Import snkron and build the tables, here in the process that queries them."""
        began = time.perf_counter()
        import snkron

        if trace:
            self.tracer = tracing.Tracer()
            self.tracer.install()
        for n in self.sizes:
            snkron.character_table(n)
        self.here_s = (time.perf_counter() - began, speed.mark())
        speed.tick()
        if trace:
            self.tracer.uninstall()
            self.setup_bucket = self.tracer.bucket()

    def between_rounds(self, speed: Speed) -> None:
        pass

    def setup_s(self, speed: Speed) -> float:
        """Median of this process's set-up and of the same set-up in two fresh ones."""
        times = [self.here_s]
        for _ in range(2):
            times.append((float(spawn([PY, CHILD, "setup", *map(str, self.sizes)]).stdout), speed.mark()))
            speed.tick()
        return statistics.median(took * speed.scale(mark) for took, mark in times)

    def draw(self, r: int) -> list[tuple]:
        """Round r's queries: half uniform, half in the paper's shapes."""
        rng = random.Random(f"{self.seed}:queries:{r}")
        queries = []
        for n in self.sizes:
            for i in range(self.kron_per_n):
                lam, mu = (uniform_pair if i % 2 else paper_pair)(rng, n)
                queries.append(("kron", lam, mu, rng.choice(checker.partitions(n))))
            for i in range(self.dec_per_n):
                queries.append(("dec",) + (uniform_pair if i % 2 else paper_pair)(rng, n))
        return queries

    def peak_rss_mb(self, rounds: list[Round]) -> float:
        return peak_rss_mb()

    def round(self, r: int, traced: bool) -> Round:
        import snkron

        rnd = Round()
        queries = self.draw(r)
        answers, latencies = [], []
        if traced:
            self.tracer.reset()
            self.tracer.install()
        began = time.perf_counter()
        for q in queries:
            t0 = time.perf_counter()
            if q[0] == "kron":
                answers.append(snkron.kronecker(q[1], q[2], q[3]))
            else:
                answers.append(snkron.tensor_decompose(q[1], q[2]).entries)
            latencies.append(time.perf_counter() - t0)
        rnd.wall_s = time.perf_counter() - began
        if traced:
            self.tracer.uninstall()
            rnd.buckets.append(self.tracer.bucket())
            rnd.spans = self.tracer.spans
        for q, answer, took in zip(queries, answers, latencies):
            rnd.op(took, self.check(snkron, q, answer))
        if traced:
            rnd.latencies = []
        return rnd

    def check(self, snkron, q, answer) -> list[str]:
        if q[0] == "dec":
            return checker.check_decomposition(q[1], q[2], answer)
        _, lam, mu, nu = q
        if lam in paper_shapes(sum(lam)) and mu in paper_shapes(sum(mu)):
            self.length_zero[0] += len(nu) > len(lam) * len(mu)
            self.length_zero[1] += 1
        values = {
            "lam,mu,nu": answer,
            "mu,nu,lam": snkron.kronecker(mu, nu, lam),
            "nu,lam,mu": snkron.kronecker(nu, lam, mu),
            "lam',mu',nu": snkron.kronecker(checker.conjugate(lam), checker.conjugate(mu), nu),
        }
        return checker.check_kronecker(lam, mu, nu, answer) + checker.check_symmetry(lam, mu, nu, values)


def cli_round(rng: random.Random) -> list[tuple[list[str], dict]]:
    """One round of the CLI mix: the same kinds and sizes every round, with
    seeded arguments.  Each case carries what the checker expects."""
    text = lambda p: ",".join(map(str, p)) if p else "0"  # noqa: E731
    cases = []
    for n in (4, 6, 8, 10, 12):
        triple = tuple(rng.choice(checker.partitions(n)) for _ in range(3))
        cases.append((["kron", *map(text, triple)], {"rc": 0, "command": "kron", "triple": triple}))
    lam, mu = paper_pair(rng, 12)
    nu = rng.choice(checker.partitions(12))
    cases.append((["kron", text(lam), text(mu), text(nu)], {"rc": 0, "command": "kron", "triple": (lam, mu, nu)}))
    lam = rng.choice(checker.partitions(rng.randint(1, 30)))
    cases.append((["dim", text(lam)], {"rc": 0, "command": "dim", "result": checker.hook_dim(lam)}))
    lam, d = rng.choice(checker.partitions(rng.randint(1, 12))), rng.randint(1, 6)
    cases.append((["dim", text(lam), "--gl", str(d)], {"rc": 0, "command": "dim", "result": checker.weyl_dim(lam, d)}))
    for which, rows in (("t1", 4), ("t2", 3)):
        nu = rng.choice([p for p in checker.partitions(rng.randint(1, 24)) if len(p) <= rows])
        cases.append((["semigroup", which, text(nu)], {"rc": 0, "command": "semigroup", "which": which, "nu": nu}))
    m = rng.randint(20, 40)
    cases.append((["tensor", f"{m},{m}", f"{m},{m}", "--mode", "closed"],
                  {"rc": 0, "command": "tensor", "pair": ((m, m), (m, m), None)}))
    m = rng.randint(5, 10)
    pair = [(2 * m, 2 * m), (m,) * 4]
    rng.shuffle(pair)
    cases.append((["tensor", text(pair[0]), text(pair[1]), "--mode", "closed", "--max-length", "3"],
                  {"rc": 0, "command": "tensor", "pair": (pair[0], pair[1], 3)}))
    m = rng.randint(1, 4)
    cases.append((["tensor", f"{m},{m}", f"{m},{m}", "--mode", "both"],
                  {"rc": 0, "command": "tensor", "pair": ((m, m), (m, m), None), "both": True}))
    m = rng.randint(1, 2)
    pair = [(2 * m, 2 * m), (m,) * 4]
    cases.append((["tensor", text(pair[0]), text(pair[1]), "--mode", "both", "--max-length", "3"],
                  {"rc": 0, "command": "tensor", "pair": (pair[0], pair[1], 3), "both": True}))
    lam, mu = uniform_pair(rng, rng.randint(5, 8))
    cases.append((["tensor", text(lam), text(mu)], {"rc": 0, "command": "tensor", "pair": (lam, mu, None)}))
    n = rng.randint(1, 8)
    cases.append((["chartable", str(n)], {"rc": 0, "command": "chartable", "n": n}))
    k = rng.randint(2, 9)
    bad = rng.choice([
        ["kron", f"{k},x", f"{k}", f"{k}"],
        ["kron", f"1,{k}", f"{k + 1}", f"{k + 1}"],
        ["kron", f"{k}", f"{k}", f"{k + 1}"],
        ["tensor", f"{k},{k}", f"{k},{k}", "--max-length", "0"],
        ["verify", "--theorem", "1", "--n-max", str(12 + k)],
        ["dim", f"{k},1", "--gl", "0"],
        ["chartable", str(24 + k)],
        ["semigroup", "t1", ",".join(["1"] * (4 + k))],
        ["kron", f"{k}", f"{k}"],
    ])
    cases.append((bad, {"rc": 2}))
    cases.append((["tensor", f"{k},1", f"{k + 1}", "--mode", "closed"], {"rc": 3}))
    return cases


class Cli(ProcessWorkload):
    """A seeded mix of short snkron processes: start-up, parsing and output."""

    name = "cli"
    tail_pct = 90

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ops_per_round = len(cli_round(random.Random(0)))

    def round(self, r: int, traced: bool) -> Round:
        rnd = Round()
        cases = cli_round(random.Random(f"{self.seed}:cli:{r}"))
        for argv, expect in cases:
            path = self.trace_file(traced)
            done = run_cli(argv, path)
            rnd.wall_s += done.wall_s
            if traced:
                read_trace(path, rnd)
            rnd.stdout_bytes += len(done.stdout.encode())
            rnd.rss_mb = max(rnd.rss_mb, done.rss_mb)
            rnd.op(done.wall_s, checker.check_cli(argv, expect, done.returncode, done.stdout, done.stderr))
        if traced:
            rnd.latencies = []
        return rnd


WORKLOADS = {w.name: w for w in (Verify, Queries, Cli, Closed)}


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def min_rounds(w, trace: bool) -> int:
    """Rounds needed so that at least ten operations lie above the tail percentile."""
    if trace:
        return 1
    r = 1
    while (n := r * w.ops_per_round) - math.ceil(w.tail_pct / 100 * n) < 10:
        r += 1
    return r


def measure(w, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    speed = Speed()
    w.setup(trace, speed)
    plain, traced = [], []
    began = time.perf_counter()
    r = 0
    while r < min_rounds(w, trace) or time.perf_counter() - began < seconds:
        if trace:
            # Alternate which side runs first, so drift hits both alike.
            for side in ((False, True) if r % 2 == 0 else (True, False)):
                (traced if side else plain).append(w.round(r, side))
        else:
            rnd = w.round(r, False)
            rnd.mark = speed.mark()
            plain.append(rnd)
            w.between_rounds(speed)
            speed.tick()
        r += 1
    rounds = plain + traced
    result = {
        "correct": all(rnd.failed == 0 for rnd in rounds),
        "attempted": sum(rnd.attempted for rnd in rounds),
        "failed": sum(rnd.failed for rnd in rounds),
    }
    if trace:
        metrics = layer_metrics(w, plain, traced)
        with open(OUT / f"trace-{w.name}-seed{w.seed}.json", "w") as handle:
            json.dump({"metrics": metrics, "spans": traced[0].spans}, handle)
        units = {name: COUNT_UNITS.get(name, unit_of(name)) for name in metrics}
    else:
        latencies = [t * speed.scale(rnd.mark) for rnd in plain for t in rnd.latencies]
        metrics = {
            "setup_s": w.setup_s(speed),
            "wall_s": statistics.median(rnd.wall_s * speed.scale(rnd.mark) for rnd in plain),
            "latency_p50_ms": statistics.median(latencies) * 1000,
            "latency_tail_ms": nearest_rank(latencies, w.tail_pct) * 1000,
            "peak_rss_mb": w.peak_rss_mb(plain),
        }
        units = END_TO_END_UNITS
    result["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    extra = {"rounds": len(plain), "round_walls": [rnd.wall_s for rnd in plain],
             "round_latencies": [rnd.latencies for rnd in plain],
             "round_scales": [speed.scale(rnd.mark) for rnd in plain] if not trace else [],
             "reference_s": speed.samples, "tail_pct": w.tail_pct, "ops_per_round": w.ops_per_round}
    if isinstance(w, Queries):
        extra["paper_triples_zero_by_length"] = w.length_zero
    with open(OUT / f"result-{w.name}-seed{w.seed}-trace{int(trace)}.json", "w") as handle:
        json.dump({**result, **extra}, handle)
    return result


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    return "s" if name.endswith("_s") else "count"


def layer_metrics(w, plain: list[Round], traced: list[Round]) -> dict:
    """Counts from the first traced round (plus set-up), times as medians over rounds."""
    first = traced[0].buckets
    setup = getattr(w, "setup_bucket", None)
    if setup is not None:
        # One process: the memo figures are cumulative, so take them once.
        setup = {**setup, "memo": {"entries": 0, "hits": 0, "misses": 0}}
        first = [setup] + first
    merged = [tracing.merge(rnd.buckets) for rnd in traced]
    metrics = tracing.layer_counts(tracing.merge(first))
    times = tracing.median_times(merged)
    if setup is not None:
        setup_times = tracing.layer_times(setup)
        times = {k: v + setup_times[k] for k, v in times.items()}
    metrics.update(times)
    main_s = [t for b in merged for t in b["main_s"]]
    interpreter, with_import = median_starts("pass", "import snkron.cli")
    metrics["cli.interpreter_ms"] = interpreter * 1000
    metrics["cli.import_ms"] = (with_import - interpreter) * 1000
    metrics["cli.main_ms"] = statistics.median(main_s) * 1000 if main_s else 0.0
    metrics["cli.stdout_bytes"] = traced[0].stdout_bytes
    metrics["trace.overhead_s"] = (
        statistics.median(rnd.wall_s for rnd in traced) - statistics.median(rnd.wall_s for rnd in plain)
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "snkron" / "__init__.py").is_file():
        print(f"error: no snkron sources under {SRC}; run from a snkron checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = measure(WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
