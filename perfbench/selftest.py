"""Self-test of the benchmark: toy-size workloads and planted wrong answers.

    python3 perfbench/selftest.py

Every workload runs at toy size, untraced and traced, with no failed
operation and every metric that BENCHMARK.json names; two traced runs with
one seed give identical counts.  Each checker passes a right answer and
rejects the same answer with one planted fault.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

import checker
import run
import tracer

run.STARTS = 3
run.OUT.mkdir(exist_ok=True)
sys.path.insert(0, str(run.SRC))

import snkron  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TOY = {
    "verify": lambda seed: run.Verify(seed, cases=((1, 3), (2, 2))),
    "queries": lambda seed: run.Queries(seed, sizes=(6, 8), kron_per_n=4, dec_per_n=2),
    "cli": run.Cli,
    "closed": lambda seed: run.Closed(seed, n_max=6),
}


def cli(*argv: str) -> run.Child:
    return run.run_cli(list(argv), None)


class ToyWorkloads(unittest.TestCase):
    def test_every_workload_untraced(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        for name in sorted(TOY):
            with self.subTest(workload=name):
                result = run.measure(TOY[name](3), 0.1, trace=False)
                self.assertEqual((result["correct"], result["failed"]), (True, 0))
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(sorted(result["metrics"]), sorted(names))
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_every_workload_traced_repeats_its_counts(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        for name in sorted(TOY):
            with self.subTest(workload=name):
                first = run.measure(TOY[name](4), 0.1, trace=True)
                second = run.measure(TOY[name](4), 0.1, trace=True)
                self.assertEqual(first["failed"], 0)
                self.assertEqual(sorted(first["metrics"]), sorted(names))
                counts = set(tracer.layer_counts(tracer.merge([])))
                for metric in counts:
                    self.assertEqual(first["metrics"][metric], second["metrics"][metric], metric)

    def test_speed_scales_by_the_samples_around_the_work(self):
        speed = run.Speed()
        self.assertEqual(len(speed.samples), 1)
        self.assertGreater(speed.samples[0], 0)
        speed.samples = [run.REFERENCE_S, 3 * run.REFERENCE_S, 2 * run.REFERENCE_S]
        self.assertEqual(speed.mark(), 2)
        self.assertAlmostEqual(speed.scale(0), 0.5)
        self.assertAlmostEqual(speed.scale(1), 0.4)

    def test_bare_directory_is_refused(self):
        self.assertTrue(run.SRC.is_dir())
        saved = run.SRC
        run.SRC = Path(run.OUT / "no-such-checkout" / "src")
        try:
            self.assertEqual(run.main(["--workload", "cli", "--seed", "1", "--seconds", "1"]), 2)
        finally:
            run.SRC = saved


class PlantedFaults(unittest.TestCase):
    def test_decomposition(self):
        for lam, mu in (((3, 2, 1), (4, 2)), ((7, 7), (7, 7)), ((5, 4, 3, 2), (8, 6)), ((4, 4), (2, 2, 2, 2))):
            entries = dict(snkron.tensor_decompose(lam, mu).entries)
            self.assertEqual(checker.check_decomposition(lam, mu, entries), [])
            nu = next(iter(entries))
            entries[nu] += 1
            self.assertNotEqual(checker.check_decomposition(lam, mu, entries), [], (lam, mu))

    def test_bounded_theorem2_decomposition(self):
        entries = dict(snkron.theorem2_decomposition(5).entries)
        self.assertEqual(checker.check_decomposition((10, 10), (5, 5, 5, 5), entries, 3), [])
        entries.pop(next(iter(entries)))
        self.assertNotEqual(checker.check_decomposition((10, 10), (5, 5, 5, 5), entries, 3), [])

    def test_kronecker(self):
        for triple in (((3, 3), (4, 1, 1), (2, 2, 1, 1)), ((5, 5), (5, 5), (4, 4, 2)), ((8, 6), (7, 7), (3, 3, 2, 2, 2, 2))):
            g = snkron.kronecker(*triple)
            self.assertEqual(checker.check_kronecker(*triple, g), [])
            self.assertNotEqual(checker.check_kronecker(*triple, g + 1), [], triple)

    def test_symmetry(self):
        self.assertEqual(checker.check_symmetry((2,), (2,), (2,), {"a": 1, "b": 1}), [])
        self.assertNotEqual(checker.check_symmetry((2,), (2,), (2,), {"a": 1, "b": 0}), [])

    def test_membership(self):
        combo = snkron.membership_t1((5, 3, 3, 1))
        gens = combo.generators
        self.assertEqual(checker.check_membership("t1", (5, 3, 3, 1), list(combo.coefficients), gens), [])
        wrong = [combo.coefficients[0] + 1] + list(combo.coefficients[1:])
        self.assertNotEqual(checker.check_membership("t1", (5, 3, 3, 1), wrong, gens), [])
        self.assertNotEqual(checker.check_membership("t1", (5, 3, 3, 1), None, gens), [])
        self.assertEqual(checker.check_membership("t2", (6, 4, 1), None, checker.T2_GENERATORS), [])

    def test_closed_step(self):
        for theorem in (1, 2):
            dec = getattr(snkron, f"theorem{theorem}_decomposition")(5)
            member = getattr(snkron, f"membership_t{theorem}")
            combos = [member(nu) for nu in dec.entries]
            step = {
                "entries": [[list(nu), m] for nu, m in dec.entries.items()],
                "dimension_sum": dec.dimension_sum(),
                "memberships": [list(c.coefficients) for c in combos],
                "generators": [list(g) for g in combos[0].generators],
            }
            self.assertEqual(checker.check_closed_step(theorem, 5, step), [])
            for fault in ("entries", "dimension_sum", "memberships"):
                bad = json.loads(json.dumps(step))
                if fault == "entries":
                    bad["entries"][0][1] = 2
                elif fault == "dimension_sum":
                    bad["dimension_sum"] += 1
                else:
                    bad["memberships"][-1][0] += 1
                self.assertNotEqual(checker.check_closed_step(theorem, 5, bad), [], (theorem, fault))

    def test_verify(self):
        lines = [f"theorem=1 n={n} pass" for n in (1, 2, 3)]
        self.assertEqual(checker.check_verify(1, 3, 0, lines, ""), 0)
        self.assertEqual(checker.check_verify(1, 3, 1, lines[:2] + ["theorem=1 n=3 FAIL"], ""), 1)
        self.assertEqual(checker.check_verify(1, 3, 0, lines[:2], ""), 1)
        self.assertEqual(checker.check_verify(1, 3, 0, lines, "Traceback (most recent call last):"), 1)

    def test_cli(self):
        for argv, expect in run.cli_round(run.random.Random(5)):
            done = cli(*argv)
            self.assertEqual(checker.check_cli(argv, expect, done.returncode, done.stdout, done.stderr), [], argv)
            swapped = {0: 2, 2: 3, 3: 2}[done.returncode]
            self.assertNotEqual(checker.check_cli(argv, expect, swapped, done.stdout, done.stderr), [], argv)
            traceback = done.stderr + "Traceback (most recent call last):\n"
            self.assertNotEqual(checker.check_cli(argv, expect, done.returncode, done.stdout, traceback), [], argv)
            if done.returncode == 0:
                record = json.loads(done.stdout)
                plant(record)
                bad = json.dumps(record) + "\n"
                self.assertNotEqual(checker.check_cli(argv, expect, 0, bad, done.stderr), [], argv)


def plant(record: dict) -> None:
    """Change one number in a CLI record's payload."""
    if "entries" in record:
        record["entries"][0]["mult"] += 1
    elif record["command"] == "chartable":
        record["result"]["characters"][-1]["values"][0] += 1
    elif record["command"] == "semigroup":
        result = record["result"]
        if result["coefficients"] is None:
            result["member"] = True
        else:
            result["coefficients"][0] += 1
    else:
        record["result"] += 1


if __name__ == "__main__":
    unittest.main()
