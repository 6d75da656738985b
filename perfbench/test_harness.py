"""Self-tests of the benchmark harness (not of the package).

    python3 perfbench/test_harness.py
"""

import json
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class TailRule(unittest.TestCase):
    def test_ten_samples_stay_above_the_tail(self):
        for n in (11, 12, 100, 996):
            xs = list(range(1, n + 1))
            random.Random(n).shuffle(xs)
            value, percentile = run.tail(xs)
            self.assertEqual(sum(x > value for x in xs), 10)
            self.assertAlmostEqual(percentile, 100.0 * (n - 10) / n)

    def test_examples(self):
        self.assertEqual(run.tail(range(1, 101)), (90, 90.0))
        self.assertEqual(run.tail(range(1, 11)), (10, 100.0))


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted(self):
        now = [0.0]
        tracer = spans.Tracer(clock=lambda: now[0])

        def leaf(dt):
            now[0] += dt

        def outer():
            now[0] += 1.0
            tracer.call("inner", leaf, 2.0)
            now[0] += 0.5
            tracer.call("inner", leaf, 3.0)

        tracer.call("outer", outer)
        tracer.call("inner", leaf, 4.0)
        self.assertEqual(tracer.self_s["outer"], 1.5)
        self.assertEqual(tracer.self_s["inner"], 9.0)
        self.assertEqual(tracer.calls["inner"], 3)
        self.assertEqual(tracer.durations["outer"], [6.5])

    def test_failed_calls_are_counted_and_reraised(self):
        tracer = spans.Tracer()
        with self.assertRaises(ZeroDivisionError):
            tracer.call("layer", lambda: 1 / 0)
        self.assertEqual(tracer.failed["layer"], 1)
        self.assertEqual(tracer.calls["layer"], 1)


def sandwich_items(count):
    workload = workloads.WORKLOADS["corpus-sandwich"]
    api = workloads.plain_api()
    entries = workload.entries(run.ROOT)[:count]
    return workload, api, [workload.make_item(api, e) for e in entries]


class ErrorRate(unittest.TestCase):
    def test_correct_answers_pass(self):
        workload, api, items = sandwich_items(20)
        self.assertEqual(run.run_pass(workload, api, items).problems, [])

    def test_wrong_answer_is_a_problem(self):
        workload, api, items = sandwich_items(20)
        items[3].ref = dict(items[3].ref, answer=[9, 9, 9])
        problems = run.run_pass(workload, api, items).problems
        self.assertEqual(len(problems), 1)
        self.assertIn(items[3].id, problems[0])

    def test_raising_item_is_a_problem(self):
        workload, api, items = sandwich_items(5)
        items[0].line = "not graph6"
        problems = run.run_pass(workload, api, items).problems
        self.assertTrue(any("MalformedGraph6" in p for p in problems), problems)


class SolverCounts(unittest.TestCase):
    def test_counts_match_the_seed_record(self):
        from indicated import game

        workload = workloads.WORKLOADS["deep-solve"]
        api = workloads.plain_api()
        entry = next(e for e in workload.entries(run.ROOT) if e["id"] == "KC5:3,3,2,2,2")
        item = workload.make_item(api, entry)
        counts = spans.SolverCounts()
        base = game.GameSolver
        with spans.counting_solvers(game, lambda: counts):
            workload.run(api, item)
        self.assertIs(game.GameSolver, base)
        self.assertEqual(counts.triple(), entry["counts"])
        self.assertEqual(counts.each, entry["counts_per_k"])
        self.assertEqual(counts.solvers, entry["kmax"])


class BenchmarkFile(unittest.TestCase):
    def test_metrics_and_workloads_agree_with_the_harness(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.NAMES))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
