"""Self-tests of the benchmark harness (no nvmgc build needed).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import stat
import sys
import tempfile
import unittest
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402
import run  # noqa: E402


class PercentileRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(harness.tail_percentile(100), (90.0, 10))
        self.assertEqual(harness.tail_percentile(999), (90.0, 99))
        self.assertEqual(harness.tail_percentile(1000), (99.0, 10))
        self.assertEqual(harness.tail_percentile(10000), (99.9, 10))
        self.assertEqual(harness.tail_percentile(100000), (99.99, 10))

    def test_too_few_samples(self):
        self.assertEqual(harness.tail_percentile(19), (None, 0))
        self.assertEqual(harness.tail_percentile(20), (50.0, 10))
        self.assertEqual(harness.tail_percentile(99), (50.0, 49))

    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(harness.percentile(values, 50), 50)
        self.assertEqual(harness.percentile(values, 90), 90)
        self.assertEqual(harness.percentile(list(reversed(values)), 90), 90)
        self.assertEqual(harness.beyond(90, 100), 10)
        self.assertEqual(harness.percentile([7.0], 99), 7.0)


def curve(knee, growing_from=None):
    """Synthetic latency curve: p99 rises slowly, then explodes past the knee."""
    points = []
    for kqps in (60, 70, 80, 90, 100, 110, 120, 130):
        p99 = 2.0 + 0.05 * kqps if kqps <= knee else 200.0
        backlog = 0.01 if growing_from is None or kqps < growing_from else 50.0
        points.append({"kqps": kqps, "p99_ms": p99, "backlog_ms": backlog})
    return points


class RateSearchTest(unittest.TestCase):
    def test_highest_rate_under_limit(self):
        self.assertEqual(harness.max_rate_at_slo(curve(knee=110), 15.0), 110)

    def test_growing_backlog_disqualifies_rate(self):
        # p99 still meets the limit at 120, but the queue is growing there.
        self.assertEqual(harness.max_rate_at_slo(curve(knee=120, growing_from=120), 15.0), 110)

    def test_limit_itself(self):
        # p99 = 2 + 0.05 * r: 8.0 at 120, 8.5 at 130.
        self.assertEqual(harness.max_rate_at_slo(curve(knee=130), 8.0), 120)

    def test_rate_above_a_failure_does_not_count(self):
        points = curve(knee=130)
        points[2]["p99_ms"] = 99.0  # 80 kQPS fails; 90+ pass again.
        self.assertEqual(harness.max_rate_at_slo(points, 15.0), 70)

    def test_lowest_rate_fails(self):
        self.assertEqual(harness.max_rate_at_slo(curve(knee=0), 15.0), 0.0)

    def test_unsorted_input(self):
        self.assertEqual(harness.max_rate_at_slo(list(reversed(curve(knee=100))), 15.0), 100)


class SelfTimeTest(unittest.TestCase):
    SPANS = [
        {"id": 0, "parent": -1, "name": "workloads.Run", "ts": 0.0, "dur": 100.0},
        {"id": 1, "parent": 0, "name": "gc.CollectNow", "ts": 10.0, "dur": 20.0},
        # Overlaps span 1: [10, 50) is covered once, not 20 + 30 times.
        {"id": 2, "parent": 0, "name": "gc.CollectNow", "ts": 20.0, "dur": 30.0},
        # Runs past its parent's end: only [90, 100) counts against the parent.
        {"id": 3, "parent": 0, "name": "verify.Heap", "ts": 90.0, "dur": 30.0},
        {"id": 4, "parent": 1, "name": "nvm.Access", "ts": 12.0, "dur": 5.0},
        {"id": 5, "parent": -1, "name": "setup.Vm", "ts": 200.0, "dur": 7.0},
    ]

    def test_self_time(self):
        selfs = harness.self_times(self.SPANS)
        self.assertAlmostEqual(selfs[0], 100.0 - 40.0 - 10.0)
        self.assertAlmostEqual(selfs[1], 15.0)
        self.assertAlmostEqual(selfs[2], 30.0)
        self.assertAlmostEqual(selfs[3], 30.0)
        self.assertAlmostEqual(selfs[4], 5.0)
        self.assertAlmostEqual(selfs[5], 7.0)

    def test_layer_totals(self):
        layers = harness.layer_self_times(self.SPANS)
        self.assertEqual(layers, {"workloads": 50.0, "gc": 45.0, "verify": 30.0,
                                  "nvm": 5.0, "setup": 7.0})

    def test_reads_chrome_trace(self):
        events = [{"ph": "M", "name": "thread_name", "args": {"name": "control"}}]
        for s in self.SPANS:
            events.append({"ph": "X", "name": s["name"], "ts": s["ts"], "dur": s["dur"],
                           "args": {"id": s["id"], "parent": s["parent"], "run_id": "r"}})
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            json.dump({"traceEvents": events}, f)
        try:
            spans = harness.spans_from_chrome_trace(f.name)
        finally:
            os.unlink(f.name)
        self.assertEqual(harness.layer_self_times(spans), harness.layer_self_times(self.SPANS))


# A stand-in driver: aborts on its first call (tracked in a counter file),
# then prints a valid repetition result.
FAKE_DRIVER = r'''#!{python}
import json, os, sys
counter = {counter!r}
n = int(open(counter).read()) if os.path.exists(counter) else 0
open(counter, "w").write(str(n + 1))
if n == 0:
    os.abort()
print(json.dumps({{"pauses_ms": [1.0] * 100, "checks_failed": [], "host_s": 1.0, "setup_s": 0.1}}))
'''


class FailureAccountingTest(unittest.TestCase):
    def test_abort_is_a_failure(self):
        rep = harness.run_child([sys.executable, "-c", "import os; os.abort()"], 30)
        self.assertFalse(rep.ok)
        self.assertIn("SIGABRT", rep.failure)

    def test_failed_check_is_a_failure(self):
        out = json.dumps({"checks_failed": ["remset: missing slot"]})
        rep = harness.run_child([sys.executable, "-c", "print(%r)" % out], 30)
        self.assertFalse(rep.ok)
        self.assertIn("remset", rep.failure)

    def test_timeout_and_garbage_are_failures(self):
        rep = harness.run_child([sys.executable, "-c", "import time; time.sleep(5)"], 0.5)
        self.assertIn("timed out", rep.failure)
        rep = harness.run_child([sys.executable, "-c", "print('not json')"], 30)
        self.assertEqual(rep.failure, "no JSON result")

    def test_harness_keeps_going_after_an_abort(self):
        with tempfile.TemporaryDirectory() as tmp:
            exe = os.path.join(tmp, "driver")
            with open(exe, "w") as f:
                f.write(FAKE_DRIVER.format(python=sys.executable,
                                           counter=os.path.join(tmp, "calls")))
            os.chmod(exe, os.stat(exe).st_mode | stat.S_IEXEC)
            args = SimpleNamespace(workload="churn", seed=1, seconds=0.0, trace=0)
            reps = run.run_reps(exe, args, tmp)
        self.assertEqual(len(reps), run.MIN_REPS)
        self.assertEqual([r.ok for r in reps], [False] + [True] * (run.MIN_REPS - 1))
        self.assertIn("SIGABRT", reps[0].failure)

    def test_too_few_pauses_is_a_failure(self):
        rep = run.rep_check("churn", harness.Rep(data={"pauses_ms": [1.0] * 99}))
        self.assertIn("only 99 pauses", rep.failure)


class BenchmarkSpecTest(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("BENCHMARK.json not present")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.DEFAULT_SEEDS))


if __name__ == "__main__":
    unittest.main()
