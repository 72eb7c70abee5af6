"""Self-tests for the benchmark's own arithmetic and parsers.

    python3 perfbench/test_pbstats.py
"""

import json
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pbstats  # noqa: E402
import run  # noqa: E402

STATS_TEXT = """jobs.submitted=50000
jobs.completed=49990
daemon.latency_map_entries=0 (max=889)
daemon.recovery_ms=-1 (max=113)
placement_latency_ns{count=40893,p50=5567,p99=1879048191,p999=2617245695,max=4054130220}
"""

PROBE_TEXT = """pb_sim: a log line
{"digest": "jobs=3", "jobs_per_s": [1.5, 2.5]}
"""


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(pbstats.percentile(values, 0.5), 50)
        self.assertEqual(pbstats.percentile(values, 0.99), 99)
        self.assertEqual(pbstats.percentile(values, 1.0), 100)
        self.assertEqual(pbstats.percentile([7], 0.01), 7)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            pbstats.percentile([], 0.5)
        with self.assertRaises(ValueError):
            pbstats.percentile([1], 0)

    def test_failures_miss_every_limit(self):
        ns = [1000] * 98  # 1 us each
        p50, p99 = pbstats.latency_us(ns, failed=2)
        self.assertEqual(p50, 1.0)
        self.assertTrue(math.isinf(p99))
        p50, p99 = pbstats.latency_us(ns + [pbstats.MISSING_NS] * 2)
        self.assertTrue(math.isinf(p99))
        self.assertEqual(pbstats.latency_us([2000, 4000])[0], 2.0)


class SummaryTest(unittest.TestCase):
    def test_windowed_latency(self):
        # Three windows of 100 requests; the middle one holds a stall.
        quiet = [1000 * (i % 100 + 1) for i in range(100)]  # 1..100 us
        stall = quiet[:50] + [10 ** 9] * 50
        p50, p99 = pbstats.windowed_latency_us(quiet + stall + quiet + [5], 100)
        self.assertEqual((p50, p99), (50.0, 99.0))
        p50, p99 = pbstats.windowed_latency_us(quiet[:10], 100)
        self.assertEqual((p50, p99), (5.0, 10.0))

    def test_median(self):
        self.assertEqual(pbstats.median([3, 1, 2]), 2)
        self.assertEqual(pbstats.median([4, 1, 2, 3]), 2.5)

    def test_faster_half_by_group(self):
        times = [5, 1, 9, 2, 4, 8, 3]
        groups = [0, 0, 1, 1, 1, 0, 1]
        # group 0: 5, 1, 8 -> keeps 1, 5; group 1: 9, 2, 4, 3 -> keeps 2, 3
        self.assertEqual(pbstats.faster_half_by_group(times, groups),
                         [0, 1, 3, 6])

    def test_mean_of_groups(self):
        values = [10, 20, 30, 1, 2]
        groups = [0, 0, 0, 1, 1]
        self.assertEqual(pbstats.mean_of_groups(values, groups, [0, 1, 3]),
                         (15 + 1) / 2)


class ParserTest(unittest.TestCase):
    def test_stats(self):
        parsed = pbstats.parse_stats(STATS_TEXT)
        self.assertEqual(parsed["counters"]["jobs.completed"], 49990)
        self.assertEqual(parsed["gauges"]["daemon.latency_map_entries"],
                         (0, 889))
        self.assertEqual(parsed["gauges"]["daemon.recovery_ms"], (-1, 113))
        lat = parsed["placement_latency_ns"]
        self.assertEqual(lat["count"], 40893)
        self.assertEqual(lat["p99"], 1879048191)

    def test_stats_rejects_unknown_lines(self):
        with self.assertRaises(ValueError):
            pbstats.parse_stats("jobs.completed=1\nsomething else\n")

    def test_probe_output(self):
        self.assertEqual(pbstats.last_json_line(PROBE_TEXT),
                         {"digest": "jobs=3", "jobs_per_s": [1.5, 2.5]})
        for bad in ("", "[1, 2]\n", "not json\n"):
            with self.assertRaises(ValueError):
                pbstats.last_json_line(bad)


class ContractTest(unittest.TestCase):
    """BENCHMARK.json names what run.py measures, with the same units."""

    def setUp(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            self.bench = json.load(f)

    def test_metrics_match(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.bench["per_layer"]},
                         run.PER_LAYER)

    def test_workloads_match(self):
        self.assertEqual({w["name"] for w in self.bench["workloads"]},
                         set(run.WORKLOADS))

    def test_take_layers(self):
        r = run.Run()
        run.take_layers(r, {"covered_s": 0.9, "served_s": 1.0,
                            "traced_wall_s": 3.0, "untraced_wall_s": 2.0,
                            "sim.queue.ops": 7, "not.a.metric": 1})
        self.assertAlmostEqual(r.metrics["trace.coverage"], 0.9)
        self.assertEqual(r.metrics["trace.overhead"], 1.5)
        self.assertEqual(r.metrics["sim.queue.ops"], 7)
        self.assertNotIn("not.a.metric", r.metrics)

    def test_result_shape(self):
        r = run.Run()
        r.metrics["setup_s"] = 0.5
        r.check(True, "fine")
        out = r.result(run.END_TO_END)
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"])
        self.assertEqual(out["attempted"], 1)
        self.assertEqual(out["metrics"]["setup_s"], {"value": 0.5, "unit": "s"})
        r.check(False, "broken")
        self.assertFalse(r.result(run.END_TO_END)["correct"])


if __name__ == "__main__":
    unittest.main()
