#!/usr/bin/env python3
"""Tests for the benchmark's own code: percentiles and tail selection,
span self times, metric derivation and the output schema.

    python3 perfbench/test_stats.py
"""

import json
import math
import os
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def span(name, id_, parent, start, end, work=0.0, query=1):
    return {"name": name, "id": id_, "parent": parent, "query": query,
            "start": start, "end": end, "work": work}


def raw_report(**overrides):
    raw = {
        "workload": "solve", "seed": 7, "trace": 1,
        "attempted": 4, "failed": 0, "ok": 4, "errors": [],
        "measured_s": 2.0, "peak_rss_mb": 12.5,
        "setup_s": [0.3, 0.1, 0.2],
        "latency_ms": [float(v) for v in range(1, 201)],
        "traced_latency_ms": [float(v) * 1.1 for v in range(1, 201)],
        "value_ratios": [0.97, 0.99, 1.0],
        "counters": {"maxflow.iterations_per_query": 1000.5,
                     "engine.sherman_share": 1.0, "prefix_answers": 8.0},
        "counters_repeat": {"maxflow.iterations_per_query": 1000.5,
                            "engine.sherman_share": 1.0,
                            "prefix_answers": 8.0},
        "scalars": {"serve.saturation_qps": 100.0,
                    "capprox.trees_repaired_per_batch": 3.0},
        "samples": {"engine.exec_ms": [1.0, 2.0, 3.0]},
        "spans": [["maxflow.almost_route", 1, 0, 1, 0, 5000, 10.0],
                  ["capprox.apply_into", 2, 0, 1, 100, 300, 0.0]],
    }
    raw.update(overrides)
    return raw


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_closest_ranks(self):
        self.assertEqual(stats.percentile([1, 2, 3, 4, 5], 50), 3)
        self.assertAlmostEqual(stats.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertAlmostEqual(stats.percentile([10, 20], 90), 19.0)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 100), 4)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 0), 1)

    def test_single_sample_and_empty(self):
        self.assertEqual(stats.percentile([7.5], 99), 7.5)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_unsorted_input_is_not_modified(self):
        values = [3, 1, 2]
        stats.percentile(values, 50)
        self.assertEqual(values, [3, 1, 2])


class TailSelectionTest(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(stats.beyond(100, 90), 10)
        self.assertEqual(stats.beyond(99, 90), 9)
        self.assertEqual(stats.beyond(1000, 99), 10)
        self.assertEqual(stats.beyond(10000, 99.9), 10)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50)
        self.assertEqual(stats.tail_percentile(99), 50)
        self.assertEqual(stats.tail_percentile(100), 90)
        self.assertEqual(stats.tail_percentile(999), 90)
        self.assertEqual(stats.tail_percentile(1000), 99)
        self.assertEqual(stats.tail_percentile(9999), 99)
        self.assertEqual(stats.tail_percentile(10000), 99.9)


class BlockedPercentileTest(unittest.TestCase):
    def test_few_samples_are_one_block(self):
        values = [float(v) for v in range(1999, 0, -1)]
        self.assertEqual(stats.blocked_percentile(values, 90),
                         stats.percentile(values, 90))

    def test_median_over_blocks_discounts_a_stalled_block(self):
        # Ten blocks of 1000 samples; two blocks are 100x slower.
        values = [1.0] * 10000
        values[3000:5000] = [100.0] * 2000
        self.assertEqual(stats.blocked_percentile(values, 90), 1.0)
        self.assertEqual(stats.percentile(values, 90), 100.0)

    def test_block_count_is_capped(self):
        # 50 000 samples: ten blocks of 5000, block b holds the value b.
        values = [float(b) for b in range(10) for _ in range(5000)]
        self.assertEqual(stats.blocked_percentile(values, 50), 4.5)
        # A trailing partial block is left out.
        self.assertEqual(stats.blocked_percentile(values + [99.0] * 9, 50),
                         4.5)


class SelfTimeTest(unittest.TestCase):
    def test_children_union_is_subtracted_once(self):
        spans = [span("engine.submit", 1, 0, 0, 100),
                 span("maxflow.route", 2, 1, 10, 30),
                 span("maxflow.route", 3, 1, 20, 50),   # overlaps 2
                 span("capprox.apply_into", 4, 1, 60, 70)]
        own = stats.self_times(spans)
        self.assertEqual(own[1], 100 - 40 - 10)
        self.assertEqual(own[2], 20)
        self.assertEqual(own[4], 10)

    def test_children_are_clipped_and_grandchildren_ignored(self):
        spans = [span("bench.query", 1, 0, 0, 100),
                 span("engine.submit", 2, 1, 90, 120),  # runs past its parent
                 span("maxflow.route", 3, 2, 95, 110)]
        own = stats.self_times(spans)
        self.assertEqual(own[1], 90)
        self.assertEqual(own[2], 30 - 15)
        self.assertEqual(own[3], 15)

    def test_layer_totals(self):
        spans = [span("bench.query", 1, 0, 0, 1_000_000),
                 span("engine.submit", 2, 1, 0, 400_000),
                 span("engine.wait_for_version", 3, 1, 500_000, 600_000),
                 span("maxflow.route", 4, 0, 0, 2_000_000)]
        layers = stats.layer_self_ms(spans)
        self.assertAlmostEqual(layers["bench"], 0.5)
        self.assertAlmostEqual(layers["engine"], 0.5)
        self.assertAlmostEqual(layers["maxflow"], 2.0)

    def test_span_durations_per_work(self):
        spans = [span("maxflow.almost_route", 1, 0, 0, 1000, work=10),
                 span("maxflow.almost_route", 2, 0, 0, 600, work=0),
                 span("maxflow.route", 3, 0, 0, 50)]
        self.assertEqual(stats.span_durations(spans, "maxflow.almost_route"),
                         [1000, 600])
        self.assertEqual(stats.span_durations(
            spans, "maxflow.almost_route", per_work=True), [100.0])


class MetricTest(unittest.TestCase):
    def test_end_to_end(self):
        metrics = stats.end_to_end(raw_report())
        self.assertEqual(set(metrics), set(stats.END_TO_END_UNITS))
        self.assertEqual(metrics["setup_s"], 0.2)
        self.assertEqual(metrics["throughput_qps"], 2.0)
        self.assertAlmostEqual(metrics["latency_p50_ms"], 100.5)
        self.assertAlmostEqual(metrics["latency_p90_ms"], 180.1)
        self.assertEqual(metrics["value_ratio_min"], 0.97)

    def test_a_run_without_correct_answers_still_has_metrics(self):
        metrics = stats.end_to_end(raw_report(ok=0, latency_ms=[],
                                              value_ratios=[]))
        self.assertEqual(metrics["latency_p90_ms"], 0.0)
        self.assertEqual(metrics["value_ratio_min"], 0.0)
        self.assertEqual(metrics["throughput_qps"], 0.0)

    def test_per_layer_covers_every_metric(self):
        metrics = stats.per_layer(raw_report())
        self.assertEqual(set(metrics), set(stats.PER_LAYER))
        self.assertAlmostEqual(metrics["maxflow.us_per_iteration"], 0.5)
        self.assertAlmostEqual(metrics["capprox.apply_us"], 0.2)
        self.assertAlmostEqual(metrics["trace.latency_p50_overhead"], 0.1)
        self.assertEqual(metrics["engine.exec_p50_ms"], 2.0)
        self.assertEqual(metrics["serve.overhead_p99_ms"], 0.0)

    def test_probe_counts_come_from_scalars(self):
        metrics = stats.per_layer(raw_report())
        self.assertEqual(metrics["capprox.trees_repaired_per_batch"], 3.0)
        self.assertEqual(metrics["maxflow.iterations_per_query"], 1000.5)

    def test_exact_counters_skip_other_keys(self):
        self.assertEqual(stats.exact_counters(raw_report()["counters"]),
                         {"maxflow.iterations_per_query": 1000.5,
                          "engine.sherman_share": 1.0})

    def test_equal_repeat_has_no_mismatch(self):
        self.assertEqual(stats.counter_mismatches(raw_report()), [])
        self.assertEqual(stats.counter_mismatches(
            raw_report(counters={}, counters_repeat={})), [])

    def test_differing_or_missing_counters_mismatch(self):
        raw = raw_report()
        raw["counters_repeat"]["maxflow.iterations_per_query"] = 1000.5001
        self.assertEqual(stats.counter_mismatches(raw),
                         ["maxflow.iterations_per_query"])
        raw = raw_report()
        del raw["counters_repeat"]["engine.sherman_share"]
        self.assertEqual(stats.counter_mismatches(raw),
                         ["engine.sherman_share"])


class SchemaTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def result(self, trace=False):
        units = stats.PER_LAYER_UNITS if trace else stats.END_TO_END_UNITS
        metrics = {name: 1.5 for name in units}
        return stats.result_line(True, 10, 0, metrics, units)

    def test_valid_results_pass(self):
        self.assertEqual(stats.schema_problems(self.result(), self.spec,
                                               False), [])
        self.assertEqual(stats.schema_problems(self.result(True), self.spec,
                                               True), [])
        line = json.loads(json.dumps(self.result()))
        self.assertEqual(stats.schema_problems(line, self.spec, False), [])

    def test_bad_results_are_caught(self):
        r = self.result()
        del r["metrics"]["setup_s"]
        self.assertTrue(stats.schema_problems(r, self.spec, False))
        r = self.result()
        r["metrics"]["setup_s"]["unit"] = "ms"
        self.assertTrue(stats.schema_problems(r, self.spec, False))
        r = self.result()
        r["metrics"]["latency_p50_ms"]["value"] = math.nan
        self.assertTrue(stats.schema_problems(r, self.spec, False))
        r = self.result()
        r["attempted"] = True
        self.assertTrue(stats.schema_problems(r, self.spec, False))
        r = self.result()
        r["attempted"] = 0
        self.assertTrue(stats.schema_problems(r, self.spec, False))
        r = self.result()
        r["extra"] = 1
        self.assertTrue(stats.schema_problems(r, self.spec, False))
        self.assertTrue(stats.schema_problems(self.result(True), self.spec,
                                              False))

    def test_benchmark_json_matches_the_metric_tables(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            stats.END_TO_END_UNITS)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
            stats.PER_LAYER)
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         ["solve", "mutate"])

    def test_seeds_file(self):
        with open(os.path.join(HERE, "seeds.json")) as f:
            seeds = json.load(f)
        self.assertIsInstance(seeds["default_seed"], int)
        self.assertIsInstance(seeds["held_out_seed"], int)
        self.assertNotEqual(seeds["default_seed"], seeds["held_out_seed"])


if __name__ == "__main__":
    unittest.main()
