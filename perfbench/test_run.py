#!/usr/bin/env python3
"""Self-tests for the benchmark's own arithmetic and checks.

    python3 perfbench/test_run.py

Covers the median-plus-tail percentile rule, every ratio with its base,
metric-name validity (and that BENCHMARK.json lists exactly the metrics
run.py reports), and failed_frac counting deliberately failing trials.
Needs no build: the runner report is synthetic.
"""

import copy
import json
import unittest

import run

TRIAL = {
    "combo": 0, "trial": 0, "worker": 0, "seed": 7, "violation": "", "metrics_path": "",
    "start_s": 0.5, "end_s": 2.5, "nodes": 100, "sim_seconds": 60.0,
    "sim_events": 1000.0, "queue_wheel_absorbed": 900.0, "queue_wheel_spilled": 100.0,
    "profile_queue_s": 0.2, "profile_radio_s": 1.0, "profile_agent_s": 0.3,
    "profile_shard_sync_s": 0.0, "profile_other_s": 0.1, "resolved_shards": 1.0,
    "shard_stall_us": 0.0, "shard_stall_episodes": 0.0, "shard_mirrored_frames": 0.0,
    "partition_cut_edges": 0.0, "total": 50.0, "total_excl_beacons": 40.0,
    "retransmissions": 10.0, "indices_built": 3.0, "queries_issued": 5.0,
    "tuples_returned": 20.0, "storage_success": 0.9, "query_success": 0.8,
    "summary_delivery": 0.7, "readings_orphaned": 0.0, "readings_rehomed": 0.0,
    "send_retries": 0.0, "queries_reissued": 0.0, "parent_losses": 0.0,
}
REGISTRY = {"tx": 50, "rx": 400, "backoffs": 30, "drops_busy": 1, "drops_no_ack": 2,
            "fault_events": 0, "wire_bytes": 5000}


def make_rep(traced, wall_s=4.0, workers=1, trials=None):
    rep = {"traced": traced, "workers": workers, "csv_same": True, "wall_s": wall_s,
           "cpu_s": wall_s, "setup_s": 0.5, "load_s": 0.01, "topo_s": 0.49,
           "report_s": 0.02, "trials": trials or [copy.deepcopy(TRIAL)]}
    if traced:
        for t in rep["trials"]:
            t["registry"] = dict(REGISTRY)
    return rep


def make_report(reps):
    return {"workload": "grid1024_seq", "seed": 1, "trace": 1, "build_type": "Release",
            "compiler": "GNU", "peak_rss_mb": 50.0, "expected_shards": 1,
            "ref_copies": 1, "ref_ok": True, "csv_hash": "0",
            "setup_samples": [0.4, 0.6, 0.5], "setup_ref_samples": [0.1, 0.1, 0.1],
            "ref_samples": [0.1, 0.1, 0.1], "ref_cpu_samples": [0.1, 0.1, 0.1], "reps": reps}


class TailPercentileTest(unittest.TestCase):
    def test_needs_eleven_samples(self):
        self.assertIsNone(run.tail_percentile(list(range(10))))
        pct, value = run.tail_percentile(list(range(11)))
        self.assertAlmostEqual(pct, 100 / 11)
        self.assertEqual(value, 0)  # Ten samples (1..10) lie beyond it.

    def test_hundred_samples_gives_p90(self):
        samples = list(range(100, 0, -1))  # Unsorted input: 100..1.
        pct, value = run.tail_percentile(samples)
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(value, 90)
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_describe_reports_count(self):
        self.assertIn("n=3", run.describe_timing([1.0, 2.0, 3.0]))
        self.assertIn("tail=n/a", run.describe_timing([1.0, 2.0, 3.0]))
        self.assertIn("p90.0=", run.describe_timing([float(i) for i in range(100)]))


class RatioTest(unittest.TestCase):
    def test_zero_base_reads_zero(self):
        self.assertEqual(run.ratio(5, 0), 0.0)
        self.assertEqual(run.ratio(1, 4), 0.25)

    def test_pool_idle_frac_base_is_workers_times_wall(self):
        # Two workers, 4 s rep, trial spans 2 s + 2 s: busy 4 of 8 worker-seconds.
        t0, t1 = copy.deepcopy(TRIAL), copy.deepcopy(TRIAL)
        t1["trial"] = 1
        rep = make_rep(False, wall_s=4.0, workers=2, trials=[t0, t1])
        self.assertAlmostEqual(run.pool_idle_frac(rep), 0.5)

    def test_bucket_coverage_and_in_trial_setup(self):
        rep = make_rep(True)  # 2 s span, buckets 1.6 s.
        self.assertAlmostEqual(run.bucket_coverage(rep), 0.8)
        self.assertAlmostEqual(run.in_trial_setup_s(rep), 0.4)

    def test_sharded_buckets_divide_by_shard_threads(self):
        trial = copy.deepcopy(TRIAL)
        trial["resolved_shards"] = 4.0
        for key in ("profile_queue_s", "profile_radio_s", "profile_agent_s", "profile_other_s"):
            trial[key] *= 4
        rep = make_rep(True, trials=[trial])
        self.assertAlmostEqual(run.bucket_coverage(rep), 0.8)

    def test_per_layer_ratios(self):
        untraced = make_rep(False)
        traced = make_rep(True)
        traced["trials"][0]["end_s"] = 3.0  # Traced span 2.5 s vs untraced 2 s.
        m = run.per_layer_metrics(make_report([untraced, traced]))
        self.assertAlmostEqual(m["obs.profile_overhead"], 1.25)
        self.assertAlmostEqual(m["sim.radio.rx_per_tx"], 8.0)
        self.assertAlmostEqual(m["sim.mac.useful_tx_frac"], 0.8)  # (50 - 10) / 50.
        self.assertAlmostEqual(m["sim.queue.ns_per_event"], 2e5)  # 0.2 s / 1000 events.
        self.assertAlmostEqual(m["sim.queue.wheel_absorb_rate"], 0.9)
        self.assertAlmostEqual(m["scenario.pool_idle_frac"], 1 - 2.5 / 4.0)

    def test_end_to_end_at_nominal_speed(self):
        m = run.end_to_end_metrics(make_report([make_rep(False, wall_s=3.0)]))
        self.assertAlmostEqual(m["wall_norm_s"], 3.0)
        self.assertAlmostEqual(m["node_sim_s_per_norm_s"], 100 * 60.0 / 3.0)
        self.assertAlmostEqual(m["setup_s"], 0.5)  # Median of 0.4, 0.6, 0.5.

    def test_end_to_end_rescales_by_reference_medians(self):
        # Reps ran where the reference took 0.2 s of wall (half the nominal
        # speed) and 0.25 s of CPU, setup where it took 0.05 s (twice); one
        # outlier sample each.
        report = make_report([make_rep(False, wall_s=3.0)])
        report["ref_samples"] = [0.2, 0.2, 0.9]
        report["ref_cpu_samples"] = [0.25, 0.01, 0.25]
        report["setup_ref_samples"] = [0.05, 0.05, 0.01]
        m = run.end_to_end_metrics(report)
        self.assertAlmostEqual(m["wall_norm_s"], 1.5)
        self.assertAlmostEqual(m["cpu_norm_s"], 1.2)
        self.assertAlmostEqual(m["node_sim_s_per_norm_s"], 100 * 60.0 / 1.5)
        self.assertAlmostEqual(m["setup_s"], 1.0)
        self.assertEqual(m["peak_rss_mb"], 50.0)  # Memory is not rescaled.


class MetricNameTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("wall_norm_s", "sim.queue.self_s", "9lives", "a-b.c_d"):
            self.assertTrue(run.valid_metric_name(name), name)

    def test_invalid_names(self):
        for name in ("", "_lead", ".lead", "has space", "slash/x", "x" * 65, "émoji"):
            self.assertFalse(run.valid_metric_name(name), name)

    def test_units(self):
        self.assertTrue(run.valid_unit("1/s"))
        self.assertFalse(run.valid_unit("seconds per tx!"))

    def test_result_line_rejects_bad_name(self):
        with self.assertRaises(ValueError):
            run.result_line(True, 1, 0, {"bad name": 1.0}, {"bad name": "s"})

    def test_benchmark_json_matches_reported_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertTrue(run.valid_metric_name(metric["name"]), metric["name"])
        report = make_report([make_rep(False), make_rep(True)])
        self.assertEqual(set(run.per_layer_metrics(report)), set(run.PER_LAYER))
        self.assertEqual(set(run.end_to_end_metrics(report)), set(run.END_TO_END))


class FailedFracTest(unittest.TestCase):
    def test_clean_report(self):
        report = make_report([make_rep(False), make_rep(True)])
        self.assertEqual(run.mark_failures(report)[:2], (2, 0))

    def test_violation_counts_one_trial(self):
        failing = make_rep(False)
        failing["trials"][0]["violation"] = "query_success outside (0, 1]"
        report = make_report([make_rep(False), failing, make_rep(False), make_rep(False)])
        attempted, failed, reasons = run.mark_failures(report)
        self.assertEqual((attempted, failed), (4, 1))
        self.assertIn("query_success", reasons[0])

    def test_count_drift_fails(self):
        drifted = make_rep(False)
        drifted["trials"][0]["sim_events"] += 1
        self.assertEqual(run.mark_failures(make_report([make_rep(False), drifted]))[1], 1)

    def test_registry_drift_fails(self):
        drifted = make_rep(True)
        drifted["trials"][0]["registry"]["rx"] += 1
        report = make_report([make_rep(True), drifted])
        self.assertEqual(run.mark_failures(report)[1], 1)


if __name__ == "__main__":
    unittest.main()
