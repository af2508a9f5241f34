#!/usr/bin/env python3
"""Scoop simulator benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload grid1024_seq --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

Run from the root of a source checkout. The script builds the runner
(perfbench/runner.cc plus the scoop library from src/, Release) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload in a fresh runner process for --seconds of host wall time, checks
the simulated outputs, and prints every metric by name with its unit. The
last stdout line is the machine-readable result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics (BENCHMARK.json "end_to_end"), whose
times are rescaled to a nominal host speed by a reference kernel timed
between reps; --trace 1 alternates untraced and traced reps and reports the
per-layer metrics ("per_layer"). perfbench/README.md defines every metric
and the layer -> end-to-end map. Self-tests: python3 perfbench/test_run.py
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("grid1024_seq", "grid4096_k4", "fig5_sweep", "churn_reboot")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
# Runner wall budget beyond --seconds before it counts as hung: the last rep
# may start just before the deadline (a grid4096_k4 rep takes ~6 s).
RUNNER_GRACE_S = 100
# Seconds one reference-kernel copy takes at the nominal host speed (about
# its time on an idle 2.1 GHz Xeon). Normalised times are host times scaled
# by REF_NOMINAL_S / (median reference time measured in the same run): wall
# times by the reference's wall time, CPU times by its thread CPU time.
REF_NOMINAL_S = 0.1

END_TO_END = {
    "wall_norm_s": "s",
    "cpu_norm_s": "s",
    "node_sim_s_per_norm_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "scenario.load_s": "s",
    "scenario.report_s": "s",
    "scenario.pool_idle_frac": "ratio",
    "harness.trial_s": "s",
    "harness.in_trial_setup_s": "s",
    "sim.topology.build_s": "s",
    "sim.queue.self_s": "s",
    "sim.queue.events": "count",
    "sim.queue.ns_per_event": "ns",
    "sim.queue.wheel_absorb_rate": "ratio",
    "sim.radio.self_s": "s",
    "sim.radio.tx": "count",
    "sim.radio.rx": "count",
    "sim.radio.rx_per_tx": "ratio",
    "sim.mac.backoffs": "count",
    "sim.mac.drops_busy": "count",
    "sim.mac.drops_no_ack": "count",
    "sim.mac.useful_tx_frac": "ratio",
    "sim.shard.sync_s": "s",
    "sim.shard.stall_s": "s",
    "sim.shard.stall_episodes": "count",
    "sim.shard.mirrored_frames": "count",
    "sim.partition.cut_edges": "count",
    "core.agent.self_s": "s",
    "core.msgs_excl_beacons": "count",
    "core.indices_built": "count",
    "core.queries_issued": "count",
    "core.tuples_returned": "count",
    "core.storage_success": "ratio",
    "core.query_success": "ratio",
    "core.summary_delivery": "ratio",
    "fault.events": "count",
    "core.readings_orphaned": "count",
    "core.readings_rehomed": "count",
    "core.send_retries": "count",
    "core.queries_reissued": "count",
    "net.parent_losses": "count",
    "net.wire_bytes": "B",
    "obs.profile_overhead": "ratio",
    "obs.bucket_coverage": "ratio",
}

# Per-trial fields that are deterministic model outputs for a fixed seed:
# every rep, traced or not, must reproduce them exactly.
DETERMINISTIC_FIELDS = (
    "sim_events", "queue_wheel_absorbed", "queue_wheel_spilled", "resolved_shards",
    "shard_mirrored_frames", "partition_cut_edges", "total", "total_excl_beacons",
    "retransmissions", "indices_built", "queries_issued", "tuples_returned",
    "storage_success", "query_success", "summary_delivery", "readings_orphaned",
    "readings_rehomed", "send_retries", "queries_reissued", "parent_losses",
)

# Registry counters read from each traced trial's metrics JSONL.
REGISTRY_COUNTERS = {
    "tx": ("radio.tx_started",),
    "rx": ("radio.deliveries",),
    "backoffs": ("mac.backoffs_scheduled",),
    "drops_busy": ("radio.drops_channel_busy",),
    "drops_no_ack": ("radio.drops_no_ack",),
    "fault_events": ("fault.crash", "fault.reboot", "fault.link_down", "fault.partition"),
}

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_metric_name(name):
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit):
    return UNIT_RE.fullmatch(unit) is not None


def ratio(num, den):
    """num / den, or 0 when the base is 0 (a layer the workload bypasses)."""
    return num / den if den else 0.0


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it.

    Nearest rank: the value at sorted index n - 11 has exactly ten samples
    above it, and sits at percentile 100 * (n - 10) / n. Returns
    (percentile, value), or None when there are fewer than 11 samples.
    """
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def describe_timing(samples):
    """'median=… pXX=… n=…' per the median-plus-tail reporting rule."""
    text = f"median={statistics.median(samples):.6g}"
    tail = tail_percentile(samples)
    text += f" p{tail[0]:.1f}={tail[1]:.6g}" if tail else " tail=n/a(<11 samples)"
    return text + f" n={len(samples)}"


# --- Per-rep derived quantities -------------------------------------------


def trial_span(trial):
    return trial["end_s"] - trial["start_s"]


def threads_per_trial(trial):
    """Profiler buckets sum over a trial's shard threads; this is their count."""
    return max(1.0, trial["resolved_shards"])


def bucket_seconds(trial):
    return (trial["profile_queue_s"] + trial["profile_radio_s"] + trial["profile_agent_s"] +
            trial["profile_shard_sync_s"] + trial["profile_other_s"])


def pool_idle_frac(rep):
    """1 - sum of trial spans / (workers x rep wall)."""
    busy = sum(trial_span(t) for t in rep["trials"])
    return 1.0 - ratio(busy, rep["workers"] * rep["wall_s"])


def bucket_coverage(rep):
    """Sum of profiler buckets (per trial thread) / sum of trial spans."""
    covered = sum(bucket_seconds(t) / threads_per_trial(t) for t in rep["trials"])
    return ratio(covered, sum(trial_span(t) for t in rep["trials"]))


def in_trial_setup_s(rep):
    """Trial span time no profiler bucket covers: agent install, in-trial
    topology/fault plan, result collection."""
    return sum(trial_span(t) - bucket_seconds(t) / threads_per_trial(t) for t in rep["trials"])


def node_sim_s(rep):
    return sum(t["nodes"] * t["sim_seconds"] for t in rep["trials"])


def read_registry(path):
    """Sums the registry counters of the final sample instant over shards."""
    rows = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    last = max(row["t_us"] for row in rows)
    final = [row for row in rows if row["t_us"] == last]
    counts = {key: sum(row.get(name, 0) for row in final for name in names)
              for key, names in REGISTRY_COUNTERS.items()}
    counts["wire_bytes"] = sum(v for row in final for k, v in row.items()
                               if k.startswith("wire.bytes."))
    return counts


# --- Correctness -----------------------------------------------------------


def mark_failures(report):
    """Returns (attempted, failed, reasons) over every trial of every rep.

    A trial fails on a runner-side violation (sanity invariant or a campaign
    CSV that differs from the first rep's) or when its deterministic fields
    or registry counts differ from the same trial in the first rep that
    carries them.
    """
    attempted = failed = 0
    reasons = []
    reference = {}
    registry_reference = {}
    for rep_index, rep in enumerate(report["reps"]):
        for trial in rep["trials"]:
            attempted += 1
            key = (trial["combo"], trial["trial"])
            fields = tuple(trial[f] for f in DETERMINISTIC_FIELDS)
            problem = trial["violation"]
            if not problem and reference.setdefault(key, fields) != fields:
                problem = "deterministic counts differ from the first rep"
            if not problem and "registry" in trial:
                if registry_reference.setdefault(key, trial["registry"]) != trial["registry"]:
                    problem = "registry counts differ from the first traced rep"
            if problem:
                failed += 1
                reasons.append(f"rep {rep_index} combo {key[0]} trial {key[1]}: {problem}")
    return attempted, failed, reasons


# --- Metrics ---------------------------------------------------------------


def host_scale(report, key):
    """REF_NOMINAL_S over the run's median reference time in report[key]:
    "ref_samples" (wall) and "ref_cpu_samples" are timed with the workload's
    copy count around reps, "setup_ref_samples" (wall) with one copy around
    the single-threaded setup passes."""
    return REF_NOMINAL_S / statistics.median(report[key])


def end_to_end_metrics(report):
    reps = report["reps"]
    scale = host_scale(report, "ref_samples")
    return {
        "wall_norm_s": statistics.median(r["wall_s"] for r in reps) * scale,
        "cpu_norm_s": (statistics.median(r["cpu_s"] for r in reps) *
                       host_scale(report, "ref_cpu_samples")),
        "node_sim_s_per_norm_s":
            statistics.median(node_sim_s(r) / r["wall_s"] for r in reps) / scale,
        "peak_rss_mb": report["peak_rss_mb"],
        "setup_s": (statistics.median(report["setup_samples"]) *
                    host_scale(report, "setup_ref_samples")),
    }


def per_layer_metrics(report):
    traced = [r for r in report["reps"] if r["traced"]]
    untraced = [r for r in report["reps"] if not r["traced"]]

    def med(fn):
        return statistics.median(fn(r) for r in traced)

    def total(field):
        return med(lambda r: sum(t[field] for t in r["trials"]))

    def mean(field):
        return med(lambda r: statistics.fmean(t[field] for t in r["trials"]))

    def registry(key):
        return med(lambda r: sum(t["registry"][key] for t in r["trials"]))

    def trial_s(r):
        return sum(trial_span(t) for t in r["trials"])

    tx, rx = registry("tx"), registry("rx")
    events, queue_s = total("sim_events"), total("profile_queue_s")
    absorbed, spilled = total("queue_wheel_absorbed"), total("queue_wheel_spilled")
    return {
        "scenario.load_s": med(lambda r: r["load_s"]),
        "scenario.report_s": med(lambda r: r["report_s"]),
        "scenario.pool_idle_frac": med(pool_idle_frac),
        "harness.trial_s": med(trial_s),
        "harness.in_trial_setup_s": med(in_trial_setup_s),
        "sim.topology.build_s": med(lambda r: r["topo_s"]),
        "sim.queue.self_s": queue_s,
        "sim.queue.events": events,
        "sim.queue.ns_per_event": 1e9 * ratio(queue_s, events),
        "sim.queue.wheel_absorb_rate": ratio(absorbed, absorbed + spilled),
        "sim.radio.self_s": total("profile_radio_s"),
        "sim.radio.tx": tx,
        "sim.radio.rx": rx,
        "sim.radio.rx_per_tx": ratio(rx, tx),
        "sim.mac.backoffs": registry("backoffs"),
        "sim.mac.drops_busy": registry("drops_busy"),
        "sim.mac.drops_no_ack": registry("drops_no_ack"),
        "sim.mac.useful_tx_frac": ratio(tx - total("retransmissions"), tx),
        "sim.shard.sync_s": total("profile_shard_sync_s"),
        "sim.shard.stall_s": total("shard_stall_us") / 1e6,
        "sim.shard.stall_episodes": total("shard_stall_episodes"),
        "sim.shard.mirrored_frames": total("shard_mirrored_frames"),
        "sim.partition.cut_edges": total("partition_cut_edges"),
        "core.agent.self_s": total("profile_agent_s"),
        "core.msgs_excl_beacons": total("total_excl_beacons"),
        "core.indices_built": total("indices_built"),
        "core.queries_issued": total("queries_issued"),
        "core.tuples_returned": total("tuples_returned"),
        "core.storage_success": mean("storage_success"),
        "core.query_success": mean("query_success"),
        "core.summary_delivery": mean("summary_delivery"),
        "fault.events": registry("fault_events"),
        "core.readings_orphaned": total("readings_orphaned"),
        "core.readings_rehomed": total("readings_rehomed"),
        "core.send_retries": total("send_retries"),
        "core.queries_reissued": total("queries_reissued"),
        "net.parent_losses": total("parent_losses"),
        "net.wire_bytes": registry("wire_bytes"),
        "obs.profile_overhead": ratio(med(trial_s),
                                      statistics.median(trial_s(r) for r in untraced)),
        "obs.bucket_coverage": med(bucket_coverage),
    }


def result_line(correct, attempted, failed, values, units):
    for name, unit in units.items():
        if not valid_metric_name(name) or not valid_unit(unit):
            raise ValueError(f"invalid metric name or unit: {name!r} {unit!r}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


# --- Driving the runner ----------------------------------------------------


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build_runner():
    """Configures and builds the runner; cmake output goes to stderr."""
    out = build_dir()
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "--target", "perfbench_runner",
         "-j", str(len(os.sched_getaffinity(0)))],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return out / "perfbench_runner"


def git_provenance():
    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                  timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    if commit is None:
        return {"commit": "unknown (not a git checkout)", "dirty": None}
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": commit, "dirty": None if status is None else bool(status)}


def run_workload(runner, args, tmp):
    """Runs the runner once; returns (report or None, failure reason)."""
    cmd = [str(runner), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}", f"--tmp={tmp}"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=args.seconds + RUNNER_GRACE_S)
    except subprocess.TimeoutExpired:
        return None, f"runner timed out after {args.seconds + RUNNER_GRACE_S} s"
    if proc.returncode != 0:
        return None, f"runner exited with code {proc.returncode}"
    return json.loads(proc.stdout), ""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # Each workload still gets its own fresh runner process.
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        return max(main(["--workload", w] + rest) for w in WORKLOADS)

    runner = build_runner()
    if runner is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    load_before = os.getloadavg()
    tmp = build_dir() / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        report, error = run_workload(runner, args, tmp)
        if report is not None:
            for rep in report["reps"]:
                for trial in rep["trials"]:
                    if trial["metrics_path"]:
                        trial["registry"] = read_registry(trial["metrics_path"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    load_after = os.getloadavg()

    provenance = {
        **git_provenance(),
        "build_type": report["build_type"] if report else "unknown",
        "compiler": report["compiler"] if report else "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in load_after],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("provenance: " + json.dumps(provenance))
    if report is not None and report["build_type"] != "Release":
        print(f"WARNING: runner build type is {report['build_type']}, not Release; "
              "timings are not comparable", flush=True)
    if report is not None and not report["ref_ok"]:
        report, error = None, "reference kernel checksums differ between copies or samples"
    if report is None:
        # A crashed or hung runner fails every trial it attempted; it gets
        # no metrics, so no result line either.
        print(f"perfbench: {error}; failed_frac = 1", file=sys.stderr)
        return 1

    attempted, failed, reasons = mark_failures(report)
    for reason in reasons:
        print(f"FAILED {reason}")
    if args.trace:
        values, units = per_layer_metrics(report), PER_LAYER
    else:
        values, units = end_to_end_metrics(report), END_TO_END
        reps = report["reps"]
        print(f"host wall_s [s] {describe_timing([r['wall_s'] for r in reps])}")
        print(f"host cpu_s [s] {describe_timing([r['cpu_s'] for r in reps])}")
        print(f"host setup_s [s] {describe_timing(report['setup_samples'])}")
        spans = [trial_span(t) for r in reps for t in r["trials"]]
        print(f"host trial span [s] {describe_timing(spans)}")
        print(f"reference kernel x{report['ref_copies']} wall [s] "
              f"{describe_timing(report['ref_samples'])}")
        print(f"reference kernel x{report['ref_copies']} thread cpu [s] "
              f"{describe_timing(report['ref_cpu_samples'])}")
        print(f"reference kernel x1 wall [s] {describe_timing(report['setup_ref_samples'])}")
        events = sum(t["sim_events"] for t in reps[0]["trials"])
        print(f"sim events per rep = {events:.0f} count")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.9g} {unit}")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} trials)")
    print(f"csv_hash = {report['csv_hash']}")
    print(result_line(failed == 0, attempted, failed, values, units))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
