// perfbench_runner: runs one benchmark workload repeatedly in this process
// and prints one JSON report of raw per-rep and per-trial measurements.
//
//   perfbench_runner --workload=grid1024_seq --seed=1 --seconds=20 --trace=0 --tmp=DIR
//
// A workload is a scenario (registered, or .scn text defined here) whose
// expanded (combo x trial) grid is run by a closed-loop pool: each worker
// claims the next unit only when its previous RunAnyTrial call returned,
// exactly as the campaign runner schedules. The benchmark's own spans sit
// around its calls into the public API (ParseScenario/ExpandScenario,
// Topology::Make*, RunAnyTrial, AggregateTrials + CampaignCsv). Reps repeat
// for about --seconds of host wall time. With --trace=1 the reps
// alternate untraced / traced (profiler buckets and a metrics JSONL per
// trial written under --tmp), so simulated outputs are compared across
// both in one process. Every rep, and every few setup-only passes, sits
// between two timings of a fixed reference kernel that uses none of src/
// (run in a forked child), so run.py can rescale times to a nominal host
// speed. run.py turns this report into the benchmark's metrics; this
// program does no statistics.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "harness/experiment.h"
#include "scenario/campaign.h"
#include "scenario/campaign_reporter.h"
#include "scenario/scenario_parser.h"
#include "scenario/scenario_registry.h"
#include "sim/topology.h"

namespace {

using namespace scoop;
using Clock = std::chrono::steady_clock;

// grid_1024 scaled to a 64x64 lattice and 5 simulated minutes, on the
// parallel engine at K = 4 with the default partitioner.
constexpr const char kGrid4096Spec[] = R"(
name = grid_4096
description = 64x64 lattice (4096 nodes), REAL trace, Scoop policy, 4-way sharded engine
policy = scoop
source = real
topology = grid
nodes = 4096
duration_minutes = 5
stabilization_minutes = 3
trials = 2
shards = 4
)";

struct Workload {
  const char* name;
  const char* registered;  ///< Registry scenario name, or nullptr.
  const char* spec;        ///< .scn text when not registered.
  int workers;             ///< Thread budget: pool size, reference-kernel copies.
  int expected_shards;     ///< Resolved shard count every trial must report.
  int churn_seeds;         ///< > 0: widen the scenario's seed sweep to 1..N.
  int trials;              ///< > 0: trials per combo instead of the scenario's.
};

// grid_1024 runs four trials per rep so the work per rep varies less with
// the workload seed than one trial's does (events ±7% across seeds).
constexpr Workload kWorkloads[] = {
    {"grid1024_seq", "grid_1024", nullptr, 1, 1, 0, 4},
    {"grid4096_k4", nullptr, kGrid4096Spec, 4, 4, 0, 0},
    {"fig5_sweep", "fig5_query_interval", nullptr, 4, 1, 0, 0},
    {"churn_reboot", "churn_reboot", nullptr, 4, 1, 48, 0},
};

/// Setup-only passes before the reps, in groups between reference timings.
constexpr int kSetupGroups = 4;
constexpr int kSetupPassesPerGroup = 6;
/// Reference timings at each point between setup groups and between reps:
/// the host stalls for a few hundred ms now and then, so run.py takes the
/// median of many samples.
constexpr int kRefSamplesPerPoint = 3;
/// Reps shorter than this share one reference point, to bound its cost.
constexpr double kRefIntervalS = 2.0;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Fixed work shaped like the simulator's inner loop, built from nothing in
/// src/: pop the earliest of 32K pending events from a binary heap, fan it
/// out to 8 of 64K node records (4 MiB, past L2; a data-dependent branch
/// per record) and schedule a follow-up. About 0.1 s on a 2.1 GHz Xeon. Returns a checksum
/// so the work cannot be elided; every call returns the same one.
uint64_t ReferenceKernel() {
  constexpr uint32_t kNodes = 1u << 16;
  constexpr uint32_t kPending = 1u << 15;
  constexpr uint32_t kFanout = 8;
  constexpr int kSteps = 640000;
  struct Node {
    uint64_t word[8];
  };
  std::vector<Node> nodes(kNodes);
  for (uint32_t i = 0; i < kNodes; ++i) {
    for (uint32_t k = 0; k < 8; ++k) nodes[i].word[k] = i * 8 + k;
  }
  uint64_t x = 0x9E3779B97F4A7C15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  using Event = std::pair<uint64_t, uint32_t>;
  std::vector<Event> heap;
  heap.reserve(kPending + 1);
  for (uint32_t i = 0; i < kPending; ++i) {
    uint64_t at = next() % 1000000;
    heap.emplace_back(at, static_cast<uint32_t>(next() % kNodes));
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  uint64_t sum = 0;
  for (int step = 0; step < kSteps; ++step) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    Event ev = heap.back();
    heap.pop_back();
    const Node& src = nodes[ev.second];
    uint32_t delivered = 0;
    for (uint32_t k = 0; k < kFanout; ++k) {
      Node& dst = nodes[(ev.second + k * 129 + 1) % kNodes];
      uint64_t v = src.word[k] ^ (ev.first + k);
      if ((v & 3) != 0) {
        dst.word[k] += v;
        ++delivered;
      } else {
        dst.word[(k + 1) & 7] ^= v >> 3;
      }
    }
    sum += delivered;
    uint64_t r = next();
    heap.emplace_back(ev.first + 1 + r % (1000 + delivered * 100),
                      static_cast<uint32_t>((r >> 32) % kNodes));
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  for (const Node& n : nodes) {
    for (uint64_t w : n.word) sum += w;
  }
  return sum;
}

/// One timing of the reference kernel: medians over its concurrent copies.
struct RefSample {
  double wall_s = 0;
  double cpu_s = 0;  ///< The copy's own thread CPU time.
  uint64_t checksum = 0;  ///< 0 when the copies disagree.
};

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Runs `copies` concurrent copies of the reference kernel in a forked
/// child, so their memory never shows in this process's peak RSS or
/// allocator state. Each copy times itself in wall and thread CPU time.
/// Returns false when the child failed.
bool TimeReference(int copies, RefSample* sample) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(stdout);
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    std::vector<double> walls(static_cast<size_t>(copies)), cpus(walls.size());
    std::vector<uint64_t> sums(walls.size());
    auto run = [&walls, &cpus, &sums](size_t i) {
      Clock::time_point t0 = Clock::now();
      double cpu0 = ThreadCpuSeconds();
      sums[i] = ReferenceKernel();
      cpus[i] = ThreadCpuSeconds() - cpu0;
      walls[i] = Since(t0);
    };
    std::vector<std::thread> threads;
    for (size_t i = 1; i < walls.size(); ++i) threads.emplace_back(run, i);
    run(0);
    for (std::thread& t : threads) t.join();
    RefSample out{Median(walls), Median(cpus), sums[0]};
    for (uint64_t sum : sums) out.checksum = sum == sums[0] ? out.checksum : 0;
    bool wrote = write(fds[1], &out, sizeof out) == static_cast<ssize_t>(sizeof out);
    _exit(wrote ? 0 : 1);
  }
  close(fds[1]);
  RefSample in{};
  size_t got = 0;
  while (got < sizeof in) {
    ssize_t n = read(fds[0], reinterpret_cast<char*>(&in) + got, sizeof in - got);
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  pid_t waited;
  do {
    waited = waitpid(pid, &status, 0);
  } while (waited < 0 && errno == EINTR);
  if (waited != pid || got != sizeof in || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return false;
  *sample = in;
  return true;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// One unit of the closed-loop grid: which combo, which trial, its seed.
struct Unit {
  size_t combo;
  int trial;
  uint64_t seed;
};

/// The expanded workload: runs plus the flattened unit list.
struct Plan {
  scenario::Scenario scenario;
  std::vector<scenario::ExpandedRun> runs;
  std::vector<Unit> units;
};

/// Parses and expands the workload's scenario and derives every combo's
/// seed from the workload seed (keeping the scenario's own per-combo seed
/// as the second input, so a seed sweep still gives distinct trials).
bool LoadPlan(const Workload& w, uint64_t workload_seed, Plan* plan, std::string* error) {
  Result<scenario::Scenario> parsed =
      w.registered != nullptr
          ? scenario::ParseScenario(scenario::FindRegisteredSpec(w.registered),
                                    std::string("<registry:") + w.registered + ">")
          : scenario::ParseScenario(w.spec, std::string("<perfbench:") + w.name + ">");
  if (!parsed.ok()) {
    *error = parsed.status().message();
    return false;
  }
  plan->scenario = std::move(parsed).value();
  if (w.churn_seeds > 0) {
    for (scenario::SweepAxis& axis : plan->scenario.sweeps) {
      if (axis.key != "seed") continue;
      axis.values.clear();
      for (int s = 1; s <= w.churn_seeds; ++s) axis.values.push_back(std::to_string(s));
    }
  }
  if (w.trials > 0) plan->scenario.base.trials = w.trials;
  Result<std::vector<scenario::ExpandedRun>> expanded = scenario::ExpandScenario(plan->scenario);
  if (!expanded.ok()) {
    *error = expanded.status().message();
    return false;
  }
  plan->runs = std::move(expanded).value();
  plan->units.clear();
  for (size_t c = 0; c < plan->runs.size(); ++c) {
    harness::ExperimentConfig& config = plan->runs[c].config;
    config.seed = MixSeed(workload_seed, config.seed);
    for (int t = 0; t < config.trials; ++t) {
      plan->units.push_back(Unit{c, t, MixSeed(config.seed, static_cast<uint64_t>(t))});
    }
  }
  return true;
}

/// Builds every unit's topology through the public builders, with the
/// same options and seed the harness uses. Returns false on a size
/// mismatch.
bool BuildTopologies(const Plan& plan) {
  bool ok = true;
  for (const Unit& unit : plan.units) {
    const harness::ExperimentConfig& config = plan.runs[unit.combo].config;
    int nodes = 0;
    switch (config.preset) {
      case harness::TopologyPreset::kTestbed: {
        sim::TestbedTopologyOptions opts;
        opts.num_nodes = config.num_nodes;
        opts.seed = unit.seed;
        nodes = sim::Topology::MakeTestbed(opts).num_nodes();
        break;
      }
      case harness::TopologyPreset::kGrid: {
        sim::GridTopologyOptions opts;
        opts.num_nodes = config.num_nodes;
        opts.seed = unit.seed;
        nodes = sim::Topology::MakeGrid(opts).num_nodes();
        break;
      }
      case harness::TopologyPreset::kRandom: {
        sim::RandomTopologyOptions opts;
        opts.num_nodes = config.num_nodes;
        opts.seed = unit.seed;
        nodes = sim::Topology::MakeRandom(opts).num_nodes();
        break;
      }
    }
    ok = ok && nodes == config.num_nodes;
  }
  return ok;
}

struct SetupTimes {
  double load_s = 0;
  double topo_s = 0;
  bool ok = false;
};

SetupTimes Setup(const Workload& w, uint64_t seed, Plan* plan, std::string* error) {
  SetupTimes t;
  Clock::time_point t0 = Clock::now();
  if (!LoadPlan(w, seed, plan, error)) return t;
  t.load_s = Since(t0);
  Clock::time_point t1 = Clock::now();
  t.ok = BuildTopologies(*plan);
  if (!t.ok) *error = "topology builder returned the wrong node count";
  t.topo_s = Since(t1);
  return t;
}

struct TrialRecord {
  Unit unit;
  int worker = 0;
  double start_s = 0;  ///< Relative to the rep's start.
  double end_s = 0;
  std::string metrics_path;
  harness::ExperimentResult result;
};

struct RepRecord {
  bool traced = false;
  double wall_s = 0;
  double cpu_s = 0;
  double setup_s = 0;
  double load_s = 0;
  double topo_s = 0;
  double report_s = 0;
  int workers = 1;
  std::string csv;
  std::vector<TrialRecord> trials;
  std::vector<harness::ExperimentConfig> configs;  ///< Per combo.
};

/// One full run of the workload: setup, the closed-loop pool, the report.
bool RunRep(const Workload& w, uint64_t seed, bool traced, const std::string& tmp_dir, int rep,
            RepRecord* out, std::string* error) {
  double cpu0 = CpuSeconds();
  Clock::time_point t0 = Clock::now();
  Plan plan;
  SetupTimes setup = Setup(w, seed, &plan, error);
  if (!setup.ok) return false;
  out->traced = traced;
  out->load_s = setup.load_s;
  out->topo_s = setup.topo_s;
  out->trials.resize(plan.units.size());

  // Same thread budget rule as the campaign runner: a sharded trial runs
  // its own shard threads, so the pool gets budget / widest-trial workers.
  int widest = 1;
  for (const scenario::ExpandedRun& run : plan.runs) {
    widest = std::max(widest, harness::ResolvedShards(run.config));
  }
  int workers = std::clamp(std::max(1, w.workers / widest), 1,
                           static_cast<int>(plan.units.size()));
  out->workers = workers;

  std::atomic<size_t> cursor{0};
  auto worker = [&](int id) {
    for (;;) {
      size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= plan.units.size()) return;
      const Unit& unit = plan.units[i];
      TrialRecord& rec = out->trials[i];
      harness::ExperimentConfig config = plan.runs[unit.combo].config;
      if (traced) {
        config.profile = true;
        rec.metrics_path = tmp_dir + "/rep" + std::to_string(rep) + "-c" +
                           std::to_string(unit.combo) + "-t" + std::to_string(unit.trial) +
                           ".jsonl";
        config.metrics_out = rec.metrics_path;
      }
      rec.unit = unit;
      rec.worker = id;
      rec.start_s = Since(t0);
      rec.result = harness::RunAnyTrial(config, unit.seed);
      rec.end_s = Since(t0);
    }
  };
  std::vector<std::thread> pool;
  for (int i = 1; i < workers; ++i) pool.emplace_back(worker, i);
  worker(0);
  for (std::thread& t : pool) t.join();

  out->setup_s = out->trials.front().start_s;
  for (const TrialRecord& rec : out->trials) out->setup_s = std::min(out->setup_s, rec.start_s);

  Clock::time_point r0 = Clock::now();
  scenario::CampaignResult campaign;
  campaign.scenario_name = plan.scenario.name;
  campaign.description = plan.scenario.description;
  for (const scenario::SweepAxis& axis : plan.scenario.sweeps) {
    campaign.axis_keys.push_back(axis.key);
  }
  campaign.rows.resize(plan.runs.size());
  for (size_t c = 0; c < plan.runs.size(); ++c) {
    campaign.rows[c].axes = plan.runs[c].axes;
    campaign.rows[c].config = plan.runs[c].config;
    campaign.rows[c].trials.resize(static_cast<size_t>(plan.runs[c].config.trials));
  }
  for (const TrialRecord& rec : out->trials) {
    campaign.rows[rec.unit.combo].trials[static_cast<size_t>(rec.unit.trial)] = rec.result;
  }
  for (scenario::CampaignRow& row : campaign.rows) row.mean = harness::AggregateTrials(row.trials);
  out->csv = scenario::CampaignCsv(campaign);
  out->report_s = Since(r0);

  out->wall_s = Since(t0);
  out->cpu_s = CpuSeconds() - cpu0;
  for (const scenario::ExpandedRun& run : plan.runs) out->configs.push_back(run.config);
  return true;
}

/// The benchmark's sanity invariants on one trial; empty when it passes.
/// BASE answers every query at the basestation: it sends no query into
/// the network, so its query_success is 0 by definition and the check is
/// that queries returned tuples instead.
std::string CheckTrial(const Workload& w, const harness::ExperimentConfig& config,
                       const harness::ExperimentResult& r) {
  if (!(r.sim_events > 0)) return "no events executed";
  if (config.policy == harness::Policy::kBase) {
    if (!(r.tuples_returned > 0)) return "BASE returned no tuples";
  } else if (!(r.query_success > 0 && r.query_success <= 1)) {
    return "query_success outside (0, 1]";
  }
  if (!(r.storage_success > 0)) return "storage_success is 0";
  if (static_cast<int>(r.resolved_shards) != w.expected_shards) {
    return "resolved shard count " + std::to_string(static_cast<int>(r.resolved_shards)) +
           " != " + std::to_string(w.expected_shards);
  }
  return "";
}

void PrintNum(const char* key, double v, bool comma = true) {
  std::printf("\"%s\":%.17g%s", key, v, comma ? "," : "");
}

void PrintTrial(const Workload& w, const TrialRecord& rec, const harness::ExperimentConfig& config,
                bool csv_same) {
  const harness::ExperimentResult& r = rec.result;
  std::string violation = CheckTrial(w, config, r);
  if (violation.empty() && !csv_same) violation = "campaign CSV differs from the first rep";
  std::printf("{\"combo\":%zu,\"trial\":%d,\"worker\":%d,\"seed\":%" PRIu64 ",", rec.unit.combo,
              rec.unit.trial, rec.worker, rec.unit.seed);
  std::printf("\"violation\":\"%s\",\"metrics_path\":\"%s\",", violation.c_str(),
              rec.metrics_path.c_str());
  PrintNum("start_s", rec.start_s);
  PrintNum("end_s", rec.end_s);
  PrintNum("nodes", config.num_nodes);
  PrintNum("sim_seconds", ToSeconds(config.duration));
  PrintNum("sim_events", r.sim_events);
  PrintNum("queue_wheel_absorbed", r.queue_wheel_absorbed);
  PrintNum("queue_wheel_spilled", r.queue_wheel_spilled);
  PrintNum("profile_queue_s", r.profile_queue_seconds);
  PrintNum("profile_radio_s", r.profile_radio_seconds);
  PrintNum("profile_agent_s", r.profile_agent_seconds);
  PrintNum("profile_shard_sync_s", r.profile_shard_sync_seconds);
  PrintNum("profile_other_s", r.profile_other_seconds);
  PrintNum("resolved_shards", r.resolved_shards);
  PrintNum("shard_stall_us", r.shard_stall_us);
  PrintNum("shard_stall_episodes", r.shard_stall_episodes);
  PrintNum("shard_mirrored_frames", r.shard_mirrored_frames);
  PrintNum("partition_cut_edges", r.partition_cut_edges);
  PrintNum("total", r.total);
  PrintNum("total_excl_beacons", r.total_excl_beacons);
  PrintNum("retransmissions", r.retransmissions);
  PrintNum("indices_built", r.indices_built);
  PrintNum("queries_issued", r.queries_issued);
  PrintNum("tuples_returned", r.tuples_returned);
  PrintNum("storage_success", r.storage_success);
  PrintNum("query_success", r.query_success);
  PrintNum("summary_delivery", r.summary_delivery);
  PrintNum("readings_orphaned", r.readings_orphaned);
  PrintNum("readings_rehomed", r.readings_rehomed);
  PrintNum("send_retries", r.send_retries);
  PrintNum("queries_reissued", r.queries_reissued);
  PrintNum("parent_losses", r.parent_losses, false);
  std::printf("}");
}

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload=NAME --seed=N --seconds=S --trace=0|1 --tmp=DIR\n"
               "workloads:",
               argv0);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, tmp_dir;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      return std::strncmp(a, flag, n) == 0 && a[n] == '=' ? a + n + 1 : nullptr;
    };
    if (const char* v = value("--workload")) {
      workload_name = v;
    } else if (const char* v = value("--seed")) {
      seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (const char* v = value("--seconds")) {
      seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--trace")) {
      trace = std::strcmp(v, "1") == 0;
    } else if (const char* v = value("--tmp")) {
      tmp_dir = v;
    } else {
      Usage(argv[0]);
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr || !have_seed || !(seconds > 0) || (trace && tmp_dir.empty())) {
    Usage(argv[0]);
  }

  Clock::time_point start = Clock::now();
  std::vector<double> setup_samples, setup_ref_samples, ref_samples, ref_cpu_samples;
  uint64_t ref_checksum = 0;
  bool ref_ok = true;
  auto time_reference = [&](int copies, std::vector<double>* walls, std::vector<double>* cpus) {
    for (int i = 0; i < kRefSamplesPerPoint; ++i) {
      RefSample sample;
      if (!TimeReference(copies, &sample)) {
        std::fprintf(stderr, "perfbench_runner: reference kernel failed\n");
        std::exit(1);
      }
      if (ref_checksum == 0) ref_checksum = sample.checksum;
      ref_ok = ref_ok && sample.checksum != 0 && sample.checksum == ref_checksum;
      if (walls != nullptr) walls->push_back(sample.wall_s);
      if (cpus != nullptr) cpus->push_back(sample.cpu_s);
    }
  };
  time_reference(workload->workers, nullptr, nullptr);  // Warm-up, not recorded.

  // Setup alone, in groups between one-copy reference timings (setup runs
  // on one thread), so setup_s is a median of many samples.
  std::string error;
  time_reference(1, &setup_ref_samples, nullptr);
  for (int g = 0; g < kSetupGroups; ++g) {
    for (int i = 0; i < kSetupPassesPerGroup; ++i) {
      Plan plan;
      Clock::time_point t0 = Clock::now();
      if (!Setup(*workload, seed, &plan, &error).ok) {
        std::fprintf(stderr, "perfbench_runner: setup failed: %s\n", error.c_str());
        return 1;
      }
      setup_samples.push_back(Since(t0));
    }
    time_reference(1, &setup_ref_samples, nullptr);
  }

  std::vector<RepRecord> reps;
  double peak_rss_mb = 0;
  time_reference(workload->workers, &ref_samples, &ref_cpu_samples);
  Clock::time_point last_ref = Clock::now();
  bool ref_after_last_rep = true;
  // Untraced reps only, or untraced/traced alternating (at least one of
  // each). Another rep starts only while it would end less than half a rep
  // past the deadline, so a run lasts about --seconds.
  while (reps.size() < (trace ? 2u : 1u) ||
         Since(start) + 0.5 * reps.back().wall_s < seconds) {
    bool traced = trace && reps.size() % 2 == 1;
    RepRecord rep;
    if (!RunRep(*workload, seed, traced, tmp_dir, static_cast<int>(reps.size()), &rep, &error)) {
      std::fprintf(stderr, "perfbench_runner: rep failed: %s\n", error.c_str());
      return 1;
    }
    reps.push_back(std::move(rep));
    if (reps.size() == 1) {
      // Peak memory of one run of the workload. Later reps only add the
      // allocator's retained free pages, which grow with the rep count.
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    }
    ref_after_last_rep = Since(last_ref) >= kRefIntervalS;
    if (ref_after_last_rep) {
      time_reference(workload->workers, &ref_samples, &ref_cpu_samples);
      last_ref = Clock::now();
    }
  }
  if (!ref_after_last_rep) time_reference(workload->workers, &ref_samples, &ref_cpu_samples);

  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"trace\":%d,", workload->name, seed,
              trace ? 1 : 0);
  std::printf("\"build_type\":\"%s\",\"compiler\":\"%s\",", PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER);
  PrintNum("peak_rss_mb", peak_rss_mb);
  PrintNum("expected_shards", workload->expected_shards);
  std::printf("\"ref_copies\":%d,\"ref_ok\":%s,", workload->workers,
              ref_ok ? "true" : "false");
  std::printf("\"csv_hash\":\"%016" PRIx64 "\",", Fnv1a(reps[0].csv));
  auto print_list = [](const char* key, const std::vector<double>& values) {
    std::printf("\"%s\":[", key);
    for (size_t i = 0; i < values.size(); ++i) std::printf("%s%.17g", i ? "," : "", values[i]);
    std::printf("],");
  };
  print_list("setup_samples", setup_samples);
  print_list("setup_ref_samples", setup_ref_samples);
  print_list("ref_samples", ref_samples);
  print_list("ref_cpu_samples", ref_cpu_samples);
  std::printf("\"reps\":[");
  for (size_t i = 0; i < reps.size(); ++i) {
    const RepRecord& rep = reps[i];
    bool csv_same = rep.csv == reps[0].csv;
    std::printf("%s{\"traced\":%s,\"workers\":%d,\"csv_same\":%s,", i ? "," : "",
                rep.traced ? "true" : "false", rep.workers, csv_same ? "true" : "false");
    PrintNum("wall_s", rep.wall_s);
    PrintNum("cpu_s", rep.cpu_s);
    PrintNum("setup_s", rep.setup_s);
    PrintNum("load_s", rep.load_s);
    PrintNum("topo_s", rep.topo_s);
    PrintNum("report_s", rep.report_s);
    std::printf("\"trials\":[");
    for (size_t t = 0; t < rep.trials.size(); ++t) {
      if (t) std::printf(",");
      PrintTrial(*workload, rep.trials[t], rep.configs[rep.trials[t].unit.combo], csv_same);
    }
    std::printf("]}");
  }
  std::printf("]}\n");
  return 0;
}
