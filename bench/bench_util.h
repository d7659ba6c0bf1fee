#ifndef WEBTX_BENCH_BENCH_UTIL_H_
#define WEBTX_BENCH_BENCH_UTIL_H_

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "exp/sweep.h"
#include "exp/table.h"
#include "sched/scheduler_policy.h"
#include "sim/simulator.h"

namespace webtx::bench {

/// Where figure harnesses drop their CSVs (created on demand).
inline std::string ResultsDir() {
  const std::string dir = "webtx_results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

/// Saves a printed table as CSV next to the stdout output.
inline void SaveCsv(const Table& table, const std::string& name) {
  const std::string path = ResultsDir() + "/" + name + ".csv";
  const Status s = table.WriteCsv(path);
  if (s.ok()) {
    std::cout << "(series saved to " << path << ")\n";
  } else {
    std::cout << "(could not save " << path << ": " << s << ")\n";
  }
}

/// Sweep worker threads for the figure harnesses: the WEBTX_THREADS
/// environment variable when set to a positive integer (1 = serial;
/// handy for speedup measurements), otherwise 0 = all hardware threads.
/// Every CSV is identical for any value (exp/sweep.h determinism
/// contract).
inline size_t NumThreads() {
  if (const char* env = std::getenv("WEBTX_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return 0;
}

/// PolicyFactory for a concrete policy type constructed from `args`
/// (copied into the factory); ablation benches pass custom option
/// structs. Policies needing per-instance arguments (e.g. a wrapped
/// inner policy) use an explicit lambda instead.
template <typename Policy, typename... Args>
PolicyFactory FactoryOf(Args... args) {
  return [args...]() -> std::unique_ptr<SchedulerPolicy> {
    return std::make_unique<Policy>(args...);
  };
}

/// Factories for CreatePolicy specs; aborts on unknown specs (bench
/// drivers hardcode their policy lists).
inline std::vector<PolicyFactory> SpecFactories(
    const std::vector<std::string>& specs) {
  auto factories = MakePolicyFactories(specs);
  WEBTX_CHECK(factories.ok()) << factories.status().ToString();
  return std::move(factories).ValueOrDie();
}

/// Per-policy metric means for one utilization point, averaged over seeds.
struct PolicyMetrics {
  double avg_tardiness = 0.0;
  double avg_weighted_tardiness = 0.0;
  double max_weighted_tardiness = 0.0;
  double miss_ratio = 0.0;
  double preemptions = 0.0;
  /// Fraction of transactions completed (1 for failure-free runs).
  double goodput = 0.0;
  /// Mean injected faults per run (outage windows / abort instants that
  /// hit a busy server).
  double outages = 0.0;
  double aborts = 0.0;
  /// Mean crash windows injected and transactions migrated off crashed
  /// servers per run (ext_failover).
  double crashes = 0.0;
  double migrations = 0.0;
};

/// Runs every factory's policy on identical workload instances for each
/// seed and averages the metrics. Unlike exp/RunSweep, this accepts
/// policy *factories*, so ablation benches can supply custom-configured
/// instances, and it keeps the caller's raw seeds (no DeriveSeed), so
/// figures stay comparable with the pre-parallel harness. Instances fan
/// out to NumThreads() workers via exp/RunInstances; the averages are
/// accumulated in seed order on the calling thread and are identical for
/// any thread count.
inline std::vector<PolicyMetrics> RunPoint(
    const WorkloadSpec& spec, const std::vector<PolicyFactory>& factories,
    const std::vector<uint64_t>& seeds, SimOptions sim_options = {}) {
  std::vector<WorkloadInstance> instances;
  instances.reserve(seeds.size());
  for (const uint64_t seed : seeds) {
    instances.push_back(WorkloadInstance{spec, seed});
  }
  ParallelRunOptions options;
  options.sim = sim_options;
  options.sim.record_outcomes = false;
  options.num_threads = NumThreads();
  auto runs = RunInstances(instances, factories, options);
  WEBTX_CHECK(runs.ok()) << runs.status().ToString();

  std::vector<PolicyMetrics> out(factories.size());
  for (const std::vector<RunResult>& run : runs.ValueOrDie()) {
    for (size_t p = 0; p < factories.size(); ++p) {
      out[p].avg_tardiness += run[p].avg_tardiness;
      out[p].avg_weighted_tardiness += run[p].avg_weighted_tardiness;
      out[p].max_weighted_tardiness += run[p].max_weighted_tardiness;
      out[p].miss_ratio += run[p].miss_ratio;
      out[p].preemptions += static_cast<double>(run[p].num_preemptions);
      out[p].goodput += run[p].goodput;
      out[p].outages += static_cast<double>(run[p].num_outages);
      out[p].aborts += static_cast<double>(run[p].num_aborts);
      out[p].crashes += static_cast<double>(run[p].num_crashes);
      out[p].migrations += static_cast<double>(run[p].num_migrations);
    }
  }
  const auto n = static_cast<double>(seeds.size());
  for (PolicyMetrics& m : out) {
    m.avg_tardiness /= n;
    m.avg_weighted_tardiness /= n;
    m.max_weighted_tardiness /= n;
    m.miss_ratio /= n;
    m.preemptions /= n;
    m.goodput /= n;
    m.outages /= n;
    m.aborts /= n;
    m.crashes /= n;
    m.migrations /= n;
  }
  return out;
}

/// The paper's five averaged runs.
inline std::vector<uint64_t> PaperSeeds() { return {1, 2, 3, 4, 5}; }

}  // namespace webtx::bench

#endif  // WEBTX_BENCH_BENCH_UTIL_H_
