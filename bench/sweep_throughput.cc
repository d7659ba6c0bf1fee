// Scheduler-side cost of ASETS*'s incremental head maintenance: the
// fig08 instance grid (10 utilizations x 5 seeds, Table I defaults) and
// the fig15 general case replayed serially under the production
// (incremental-head) ASETS* and under the pre-optimization full-rescan
// reference (tests/testing/asets_star_reference.h), reported as
// events/sec each plus their ratio. The two runs produce byte-identical
// schedules — asserted continuously by
// tests/sched/asets_star_incremental_test — so the ratio is pure
// bookkeeping overhead, not a behavior change.
//
// End-to-end sweep throughput (instances/sec through RunSweep, and its
// thread scaling) is the repository benchmark's paper_sweep workload
// (perfbench/), compared across revisions by scripts/bench_ab.sh.
//
// Flags: --smoke runs a minimal grid (CI bit-rot guard, seconds).

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "sched/policies/asets_star.h"
#include "tests/testing/asets_star_reference.h"

namespace webtx {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr int kReps = 3;  // best-of, to shave scheduler/cache noise

SweepConfig Fig08Config(bool smoke) {
  SweepConfig config;  // Table I defaults
  config.utilizations = PaperUtilizationGrid();
  if (smoke) {
    config.base.num_transactions = 100;
    config.utilizations = {0.4, 0.8};
    config.seeds = {1};
  }
  return config;
}

/// The paper's general case (fig15 settings): weighted transactions in
/// real multi-member workflows — the workload where ASETS* maintains
/// non-trivial per-workflow heads (fig08 workflows are singletons).
SweepConfig Fig15Config(bool smoke) {
  SweepConfig config = Fig08Config(smoke);
  config.base.max_weight = 10;
  config.base.max_workflow_length = 5;
  return config;
}

std::vector<WorkloadInstance> InstanceGrid(const SweepConfig& config) {
  std::vector<WorkloadInstance> instances;
  instances.reserve(config.utilizations.size() * config.seeds.size());
  for (size_t u = 0; u < config.utilizations.size(); ++u) {
    for (size_t r = 0; r < config.seeds.size(); ++r) {
      WorkloadInstance instance;
      instance.spec = config.base;
      instance.spec.utilization = config.utilizations[u];
      instance.seed = DeriveSeed(config.seeds[r], u, r);
      instances.push_back(std::move(instance));
    }
  }
  return instances;
}

/// Replays the grid under one ASETS* implementation, returning the
/// best-of-kReps events/sec; `events` gets the total scheduling points
/// processed (identical across reps — runs are deterministic).
double EventsPerSec(const std::vector<WorkloadInstance>& instances,
                    const PolicyFactory& factory, size_t* events) {
  ParallelRunOptions options;
  options.sim.record_outcomes = false;
  options.num_threads = 1;  // serial: measures the policy, not the pool
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = Clock::now();
    auto runs = RunInstances(instances, {factory}, options);
    const double elapsed = SecondsSince(start);
    WEBTX_CHECK(runs.ok()) << runs.status().ToString();
    size_t total = 0;
    for (const auto& run : runs.ValueOrDie()) {
      total += run[0].num_scheduling_points;
    }
    *events = total;
    best = std::max(best, static_cast<double>(total) / elapsed);
  }
  return best;
}

void RunBench(bool smoke) {
  // fig08 workflows are singletons (the head cache is trivially small),
  // so the incremental win is reported on the fig15 general case too —
  // weighted multi-member workflows, where head maintenance has real
  // work to do.
  struct Replay {
    const char* label;
    SweepConfig config;
  };
  const Replay replays[] = {
      {"fig08", Fig08Config(smoke)},
      {"fig15", Fig15Config(smoke)},
  };
  for (const Replay& replay : replays) {
    size_t events_inc = 0;
    size_t events_ref = 0;
    const double inc =
        EventsPerSec(InstanceGrid(replay.config),
                     bench::FactoryOf<AsetsStarPolicy>(), &events_inc);
    const double ref = EventsPerSec(
        InstanceGrid(replay.config),
        bench::FactoryOf<testing::ReferenceAsetsStarPolicy>(), &events_ref);
    WEBTX_CHECK_EQ(events_inc, events_ref)
        << "incremental and reference ASETS* diverged — run "
           "asets_star_incremental_test";
    const std::string label =
        std::string(replay.label) + (smoke ? "-smoke" : "");
    std::cout << label << " ASETS* events/sec: incremental " << inc
              << ", reference " << ref << " (speedup " << inc / ref
              << "x over " << events_inc << " events)\n";
  }
}

}  // namespace
}  // namespace webtx

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  webtx::RunBench(smoke);
  return 0;
}
