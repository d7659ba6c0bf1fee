// Huge-scale extension bench: simulator events/sec as the population
// grows from 10^3 to 10^6+ txns — the regime the paper's
// 1000-transaction runs never enter.
//
// Open-system runs at populations 10^3..10^6 (10^7 with --pop7), the
// workload built by WorkloadGenerator::Generate (the one implementation
// of the paper's recipe; StreamingWorkloadGenerator is only a cursor
// over it, kept for the repository benchmark) and executed under
// ASETS* on 4 servers with aborts + retries feeding the pending queue
// and workflows feeding the dependency graph. Each run's schedule digest
// is printed, so a change that moves behaviour at scale shows up next
// to its cost, and so is its set-up split: the seconds of Generate and
// of Simulator::Create (with the copy of the specs it takes), fastest
// rep. The 10^6-txn rate a change must hold is the repository
// benchmark's huge_stream events_per_s (perfbench/), compared across
// revisions by scripts/bench_ab.sh.
//
// Flags: --smoke runs only the 10^5 point (CI guard, seconds); --pop7
// adds the 10^7 point.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.h"
#include "exp/chaos.h"
#include "sched/policy_factory.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace webtx {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct EndToEnd {
  double events_per_sec = 0.0;
  double generate_s = 0.0;
  double create_s = 0.0;  // fastest rep
  uint64_t digest = 0;
  size_t events = 0;
};

/// One open-system run at population `n`: generated workload, aborts +
/// retries feeding the pending queue, workflows feeding the dependency
/// graph.
EndToEnd RunEndToEnd(size_t n) {
  WorkloadSpec spec;
  spec.num_transactions = n;
  spec.utilization = 0.9;
  spec.max_weight = 10;
  spec.estimate_error = 0.2;
  spec.max_workflow_length = 4;
  spec.max_workflows_per_txn = 2;
  auto gen = WorkloadGenerator::Create(spec);
  WEBTX_CHECK(gen.ok()) << gen.status();
  EndToEnd out;
  const auto generate_start = Clock::now();
  const std::vector<TransactionSpec> txns = gen.ValueOrDie().Generate(2026);
  out.generate_s = SecondsSince(generate_start);

  SimOptions options;
  options.num_servers = 4;
  options.record_outcomes = true;
  options.record_schedule = true;
  FaultPlanConfig fault;
  fault.seed = 1729;
  fault.abort_rate = 0.01;
  auto plan = FaultPlan::Create(fault);
  WEBTX_CHECK(plan.ok()) << plan.status();
  options.fault_plan = plan.ValueOrDie();
  options.retry.max_attempts = 3;
  options.retry.backoff = 1.0;

  const int reps = n <= 100000 ? 3 : 1;  // big runs are deterministic
  for (int rep = 0; rep < reps; ++rep) {
    const auto create_start = Clock::now();
    auto sim = Simulator::Create(txns, options);
    const double create_s = SecondsSince(create_start);
    out.create_s = rep == 0 ? create_s : std::min(out.create_s, create_s);
    WEBTX_CHECK(sim.ok()) << sim.status();
    auto policy = CreatePolicy("ASETS*");
    WEBTX_CHECK(policy.ok()) << policy.status();
    const auto start = Clock::now();
    const RunResult result = sim.ValueOrDie().Run(*policy.ValueOrDie());
    const double elapsed = SecondsSince(start);
    out.events = result.num_scheduling_points;
    out.digest = ScheduleDigest(result);
    out.events_per_sec =
        std::max(out.events_per_sec,
                 static_cast<double>(result.num_scheduling_points) / elapsed);
  }
  return out;
}

int RunBench(bool smoke, bool pop7) {
  const std::string suffix = smoke ? "-smoke" : "";

  std::vector<size_t> populations;
  if (smoke) {
    populations = {100000};
  } else {
    populations = {1000, 10000, 100000, 1000000};
    if (pop7) populations.push_back(10000000);
  }
  for (const size_t n : populations) {
    const std::string label = "e2e n=" + std::to_string(n) + suffix;
    const EndToEnd run = RunEndToEnd(n);
    std::cout << label << ": " << run.events_per_sec << " events/s, "
              << "generate " << run.generate_s << " s, create "
              << run.create_s << " s, " << run.events << " events, digest "
              << std::hex << run.digest << std::dec << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace webtx

int main(int argc, char** argv) {
  bool smoke = false;
  bool pop7 = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--pop7") == 0) pop7 = true;
  }
  return webtx::RunBench(smoke, pop7);
}
