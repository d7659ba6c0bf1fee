// Concurrency suite for the sharded policy state (run under the tsan
// preset, see CMakePresets.json): forces the ASETS*-sharded parallel
// dirty-flush onto the shard pool every round (threshold 0) and proves
// the concurrent per-shard picks' maintenance race-free AND
// byte-identical to the serial global-state policy. The serial/parallel
// digest equality also runs in the plain presets, so a determinism
// regression fails everywhere, not just under tsan.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "exp/chaos.h"
#include "sched/policies/asets_star.h"
#include "sched/policies/asets_star_sharded.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace webtx {
namespace {

std::vector<TransactionSpec> MakeWorkload(uint64_t seed) {
  WorkloadSpec spec;
  spec.num_transactions = 120;
  spec.utilization = 3.0;  // deep ready set: every round touches many
                           // workflows, so the parallel flush has work
  spec.min_weight = 1;
  spec.max_weight = 10;
  spec.max_workflow_length = 5;
  spec.max_workflows_per_txn = 2;
  auto generator = WorkloadGenerator::Create(spec);
  EXPECT_TRUE(generator.ok()) << generator.status();
  return generator.ValueOrDie().Generate(seed);
}

SimOptions MakeOptions(size_t servers, size_t shard_threads, bool faults) {
  SimOptions options;
  options.num_servers = servers;
  options.shard_threads = shard_threads;
  options.record_outcomes = true;
  options.record_schedule = true;
  if (faults) {
    FaultPlanConfig fault;
    fault.seed = 2009;
    fault.outage_rate = 0.02;
    fault.mean_outage_duration = 5.0;
    fault.abort_rate = 0.03;
    fault.crash_rate = 0.01;
    fault.mean_repair_duration = 8.0;
    fault.migration = MigrationPolicy::kCold;
    options.retry.max_attempts = 3;
    options.retry.backoff = 1.5;
    auto plan = FaultPlan::Create(fault);
    EXPECT_TRUE(plan.ok()) << plan.status();
    options.fault_plan = plan.ValueOrDie();
  }
  return options;
}

uint64_t DigestOf(const std::vector<TransactionSpec>& txns,
                  const SimOptions& options, SchedulerPolicy& policy) {
  auto sim = Simulator::Create(txns, options);
  EXPECT_TRUE(sim.ok()) << sim.status();
  return ScheduleDigest(sim.ValueOrDie().Run(policy));
}

// The parallel flush (one pool task per shard, every round) must be
// byte-identical to the global-state serial policy. TSan audits the
// task bodies: per-shard queue triples and per-workflow states are
// disjoint across tasks, view reads are const.
TEST(ShardedPolicyConcurrencyTest, ParallelFlushMatchesGlobalPolicy) {
  const std::vector<TransactionSpec> txns = MakeWorkload(17);
  for (const bool faults : {false, true}) {
    AsetsStarPolicy global;
    const uint64_t want = DigestOf(txns, MakeOptions(8, 1, faults), global);

    AsetsStarShardedPolicy serial;
    EXPECT_EQ(DigestOf(txns, MakeOptions(8, 1, faults), serial), want)
        << "serial sharded run diverged (faults=" << faults << ")";

    AsetsStarShardedPolicy parallel;
    parallel.set_parallel_flush_threshold(0);  // pool fan-out every round
    EXPECT_EQ(DigestOf(txns, MakeOptions(8, 8, faults), parallel), want)
        << "parallel flush diverged (faults=" << faults << ")";
  }
}

// Warm reuse: one policy object across repeated runs (Bind resets, the
// shard pool persists inside the Simulator) must replay identically.
TEST(ShardedPolicyConcurrencyTest, RepeatedRunsReplayIdentically) {
  const std::vector<TransactionSpec> txns = MakeWorkload(31);
  const SimOptions options = MakeOptions(8, 8, true);
  auto sim = Simulator::Create(txns, options);
  ASSERT_TRUE(sim.ok()) << sim.status();
  AsetsStarShardedPolicy policy;
  policy.set_parallel_flush_threshold(0);
  const uint64_t first = ScheduleDigest(sim.ValueOrDie().Run(policy));
  for (int run = 0; run < 2; ++run) {
    EXPECT_EQ(ScheduleDigest(sim.ValueOrDie().Run(policy)), first)
        << "run " << run + 2 << " diverged from run 1";
  }
}

}  // namespace
}  // namespace webtx
