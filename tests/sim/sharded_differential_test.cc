// Differential matrix pinning the sharded simulator to the frozen
// pre-shard implementation (tests/testing/reference_simulator.h): for
// every (policy, input, fault regime, num_servers) combination the
// ScheduleDigest — schedule segments, outcomes, and all counters — must
// be byte-identical. This is the tentpole guarantee of the shard
// refactor: sharding is a pure reorganization of the event loop, never
// observable in results. The inputs are independent transactions,
// workflows at utilization 0.9, and an overloaded shape in which every
// round contends for all k servers.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exp/chaos.h"
#include "sched/admission.h"
#include "sched/policy_factory.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"
#include "testing/reference_simulator.h"
#include "workload/generator.h"

namespace webtx {
namespace {

// 64 is kMaxServers (exp/campaign.h), the largest pool a replay may ask
// for.
constexpr size_t kServers[] = {1, 2, 4, 8, 64};

// The matrix inputs. kOverloaded has deep ready sets with workflow
// chains: every multi-server round ranks more ready transactions than
// there are servers.
enum class Input { kIndependent, kWorkflows, kOverloaded };

std::vector<TransactionSpec> MakeWorkload(Input input, uint64_t seed) {
  const bool overloaded = input == Input::kOverloaded;
  WorkloadSpec spec;
  spec.num_transactions = overloaded ? 100 : 80;
  spec.utilization = overloaded ? 3.0 : 0.9;
  spec.min_weight = 1;
  spec.max_weight = 10;
  spec.estimate_error = 0.2;  // exercises the estimate floor paths
  if (input != Input::kIndependent) {
    spec.max_workflow_length = overloaded ? 5 : 4;
    spec.max_workflows_per_txn = 2;
  }
  auto generator = WorkloadGenerator::Create(spec);
  EXPECT_TRUE(generator.ok()) << generator.status();
  return generator.ValueOrDie().Generate(seed);
}

enum class Regime { kFailureFree, kFaulty, kCrashy, kCorrelated };

SimOptions RegimeOptions(Regime regime, size_t num_servers) {
  SimOptions options;
  options.num_servers = num_servers;
  options.record_outcomes = true;
  options.record_schedule = true;
  FaultPlanConfig fault;
  fault.seed = 2009 + num_servers;
  switch (regime) {
    case Regime::kFailureFree:
      return options;
    case Regime::kFaulty:
      fault.outage_rate = 0.02;
      fault.mean_outage_duration = 6.0;
      fault.abort_rate = 0.03;
      options.retry.max_attempts = 3;
      options.retry.backoff = 1.5;
      options.retry.max_backoff = 20.0;
      options.admission = MakeQueueDepthAdmission(
          QueueDepthAdmissionOptions{/*max_ready=*/24, /*defer_delay=*/2.0,
                                     /*max_defers=*/3});
      break;
    case Regime::kCrashy:
      fault.outage_rate = 0.01;
      fault.mean_outage_duration = 4.0;
      fault.abort_rate = 0.02;
      fault.crash_rate = 0.015;
      fault.mean_repair_duration = 8.0;
      fault.migration = MigrationPolicy::kCold;
      break;
    case Regime::kCorrelated:
      fault.crash_rate = 0.02;
      fault.mean_repair_duration = 6.0;
      fault.correlated_crash_prob = 0.35;
      fault.migration = MigrationPolicy::kWarm;
      break;
  }
  auto plan = FaultPlan::Create(fault);
  EXPECT_TRUE(plan.ok()) << plan.status();
  options.fault_plan = plan.ValueOrDie();
  return options;
}

std::vector<std::string> PolicySpecs() {
  std::vector<std::string> specs = KnownPolicyNames();
  specs.push_back("MIX(0.5)");
  specs.push_back("ASETS*-BA(time=0.01)");
  return specs;
}

uint64_t ReferenceDigest(const std::vector<TransactionSpec>& txns,
                         const SimOptions& options, const std::string& spec) {
  auto sim = testing::ReferenceSimulator::Create(txns, options);
  EXPECT_TRUE(sim.ok()) << sim.status();
  auto policy = CreatePolicy(spec);
  EXPECT_TRUE(policy.ok()) << policy.status();
  return ScheduleDigest(sim.ValueOrDie().Run(*policy.ValueOrDie()));
}

RunResult RunSharded(const std::vector<TransactionSpec>& txns,
                     const SimOptions& options, const std::string& spec) {
  auto sim = Simulator::Create(txns, options);
  EXPECT_TRUE(sim.ok()) << sim.status();
  auto policy = CreatePolicy(spec);
  EXPECT_TRUE(policy.ok()) << policy.status();
  return sim.ValueOrDie().Run(*policy.ValueOrDie());
}

void ExpectMatchesReference(const std::vector<TransactionSpec>& txns,
                            const SimOptions& options,
                            const std::string& input) {
  for (const std::string& spec : PolicySpecs()) {
    const RunResult got = RunSharded(txns, options, spec);
    EXPECT_EQ(ScheduleDigest(got), ReferenceDigest(txns, options, spec))
        << "sharded simulator diverged from the pre-shard reference: "
        << "policy=" << spec << " input=" << input
        << " servers=" << options.num_servers;
  }
}

void RunMatrix(Regime regime) {
  for (const size_t servers : kServers) {
    const SimOptions options = RegimeOptions(regime, servers);
    ExpectMatchesReference(MakeWorkload(Input::kIndependent, 7u + servers),
                           options, "independent");
    ExpectMatchesReference(MakeWorkload(Input::kWorkflows, 107u + servers),
                           options, "workflows");
    ExpectMatchesReference(MakeWorkload(Input::kOverloaded, 29u + servers),
                           options, "overloaded");
  }
}

TEST(ShardedDifferentialTest, FailureFreeMatrix) {
  RunMatrix(Regime::kFailureFree);
}

TEST(ShardedDifferentialTest, FaultyMatrix) { RunMatrix(Regime::kFaulty); }

TEST(ShardedDifferentialTest, CrashyMatrix) { RunMatrix(Regime::kCrashy); }

TEST(ShardedDifferentialTest, CorrelatedCrashMatrix) {
  RunMatrix(Regime::kCorrelated);
}

// "<base>-sharded" is a no-op alias that builds <base> itself (see
// sched/policy_factory.h). Every alias must run byte-identical to its
// base on the frozen reference, on the overloaded input where every
// multi-server round contends for all k servers. The "StealMatrix" names
// date from when the suffix added per-server ownership with steal
// accounting.
constexpr const char* kShardedBases[] = {"FCFS", "EDF", "SRPT",  "LS",
                                         "HDF",  "HVF", "ASETS*"};

void RunStealMatrix(Regime regime) {
  for (const size_t servers : kServers) {
    const std::vector<TransactionSpec> txns =
        MakeWorkload(Input::kOverloaded, 29u + servers);
    const SimOptions options = RegimeOptions(regime, servers);
    for (const char* base : kShardedBases) {
      const RunResult got =
          RunSharded(txns, options, std::string(base) + "-sharded");
      EXPECT_EQ(ScheduleDigest(got), ReferenceDigest(txns, options, base))
          << "-sharded alias diverged from its base: policy=" << base
          << "-sharded servers=" << servers;
    }
  }
}

TEST(ShardedPolicyDifferentialTest, StealMatrixFailureFree) {
  RunStealMatrix(Regime::kFailureFree);
}

TEST(ShardedPolicyDifferentialTest, StealMatrixFaulty) {
  RunStealMatrix(Regime::kFaulty);
}

TEST(ShardedPolicyDifferentialTest, StealMatrixCrashy) {
  RunStealMatrix(Regime::kCrashy);
}

TEST(ShardedPolicyDifferentialTest, StealMatrixCorrelatedCrashes) {
  RunStealMatrix(Regime::kCorrelated);
}

// Counter-level cross-check with readable failure messages: the digest
// above proves equality, this names the first differing field when a
// regression is being debugged.
TEST(ShardedDifferentialTest, CountersMatchReference) {
  const std::vector<TransactionSpec> txns =
      MakeWorkload(Input::kWorkflows, 42);
  const SimOptions options = RegimeOptions(Regime::kCrashy, 4);
  auto ref_sim = testing::ReferenceSimulator::Create(txns, options);
  ASSERT_TRUE(ref_sim.ok()) << ref_sim.status();
  auto ref_policy = CreatePolicy("ASETS*");
  ASSERT_TRUE(ref_policy.ok()) << ref_policy.status();
  const RunResult want = ref_sim.ValueOrDie().Run(*ref_policy.ValueOrDie());
  const RunResult got = RunSharded(txns, options, "ASETS*");
  EXPECT_EQ(got.num_scheduling_points, want.num_scheduling_points);
  EXPECT_EQ(got.num_preemptions, want.num_preemptions);
  EXPECT_EQ(got.num_idle_decisions, want.num_idle_decisions);
  EXPECT_EQ(got.num_outages, want.num_outages);
  EXPECT_EQ(got.num_outage_preemptions, want.num_outage_preemptions);
  EXPECT_EQ(got.num_crashes, want.num_crashes);
  EXPECT_EQ(got.num_migrations, want.num_migrations);
  EXPECT_EQ(got.num_retries, want.num_retries);
  EXPECT_EQ(got.total_outage_time, want.total_outage_time);
  EXPECT_EQ(got.total_repair_time, want.total_repair_time);
  EXPECT_EQ(got.avg_tardiness, want.avg_tardiness);
  EXPECT_EQ(got.makespan, want.makespan);
  EXPECT_EQ(got.schedule.size(), want.schedule.size());
}

// One simulator and one policy object reused across runs: Bind resets
// all per-run state, so every warm run replays the first byte for byte.
TEST(ShardedDifferentialTest, WarmRunsReplayTheFirst) {
  for (const char* spec : {"SRPT", "ASETS*"}) {
    for (const size_t servers : {2u, 4u, 8u}) {
      const std::vector<TransactionSpec> txns =
          MakeWorkload(Input::kOverloaded, 29u + servers);
      auto sim =
          Simulator::Create(txns, RegimeOptions(Regime::kCrashy, servers));
      ASSERT_TRUE(sim.ok()) << sim.status();
      auto policy = CreatePolicy(spec);
      ASSERT_TRUE(policy.ok()) << policy.status();
      uint64_t first = 0;
      for (int run = 1; run <= 3; ++run) {
        const uint64_t digest =
            ScheduleDigest(sim.ValueOrDie().Run(*policy.ValueOrDie()));
        if (run == 1) first = digest;
        EXPECT_EQ(digest, first) << spec << " servers=" << servers
                                 << ": warm run " << run << " diverged";
      }
    }
  }
}

}  // namespace
}  // namespace webtx
