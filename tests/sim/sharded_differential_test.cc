// Differential matrix pinning the sharded simulator to the frozen
// pre-shard implementation (tests/testing/reference_simulator.h): for
// every (policy, topology, fault regime, num_servers) combination the
// ScheduleDigest — schedule segments, outcomes, and all counters — must
// be byte-identical. This is the tentpole guarantee of the shard
// refactor: sharding is a pure reorganization of the event loop, never
// observable in results.
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

constexpr size_t kServers[] = {1, 2, 4, 8};

std::vector<TransactionSpec> MakeWorkload(bool workflows, uint64_t seed) {
  WorkloadSpec spec;
  spec.num_transactions = 80;
  spec.utilization = 0.9;
  spec.min_weight = 1;
  spec.max_weight = 10;
  spec.estimate_error = 0.2;  // exercises the estimate floor paths
  if (workflows) {
    spec.max_workflow_length = 4;
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

void RunMatrix(Regime regime) {
  const std::vector<std::string> specs = PolicySpecs();
  for (const bool workflows : {false, true}) {
    for (const size_t servers : kServers) {
      const std::vector<TransactionSpec> txns =
          MakeWorkload(workflows, 7u + servers + (workflows ? 100u : 0u));
      const SimOptions options = RegimeOptions(regime, servers);
      for (const std::string& spec : specs) {
        const RunResult got = RunSharded(txns, options, spec);
        EXPECT_EQ(ScheduleDigest(got), ReferenceDigest(txns, options, spec))
            << "sharded simulator diverged from the pre-shard reference: "
            << "policy=" << spec << " workflows=" << workflows
            << " servers=" << servers;
      }
    }
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

// Counter-level cross-check with readable failure messages: the digest
// above proves equality, this names the first differing field when a
// regression is being debugged.
TEST(ShardedDifferentialTest, CountersMatchReference) {
  const std::vector<TransactionSpec> txns = MakeWorkload(true, 42);
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

// --- Sharded policy state: the steal-protocol differential matrix ---
//
// "<base>-sharded" adds per-server ownership with deterministic steal
// accounting to the POLICY (sched/scheduler_policy.h). The matrix pins
// every sharded-state variant byte-identical to its global-state base
// run on the frozen pre-shard reference, under steal-heavy workloads:
// deep ready sets (utilization >> 1) with workflow chains, so every
// multi-server round shuffles pick ranks across servers and OnPlaced
// constantly re-homes ownership between shards.

constexpr const char* kShardedBases[] = {"FCFS", "EDF", "SRPT",  "LS",
                                         "HDF",  "HVF", "ASETS*"};

std::vector<TransactionSpec> MakeStealHeavyWorkload(uint64_t seed) {
  WorkloadSpec spec;
  spec.num_transactions = 100;
  spec.utilization = 3.0;  // overloaded: all k servers contend every round
  spec.min_weight = 1;
  spec.max_weight = 10;
  spec.estimate_error = 0.2;
  spec.max_workflow_length = 5;
  spec.max_workflows_per_txn = 2;
  auto generator = WorkloadGenerator::Create(spec);
  EXPECT_TRUE(generator.ok()) << generator.status();
  return generator.ValueOrDie().Generate(seed);
}

void RunStealMatrix(Regime regime) {
  for (const size_t servers : kServers) {
    const std::vector<TransactionSpec> txns =
        MakeStealHeavyWorkload(29u + servers);
    const SimOptions options = RegimeOptions(regime, servers);
    for (const char* base : kShardedBases) {
      const RunResult got =
          RunSharded(txns, options, std::string(base) + "-sharded");
      EXPECT_EQ(ScheduleDigest(got), ReferenceDigest(txns, options, base))
          << "sharded policy state diverged from the global-state base: "
          << "policy=" << base << "-sharded servers=" << servers;
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

// The steal protocol must actually engage on contended multi-server
// runs (a matrix that never steals proves nothing), with the
// global-state twin exposing no sharded state at all.
TEST(ShardedPolicyDifferentialTest, StealProtocolEngagesAndIsAccounted) {
  const std::vector<TransactionSpec> txns = MakeStealHeavyWorkload(5);
  const SimOptions options = RegimeOptions(Regime::kCrashy, 4);
  for (const char* spec : {"SRPT-sharded", "ASETS*-sharded"}) {
    auto sim = Simulator::Create(txns, options);
    ASSERT_TRUE(sim.ok()) << sim.status();
    auto policy = CreatePolicy(spec);
    ASSERT_TRUE(policy.ok()) << policy.status();
    sim.ValueOrDie().Run(*policy.ValueOrDie());
    ShardedPolicyState* state = policy.ValueOrDie()->AsShardedState();
    ASSERT_NE(state, nullptr) << spec;
    EXPECT_GT(state->steal_count(), 0u)
        << spec << " never stole on a contended 4-server run";
  }
  auto global = CreatePolicy("SRPT");
  ASSERT_TRUE(global.ok()) << global.status();
  EXPECT_EQ(global.ValueOrDie()->AsShardedState(), nullptr);
}

// Exact steal counts on the steal-heavy workload: ownership moves are a
// pure function of the placement sequence, so any drift means OnPlaced
// or the placement order changed. Each cell also reuses one simulator
// and one policy object across runs (Bind and BindShards reset all
// per-run state), and every warm run must replay the first byte for
// byte.
TEST(ShardedPolicyDifferentialTest, StealCountsArePinned) {
  struct Pin {
    const char* spec;
    size_t servers;
    uint64_t steals;
  };
  const Pin kPins[] = {
      {"SRPT-sharded", 2, 64},    {"SRPT-sharded", 4, 145},
      {"SRPT-sharded", 8, 174},   {"ASETS*-sharded", 2, 81},
      {"ASETS*-sharded", 4, 176}, {"ASETS*-sharded", 8, 168},
  };
  for (const Pin& pin : kPins) {
    const std::vector<TransactionSpec> txns =
        MakeStealHeavyWorkload(29u + pin.servers);
    auto sim =
        Simulator::Create(txns, RegimeOptions(Regime::kCrashy, pin.servers));
    ASSERT_TRUE(sim.ok()) << sim.status();
    auto policy = CreatePolicy(pin.spec);
    ASSERT_TRUE(policy.ok()) << policy.status();
    uint64_t first = 0;
    for (int run = 1; run <= 3; ++run) {
      const uint64_t digest =
          ScheduleDigest(sim.ValueOrDie().Run(*policy.ValueOrDie()));
      if (run == 1) first = digest;
      EXPECT_EQ(digest, first) << pin.spec << " servers=" << pin.servers
                               << ": warm run " << run << " diverged";
      EXPECT_EQ(policy.ValueOrDie()->AsShardedState()->steal_count(),
                pin.steals)
          << pin.spec << " servers=" << pin.servers << " run " << run;
    }
  }
}

}  // namespace
}  // namespace webtx
