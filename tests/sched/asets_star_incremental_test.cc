// Differential proof that the incremental-head production ASETS*
// (src/sched/policies/asets_star.cc) schedules BYTE-IDENTICALLY to the
// pre-optimization full-rescan implementation it replaced
// (testing/asets_star_reference.h): identical ScheduleSegment streams —
// every (txn, server, start, end, attempt) tuple — across seeds,
// workflow topologies, fault plans, head-selection rules, and server
// counts. Any cached head or representative going stale (the outage /
// abort paths charge work without a policy callback) shows up here as a
// diverging segment.

#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sched/policies/asets_star.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"
#include "testing/asets_star_reference.h"
#include "workload/generator.h"

namespace webtx {
namespace {

struct Topology {
  const char* label;
  uint64_t max_weight;
  size_t max_workflow_length;
  size_t max_workflows_per_txn;
  double burstiness;
};

// Table I-style shapes: unconstrained transactions, weighted chains,
// overlapping workflows, and bursty weighted dependencies.
constexpr Topology kTopologies[] = {
    {"independent", 1, 1, 1, 0.0},
    {"workflows", 1, 6, 1, 0.0},
    {"weighted_overlapping", 10, 5, 3, 0.0},
    {"bursty_weighted", 10, 4, 2, 0.6},
};

FaultPlan StressFaultPlan() {
  FaultPlanConfig config;
  config.outage_rate = 0.03;
  config.mean_outage_duration = 4.0;
  config.abort_rate = 0.03;
  config.seed = 9;
  auto plan = FaultPlan::Create(config);
  WEBTX_CHECK(plan.ok());
  return plan.ValueOrDie();
}

std::vector<TransactionSpec> MakeWorkload(const Topology& topology,
                                          uint64_t seed,
                                          double utilization) {
  WorkloadSpec spec;
  spec.num_transactions = 250;
  spec.utilization = utilization;
  spec.max_weight = topology.max_weight;
  spec.max_workflow_length = topology.max_workflow_length;
  spec.max_workflows_per_txn = topology.max_workflows_per_txn;
  spec.burstiness = topology.burstiness;
  auto generator = WorkloadGenerator::Create(spec);
  EXPECT_TRUE(generator.ok());
  return generator.ValueOrDie().Generate(seed);
}

SimOptions MakeOptions(bool faulty, size_t num_servers) {
  SimOptions options;
  options.record_schedule = true;
  options.num_servers = num_servers;
  if (faulty) {
    options.fault_plan = StressFaultPlan();
    options.retry.max_attempts = 3;
    options.retry.backoff = 1.0;
  }
  return options;
}

/// Runs the workload under both implementations and asserts identical
/// schedule streams and outcomes.
void ExpectIdenticalSchedules(const std::vector<TransactionSpec>& txns,
                              const SimOptions& options,
                              const AsetsStarOptions& policy_options) {
  auto sim = Simulator::Create(txns, options);
  ASSERT_TRUE(sim.ok()) << sim.status();
  AsetsStarPolicy incremental(policy_options);
  testing::ReferenceAsetsStarPolicy reference(policy_options);
  const RunResult a = sim.ValueOrDie().Run(incremental);
  const RunResult b = sim.ValueOrDie().Run(reference);

  ASSERT_EQ(a.schedule.size(), b.schedule.size());
  for (size_t i = 0; i < a.schedule.size(); ++i) {
    const ScheduleSegment& sa = a.schedule[i];
    const ScheduleSegment& sb = b.schedule[i];
    ASSERT_EQ(sa.txn, sb.txn) << "segment " << i << " diverged";
    ASSERT_EQ(sa.server, sb.server) << "segment " << i << " diverged";
    ASSERT_EQ(sa.start, sb.start) << "segment " << i << " diverged";
    ASSERT_EQ(sa.end, sb.end) << "segment " << i << " diverged";
    ASSERT_EQ(sa.attempt, sb.attempt) << "segment " << i << " diverged";
  }
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    ASSERT_EQ(a.outcomes[i].finish, b.outcomes[i].finish)
        << "T" << i << " diverged";
    ASSERT_EQ(a.outcomes[i].fate, b.outcomes[i].fate) << "T" << i;
  }
  EXPECT_EQ(a.num_preemptions, b.num_preemptions);
  EXPECT_EQ(a.num_scheduling_points, b.num_scheduling_points);
}

// ---------------------------------------------------------------------------
// Main matrix: 20 seeds x {failure-free, faulty} x topologies, default
// head rule, single server, overload utilization.

using MatrixParam = std::tuple<size_t, bool, uint64_t>;  // topology, faulty, seed

class IncrementalMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(IncrementalMatrixTest, ScheduleByteIdenticalToReference) {
  const auto& [topology_index, faulty, seed] = GetParam();
  const auto txns =
      MakeWorkload(kTopologies[topology_index], seed, /*utilization=*/0.9);
  ExpectIdenticalSchedules(txns, MakeOptions(faulty, /*num_servers=*/1),
                           AsetsStarOptions{});
}

std::string MatrixName(
    const ::testing::TestParamInfo<MatrixParam>& info) {
  const auto& [topology_index, faulty, seed] = info.param;
  return std::string(kTopologies[topology_index].label) +
         (faulty ? "_faulty_s" : "_clean_s") + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, IncrementalMatrixTest,
    ::testing::Combine(::testing::Range<size_t>(0, 4), ::testing::Bool(),
                       ::testing::Range<uint64_t>(1, 21)),
    MatrixName);

// ---------------------------------------------------------------------------
// Head-selection rules: every rule must agree with the reference under
// the same rule (the head cache is maintained differently per rule).

using RuleParam = std::tuple<HeadSelectionRule, bool, uint64_t>;

class IncrementalHeadRuleTest : public ::testing::TestWithParam<RuleParam> {};

TEST_P(IncrementalHeadRuleTest, ScheduleByteIdenticalToReference) {
  const auto& [rule, faulty, seed] = GetParam();
  AsetsStarOptions policy_options;
  policy_options.head_rule = rule;
  const auto txns =
      MakeWorkload(kTopologies[2], seed, /*utilization=*/0.8);
  ExpectIdenticalSchedules(txns, MakeOptions(faulty, /*num_servers=*/1),
                           policy_options);
}

std::string RuleName(const ::testing::TestParamInfo<RuleParam>& info) {
  const auto& [rule, faulty, seed] = info.param;
  const char* rule_name =
      rule == HeadSelectionRule::kEarliestDeadline   ? "edf"
      : rule == HeadSelectionRule::kShortestRemaining ? "srpt"
                                                      : "fifo";
  return std::string(rule_name) + (faulty ? "_faulty_s" : "_clean_s") +
         std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    Rules, IncrementalHeadRuleTest,
    ::testing::Combine(
        ::testing::Values(HeadSelectionRule::kEarliestDeadline,
                          HeadSelectionRule::kShortestRemaining,
                          HeadSelectionRule::kFifoArrival),
        ::testing::Bool(), ::testing::Range<uint64_t>(1, 6)),
    RuleName);

// ---------------------------------------------------------------------------
// Multi-server: the incremental PickBatch round must re-derive heads
// under the growing exclusion set exactly as the reference's greedy
// PickNextExcluding chain of rescans does, at every server count.

using ServerParam = std::tuple<bool, uint64_t, size_t>;  // faulty, seed, k

class IncrementalMultiServerTest
    : public ::testing::TestWithParam<ServerParam> {};

TEST_P(IncrementalMultiServerTest, ScheduleByteIdenticalToReference) {
  const auto& [faulty, seed, num_servers] = GetParam();
  const auto txns = MakeWorkload(kTopologies[2], seed, /*utilization=*/1.6);
  ExpectIdenticalSchedules(txns, MakeOptions(faulty, num_servers),
                           AsetsStarOptions{});
}

// k = 3 names carry no suffix, so those test IDs stay stable.
std::string ServerName(const ::testing::TestParamInfo<ServerParam>& info) {
  const auto& [faulty, seed, num_servers] = info.param;
  std::string name =
      std::string(faulty ? "faulty_s" : "clean_s") + std::to_string(seed);
  if (num_servers != 3) name += "_k" + std::to_string(num_servers);
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Servers, IncrementalMultiServerTest,
    ::testing::Combine(::testing::Bool(), ::testing::Range<uint64_t>(1, 6),
                       ::testing::Values<size_t>(2, 3, 4, 8)),
    ServerName);

// huge_stream's shape at a few thousand transactions: weights 1-10,
// estimate error 0.2, workflows up to 4 long and up to 2 per
// transaction, aborts only (3 attempts, backoff 1), four servers. At
// huge_stream's utilization, 0.9, rounds often place every ready
// transaction before the fourth server (the round's early stop); 3.6
// puts the load of 0.9 on one server onto each of the four.
TEST(IncrementalMultiServerShapeTest, HugeStreamShapeMatchesReference) {
  WorkloadSpec spec;
  spec.num_transactions = 3000;
  spec.max_weight = 10;
  spec.estimate_error = 0.2;
  spec.max_workflow_length = 4;
  spec.max_workflows_per_txn = 2;
  FaultPlanConfig fault;
  fault.abort_rate = 0.01;
  SimOptions options;
  options.record_schedule = true;
  options.num_servers = 4;
  options.retry.max_attempts = 3;
  options.retry.backoff = 1.0;
  for (const double utilization : {0.9, 3.6}) {
    spec.utilization = utilization;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      fault.seed = 500 + seed;
      auto plan = FaultPlan::Create(fault);
      ASSERT_TRUE(plan.ok()) << plan.status();
      options.fault_plan = plan.ValueOrDie();
      auto generator = WorkloadGenerator::Create(spec);
      ASSERT_TRUE(generator.ok()) << generator.status();
      ExpectIdenticalSchedules(generator.ValueOrDie().Generate(seed), options,
                               AsetsStarOptions{});
    }
  }
}

// ---------------------------------------------------------------------------
// Unclamped impact rule rides the same caches; spot-check it too.

TEST(IncrementalOptionsTest, UnclampedImpactMatchesReference) {
  AsetsStarOptions policy_options;
  policy_options.impact.clamp_slack = false;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const auto txns = MakeWorkload(kTopologies[2], seed, 0.9);
    ExpectIdenticalSchedules(txns, MakeOptions(true, 1), policy_options);
  }
}

// ---------------------------------------------------------------------------
// Dirty-set batching: the deferred-flush path only differs from the
// immediate-touch reference when a single instant delivers MANY
// callbacks to one workflow before the next scheduling round — exactly
// what correlated crash instants (migration re-enqueues a batch of
// running members), abort victims plus retry re-arrivals, and admission
// deferrals produce. This regime makes those bursts dense and asserts
// the coalesced flush still reproduces the reference byte-for-byte.

TEST(DirtyBatchingTest, CrashBurstsMatchReference) {
  FaultPlanConfig config;
  config.outage_rate = 0.02;
  config.mean_outage_duration = 3.0;
  config.abort_rate = 0.05;
  config.crash_rate = 0.03;
  config.mean_repair_duration = 5.0;
  config.correlated_crash_prob = 0.5;  // multi-server crash instants
  config.migration = MigrationPolicy::kWarm;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    config.seed = 100 + seed;
    auto plan = FaultPlan::Create(config);
    ASSERT_TRUE(plan.ok()) << plan.status();
    SimOptions options;
    options.record_schedule = true;
    options.num_servers = 4;
    options.fault_plan = plan.ValueOrDie();
    options.retry.max_attempts = 4;
    options.retry.backoff = 0.5;
    const auto txns =
        MakeWorkload(kTopologies[3], seed, /*utilization=*/1.8);
    ExpectIdenticalSchedules(txns, options, AsetsStarOptions{});
  }
}

}  // namespace
}  // namespace webtx
