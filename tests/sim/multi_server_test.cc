#include <gtest/gtest.h>

#include "sched/policies/asets.h"
#include "sched/policies/asets_star.h"
#include "sched/policies/single_queue_policies.h"
#include "sched/policy_factory.h"
#include "sim/schedule_validator.h"
#include "sim/simulator.h"
#include "testing/fake_view.h"
#include "workload/generator.h"

namespace webtx {
namespace {

using testing::Txn;

RunResult RunServers(std::vector<TransactionSpec> txns,
                     SchedulerPolicy& policy, size_t servers,
                     SimTime switch_cost = 0.0) {
  SimOptions options;
  options.num_servers = servers;
  options.context_switch_cost = switch_cost;
  auto sim = Simulator::Create(std::move(txns), options);
  EXPECT_TRUE(sim.ok()) << sim.status();
  return sim.ValueOrDie().Run(policy);
}

TEST(MultiServerTest, TwoIndependentTransactionsRunInParallel) {
  FcfsPolicy policy;
  const RunResult r =
      RunServers({Txn(0, 0, 5, 100), Txn(1, 0, 7, 100)}, policy, 2);
  EXPECT_EQ(r.outcomes[0].finish, 5.0);
  EXPECT_EQ(r.outcomes[1].finish, 7.0);
  EXPECT_EQ(r.makespan, 7.0);
}

TEST(MultiServerTest, MoreServersNeverHurtMakespanForFcfs) {
  WorkloadSpec spec;
  spec.num_transactions = 200;
  spec.utilization = 2.0;  // overloaded for one server
  auto generator = WorkloadGenerator::Create(spec);
  ASSERT_TRUE(generator.ok());
  const auto txns = generator.ValueOrDie().Generate(3);
  FcfsPolicy policy;
  double prev = RunServers(txns, policy, 1).makespan;
  for (const size_t servers : {2u, 4u}) {
    const double makespan = RunServers(txns, policy, servers).makespan;
    EXPECT_LE(makespan, prev + 1e-9) << servers;
    prev = makespan;
  }
}

TEST(MultiServerTest, ChainCannotParallelize) {
  // A pure chain is inherently serial: extra servers change nothing.
  FcfsPolicy policy;
  const std::vector<TransactionSpec> chain = {
      Txn(0, 0, 3, 100), Txn(1, 0, 4, 100, 1.0, {0}),
      Txn(2, 0, 5, 100, 1.0, {1})};
  const RunResult one = RunServers(chain, policy, 1);
  const RunResult four = RunServers(chain, policy, 4);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(one.outcomes[i].finish, four.outcomes[i].finish);
  }
  EXPECT_EQ(four.makespan, 12.0);
}

TEST(MultiServerTest, MakespanBoundedByWorkOverServers) {
  // Batch release: makespan in [total/k, total] for any busy policy.
  std::vector<TransactionSpec> txns;
  double total = 0.0;
  for (TxnId i = 0; i < 24; ++i) {
    const double len = 1.0 + (i * 5) % 7;
    txns.push_back(Txn(i, 0.0, len, 50.0));
    total += len;
  }
  for (const char* name : {"FCFS", "EDF", "SRPT", "HDF", "ASETS", "ASETS*"}) {
    auto policy = CreatePolicy(name);
    ASSERT_TRUE(policy.ok());
    for (const size_t servers : {2u, 3u, 8u}) {
      const RunResult r =
          RunServers(txns, *policy.ValueOrDie(), servers);
      EXPECT_GE(r.makespan, total / static_cast<double>(servers) - 1e-9)
          << name << " k=" << servers;
      EXPECT_LE(r.makespan, total + 1e-9) << name << " k=" << servers;
    }
  }
}

TEST(MultiServerTest, SrptParallelBatchIsWorkConservingAndFaster) {
  std::vector<TransactionSpec> txns;
  for (TxnId i = 0; i < 10; ++i) {
    txns.push_back(Txn(i, 0.0, 4.0, 8.0));
  }
  SrptPolicy policy;
  const RunResult two = RunServers(txns, policy, 2);
  // 10 jobs of length 4 on 2 servers: waves at 4, 8, ..., 20.
  EXPECT_EQ(two.makespan, 20.0);
  const RunResult one = RunServers(txns, policy, 1);
  EXPECT_EQ(one.makespan, 40.0);
  EXPECT_LT(two.avg_tardiness, one.avg_tardiness);
}

TEST(MultiServerTest, AsetsStarRunsTwoHeadsOfSameWorkflowConcurrently) {
  // Diamond: T0 and T1 are both ready members of the workflow rooted at
  // T2; with two servers both should run at once.
  AsetsStarPolicy policy;
  const RunResult r = RunServers(
      {Txn(0, 0, 6, 20), Txn(1, 0, 6, 20), Txn(2, 0, 2, 10, 1.0, {0, 1})},
      policy, 2);
  EXPECT_EQ(r.outcomes[0].finish, 6.0);
  EXPECT_EQ(r.outcomes[1].finish, 6.0);
  EXPECT_EQ(r.outcomes[2].finish, 8.0);
}

TEST(MultiServerTest, ArrivalPreemptsOnlyOneServer) {
  SrptPolicy policy;
  // Two long jobs running; a short one arrives and preempts exactly one.
  const RunResult r = RunServers(
      {Txn(0, 0, 10, 100), Txn(1, 0, 12, 100), Txn(2, 2, 1, 100)}, policy,
      2);
  EXPECT_EQ(r.outcomes[2].finish, 3.0);
  EXPECT_EQ(r.num_preemptions, 1u);
  // T0 runs untouched [0,10]; T1 runs [0,2], yields to T2 [2,3], resumes
  // [3,13].
  EXPECT_EQ(r.outcomes[0].finish, 10.0);
  EXPECT_EQ(r.outcomes[1].finish, 13.0);
  EXPECT_EQ(r.makespan, 13.0);
}

TEST(MultiServerTest, ContinuingTransactionsStayOnTheirServers) {
  // With zero switch cost this is invisible; with a cost, a continuing
  // transaction must not be charged.
  FcfsPolicy policy;
  const RunResult r = RunServers(
      {Txn(0, 0, 10, 100), Txn(1, 2, 3, 100)}, policy, 2, /*cost=*/0.5);
  // T0 dispatched at 0.5 (cold), runs to 10.5 without re-charges even
  // though T1's arrival and completion are scheduling points.
  EXPECT_EQ(r.outcomes[0].finish, 10.5);
  EXPECT_EQ(r.outcomes[1].finish, 5.5);  // dispatched at 2 + 0.5
}

TEST(MultiServerTest, AllPoliciesHandleFourServers) {
  WorkloadSpec spec;
  spec.num_transactions = 200;
  spec.utilization = 3.0;
  spec.max_weight = 10;
  spec.max_workflow_length = 4;
  auto generator = WorkloadGenerator::Create(spec);
  ASSERT_TRUE(generator.ok());
  const auto txns = generator.ValueOrDie().Generate(9);
  for (const char* name :
       {"FCFS", "EDF", "SRPT", "LS", "HDF", "HVF", "MIX", "ASETS", "Ready",
        "ASETS*", "ASETS*-BA(time=0.01)"}) {
    auto policy = CreatePolicy(name);
    ASSERT_TRUE(policy.ok());
    const RunResult r = RunServers(txns, *policy.ValueOrDie(), 4);
    // Everything finishes, feasibly.
    for (size_t i = 0; i < txns.size(); ++i) {
      EXPECT_GE(r.outcomes[i].finish,
                txns[i].arrival + txns[i].length - 1e-6)
          << name;
      for (const TxnId dep : txns[i].dependencies) {
        EXPECT_GE(r.outcomes[i].finish,
                  r.outcomes[dep].finish + txns[i].length - 1e-6)
            << name;
      }
    }
  }
}

TEST(MultiServerTest, SingleServerOptionMatchesDefault) {
  WorkloadSpec spec;
  spec.num_transactions = 150;
  spec.utilization = 0.8;
  auto generator = WorkloadGenerator::Create(spec);
  ASSERT_TRUE(generator.ok());
  const auto txns = generator.ValueOrDie().Generate(5);
  AsetsPolicy policy;
  auto sim_default = Simulator::Create(txns);
  ASSERT_TRUE(sim_default.ok());
  const RunResult a = sim_default.ValueOrDie().Run(policy);
  const RunResult b = RunServers(txns, policy, 1);
  for (size_t i = 0; i < txns.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].finish, b.outcomes[i].finish);
  }
}

TEST(MultiServerTest, SimultaneousCompletionsFinishAtTheirInstant) {
  // T0 and T1 both complete at t=2, server 0 (T1) first. T1's
  // completion readies T2 and T3, which outrank T0; the round between
  // the two completions must not preempt T0, whose remaining work is
  // already zero, back into the ready set — its finish is t=2, not the
  // next time it would be dispatched (t=5).
  const std::vector<TransactionSpec> txns = {
      Txn(0, 0, 2, 100), Txn(1, 0, 2, 50), Txn(2, 0, 3, 6, 1.0, {1}),
      Txn(3, 0, 3, 7, 1.0, {1})};
  for (const char* name : {"EDF", "ASETS*"}) {
    auto policy = CreatePolicy(name);
    ASSERT_TRUE(policy.ok());
    SimOptions options;
    options.num_servers = 2;
    options.record_outcomes = true;
    options.record_schedule = true;
    auto sim = Simulator::Create(txns, options);
    ASSERT_TRUE(sim.ok()) << sim.status();
    const RunResult r = sim.ValueOrDie().Run(*policy.ValueOrDie());
    EXPECT_EQ(r.outcomes[0].finish, 2.0) << name;
    EXPECT_EQ(r.outcomes[1].finish, 2.0) << name;
    EXPECT_EQ(r.outcomes[2].finish, 5.0) << name;
    EXPECT_EQ(r.outcomes[3].finish, 5.0) << name;
    const Status verdict = ValidateSchedule(txns, r, 2);
    EXPECT_TRUE(verdict.ok()) << name << ": " << verdict.ToString();
  }
}

TEST(MultiServerTest, CreateRejectsServerCountsOutsideTheIdRange) {
  for (const size_t servers : {size_t{0}, size_t{1} << 32}) {
    SimOptions options;
    options.num_servers = servers;
    EXPECT_FALSE(Simulator::Create({Txn(0, 0, 1, 10)}, options).ok())
        << servers;
  }
}

}  // namespace
}  // namespace webtx
