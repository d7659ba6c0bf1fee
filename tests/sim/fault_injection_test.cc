#include "sim/fault_plan.h"

#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "sched/policies/single_queue_policies.h"
#include "sched/policy_factory.h"
#include "sim/schedule_validator.h"
#include "sim/simulator.h"
#include "testing/fake_view.h"

namespace webtx {
namespace {

using testing::Txn;

FaultPlan MakePlan(double outage_rate, double mean_duration,
                   double abort_rate, uint64_t seed = 1) {
  FaultPlanConfig config;
  config.outage_rate = outage_rate;
  config.mean_outage_duration = mean_duration;
  config.abort_rate = abort_rate;
  config.seed = seed;
  auto plan = FaultPlan::Create(config);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return plan.ValueOrDie();
}

TEST(FaultPlanTest, DefaultPlanInjectsNothing) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  FaultStream stream = plan.StreamFor(0);
  EXPECT_EQ(stream.next_transition(), kNeverTime);
  EXPECT_EQ(stream.next_abort(), kNeverTime);
}

TEST(FaultPlanTest, CreateRejectsBadConfig) {
  FaultPlanConfig outage_without_duration;
  outage_without_duration.outage_rate = 0.1;
  outage_without_duration.mean_outage_duration = 0.0;
  EXPECT_FALSE(FaultPlan::Create(outage_without_duration).ok());

  FaultPlanConfig negative_rate;
  negative_rate.abort_rate = -1.0;
  EXPECT_FALSE(FaultPlan::Create(negative_rate).ok());

  // NaN passes ordered comparisons, and an infinite rate or mean
  // duration stalls the fault timeline: each must be rejected by name.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const struct {
    const char* field;
    double FaultPlanConfig::*member;
    double value;
  } kCases[] = {
      {"outage_rate", &FaultPlanConfig::outage_rate, kNaN},
      {"outage_rate", &FaultPlanConfig::outage_rate, kInf},
      {"abort_rate", &FaultPlanConfig::abort_rate, kNaN},
      {"abort_rate", &FaultPlanConfig::abort_rate, kInf},
      {"crash_rate", &FaultPlanConfig::crash_rate, kNaN},
      {"crash_rate", &FaultPlanConfig::crash_rate, kInf},
      {"mean_outage_duration", &FaultPlanConfig::mean_outage_duration, kNaN},
      {"mean_outage_duration", &FaultPlanConfig::mean_outage_duration, kInf},
      {"mean_repair_duration", &FaultPlanConfig::mean_repair_duration, kNaN},
      {"mean_repair_duration", &FaultPlanConfig::mean_repair_duration, kInf},
      {"correlated_crash_prob", &FaultPlanConfig::correlated_crash_prob,
       kNaN},
  };
  for (const auto& c : kCases) {
    FaultPlanConfig config;  // every stream on, so each field is live
    config.outage_rate = 0.1;
    config.mean_outage_duration = 5.0;
    config.abort_rate = 0.1;
    config.crash_rate = 0.1;
    config.mean_repair_duration = 5.0;
    config.*c.member = c.value;
    const Status status = FaultPlan::Create(config).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << c.field << " = " << c.value;
    EXPECT_NE(status.message().find(c.field), std::string::npos)
        << status.message();
  }
}

TEST(FaultPlanTest, StreamsAreDeterministic) {
  const FaultPlan plan = MakePlan(0.1, 5.0, 0.2);
  FaultStream a = plan.StreamFor(0);
  FaultStream b = plan.StreamFor(0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.next_transition(), b.next_transition());
    EXPECT_EQ(a.next_abort(), b.next_abort());
    a.AdvanceTransition();
    b.AdvanceTransition();
    a.AdvanceAbort();
    b.AdvanceAbort();
  }
}

TEST(FaultPlanTest, ServersOwnIndependentStreams) {
  const FaultPlan plan = MakePlan(0.1, 5.0, 0.2);
  EXPECT_NE(plan.StreamFor(0).next_transition(),
            plan.StreamFor(1).next_transition());
  EXPECT_NE(plan.StreamFor(0).next_abort(), plan.StreamFor(1).next_abort());
}

TEST(FaultPlanTest, WithDerivedSeedReKeysTheTimeline) {
  const FaultPlan plan = MakePlan(0.1, 5.0, 0.2, /*seed=*/7);
  const FaultPlan rekeyed = plan.WithDerivedSeed(3);
  EXPECT_NE(plan.StreamFor(0).next_transition(),
            rekeyed.StreamFor(0).next_transition());
  // Re-keying is a pure function: same stream id, same timeline.
  EXPECT_EQ(plan.WithDerivedSeed(3).StreamFor(0).next_transition(),
            rekeyed.StreamFor(0).next_transition());
}

TEST(FaultPlanTest, TransitionsAlternateAndAdvance) {
  const FaultPlan plan = MakePlan(0.5, 2.0, 0.0);
  FaultStream stream = plan.StreamFor(0);
  SimTime last = 0.0;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(stream.down(), i % 2 == 1);
    EXPECT_GT(stream.next_transition(), last);
    last = stream.next_transition();
    stream.AdvanceTransition();
  }
}

// ---------------------------------------------------------------------------
// Fault injection through the simulator.

RunResult RunFaulty(std::vector<TransactionSpec> txns,
                    SchedulerPolicy& policy, SimOptions options) {
  options.record_schedule = true;
  auto sim = Simulator::Create(std::move(txns), options);
  EXPECT_TRUE(sim.ok()) << sim.status();
  return sim.ValueOrDie().Run(policy);
}

TEST(FaultInjectionTest, OutagesDelayButNeverLoseWork) {
  // Outage-heavy, abort-free: the transaction must still complete, with
  // every executed slice accounted for (validator check 5: work
  // retained across preemptions).
  SimOptions options;
  options.fault_plan = MakePlan(0.2, 3.0, 0.0);
  FcfsPolicy policy;
  const std::vector<TransactionSpec> txns = {Txn(0, 0, 20, 100)};
  const RunResult r = RunFaulty(txns, policy, options);
  EXPECT_EQ(r.outcomes[0].fate, TxnFate::kCompleted);
  EXPECT_EQ(r.goodput, 1.0);
  EXPECT_GT(r.num_outages, 0u);
  EXPECT_GT(r.total_outage_time, 0.0);
  EXPECT_GE(r.outcomes[0].finish, 20.0);
  ValidationOptions v;
  v.outages = r.outages;
  EXPECT_TRUE(ValidateSchedule(txns, r, v).ok())
      << ValidateSchedule(txns, r, v).ToString();
}

TEST(FaultInjectionTest, AbortOfLastAttemptDropsTheTransaction) {
  SimOptions options;
  options.fault_plan = MakePlan(0.0, 0.0, /*abort_rate=*/10.0);
  options.retry.max_attempts = 1;  // abort implies drop
  FcfsPolicy policy;
  const RunResult r = RunFaulty({Txn(0, 0, 5, 100)}, policy, options);
  EXPECT_EQ(r.outcomes[0].fate, TxnFate::kDroppedRetries);
  EXPECT_TRUE(r.outcomes[0].missed_deadline);
  EXPECT_EQ(r.num_dropped_retries, 1u);
  EXPECT_EQ(r.num_aborts, 1u);
  EXPECT_EQ(r.num_retries, 0u);
  EXPECT_EQ(r.goodput, 0.0);
}

TEST(FaultInjectionTest, RetriesRestartFromScratchUntilCompletion) {
  SimOptions options;
  options.fault_plan = MakePlan(0.0, 0.0, /*abort_rate=*/1.0);
  options.retry.max_attempts = 1000;
  FcfsPolicy policy;
  const std::vector<TransactionSpec> txns = {Txn(0, 0, 2, 100)};
  const RunResult r = RunFaulty(txns, policy, options);
  EXPECT_EQ(r.outcomes[0].fate, TxnFate::kCompleted);
  EXPECT_GT(r.outcomes[0].aborts, 0u);
  EXPECT_EQ(r.num_retries, static_cast<size_t>(r.outcomes[0].aborts));
  // The final attempt runs the full length: with every abort the finish
  // moves past one more lost attempt.
  EXPECT_GT(r.outcomes[0].finish, 2.0);
  ValidationOptions v;
  v.outages = r.outages;
  EXPECT_TRUE(ValidateSchedule(txns, r, v).ok())
      << ValidateSchedule(txns, r, v).ToString();
}

TEST(FaultInjectionTest, BackoffSuspendsTheVictimBetweenAttempts) {
  SimOptions options;
  options.fault_plan = MakePlan(0.0, 0.0, /*abort_rate=*/1.0);
  options.retry.max_attempts = 1000;
  options.retry.backoff = 4.0;
  // Constant backoff: with a rate-1 abort stream the simulator pays one
  // (no-op) event per time unit, so an exponentially growing delay would
  // stretch the horizon — and the event count — geometrically.
  options.retry.backoff_multiplier = 1.0;
  EdfPolicy policy;
  // A second transaction keeps the server busy while T0 waits out its
  // backoff; the policy must never pick the suspended transaction (the
  // simulator CHECKs every pick against IsReady).
  const std::vector<TransactionSpec> txns = {Txn(0, 0, 2, 50),
                                             Txn(1, 0, 30, 100)};
  const RunResult r = RunFaulty(txns, policy, options);
  EXPECT_EQ(r.outcomes[0].fate, TxnFate::kCompleted);
  // T1 (length 30 under a rate-1 abort stream) realistically burns all
  // 1000 attempts; either terminal state is fine — the property under
  // test is T0's suspension handling.
  EXPECT_NE(r.outcomes[1].fate, TxnFate::kShedAdmission);
  ASSERT_GT(r.outcomes[0].aborts, 0u);
  // First abort at t0, release at t0 + 4: the finish reflects at least
  // the first backoff on top of lost work.
  EXPECT_GT(r.outcomes[0].finish, 2.0 + 4.0);
}

TEST(FaultInjectionTest, OutageWindowsArePolicyIndependent) {
  SimOptions options;
  options.fault_plan = MakePlan(0.05, 4.0, 0.1);
  auto sim = Simulator::Create(
      {Txn(0, 0, 8, 30), Txn(1, 1, 5, 20), Txn(2, 2, 12, 60),
       Txn(3, 4, 3, 15), Txn(4, 6, 7, 40)},
      options);
  ASSERT_TRUE(sim.ok());
  FcfsPolicy fcfs;
  EdfPolicy edf;
  const RunResult a = sim.ValueOrDie().Run(fcfs);
  const RunResult b = sim.ValueOrDie().Run(edf);
  ASSERT_EQ(a.outages.size(), b.outages.size());
  for (size_t i = 0; i < a.outages.size(); ++i) {
    EXPECT_EQ(a.outages[i].server, b.outages[i].server);
    EXPECT_EQ(a.outages[i].start, b.outages[i].start);
    EXPECT_EQ(a.outages[i].end, b.outages[i].end);
  }
}

TEST(FaultInjectionTest, RerunReplaysTheIdenticalTimeline) {
  SimOptions options;
  options.fault_plan = MakePlan(0.05, 4.0, 0.2);
  options.retry.max_attempts = 5;
  auto sim = Simulator::Create(
      {Txn(0, 0, 8, 30), Txn(1, 1, 5, 20), Txn(2, 2, 12, 60)}, options);
  ASSERT_TRUE(sim.ok());
  EdfPolicy policy;
  const RunResult a = sim.ValueOrDie().Run(policy);
  const RunResult b = sim.ValueOrDie().Run(policy);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].finish, b.outcomes[i].finish);
    EXPECT_EQ(a.outcomes[i].fate, b.outcomes[i].fate);
    EXPECT_EQ(a.outcomes[i].aborts, b.outcomes[i].aborts);
  }
  EXPECT_EQ(a.num_aborts, b.num_aborts);
  EXPECT_EQ(a.num_outages, b.num_outages);
}

TEST(FaultInjectionTest, DropCascadesToDependents) {
  SimOptions options;
  options.fault_plan = MakePlan(0.0, 0.0, /*abort_rate=*/10.0);
  options.retry.max_attempts = 1;
  EdfPolicy policy;
  // T0 is certain to abort under rate 10; T1 depends on it and T2 on T1.
  const RunResult r =
      RunFaulty({Txn(0, 0, 5, 100), Txn(1, 0, 2, 100, 1.0, {0}),
                 Txn(2, 0, 2, 100, 1.0, {1})},
                policy, options);
  EXPECT_EQ(r.outcomes[0].fate, TxnFate::kDroppedRetries);
  EXPECT_EQ(r.outcomes[1].fate, TxnFate::kDroppedDependency);
  EXPECT_EQ(r.outcomes[2].fate, TxnFate::kDroppedDependency);
  EXPECT_EQ(r.num_dropped_dependency, 2u);
  // All three resolve at the abort instant.
  EXPECT_EQ(r.outcomes[1].finish, r.outcomes[0].finish);
  EXPECT_EQ(r.outcomes[2].finish, r.outcomes[0].finish);
}

TEST(FaultInjectionTest, AllPoliciesSurviveFaultsAndValidate) {
  std::vector<TransactionSpec> txns;
  for (TxnId i = 0; i < 40; ++i) {
    txns.push_back(Txn(i, 0.7 * static_cast<double>(i),
                       1.0 + static_cast<double>(i % 7),
                       10.0 + 2.0 * static_cast<double>(i),
                       1.0 + static_cast<double>(i % 3)));
  }
  // Chain a few workflows so drop cascades and ASETS* representatives
  // are exercised.
  txns[5].dependencies = {2};
  txns[9].dependencies = {5};
  txns[17].dependencies = {11};
  txns[30].dependencies = {17, 21};
  SimOptions options;
  options.fault_plan = MakePlan(0.03, 4.0, 0.05);
  options.retry.max_attempts = 3;
  options.retry.backoff = 1.0;
  for (const char* name : {"FCFS", "EDF", "SRPT", "HDF", "ASETS", "ASETS*"}) {
    for (const size_t servers : {1u, 2u, 3u}) {
      SimOptions run_options = options;
      run_options.num_servers = servers;
      auto policy = CreatePolicy(name);
      ASSERT_TRUE(policy.ok());
      const RunResult r = RunFaulty(txns, *policy.ValueOrDie(), run_options);
      ValidationOptions v;
      v.num_servers = servers;
      v.outages = r.outages;
      EXPECT_TRUE(ValidateSchedule(txns, r, v).ok())
          << name << " k=" << servers << ": "
          << ValidateSchedule(txns, r, v).ToString();
      EXPECT_EQ(r.num_completed + r.num_shed + r.num_dropped_retries +
                    r.num_dropped_dependency,
                txns.size())
          << name << " k=" << servers;
    }
  }
}

}  // namespace
}  // namespace webtx
